//! Self-contained campaign descriptions.
//!
//! A [`CampaignSpec`] is everything a worker needs to reproduce the
//! coordinator's experiment bit-for-bit: a named experiment preset plus
//! the scale knobs that matter ([`SetupSpec`]), and a declarative
//! N-axis [`ScenarioSpec`] — the attack family, the typed axes, the
//! seeds, and (for VDD components) the transfer table. Workers never
//! receive closures or tables by reference — the spec crosses the wire
//! whole, and its [`digest`](CampaignSpec::digest) binds checkpoint
//! journals to the exact campaign they were written for.
//!
//! The catalog ([`named_campaign`]) is nothing but **named presets that
//! expand to specs**; `repro submit` can enqueue arbitrary grids the
//! catalog never heard of, in the same [`ScenarioSpec`] grammar
//! (`attack = …` / `axis rel_change = …` lines), via
//! [`parse_campaign_text`].
//!
//! Per-node execution details (worker threads, batch sizes) are
//! deliberately *not* part of the spec: cell values are pure functions
//! of `(setup, job)`, so scheduling never shows up in the results.

use neurofi_core::attacks::ExperimentSetup;
use neurofi_core::scenario::{
    parse_spec_line, spec_lines, ScenarioSpec, SpecLine, FIG8_FRACTIONS, FIG8_REL_CHANGES,
};
use neurofi_core::sweep::{scenario_sweep_cached, SweepPlan, SweepResult};
use neurofi_core::{BaselineCache, Error, Parallelism, PowerTransferTable, TargetLayer};

use neurofi_core::sweep::CellAttack;

use crate::wire::{encode_attack_digest, encode_campaign_spec, encode_setup_spec, Encoder};
use crate::DistError;

/// Hard cap on a setup's `n_train + n_test`: MNIST's full 60,000 +
/// 10,000 split, the largest image set the paper's protocol draws from
/// (the `paper` preset uses 1,000 + 250).
const MAX_SETUP_IMAGES: usize = 70_000;
/// Hard cap on a setup's per-sample exposure, milliseconds: 40× the
/// `paper` preset's 250 ms.
const MAX_SAMPLE_TIME_MS: f64 = 10_000.0;

/// The experiment preset a [`SetupSpec`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupBase {
    /// [`ExperimentSetup::quick`] — the reduced protocol.
    Quick,
    /// [`ExperimentSetup::paper`] — the paper's full protocol.
    Paper,
}

/// A serializable experiment description: preset plus the scale knobs
/// campaigns actually vary. [`materialize`](SetupSpec::materialize)
/// turns it back into an [`ExperimentSetup`] on any machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupSpec {
    /// Base preset.
    pub base: SetupBase,
    /// Experiment seed (the per-cell seeds come from the sweep).
    pub seed: u64,
    /// Training-set size.
    pub n_train: usize,
    /// Held-out evaluation-set size.
    pub n_test: usize,
    /// Per-sample exposure, milliseconds.
    pub sample_time_ms: f64,
    /// Assignment window override.
    pub assignment_window: Option<usize>,
}

impl SetupSpec {
    fn capture(base: SetupBase, setup: &ExperimentSetup, seed: u64) -> SetupSpec {
        SetupSpec {
            base,
            seed,
            n_train: setup.n_train,
            n_test: setup.n_test,
            sample_time_ms: setup.network.sample_time_ms,
            assignment_window: setup.train_options.assignment_window,
        }
    }

    /// Captures [`ExperimentSetup::quick`] at `seed`.
    pub fn quick(seed: u64) -> SetupSpec {
        SetupSpec::capture(SetupBase::Quick, &ExperimentSetup::quick(seed), seed)
    }

    /// Captures [`ExperimentSetup::paper`] at `seed`.
    pub fn paper(seed: u64) -> SetupSpec {
        SetupSpec::capture(SetupBase::Paper, &ExperimentSetup::paper(seed), seed)
    }

    /// The quick preset with abbreviated training, so a full grid
    /// finishes in seconds per core: the scale of the CI catalog grids
    /// and of spec files that name no setup.
    pub fn bench(seed: u64) -> SetupSpec {
        SetupSpec {
            n_train: 40,
            n_test: 20,
            sample_time_ms: 40.0,
            assignment_window: None,
            ..SetupSpec::quick(seed)
        }
    }

    /// Looks up a setup scale by its spec-file/CLI name (`bench`,
    /// `quick`, `paper`).
    pub fn named(name: &str, seed: u64) -> Option<SetupSpec> {
        match name {
            "bench" => Some(SetupSpec::bench(seed)),
            "quick" => Some(SetupSpec::quick(seed)),
            "paper" => Some(SetupSpec::paper(seed)),
            _ => None,
        }
    }

    /// Rejects setups no worker can run: an empty training or test set,
    /// an image count that overflows or exceeds 70,000 (MNIST's full
    /// split), or a per-sample exposure that is not finite, positive and
    /// at most 10,000 ms. Every preset passes.
    ///
    /// # Errors
    /// Returns [`Error::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), Error> {
        let (n_train, n_test) = (self.n_train, self.n_test);
        if n_train == 0 || n_test == 0 {
            return Err(Error::Invalid(format!(
                "setup needs n_train >= 1 and n_test >= 1, got n_train = {n_train}, \
                 n_test = {n_test}"
            )));
        }
        if n_train
            .checked_add(n_test)
            .is_none_or(|total| total > MAX_SETUP_IMAGES)
        {
            return Err(Error::Invalid(format!(
                "setup n_train + n_test = {n_train} + {n_test} exceeds the \
                 {MAX_SETUP_IMAGES}-image cap"
            )));
        }
        let ms = self.sample_time_ms;
        if !(ms > 0.0 && ms <= MAX_SAMPLE_TIME_MS) {
            return Err(Error::Invalid(format!(
                "setup sample_time_ms must be finite and in (0, {MAX_SAMPLE_TIME_MS}], got {ms}"
            )));
        }
        Ok(())
    }

    /// Reconstructs the [`ExperimentSetup`] this spec describes.
    /// Parallelism is left at the default; every node picks its own.
    pub fn materialize(&self) -> ExperimentSetup {
        let mut setup = match self.base {
            SetupBase::Quick => ExperimentSetup::quick(self.seed),
            SetupBase::Paper => ExperimentSetup::paper(self.seed),
        };
        setup.n_train = self.n_train;
        setup.n_test = self.n_test;
        setup.network.sample_time_ms = self.sample_time_ms;
        setup.train_options.assignment_window = self.assignment_window;
        setup
    }
}

/// A complete, wire-serializable sweep campaign: the experiment plus
/// the declarative scenario it sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The experiment every cell trains and evaluates.
    pub setup: SetupSpec,
    /// The N-axis scenario to shard (attack family, axes, seeds,
    /// transfer table).
    pub scenario: ScenarioSpec,
}

/// One entry in a coordinator's campaign queue: a spec plus the name it
/// is scheduled, journaled, and reported under. Names must be unique
/// within one coordinator (per-campaign journal paths are derived from
/// them).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedCampaign {
    /// Queue-unique human-readable name (usually the grid name).
    pub name: String,
    /// Scheduling weight under the weighted-round-robin policy: a
    /// campaign with weight `w` is served `w` consecutive batches per
    /// rotation. Ignored by FIFO scheduling and by workers (cell values
    /// are scheduling-independent); not part of the campaign digest.
    pub weight: u32,
    /// The campaign itself.
    pub spec: CampaignSpec,
}

impl NamedCampaign {
    /// Names a campaign for queueing at the default weight 1.
    pub fn new(name: impl Into<String>, spec: CampaignSpec) -> NamedCampaign {
        NamedCampaign {
            name: name.into(),
            weight: 1,
            spec,
        }
    }

    /// Sets the weighted-round-robin scheduling weight (0 is treated as
    /// 1 by the scheduler).
    pub fn with_weight(mut self, weight: u32) -> NamedCampaign {
        self.weight = weight;
        self
    }

    /// The check every queued campaign's name passes, bind-time or
    /// submitted, before it names a file: the journal `<base>.<name>`
    /// and the CSV `distributed_sweep.<name>.csv`. A name must fit the
    /// wire cap, be non-empty, and hold no `/`, `\` or control character,
    /// so it can never reach outside those files' directory.
    pub(crate) fn check_name(&self) -> Result<(), String> {
        let name = &self.name;
        if name.len() > crate::wire::MAX_NAME_LEN {
            return Err(format!(
                "campaign name of {} bytes exceeds the {}-byte wire cap",
                name.len(),
                crate::wire::MAX_NAME_LEN
            ));
        }
        if name.is_empty() || name.contains(['/', '\\']) || name.contains(char::is_control) {
            return Err(format!(
                "campaign name `{}` refused: it becomes part of journal and CSV \
                 file names, so it must be non-empty and contain no `/`, `\\` or \
                 control character",
                name.escape_debug()
            ));
        }
        Ok(())
    }
}

impl CampaignSpec {
    /// Rejects specs that cannot run: a setup no worker can train (see
    /// [`SetupSpec::validate`]), or a scenario with empty or duplicate
    /// axes, missing primary axes, out-of-range values, missing seeds,
    /// an unusable VDD transfer table, or hostile sizes (see
    /// [`ScenarioSpec::validate`]).
    ///
    /// # Errors
    /// Returns [`Error::Invalid`] with the reason.
    pub fn validate(&self) -> Result<(), Error> {
        self.setup.validate()?;
        self.scenario.validate()
    }

    /// Reconstructs the experiment setup (see [`SetupSpec::materialize`]).
    pub fn materialize(&self) -> ExperimentSetup {
        self.setup.materialize()
    }

    /// Stage-1 enumeration of every cell in the campaign through the
    /// generic scenario planner.
    pub fn plan(&self) -> SweepPlan {
        self.scenario.plan()
    }

    /// The transfer table VDD components execute against (`None` when
    /// the scenario has no `vdd` axis).
    ///
    /// # Errors
    /// Returns [`Error::Invalid`] for missing or unusable tables.
    pub fn transfer_table(&self) -> Result<Option<PowerTransferTable>, Error> {
        self.scenario.transfer_table()
    }

    /// FNV-1a digest over the canonical encoding — the identity that
    /// binds checkpoint journals and worker handshakes to one campaign.
    pub fn digest(&self) -> u64 {
        let mut enc = Encoder::new();
        encode_campaign_spec(&mut enc, self);
        fnv1a(&enc.finish())
    }

    /// Content digest of one resolved cell — the cross-campaign result
    /// store's cache key. It hashes exactly what the cell's measured
    /// value depends on, and nothing it doesn't:
    ///
    /// * the resolved [`SetupSpec`] (experiment preset + scale knobs);
    /// * the resolved composite [`CellAttack`] (the fault plan,
    ///   including any per-cell seed override);
    /// * the campaign's baseline seeds (they set both the per-cell mean
    ///   and the baseline accuracy that `relative_change_percent` is
    ///   computed against);
    /// * the transfer table, but only when the cell has a VDD component
    ///   (threshold/theta cells never read it, so two campaigns
    ///   differing only in table share their non-VDD cells);
    /// * the defense/detector components, but only when the cell
    ///   carries one ([`encode_attack_digest`] appends the suffix
    ///   conditionally, so every pre-v6 cell keeps its exact key and
    ///   existing stores keep deduping).
    ///
    /// Campaign *name*, scheduling weight, axis ordering, and grid shape
    /// are deliberately absent: overlapping grids from different
    /// submitters hash their shared cells identically. The encoding is
    /// pinned by the golden digest vectors — any drift here silently
    /// repoints cache keys, which the golden test turns into a loud
    /// failure.
    pub fn cell_digest(&self, attack: &CellAttack) -> u64 {
        let mut enc = Encoder::new();
        enc.u8(1); // domain tag: cell (vs baseline)
        encode_setup_spec(&mut enc, &self.setup);
        encode_attack_digest(&mut enc, attack);
        let seeds = self.scenario.baseline_seeds();
        enc.seq_len(seeds.len());
        for &seed in seeds {
            enc.u64(seed);
        }
        match (&self.scenario.transfer, attack.vdd) {
            (Some(transfer), Some(_)) => {
                enc.u8(1);
                enc.seq_len(transfer.len());
                for point in transfer {
                    enc.f64(point.vdd);
                    enc.f64(point.drive_scale);
                    enc.f64(point.ah_threshold_scale);
                    enc.f64(point.if_threshold_scale);
                }
            }
            _ => enc.u8(0),
        }
        fnv1a(&enc.finish())
    }

    /// Content digest of the campaign's fault-free baseline accuracy —
    /// the store key for the mean baseline shared by every cell of the
    /// grid. Depends only on the resolved setup and the baseline seeds
    /// (never on attacks or the transfer table).
    pub fn baseline_digest(&self) -> u64 {
        let mut enc = Encoder::new();
        enc.u8(0); // domain tag: baseline (vs cell)
        encode_setup_spec(&mut enc, &self.setup);
        let seeds = self.scenario.baseline_seeds();
        enc.seq_len(seeds.len());
        for &seed in seeds {
            enc.u64(seed);
        }
        fnv1a(&enc.finish())
    }

    /// Runs the whole campaign serially in this process — the reference
    /// a distributed merge must match bit-for-bit.
    ///
    /// # Errors
    /// Propagates validation and attack failures.
    pub fn run_serial(&self) -> Result<SweepResult, Error> {
        let setup = self.materialize().with_parallelism(Parallelism::Serial);
        scenario_sweep_cached(&BaselineCache::new(&setup), &self.scenario)
    }
}

/// FNV-1a over canonical wire bytes — the one hash every digest in the
/// control plane (campaign identity, cell keys, baseline keys) uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// What [`parse_campaign_text`] extracts from a campaign spec file: the
/// optional queue name and weight, plus the campaign itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCampaign {
    /// The `name = …` line, when present (callers pick their own
    /// default otherwise).
    pub name: Option<String>,
    /// The `weight = …` line (default 1).
    pub weight: u32,
    /// The campaign: `setup` / `setup-seed` lines plus the scenario
    /// grammar.
    pub spec: CampaignSpec,
}

impl ParsedCampaign {
    /// Converts into a queue entry, naming it `fallback` when the file
    /// had no `name` line.
    pub fn into_named(self, fallback: &str) -> NamedCampaign {
        let weight = self.weight;
        NamedCampaign::new(self.name.unwrap_or_else(|| fallback.to_string()), self.spec)
            .with_weight(weight)
    }
}

/// Parses a campaign spec file: the [`ScenarioSpec`] grammar plus the
/// campaign-level keys `name = …`, `weight = …`, `setup = bench|quick|paper`
/// (default `bench`), and `setup-seed = N` (default 42).
///
/// ```text
/// name = cross
/// setup = bench
/// attack = threshold-inhibitory
/// axis rel_change = -0.2, 0.2
/// axis vdd = 0.9, 1
/// seeds = 42
/// transfer = paper
/// ```
///
/// # Errors
/// Rejects malformed lines, unknown keys, and invalid scenarios (the
/// returned spec is validated).
pub fn parse_campaign_text(text: &str) -> Result<ParsedCampaign, DistError> {
    let mut name: Option<String> = None;
    let mut weight: u32 = 1;
    let mut weight_given = false;
    let mut base: Option<String> = None;
    let mut setup_seed: u64 = 42;
    let mut setup_seed_given = false;
    let mut scenario_lines: Vec<&str> = Vec::new();
    for line in spec_lines(text).map_err(DistError::Core)? {
        match parse_spec_line(line).map_err(DistError::Core)? {
            SpecLine::Other(key, value) => match key {
                "name" => {
                    if name.replace(value.to_string()).is_some() {
                        return Err(DistError::Protocol("duplicate `name` line".into()));
                    }
                }
                "weight" => {
                    if weight_given {
                        return Err(DistError::Protocol("duplicate `weight` line".into()));
                    }
                    weight_given = true;
                    weight = value
                        .parse::<u32>()
                        .map_err(|_| DistError::Protocol(format!("`{value}` is not a weight")))?;
                    if weight == 0 {
                        return Err(DistError::Protocol("weight must be >= 1".into()));
                    }
                }
                "setup" => {
                    if base.replace(value.to_string()).is_some() {
                        return Err(DistError::Protocol("duplicate `setup` line".into()));
                    }
                }
                "setup-seed" => {
                    if setup_seed_given {
                        return Err(DistError::Protocol("duplicate `setup-seed` line".into()));
                    }
                    setup_seed_given = true;
                    setup_seed = value
                        .parse::<u64>()
                        .map_err(|_| DistError::Protocol(format!("`{value}` is not a seed")))?;
                }
                other => {
                    return Err(DistError::Protocol(format!(
                        "unknown key `{other}` (keys: name, weight, setup, setup-seed, \
                         attack, axis NAME, seeds, transfer)"
                    )))
                }
            },
            _ => scenario_lines.push(line),
        }
    }
    let base = base.unwrap_or_else(|| "bench".into());
    let Some(setup) = SetupSpec::named(&base, setup_seed) else {
        return Err(DistError::Protocol(format!(
            "unknown setup `{base}` (setups: bench quick paper)"
        )));
    };
    let scenario: ScenarioSpec = scenario_lines.join("\n").parse().map_err(DistError::Core)?;
    let spec = CampaignSpec { setup, scenario };
    spec.validate().map_err(DistError::Core)?;
    Ok(ParsedCampaign { name, weight, spec })
}

/// Looks up a named campaign preset for the `repro` CLI and CI — each
/// is nothing but a [`ScenarioSpec`] with a setup scale:
///
/// * `tiny` — 2 × 3 inhibitory-threshold grid at bench scale (6 cells;
///   the CI smoke grid).
/// * `tiny-theta` — Attack 1 (theta corruption) line at bench scale;
///   paired with `tiny` in the multi-campaign CI smoke because it is a
///   *different attack kind* over the *same setup*, so queueing both
///   exercises cross-campaign baseline sharing on each worker.
/// * `fig8-reduced` — the paper's Fig. 8b grid *shape* (4 × 6) at bench
///   scale; the distributed-vs-serial acceptance grid.
/// * `fig8` — Fig. 8b at quick fidelity.
/// * `fig8-full` — Fig. 8b at the paper's full protocol.
pub fn named_campaign(name: &str) -> Option<CampaignSpec> {
    let il = Some(TargetLayer::Inhibitory);
    let fig8 = ScenarioSpec::threshold(il, &FIG8_REL_CHANGES, &FIG8_FRACTIONS, &[42]);
    match name {
        // Fractions 0.75/0.9 are where the reduced-scale IL surface has
        // visible structure; a flat surface could not catch slot
        // mix-ups in the golden comparison.
        "tiny" => Some(CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: ScenarioSpec::threshold(il, &[-0.20, 0.20], &[0.0, 0.75, 0.90], &[42]),
        }),
        // Theta changes large enough that the reduced-scale accuracy
        // line has structure (a flat line could not catch slot mix-ups
        // in the golden comparison).
        "tiny-theta" => Some(CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: ScenarioSpec::theta(&[-0.50, -0.20, 0.20, 0.50], &[42]),
        }),
        "fig8-reduced" => Some(CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: fig8,
        }),
        "fig8" => Some(CampaignSpec {
            setup: SetupSpec::quick(42),
            scenario: fig8,
        }),
        "fig8-full" => Some(CampaignSpec {
            setup: SetupSpec::paper(42),
            scenario: fig8,
        }),
        _ => None,
    }
}

/// The campaign names [`named_campaign`] accepts, for CLI help.
pub const NAMED_CAMPAIGNS: &[&str] = &["tiny", "tiny-theta", "fig8-reduced", "fig8", "fig8-full"];

#[cfg(test)]
mod tests {
    use super::*;
    use neurofi_core::scenario::{AttackFamily, Axis, AxisKind, LayerSel};
    use neurofi_core::sweep::CellAttack;

    #[test]
    fn named_campaigns_resolve_and_validate() {
        for name in NAMED_CAMPAIGNS {
            let spec = named_campaign(name).unwrap();
            spec.validate().unwrap();
            assert!(!spec.plan().jobs.is_empty(), "{name} enumerates no cells");
        }
        assert!(named_campaign("nope").is_none());
    }

    /// Golden grid expansion: each catalog preset must enumerate the
    /// exact index-addressed grid it produced before the scenario
    /// redesign (coordinates bit-for-bit, slots in the same order) —
    /// journals and published figures depend on it.
    #[test]
    fn preset_expansion_matches_the_pre_redesign_grids() {
        let coords = |name: &str| -> Vec<(u64, u64)> {
            named_campaign(name)
                .unwrap()
                .plan()
                .jobs
                .iter()
                .map(|j| {
                    let (a, b) = j.attack.coordinates();
                    (a.to_bits(), b.to_bits())
                })
                .collect()
        };
        let bits = |pairs: &[(f64, f64)]| -> Vec<(u64, u64)> {
            pairs
                .iter()
                .map(|&(a, b)| (a.to_bits(), b.to_bits()))
                .collect()
        };
        assert_eq!(
            coords("tiny"),
            bits(&[
                (-0.20, 0.0),
                (-0.20, 0.75),
                (-0.20, 0.90),
                (0.20, 0.0),
                (0.20, 0.75),
                (0.20, 0.90),
            ])
        );
        assert_eq!(
            coords("tiny-theta"),
            bits(&[(-0.50, 1.0), (-0.20, 1.0), (0.20, 1.0), (0.50, 1.0)])
        );
        // The three fig8 presets share one grid shape: the paper's
        // 4 rel-changes × 6 fractions, rel-change-major.
        let mut fig8_grid = Vec::new();
        for rel in [-0.20, -0.10, 0.10, 0.20] {
            for fraction in [0.0, 0.25, 0.50, 0.75, 0.90, 1.0] {
                fig8_grid.push((rel, fraction));
            }
        }
        for name in ["fig8-reduced", "fig8", "fig8-full"] {
            assert_eq!(coords(name), bits(&fig8_grid), "{name} grid moved");
        }
        // Every preset still averages over the paper seed and reports
        // the kinds the figures were published under.
        assert_eq!(named_campaign("tiny").unwrap().plan().seeds, vec![42]);
        assert_eq!(
            named_campaign("tiny").unwrap().scenario.family,
            AttackFamily::Threshold(LayerSel::Inhibitory)
        );
        assert_eq!(
            named_campaign("tiny-theta").unwrap().scenario.family,
            AttackFamily::Theta
        );
    }

    #[test]
    fn materialized_setup_round_trips_scale_knobs() {
        let spec = SetupSpec::bench(7);
        let setup = spec.materialize();
        assert_eq!(setup.n_train, 40);
        assert_eq!(setup.n_test, 20);
        assert_eq!(setup.network.sample_time_ms, 40.0);
        assert_eq!(setup.train_options.assignment_window, None);
        assert_eq!(setup.network_seed, 7);
        // Re-capturing the materialised setup is the identity.
        let recaptured = SetupSpec::capture(SetupBase::Quick, &setup, 7);
        assert_eq!(recaptured, spec);
        // Named lookup covers every scale.
        for name in ["bench", "quick", "paper"] {
            assert!(SetupSpec::named(name, 1).is_some());
        }
        assert!(SetupSpec::named("huge", 1).is_none());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = named_campaign("tiny").unwrap();
        let b = named_campaign("tiny").unwrap();
        assert_eq!(a.digest(), b.digest());
        let mut c = named_campaign("tiny").unwrap();
        c.scenario.seeds = vec![43];
        assert_ne!(a.digest(), c.digest());
        let mut d = named_campaign("tiny").unwrap();
        d.setup.n_train += 1;
        assert_ne!(a.digest(), d.digest());
        let mut e = named_campaign("tiny").unwrap();
        e.scenario.axes.push(Axis::seeds(vec![1]));
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn cell_digests_key_content_not_campaign() {
        let a = named_campaign("tiny").unwrap();
        // A wider grid (extra fraction value) is a *different campaign*
        // but still shares tiny's cells — the store must hit on them.
        let mut b = named_campaign("tiny").unwrap();
        b.scenario.axes[1] = Axis::real(AxisKind::Fraction, vec![0.0, 0.5, 0.75, 0.90]);
        b.validate().unwrap();
        assert_ne!(a.digest(), b.digest());
        for job in a.plan().jobs {
            assert_eq!(a.cell_digest(&job.attack), b.cell_digest(&job.attack));
        }
        assert_eq!(a.baseline_digest(), b.baseline_digest());

        // Anything the measured value depends on repoints the key.
        let attack = a.plan().jobs[3].attack;
        let mut c = named_campaign("tiny").unwrap();
        c.setup.n_train += 1;
        assert_ne!(a.cell_digest(&attack), c.cell_digest(&attack));
        assert_ne!(a.baseline_digest(), c.baseline_digest());
        let mut d = named_campaign("tiny").unwrap();
        d.scenario.seeds = vec![43];
        assert_ne!(a.cell_digest(&attack), d.cell_digest(&attack));
        assert_ne!(a.baseline_digest(), d.baseline_digest());
        let mut other = attack;
        other.fraction = 0.5;
        assert_ne!(a.cell_digest(&attack), a.cell_digest(&other));
        // Cell and baseline keyspaces never collide on equal inputs.
        assert_ne!(a.cell_digest(&attack), a.baseline_digest());
    }

    #[test]
    fn transfer_table_keys_only_vdd_cells() {
        let table = PowerTransferTable::paper_nominal();
        let a = CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: neurofi_core::ScenarioSpec::vdd(&[0.8, 1.0], &table, &[42]),
        };
        let mut b = a.clone();
        b.scenario.transfer.as_mut().unwrap()[0].drive_scale *= 1.01;
        let vdd_attack = a.plan().jobs[0].attack;
        assert_ne!(
            a.cell_digest(&vdd_attack),
            b.cell_digest(&vdd_attack),
            "vdd cells execute against the table, so its bits are key material"
        );
        let threshold_attack = CellAttack::threshold(None, -0.2, 0.75);
        assert_eq!(
            a.cell_digest(&threshold_attack),
            b.cell_digest(&threshold_attack),
            "non-vdd cells never read the table, so they share across tables"
        );
    }

    #[test]
    fn countermeasures_key_only_armed_cells() {
        use neurofi_core::scenario::{DefenseSel, DetectorSel};

        let table = PowerTransferTable::paper_nominal();
        let spec = CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: neurofi_core::ScenarioSpec::vdd(&[0.8, 1.0], &table, &[42]),
        };
        let legacy = spec.plan().jobs[0].attack;
        // The explicit none/none components are the legacy default: the
        // digest must be bit-identical so old stores keep deduping.
        assert_eq!(legacy.defense, DefenseSel::None);
        assert_eq!(legacy.detector, DetectorSel::None);
        // Arming either component repoints the key, and each
        // countermeasure gets its own keyspace.
        let defended = CellAttack {
            defense: DefenseSel::BandgapThreshold,
            ..legacy
        };
        let detected = CellAttack {
            detector: DetectorSel::DummyNeuron,
            ..legacy
        };
        let both = CellAttack {
            detector: DetectorSel::DummyNeuron,
            ..defended
        };
        let layered = CellAttack {
            neurons: Some(32),
            ..legacy
        };
        let keys = [
            spec.cell_digest(&legacy),
            spec.cell_digest(&defended),
            spec.cell_digest(&detected),
            spec.cell_digest(&both),
            spec.cell_digest(&layered),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "countermeasure combinations must not collide");
            }
        }
    }

    #[test]
    fn validation_catches_degenerate_campaigns() {
        let mut spec = named_campaign("tiny").unwrap();
        spec.scenario.axes[0] = Axis::real(AxisKind::RelChange, vec![]);
        assert!(spec.validate().is_err());

        let mut spec = named_campaign("tiny").unwrap();
        spec.scenario.seeds.clear();
        assert!(spec.validate().is_err());

        // Setups no worker can train are refused up front, naming the
        // field, instead of panicking inside every worker that takes
        // the campaign.
        let with_setup = |edit: &dyn Fn(&mut SetupSpec)| {
            let mut spec = named_campaign("tiny").unwrap();
            edit(&mut spec.setup);
            spec
        };
        let broken = [
            ("n_train", with_setup(&|s| s.n_train = usize::MAX)),
            ("n_train", with_setup(&|s| s.n_train = 0)),
            ("n_test", with_setup(&|s| s.n_test = 0)),
            (
                "sample_time_ms",
                with_setup(&|s| s.sample_time_ms = f64::NAN),
            ),
            ("sample_time_ms", with_setup(&|s| s.sample_time_ms = -5.0)),
        ];
        for (field, spec) in broken {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(field), "{:?}: {err}", spec.setup);
        }
        // Every preset fits under both caps.
        for name in ["bench", "quick", "paper"] {
            SetupSpec::named(name, 1).unwrap().validate().unwrap();
        }

        let mut spec = named_campaign("tiny").unwrap();
        spec.scenario
            .axes
            .push(Axis::real(AxisKind::Vdd, vec![0.9]));
        assert!(
            spec.validate().is_err(),
            "vdd axis without a transfer table"
        );
        assert!(spec.transfer_table().is_err());
    }

    #[test]
    fn vdd_campaign_builds_transfer_table() {
        let table = PowerTransferTable::paper_nominal();
        let spec = CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: neurofi_core::ScenarioSpec::vdd(&[0.8, 1.0], &table, &[42]),
        };
        spec.validate().unwrap();
        let built = spec.transfer_table().unwrap().unwrap();
        assert_eq!(built.points(), table.points());
        assert_eq!(spec.plan().jobs.len(), 2);
        assert_eq!(spec.plan().jobs[1].attack, CellAttack::vdd(1.0));
    }

    #[test]
    fn campaign_files_parse_and_validate() {
        let parsed = parse_campaign_text(
            "# a custom cross product the catalog never heard of\n\
             name = cross\n\
             weight = 2\n\
             setup = bench\n\
             setup-seed = 7\n\
             attack = threshold-inhibitory\n\
             axis rel_change = -0.2, 0.2\n\
             axis vdd = 0.9, 1\n\
             seeds = 42\n\
             transfer = paper\n",
        )
        .unwrap();
        assert_eq!(parsed.name.as_deref(), Some("cross"));
        assert_eq!(parsed.weight, 2);
        assert_eq!(parsed.spec.setup, SetupSpec::bench(7));
        assert_eq!(parsed.spec.plan().jobs.len(), 4);
        let named = parsed.into_named("fallback");
        assert_eq!(named.name, "cross");
        assert_eq!(named.weight, 2);

        // Defaults: bench setup, seed 42, weight 1, caller-named.
        let minimal =
            parse_campaign_text("attack = theta\naxis theta_change = -0.2, 0.2\nseeds = 1\n")
                .unwrap();
        assert_eq!(minimal.spec.setup, SetupSpec::bench(42));
        assert_eq!(minimal.into_named("fallback").name, "fallback");

        // Rejections: unknown keys, unknown setups, invalid scenarios,
        // degenerate weights.
        assert!(parse_campaign_text("bogus = 1\nattack = theta\n").is_err());
        assert!(parse_campaign_text(
            "setup = huge\nattack = theta\naxis theta_change = 0.1\nseeds = 1\n"
        )
        .is_err());
        assert!(
            parse_campaign_text("attack = theta\nseeds = 1\n").is_err(),
            "no axes"
        );
        assert!(parse_campaign_text(
            "weight = 0\nattack = theta\naxis theta_change = 0.1\nseeds = 1\n"
        )
        .is_err());
        // Duplicate campaign-level lines are rejected, never last-wins
        // (a silently overridden setup-seed would change every result).
        for duplicated in ["weight = 2", "setup-seed = 7", "name = x", "setup = bench"] {
            let text = format!(
                "{duplicated}\n{duplicated}\nattack = theta\naxis theta_change = 0.1\nseeds = 1\n"
            );
            assert!(parse_campaign_text(&text).is_err(), "{duplicated} last-won");
        }
    }
}
