//! `repro sweep` — run a declarative N-axis scenario locally — and the
//! shared spec-building flags (`--preset` / `--spec FILE` /
//! `--attack … --axis …`) that `repro submit` reuses to enqueue the
//! same scenarios on a running coordinator.
//!
//! Three equivalent ways to say *what* to sweep:
//!
//! ```text
//! repro sweep --preset tiny
//! repro sweep --spec cross.scenario
//! repro sweep --attack threshold-inhibitory \
//!     --axis "rel_change=-20%..20%/5" --axis "vdd=0.9,1.0" --seeds 42
//! ```
//!
//! All three expand to the same [`CampaignSpec`]; the engine sees one
//! planner regardless of how the scenario was written down.

use std::path::PathBuf;
use std::process::ExitCode;

use neurofi_core::scenario::{
    parse_seed_values, parse_transfer, AttackFamily, Axis, AxisKind, ScenarioSpec,
};
use neurofi_core::sweep::scenario_sweep_cached;
use neurofi_core::{BaselineCache, Parallelism};
use neurofi_dist::{
    named_campaign, parse_campaign_text, CampaignSpec, NamedCampaign, SetupSpec, NAMED_CAMPAIGNS,
};

/// The scenario-selecting flags shared by `repro sweep` and
/// `repro submit`: exactly one of a catalog preset, a spec file, or an
/// inline `--attack`/`--axis` description.
#[derive(Debug, Default)]
pub struct SpecArgs {
    /// `--preset NAME` (also `--grid NAME` for `submit` compatibility).
    pub preset: Option<String>,
    /// `--spec FILE` — a campaign file in the scenario grammar.
    pub spec_file: Option<PathBuf>,
    /// `--attack NAME` — inline form.
    pub attack: Option<String>,
    /// Repeated `--axis NAME=VALUES` lines — inline form.
    pub axes: Vec<String>,
    /// `--seeds LIST` (default `42`).
    pub seeds: Option<String>,
    /// `--setup bench|quick|paper` (default `bench`).
    pub setup: Option<String>,
    /// `--setup-seed N` (default 42).
    pub setup_seed: Option<u64>,
    /// `--transfer paper|POINTS`. Defaults to `paper` when the scenario
    /// has a `vdd` axis and no table was given (CLI convenience only —
    /// spec files and the API stay explicit).
    pub transfer: Option<String>,
}

impl SpecArgs {
    /// True when none of the selecting flags was given.
    pub fn is_empty(&self) -> bool {
        self.preset.is_none() && self.spec_file.is_none() && self.attack.is_none()
    }

    /// Tries to consume one CLI argument pair. Returns `Ok(true)` when
    /// the flag belonged to the spec grammar, `Ok(false)` when the
    /// caller should handle it.
    pub fn take_arg(
        &mut self,
        arg: &str,
        mut next: impl FnMut() -> Result<String, String>,
    ) -> Result<bool, String> {
        match arg {
            "--preset" | "--grid" => self.preset = Some(next()?),
            "--spec" => self.spec_file = Some(PathBuf::from(next()?)),
            "--attack" => self.attack = Some(next()?),
            "--axis" => self.axes.push(next()?),
            "--seeds" => self.seeds = Some(next()?),
            "--setup" => self.setup = Some(next()?),
            "--setup-seed" => {
                let v = next()?;
                self.setup_seed = Some(v.parse().map_err(|_| format!("bad setup seed `{v}`"))?);
            }
            "--transfer" => self.transfer = Some(next()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Expands the flags into a validated queue entry, named `fallback`
    /// unless the preset/spec file names it.
    ///
    /// # Errors
    /// Returns a usage-style message for conflicting or malformed
    /// flags, unknown presets, and invalid scenarios.
    pub fn build(&self, fallback: &str) -> Result<NamedCampaign, String> {
        let inline = self.attack.is_some() || !self.axes.is_empty();
        // The modifier flags only shape the inline form; silently
        // ignoring them next to a preset/spec file would hand the
        // operator a different fidelity or seed set than they asked
        // for.
        if !inline {
            let ignored = [
                (self.seeds.is_some(), "--seeds"),
                (self.setup.is_some(), "--setup"),
                (self.setup_seed.is_some(), "--setup-seed"),
                (self.transfer.is_some(), "--transfer"),
            ];
            if let Some(&(_, flag)) = ignored.iter().find(|(set, _)| *set) {
                return Err(format!(
                    "{flag} only applies to the inline --attack/--axis form; presets and \
                     spec files define their own (edit the spec file, or spell the \
                     scenario out inline)"
                ));
            }
        }
        match (&self.preset, &self.spec_file, inline) {
            (Some(_), Some(_), _) | (Some(_), _, true) | (_, Some(_), true) => Err(
                "pick one scenario source: --preset NAME, --spec FILE, or --attack/--axis".into(),
            ),
            (Some(preset), None, false) => {
                let Some(spec) = named_campaign(preset) else {
                    return Err(format!(
                        "unknown preset `{preset}` (presets: {})",
                        NAMED_CAMPAIGNS.join(" ")
                    ));
                };
                Ok(NamedCampaign::new(preset.clone(), spec))
            }
            (None, Some(path), false) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let parsed =
                    parse_campaign_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(fallback)
                    .to_string();
                Ok(parsed.into_named(&stem))
            }
            (None, None, true) => self.build_inline(fallback),
            (None, None, false) => {
                Err("no scenario given (use --preset NAME, --spec FILE, or --attack/--axis)".into())
            }
        }
    }

    fn build_inline(&self, fallback: &str) -> Result<NamedCampaign, String> {
        let Some(attack) = &self.attack else {
            return Err("--axis needs an --attack family".into());
        };
        let family = AttackFamily::parse(attack).map_err(|e| e.to_string())?;
        if self.axes.is_empty() {
            return Err("--attack needs at least one --axis NAME=VALUES".into());
        }
        let axes = self
            .axes
            .iter()
            .map(|text| Axis::parse(text).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let has_seed_axis = axes.iter().any(|a| a.kind == AxisKind::Seed);
        let seeds = match (&self.seeds, has_seed_axis) {
            (Some(text), _) => parse_seed_values(text).map_err(|e| e.to_string())?,
            (None, true) => Vec::new(),
            (None, false) => vec![42],
        };
        let has_vdd = axes.iter().any(|a| a.kind == AxisKind::Vdd);
        let transfer = match &self.transfer {
            Some(text) => Some(parse_transfer(text).map_err(|e| e.to_string())?),
            // CLI convenience: a vdd axis without an explicit table
            // gets the paper-nominal characterisation.
            None if has_vdd => Some(parse_transfer("paper").expect("paper table parses")),
            None => None,
        };
        let scenario = ScenarioSpec {
            family,
            axes,
            seeds,
            transfer,
        };
        let base = self.setup.as_deref().unwrap_or("bench");
        let seed = self.setup_seed.unwrap_or(42);
        let Some(setup) = SetupSpec::named(base, seed) else {
            return Err(format!(
                "unknown setup `{base}` (setups: bench quick paper)"
            ));
        };
        let spec = CampaignSpec { setup, scenario };
        spec.validate().map_err(|e| e.to_string())?;
        Ok(NamedCampaign::new(fallback, spec))
    }
}

/// One line describing the resolved scenario — printed by `sweep` and
/// `submit` so the operator sees exactly which grid the flags expanded
/// to.
pub fn describe_campaign(campaign: &NamedCampaign) -> String {
    let scenario = &campaign.spec.scenario;
    let axes: Vec<String> = scenario
        .axes
        .iter()
        .map(|a| format!("{}[{}]", a.kind, a.values.len()))
        .collect();
    format!(
        "campaign `{}`: attack {}, axes {} ({} cells), {} seed(s)",
        campaign.name,
        scenario.family,
        axes.join(" × "),
        scenario.n_cells(),
        scenario.baseline_seeds().len(),
    )
}

fn sweep_usage() -> String {
    format!(
        "usage: repro sweep (--preset NAME | --spec FILE | --attack FAMILY --axis \
         NAME=VALUES...) [--seeds LIST] [--setup bench|quick|paper] [--setup-seed N] \
         [--transfer paper|POINTS] [--serial] [--name NAME] [--out DIR]\n\
         presets: {}\n\
         attacks: {}\n\
         axes: {}\n\
         values: a comma list (-0.2,0.2 — reals take a % suffix), a linear range \
         (start..end/count), or for seed an inclusive integer range (1..8)\n\
         Runs the scenario locally on the in-process pool; --serial forces the \
         single-thread path. A vdd axis without --transfer uses the paper-nominal \
         table. --name renames the campaign in the table and in sweep.NAME.csv.",
        NAMED_CAMPAIGNS.join(" "),
        AttackFamily::ALL.map(AttackFamily::name).join(" "),
        AxisKind::ALL.map(AxisKind::name).join(" "),
    )
}

/// `repro sweep ...`: expand the scenario flags and run the grid
/// locally, printing the table (and a CSV with `--out`).
pub fn sweep_main(args: &[String]) -> ExitCode {
    let mut spec_args = SpecArgs::default();
    let mut serial = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut name: Option<String> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--serial" => serial = true,
            "--out" => match take("--out") {
                Ok(v) => out_dir = Some(PathBuf::from(v)),
                Err(e) => return usage_error(&e),
            },
            "--name" => match take("--name") {
                Ok(v) => name = Some(v),
                Err(e) => return usage_error(&e),
            },
            "--help" | "-h" => {
                println!("{}", sweep_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                let result = spec_args.take_arg(other, || take(other));
                match result {
                    Ok(true) => {}
                    Ok(false) => return usage_error(&format!("unknown argument `{other}`")),
                    Err(e) => return usage_error(&e),
                }
            }
        }
    }

    let mut campaign = match spec_args.build("sweep") {
        Ok(campaign) => campaign,
        Err(e) => return usage_error(&e),
    };
    if let Some(name) = name {
        campaign.name = name;
    }
    eprintln!("sweep: {}", describe_campaign(&campaign));

    let parallelism = if serial {
        Parallelism::Serial
    } else {
        Parallelism::Auto
    };
    let setup = campaign.spec.materialize().with_parallelism(parallelism);
    let cache = BaselineCache::new(&setup);
    let result = match scenario_sweep_cached(&cache, &campaign.spec.scenario) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("sweep FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = crate::orchestrate::sweep_table(&campaign.name, &result, &campaign.spec);
    println!("{}", table.to_markdown());
    if let Some(flat) = result.worst_case_slot() {
        println!(
            "_worst case: {:+.2}% at {}_\n",
            result.cells[flat].relative_change_percent,
            crate::orchestrate::cell_name(&result, flat)
        );
    }
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join(format!("sweep.{}.csv", campaign.name));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("sweep: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{}", sweep_usage());
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(args: &[(&str, &str)]) -> Result<NamedCampaign, String> {
        let mut spec_args = SpecArgs::default();
        for &(flag, value) in args {
            let mut value = Some(value.to_string());
            let taken = spec_args
                .take_arg(flag, || Ok(value.take().expect("one value per flag")))
                .expect("flag parses");
            assert!(taken, "{flag} must belong to the spec grammar");
        }
        spec_args.build("fallback")
    }

    #[test]
    fn usage_lists_every_axis_and_the_name_flag() {
        let usage = sweep_usage();
        let axes: Vec<&str> = usage
            .lines()
            .find_map(|line| line.strip_prefix("axes: "))
            .expect("usage lists the axes")
            .split(' ')
            .collect();
        assert_eq!(axes, AxisKind::ALL.map(AxisKind::name));
        assert!(usage.contains("[--name NAME]"), "{usage}");
    }

    #[test]
    fn presets_inline_axes_and_conflicts() {
        let preset = build(&[("--preset", "tiny")]).unwrap();
        assert_eq!(preset.name, "tiny");
        assert_eq!(preset.spec, named_campaign("tiny").unwrap());

        let inline = build(&[
            ("--attack", "threshold-inhibitory"),
            ("--axis", "rel_change=-20%,20%"),
            ("--axis", "vdd=0.9,1.0"),
        ])
        .unwrap();
        assert_eq!(inline.name, "fallback");
        assert_eq!(inline.spec.scenario.seeds, vec![42], "default seed");
        assert!(
            inline.spec.scenario.transfer.is_some(),
            "vdd axis defaults to the paper table"
        );
        assert_eq!(inline.spec.plan().jobs.len(), 4);

        assert!(build(&[("--preset", "tiny"), ("--attack", "theta")]).is_err());
        assert!(build(&[("--preset", "nope")]).is_err());
        // Modifier flags next to a preset/spec file must error, not be
        // silently dropped (the operator would get a different
        // fidelity/seed set than they asked for).
        let err = build(&[("--preset", "fig8"), ("--setup", "paper")]).unwrap_err();
        assert!(err.contains("--setup"), "diagnostic: {err}");
        assert!(build(&[("--preset", "tiny"), ("--seeds", "1..4")]).is_err());
        assert!(
            build(&[("--axis", "vdd=1.0")]).is_err(),
            "axis without attack"
        );
        assert!(build(&[]).is_err(), "no scenario at all");
        assert!(build(&[
            ("--attack", "theta"),
            ("--axis", "theta_change=0.1"),
            ("--setup", "huge")
        ])
        .is_err());
    }

    #[test]
    fn describe_names_the_resolved_grid() {
        let campaign = build(&[
            ("--attack", "threshold-inhibitory"),
            ("--axis", "rel_change=-0.2,0.2"),
            ("--axis", "fraction=0..1/3"),
        ])
        .unwrap();
        let text = describe_campaign(&campaign);
        assert!(text.contains("threshold-inhibitory"), "{text}");
        assert!(text.contains("rel_change[2] × fraction[3]"), "{text}");
        assert!(text.contains("(6 cells)"), "{text}");
    }
}
