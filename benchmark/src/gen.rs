//! The seeded workload generator. Everything a workload submits comes
//! from here, and only from the `--seed` argument: the baseline seed,
//! every axis value, and which earlier grid a warm resubmission repeats.
//! The program under test only ever sees the generated specs.
//!
//! Axis values are the paper's grids, each point jittered by a few
//! percent. The jitter makes every seed a distinct set of cells (so no
//! seed can be served from another's results) while keeping the work per
//! cell, and so the measured rates, nearly independent of the seed.

use neurofi_core::{
    AttackFamily, Axis, AxisKind, DefenseSel, DetectorSel, LayerSel, PowerTransferTable,
    ScenarioSpec,
};
use neurofi_dist::{CampaignSpec, NamedCampaign, SetupSpec, SplitMix64};

/// The seed the committed reference fingerprints were made with.
pub const DEFAULT_SEED: u64 = 42;

/// A seed never used while the benchmark was written, kept for
/// confirming later claims.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Cold campaigns a service-mix seed can supply (and the committed
/// reference covers); a run that exhausts them stops early.
pub const MAX_COLD_CAMPAIGNS: usize = 512;

/// Deterministic draws from the workload seed.
#[derive(Debug)]
pub struct Draw(SplitMix64);

impl Draw {
    /// The stream for one workload: distinct workloads decorrelate
    /// even under the same seed.
    pub fn new(seed: u64, workload: &str) -> Draw {
        let salt = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Draw(SplitMix64::new(seed ^ salt))
    }

    /// A baseline seed in `[1, 10_000]`.
    pub fn baseline_seed(&mut self) -> u64 {
        1 + self.0.below(10_000)
    }

    /// `value` moved by up to `±spread`, rounded to 1e-4 so specs stay
    /// readable.
    pub fn jitter(&mut self, value: f64, spread: f64) -> f64 {
        round4(value + spread * (2.0 * self.0.unit_f64() - 1.0))
    }

    /// A uniform draw in `[lo, hi)`, rounded to 1e-4.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        round4(lo + (hi - lo) * self.0.unit_f64())
    }

    /// A uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// The paper's Fig. 8 threshold changes.
const REL_CHANGES: [f64; 4] = [-0.20, -0.10, 0.10, 0.20];
/// The paper's Fig. 8 affected-layer fractions.
const FRACTIONS: [f64; 6] = [0.0, 0.25, 0.50, 0.75, 0.90, 1.0];

fn rel_changes(draw: &mut Draw) -> Vec<f64> {
    REL_CHANGES.iter().map(|&r| draw.jitter(r, 0.01)).collect()
}

/// Interior fractions move; 0 and 1 are the figure's end points.
fn fractions(draw: &mut Draw) -> Vec<f64> {
    FRACTIONS
        .iter()
        .map(|&f| {
            if f == 0.0 || f == 1.0 {
                f
            } else {
                draw.jitter(f, 0.02)
            }
        })
        .collect()
}

fn threshold(layer: LayerSel, rel: Vec<f64>, fractions: Vec<f64>, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        family: AttackFamily::Threshold(layer),
        axes: vec![
            Axis::real(AxisKind::RelChange, rel),
            Axis::real(AxisKind::Fraction, fractions),
        ],
        seeds: vec![seed],
        transfer: None,
    }
}

/// A campaign of a sweep workload: its figure label plus the spec.
#[derive(Debug, Clone)]
pub struct SweepCampaign {
    /// Which figure (or scenario) it reproduces.
    pub label: &'static str,
    /// The campaign as a wire-serialisable spec (the setup is
    /// `SetupSpec::bench`), so it also has cell digests.
    pub spec: CampaignSpec,
}

/// The `snn-sweep` pass: Fig. 7b's theta line, the Fig. 8a and 8b
/// grids, Fig. 8c's both-layer line, and Fig. 9a's VDD line crossed
/// with the §V defenses and the dummy-neuron detector — 106 cells.
pub fn snn_sweep(seed: u64) -> Vec<SweepCampaign> {
    let mut draw = Draw::new(seed, "snn-sweep");
    let b = draw.baseline_seed();
    let thetas: Vec<f64> = [-0.20, -0.10, -0.05, 0.05, 0.10, 0.20]
        .iter()
        .map(|&t| draw.jitter(t, 0.01))
        .collect();
    let fig7b = ScenarioSpec::theta(&thetas, &[b]);
    let fig8a = threshold(
        LayerSel::Excitatory,
        rel_changes(&mut draw),
        fractions(&mut draw),
        b,
    );
    let fig8b = threshold(
        LayerSel::Inhibitory,
        rel_changes(&mut draw),
        fractions(&mut draw),
        b,
    );
    let fig8c = threshold(LayerSel::Both, rel_changes(&mut draw), vec![1.0], b);
    // Inside the paper-nominal table's [0.8, 1.2] V span; 1.0 V is the
    // nominal supply and stays exact.
    let vdds = vec![
        draw.uniform(0.80, 0.82),
        draw.jitter(0.85, 0.01),
        draw.jitter(0.90, 0.01),
        1.0,
        draw.jitter(1.10, 0.01),
        draw.uniform(1.18, 1.20),
    ];
    let mut fig9a = ScenarioSpec::vdd(&vdds, &PowerTransferTable::paper_nominal(), &[b]);
    fig9a.axes.push(Axis::defenses(vec![
        DefenseSel::None,
        DefenseSel::RobustDriver,
        DefenseSel::BandgapThreshold,
        DefenseSel::SizedNeuron,
    ]));
    fig9a.axes.push(Axis::detectors(vec![
        DetectorSel::None,
        DetectorSel::DummyNeuron,
    ]));
    let setup = SetupSpec::bench(b);
    [
        ("fig7b", fig7b),
        ("fig8a", fig8a),
        ("fig8b", fig8b),
        ("fig8c", fig8c),
        ("fig9a", fig9a),
    ]
    .into_iter()
    .map(|(label, scenario)| SweepCampaign {
        label,
        spec: CampaignSpec {
            setup: setup.clone(),
            scenario,
        },
    })
    .collect()
}

/// A layer-netlist campaign: `vdds` × one layer size × one defense.
fn layer_campaign(vdds: &[f64], neurons: u64, defense: DefenseSel, seed: u64) -> CampaignSpec {
    let mut scenario = ScenarioSpec::vdd(vdds, &PowerTransferTable::paper_nominal(), &[seed]);
    scenario.axes.push(Axis::neurons(vec![neurons]));
    scenario.axes.push(Axis::defenses(vec![defense]));
    CampaignSpec {
        setup: SetupSpec::bench(seed),
        scenario,
    }
}

/// The `layer-sweep` pass: the `vdd × neurons × defense` layer-netlist
/// scenario — the nominal supply and four off-nominal ones, 2- and
/// 4-neuron layers, undefended and with the sized first stage — issued
/// as one campaign per layer design, so a pass yields four campaign
/// latencies: 20 cells.
pub fn layer_sweep(seed: u64) -> Vec<SweepCampaign> {
    let mut draw = Draw::new(seed, "layer-sweep");
    let b = draw.baseline_seed();
    let mut vdds = vec![1.0];
    vdds.extend([0.85, 0.90, 1.10, 1.15].map(|v| draw.jitter(v, 0.01)));
    [
        ("layer-2", 2, DefenseSel::None),
        ("layer-2-sized", 2, DefenseSel::SizedNeuron),
        ("layer-4", 4, DefenseSel::None),
        ("layer-4-sized", 4, DefenseSel::SizedNeuron),
    ]
    .into_iter()
    .map(|(label, neurons, defense)| SweepCampaign {
        label,
        spec: layer_campaign(&vdds, neurons, defense, b),
    })
    .collect()
}

/// The SNN campaign whose cells stand for SNN work on a workload that
/// has none of its own (`layer-sweep`): an Attack-3 grid under the
/// workload's baseline seed.
pub fn snn_probe(seed: u64) -> CampaignSpec {
    let b = Draw::new(seed, "layer-sweep").baseline_seed();
    let mut draw = Draw::new(seed, "snn-probe");
    let rel = vec![draw.jitter(-0.10, 0.01), draw.jitter(0.10, 0.01)];
    let fractions = vec![draw.jitter(0.50, 0.02), draw.jitter(0.90, 0.02)];
    CampaignSpec {
        setup: SetupSpec::bench(b),
        scenario: threshold(LayerSel::Inhibitory, rel, fractions, b),
    }
}

/// The layer campaign whose off-nominal cell stands for circuit work on
/// the workloads that have none of their own: a 2-neuron undefended
/// layer at the nominal and one low supply.
pub fn layer_probe(seed: u64) -> CampaignSpec {
    let mut draw = Draw::new(seed, "layer-probe");
    let b = draw.baseline_seed();
    layer_campaign(&[1.0, draw.jitter(0.85, 0.01)], 2, DefenseSel::None, b)
}

/// The `service-mix` traffic: a warm-up campaign, then cold campaigns
/// of new cells, four of every five small (4 cells) and the fifth large
/// (12 cells). Warm resubmissions repeat an earlier cold grid under a
/// new name.
#[derive(Debug)]
pub struct ServiceMix {
    draw: Draw,
    setup: SetupSpec,
    baseline_seed: u64,
}

impl ServiceMix {
    /// The traffic for `seed`.
    pub fn new(seed: u64) -> ServiceMix {
        let mut draw = Draw::new(seed, "service-mix");
        let baseline_seed = draw.baseline_seed();
        ServiceMix {
            draw,
            setup: SetupSpec::bench(baseline_seed),
            baseline_seed,
        }
    }

    /// The next grid: Attack 3 over `shape.0` new threshold changes ×
    /// `shape.1` new fractions, each value drawn from its own equal
    /// stratum of the range.
    fn grid(&mut self, shape: (usize, usize)) -> CampaignSpec {
        let mut strata = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
            let width = (hi - lo) / n as f64;
            (0..n)
                .map(|i| {
                    let lo = lo + width * i as f64;
                    self.draw.uniform(lo, lo + width)
                })
                .collect()
        };
        let rel = strata(-0.25, 0.25, shape.0);
        let fractions = strata(0.5, 1.0, shape.1);
        CampaignSpec {
            setup: self.setup.clone(),
            scenario: threshold(LayerSel::Inhibitory, rel, fractions, self.baseline_seed),
        }
    }

    /// The warm-up campaign followed by every cold campaign, in
    /// submission order (the sequence is a pure function of the seed).
    pub fn campaigns(seed: u64) -> (NamedCampaign, Vec<NamedCampaign>) {
        let mut mix = ServiceMix::new(seed);
        let warm_up = NamedCampaign::new("warm-up", mix.grid(SMALL_GRID));
        let cold = (0..MAX_COLD_CAMPAIGNS)
            .map(|i| {
                let shape = if is_large(i) { LARGE_GRID } else { SMALL_GRID };
                NamedCampaign::new(format!("cold-{i}"), mix.grid(shape))
            })
            .collect();
        (warm_up, cold)
    }
}

/// Shape of a small cold grid: 4 cells, two per worker.
const SMALL_GRID: (usize, usize) = (2, 2);
/// Shape of a large cold grid: 12 cells, six per worker.
const LARGE_GRID: (usize, usize) = (3, 4);
/// One cold campaign in this many is large.
pub const LARGE_EVERY: usize = 5;

/// Whether the `i`-th cold campaign is a large grid: the last of each
/// [`LARGE_EVERY`] in a row. A fifth of the campaigns are large, so the p90 of
/// the cold latencies falls in the middle of the large ones rather than
/// on the slowest tenth of the small ones, which host load decides.
fn is_large(i: usize) -> bool {
    i % LARGE_EVERY == LARGE_EVERY - 1
}

/// Which earlier cold campaign the `round`-th warm resubmission
/// repeats (any of rounds `0..=round`).
pub fn warm_source(seed: u64, round: usize) -> usize {
    let mut draw = Draw::new(
        seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        "warm",
    );
    draw.index(round + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_depend_only_on_the_seed() {
        let a: Vec<_> = snn_sweep(7).into_iter().map(|c| c.spec).collect();
        let b: Vec<_> = snn_sweep(7).into_iter().map(|c| c.spec).collect();
        let c: Vec<_> = snn_sweep(8).into_iter().map(|c| c.spec).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(layer_sweep(7)[0].spec, layer_sweep(7)[0].spec);
        assert_eq!(warm_source(7, 9), warm_source(7, 9));
    }

    #[test]
    fn generated_specs_validate_with_the_documented_sizes() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED, 1, 2] {
            let snn = snn_sweep(seed);
            let cells: usize = snn.iter().map(|c| c.spec.scenario.n_cells()).sum();
            assert_eq!(cells, 106);
            let layer = layer_sweep(seed);
            let cells: usize = layer.iter().map(|c| c.spec.scenario.n_cells()).sum();
            assert_eq!(cells, 20);
            for campaign in snn.iter().chain(&layer) {
                campaign.spec.validate().expect("generated spec validates");
            }
            snn_probe(seed).validate().expect("SNN probe validates");
            layer_probe(seed).validate().expect("layer probe validates");
            let (warm_up, cold) = ServiceMix::campaigns(seed);
            warm_up.spec.validate().expect("warm-up validates");
            assert_eq!(cold.len(), MAX_COLD_CAMPAIGNS);
            let sizes: Vec<usize> = cold[..10]
                .iter()
                .map(|c| c.spec.scenario.n_cells())
                .collect();
            assert_eq!(sizes, [4, 4, 4, 4, 12, 4, 4, 4, 4, 12]);
            // Every cold cell is new: no cold campaign can hit the store.
            let mut digests: Vec<u64> = std::iter::once(&warm_up)
                .chain(&cold)
                .flat_map(|c| {
                    c.spec.validate().expect("cold campaign validates");
                    let spec = &c.spec;
                    spec.plan()
                        .jobs
                        .iter()
                        .map(|job| spec.cell_digest(&job.attack))
                        .collect::<Vec<_>>()
                })
                .collect();
            let n = digests.len();
            digests.sort_unstable();
            digests.dedup();
            assert_eq!(digests.len(), n, "seed {seed} repeats a cell");
            assert!((0..50).all(|r| warm_source(seed, r) <= r));
        }
    }
}
