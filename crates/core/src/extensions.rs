//! Extensions beyond the paper's five attacks.
//!
//! §IV-E of the paper explicitly lists attack surfaces it does *not*
//! study: "(b) fault injection into synaptic weights" and transient
//! rather than static supply manipulation. This module implements both as
//! clearly-flagged extensions so downstream users can explore the wider
//! threat landscape with the same experiment protocol.
//!
//! These results have **no paper reference values**; they extend the
//! study.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::attacks::{AttackOutcome, ExperimentSetup, RunMeasurement};
use crate::error::Error;
use crate::injection::FaultPlan;
use crate::sweep::{run_indexed, BaselineCache, PROCESS_INPUT_BUDGET};
use neurofi_analog::PowerTransferTable;
use neurofi_snn::diehl_cook::DiehlCook2015;
use neurofi_snn::trainer::{evaluate, train, train_with_hook, Presentations};

/// How synaptic weights are corrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightFaultKind {
    /// Multiply every weight by a constant (supply-coupled synapse drive,
    /// e.g. memristor read-current scaling).
    Scale(f64),
    /// Set a random fraction of weights to zero (stuck-at-zero cells).
    StuckAtZero {
        /// Fraction of weights affected, in `[0, 1]`.
        fraction: f64,
        /// Selection seed.
        seed: u64,
    },
    /// Saturate a random fraction of weights to `w_max` (stuck-at-one).
    StuckAtMax {
        /// Fraction of weights affected, in `[0, 1]`.
        fraction: f64,
        /// Selection seed.
        seed: u64,
    },
}

/// Extension attack: corrupt the plastic input→excitatory weights *after*
/// training, modelling an inference-time fault in the synapse array.
///
/// Unlike Attacks 1–5 (which corrupt training), this evaluates a cleanly
/// trained network whose stored weights are then damaged — the scenario
/// of §IV-E(b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightFaultAttack {
    /// The corruption model.
    pub kind: WeightFaultKind,
}

impl WeightFaultAttack {
    /// Creates the attack.
    ///
    /// # Panics
    /// Panics if a fraction is outside `[0, 1]` or a scale is not
    /// positive/finite.
    pub fn new(kind: WeightFaultKind) -> WeightFaultAttack {
        match kind {
            WeightFaultKind::Scale(s) => {
                assert!(s.is_finite() && s > 0.0, "weight scale must be positive");
            }
            WeightFaultKind::StuckAtZero { fraction, .. }
            | WeightFaultKind::StuckAtMax { fraction, .. } => {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "fraction must be within [0, 1]"
                );
            }
        }
        WeightFaultAttack { kind }
    }

    fn corrupt(&self, net: &mut DiehlCook2015) {
        let w_max = net.input_to_exc.w_max;
        let w = &mut net.input_to_exc.w;
        match self.kind {
            WeightFaultKind::Scale(s) => {
                for r in 0..w.rows() {
                    for v in w.row_mut(r) {
                        *v *= s as f32;
                    }
                }
            }
            WeightFaultKind::StuckAtZero { fraction, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                for r in 0..w.rows() {
                    for v in w.row_mut(r) {
                        if rng.gen::<f64>() < fraction {
                            *v = 0.0;
                        }
                    }
                }
            }
            WeightFaultKind::StuckAtMax { fraction, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                for r in 0..w.rows() {
                    for v in w.row_mut(r) {
                        if rng.gen::<f64>() < fraction {
                            *v = w_max;
                        }
                    }
                }
            }
        }
        // Scaled weights can land outside [w_min, w_max]; tell the
        // connection so any further STDP restores bounds with a full clamp.
        net.input_to_exc.mark_weights_dirty();
    }

    /// Trains cleanly, evaluates, corrupts the stored weights, then
    /// evaluates again on the same test rasters.
    ///
    /// # Errors
    /// Reserved; currently always succeeds.
    pub fn run(&self, setup: &ExperimentSetup) -> Result<AttackOutcome, Error> {
        let outcomes = weight_fault_sweep(setup, std::slice::from_ref(self))?;
        Ok(outcomes.into_iter().next().expect("one outcome per attack"))
    }
}

/// Runs every attack against one cleanly trained network: trains and
/// evaluates it once, then corrupts and evaluates a copy per attack, the
/// copies on a pool of `setup.parallelism` workers. Each copy starts
/// from the state just after the clean evaluation, so an outcome does
/// not depend on which other attacks run beside it or on the schedule.
///
/// # Errors
/// Reserved; currently always succeeds.
pub fn weight_fault_sweep(
    setup: &ExperimentSetup,
    attacks: &[WeightFaultAttack],
) -> Result<Vec<AttackOutcome>, Error> {
    let inputs = setup.inputs(&PROCESS_INPUT_BUDGET);
    let (train_set, test_set) = inputs.sets();
    let mut net = DiehlCook2015::new(setup.network.clone(), setup.network_seed);
    let report = train(&mut net, train_set, &setup.train_options);
    let n_classes = setup.train_options.n_classes;
    let baseline = RunMeasurement {
        accuracy: evaluate(&mut net, &report.assignments, test_set, n_classes),
        mean_activity: report.mean_activity,
        silent_fraction: report.silent_fraction,
    };
    let outcomes = run_indexed(attacks.len(), setup.parallelism, |i| {
        let mut corrupted = net.clone();
        attacks[i].corrupt(&mut corrupted);
        // Each task borrows the sets itself: `dyn Presentations` is not
        // `Sync`.
        let (_, test_set) = inputs.sets();
        let accuracy = evaluate(&mut corrupted, &report.assignments, test_set, n_classes);
        AttackOutcome {
            baseline,
            attacked: RunMeasurement {
                accuracy,
                ..baseline
            },
        }
    });
    Ok(outcomes)
}

/// Extension attack: a *transient* supply glitch — the VDD fault is
/// active only for a window of training samples, then the supply
/// recovers. Models a momentary glitch rig rather than a persistent
/// brown-out.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientGlitchAttack {
    /// Glitched supply voltage.
    pub vdd: f64,
    /// First training-sample index with the glitch active.
    pub from_sample: usize,
    /// First training-sample index after recovery.
    pub to_sample: usize,
    /// VDD → parameter transfer table.
    pub transfer: PowerTransferTable,
}

impl TransientGlitchAttack {
    /// Creates a glitch active during `[from_sample, to_sample)`.
    ///
    /// # Panics
    /// Panics if the window is empty or `vdd` is not positive.
    pub fn new(vdd: f64, from_sample: usize, to_sample: usize) -> TransientGlitchAttack {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive");
        assert!(from_sample < to_sample, "glitch window must be non-empty");
        TransientGlitchAttack {
            vdd,
            from_sample,
            to_sample,
            transfer: PowerTransferTable::paper_nominal(),
        }
    }

    /// Trains with the glitch applied only inside the window, then
    /// evaluates at nominal supply. The fault-free baseline and the
    /// glitched run read the same inputs, built once.
    ///
    /// # Errors
    /// Reserved; currently always succeeds.
    pub fn run(&self, setup: &ExperimentSetup) -> Result<AttackOutcome, Error> {
        let inputs = setup.inputs(&PROCESS_INPUT_BUDGET);
        let (train_set, test_set) = inputs.sets();
        Ok(AttackOutcome {
            baseline: setup.run_on(train_set, test_set, &FaultPlan::none()),
            attacked: self.run_on(setup, train_set, test_set),
        })
    }

    /// The glitched training and nominal-supply evaluation on this seed's
    /// sets, already built.
    fn run_on(
        &self,
        setup: &ExperimentSetup,
        train_set: &dyn Presentations,
        test_set: &dyn Presentations,
    ) -> RunMeasurement {
        let mut net = DiehlCook2015::new(setup.network.clone(), setup.network_seed);
        let plan = FaultPlan::from_vdd(self.vdd, &self.transfer);
        let (from, to) = (self.from_sample, self.to_sample);
        let report = train_with_hook(&mut net, train_set, &setup.train_options, |i, net| {
            if i == from {
                plan.apply(net);
            } else if i == to {
                net.clear_faults();
            }
        });
        // Ensure recovery if the window extends past the dataset.
        net.clear_faults();
        let n_classes = setup.train_options.n_classes;
        let accuracy = evaluate(&mut net, &report.assignments, test_set, n_classes);
        RunMeasurement {
            accuracy,
            mean_activity: report.mean_activity,
            silent_fraction: report.silent_fraction,
        }
    }

    /// Fraction of training samples under the glitch for a dataset of
    /// `n_train` samples.
    pub fn duty(&self, n_train: usize) -> f64 {
        if n_train == 0 {
            return 0.0;
        }
        let span = self
            .to_sample
            .min(n_train)
            .saturating_sub(self.from_sample.min(n_train));
        span as f64 / n_train as f64
    }
}

/// Compares a persistent Attack 5 against transient glitches of varying
/// duty at the same VDD — the natural question a glitch-rig adversary
/// asks ("how long must the glitch last?").
///
/// Returns `(duty, accuracy)` rows including duty 1.0 (persistent), for
/// the seed of the cache's setup. Every duty reads the seed's inputs
/// memoised in `cache`; a duty that rounds to no glitched sample reads
/// the cache's fault-free baseline, and every other duty trains only its
/// glitched network. The duties run on a pool of the setup's
/// [`Parallelism`](crate::sweep::Parallelism) workers.
///
/// # Errors
/// Propagates experiment failures.
///
/// # Panics
/// Panics if a duty is outside `[0, 1]`.
pub fn glitch_duty_sweep(
    cache: &BaselineCache,
    vdd: f64,
    duties: &[f64],
) -> Result<Vec<(f64, f64)>, Error> {
    for duty in duties {
        assert!((0.0..=1.0).contains(duty), "duty must be within [0, 1]");
    }
    // The cache runs a seed as `with_seed(seed)`, so its inputs and
    // baseline are those of this setup.
    let seed = cache.setup().network_seed;
    let setup = cache.setup().with_seed(seed);
    let inputs = cache.seed_inputs(&setup);
    let rows = run_indexed(duties.len(), setup.parallelism, |i| {
        let duty = duties[i];
        let to = ((setup.n_train as f64) * duty).round() as usize;
        let accuracy = if to == 0 {
            cache.get(seed).accuracy
        } else {
            let (train_set, test_set) = inputs.sets();
            let attack = TransientGlitchAttack::new(vdd, 0, to);
            attack.run_on(&setup, train_set, test_set).accuracy
        };
        (duty, accuracy)
    });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setup() -> ExperimentSetup {
        let mut setup = ExperimentSetup::quick(9);
        setup.n_train = 100;
        setup.n_test = 50;
        setup.network.sample_time_ms = 80.0;
        setup.train_options.assignment_window = None;
        setup
    }

    #[test]
    fn weight_scale_one_is_noop() {
        let setup = tiny_setup();
        let outcome = WeightFaultAttack::new(WeightFaultKind::Scale(1.0))
            .run(&setup)
            .unwrap();
        assert_eq!(outcome.baseline.accuracy, outcome.attacked.accuracy);
    }

    #[test]
    fn stuck_at_zero_everything_destroys_classification() {
        let setup = tiny_setup();
        let outcome = WeightFaultAttack::new(WeightFaultKind::StuckAtZero {
            fraction: 1.0,
            seed: 1,
        })
        .run(&setup)
        .unwrap();
        assert!(
            outcome.attacked.accuracy <= 0.2,
            "zeroed weights must collapse accuracy, got {:.2}",
            outcome.attacked.accuracy
        );
    }

    #[test]
    fn small_weight_faults_are_mild() {
        let setup = tiny_setup();
        let outcome = WeightFaultAttack::new(WeightFaultKind::StuckAtZero {
            fraction: 0.05,
            seed: 1,
        })
        .run(&setup)
        .unwrap();
        assert!(
            outcome.attacked.accuracy > 0.5 * outcome.baseline.accuracy,
            "5% stuck-at-zero should be tolerable: {:.2} vs {:.2}",
            outcome.attacked.accuracy,
            outcome.baseline.accuracy
        );
    }

    #[test]
    fn weight_fault_sweep_equals_per_attack_runs() {
        let setup = tiny_setup();
        // A copy per attack: zeroing every weight first must not leak
        // into the second attack.
        let attacks = [
            WeightFaultAttack::new(WeightFaultKind::StuckAtZero {
                fraction: 1.0,
                seed: 7,
            }),
            WeightFaultAttack::new(WeightFaultKind::StuckAtMax {
                fraction: 0.05,
                seed: 7,
            }),
        ];
        let swept = weight_fault_sweep(&setup, &attacks).unwrap();
        assert_eq!(swept.len(), attacks.len());
        for (attack, outcome) in attacks.iter().zip(&swept) {
            let alone = attack.run(&setup).unwrap();
            assert_eq!(outcome.baseline, alone.baseline);
            assert_eq!(outcome.attacked, alone.attacked);
        }
        assert_ne!(swept[0].attacked, swept[1].attacked);
    }

    #[test]
    fn glitch_duty_sweep_equals_per_duty_runs() {
        let setup = tiny_setup();
        let rows = glitch_duty_sweep(&BaselineCache::new(&setup), 0.8, &[0.0, 0.3, 1.0]).unwrap();
        let glitched = |to| {
            let attack = TransientGlitchAttack::new(0.8, 0, to);
            attack.run(&setup).unwrap().attacked.accuracy
        };
        let expected = [setup.baseline().accuracy, glitched(30), glitched(100)];
        for ((_, accuracy), expected) in rows.iter().zip(expected) {
            assert_eq!(accuracy.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn glitch_window_bookkeeping() {
        let g = TransientGlitchAttack::new(0.8, 10, 60);
        assert!((g.duty(100) - 0.5).abs() < 1e-12);
        assert!((g.duty(50) - 0.8).abs() < 1e-12);
        assert_eq!(g.duty(0), 0.0);
    }

    #[test]
    fn transient_glitch_runs_and_recovers_faults() {
        let setup = tiny_setup();
        let outcome = TransientGlitchAttack::new(0.8, 0, 30).run(&setup).unwrap();
        // Accuracy may or may not recover, but the run must complete and
        // report sane numbers.
        assert!((0.0..=1.0).contains(&outcome.attacked.accuracy));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_window() {
        TransientGlitchAttack::new(0.8, 5, 5);
    }
}
