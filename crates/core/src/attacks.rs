//! The experiment protocol every attack runs under.
//!
//! Every attack follows the paper's experimental protocol (§IV-A): build
//! the Diehl&Cook network, *train it under the fault* (power attacks
//! corrupt training, not just inference), derive neuron-class assignments,
//! and measure classification accuracy on a held-out set. One attack is
//! one [`FaultPlan`] run through [`ExperimentSetup::run_with_plan`], and
//! an [`AttackOutcome`] pairs it with the fault-free
//! [`ExperimentSetup::baseline`], trained identically.

use std::sync::{Mutex, PoisonError};

use neurofi_data::{LabeledImages, SynthDigits};
use neurofi_snn::diehl_cook::{DiehlCook2015, DiehlCookConfig};
use neurofi_snn::trainer::{evaluate, train, EncodedImages, Presentations, TrainOptions};

use crate::injection::FaultPlan;
use crate::sweep::Parallelism;

/// A complete experiment description: network configuration, dataset
/// sizes and seeds.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Network configuration (the paper's Diehl&Cook settings).
    pub network: DiehlCookConfig,
    /// Number of training images (1000 in the paper).
    pub n_train: usize,
    /// Number of held-out evaluation images.
    pub n_test: usize,
    /// Seed for dataset generation.
    pub data_seed: u64,
    /// Seed for network initialisation and encoding.
    pub network_seed: u64,
    /// Training/assignment options.
    pub train_options: TrainOptions,
    /// Synthetic digit generator configuration.
    pub generator: SynthDigits,
    /// Worker-thread budget for the sweep engine (serial and parallel
    /// sweeps are bit-identical; see [`crate::sweep`]).
    pub parallelism: Parallelism,
}

impl ExperimentSetup {
    /// The paper's full protocol: 1000 training images, 250 ms per
    /// sample, 100+100 neurons. Evaluation uses 250 held-out images.
    pub fn paper(seed: u64) -> ExperimentSetup {
        ExperimentSetup {
            network: DiehlCookConfig::default(),
            n_train: 1000,
            n_test: 250,
            data_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
            network_seed: seed,
            train_options: TrainOptions::default(),
            generator: SynthDigits::default(),
            parallelism: Parallelism::Auto,
        }
    }

    /// A reduced protocol (~6× faster) for tests and smoke runs: fewer
    /// images, shorter exposure. Accuracy levels drop but the attack
    /// orderings survive.
    pub fn quick(seed: u64) -> ExperimentSetup {
        let mut setup = ExperimentSetup::paper(seed);
        setup.network.sample_time_ms = 150.0;
        setup.n_train = 400;
        setup.n_test = 150;
        setup.train_options.assignment_window = Some(200);
        setup
    }

    /// Returns a copy with the given sweep-engine parallelism.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> ExperimentSetup {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy re-seeded for repeat measurements.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> ExperimentSetup {
        let mut setup = self.clone();
        setup.network_seed = seed;
        setup.data_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        setup
    }

    /// Generates the train/test datasets for this setup.
    pub fn datasets(&self) -> (LabeledImages, LabeledImages) {
        let all = self
            .generator
            .generate(self.n_train + self.n_test, self.data_seed);
        all.split(self.n_train)
    }

    /// This seed's inputs: the datasets, pre-encoded when `budget` has
    /// room for the encoded sets beside everything it already holds, and
    /// left as raw images otherwise (each run then encodes them per
    /// sample). Encoded sets hold their bytes on `budget` until dropped.
    pub(crate) fn inputs(&self, budget: &'static InputBudget) -> SeedInputs {
        let (train, test) = self.datasets();
        let bound = EncodedImages::bytes_bound(&train, &self.network)
            + EncodedImages::bytes_bound(&test, &self.network);
        let Some(charge) = budget.reserve(bound) else {
            return SeedInputs::Images { train, test };
        };
        SeedInputs::Encoded {
            train: EncodedImages::for_training(&train, &self.network, self.network_seed),
            test: EncodedImages::for_evaluation(&test, &self.network, self.network_seed),
            _charge: charge,
        }
    }

    /// Trains a fresh network under the given fault plan and evaluates it.
    /// This is the paper's protocol: faults are active during both
    /// training and evaluation. The datasets are generated for this run
    /// and each image is encoded as it is presented.
    pub fn run_with_plan(&self, plan: &FaultPlan) -> RunMeasurement {
        let (train_data, test_data) = self.datasets();
        self.run_on(&train_data, &test_data, plan)
    }

    /// [`run_with_plan`](ExperimentSetup::run_with_plan) on this seed's
    /// train and test sets, already built.
    pub(crate) fn run_on(
        &self,
        train_set: &dyn Presentations,
        test_set: &dyn Presentations,
        plan: &FaultPlan,
    ) -> RunMeasurement {
        let mut net = DiehlCook2015::new(self.network.clone(), self.network_seed);
        plan.apply(&mut net);
        let report = train(&mut net, train_set, &self.train_options);
        let accuracy = evaluate(
            &mut net,
            &report.assignments,
            test_set,
            self.train_options.n_classes,
        );
        RunMeasurement {
            accuracy,
            mean_activity: report.mean_activity,
            silent_fraction: report.silent_fraction,
        }
    }

    /// Fault-free reference run.
    pub fn baseline(&self) -> RunMeasurement {
        self.run_with_plan(&FaultPlan::none())
    }
}

/// One seed's train and test sets, built once and read by every run of
/// the seed: no fault plan changes them, since faults act downstream of
/// the Poisson encoder.
#[derive(Debug)]
pub(crate) enum SeedInputs {
    /// Each image's input raster drawn once and replayed by every run.
    /// The charge holds the sets' bytes on the budget they were built
    /// under, and returns them when the sets are dropped.
    Encoded {
        train: EncodedImages,
        test: EncodedImages,
        _charge: InputCharge,
    },
    /// Raw images, encoded per sample by every run: inputs the budget
    /// had no room for.
    Images {
        train: LabeledImages,
        test: LabeledImages,
    },
}

impl SeedInputs {
    /// The train and test sets.
    pub(crate) fn sets(&self) -> (&dyn Presentations, &dyn Presentations) {
        match self {
            SeedInputs::Encoded { train, test, .. } => (train, test),
            SeedInputs::Images { train, test } => (train, test),
        }
    }

    /// True when the sets were encoded beforehand.
    pub(crate) fn is_encoded(&self) -> bool {
        matches!(self, SeedInputs::Encoded { .. })
    }
}

/// The bytes of pre-encoded inputs alive in a process, kept under a
/// fixed limit. Every encoded [`SeedInputs`] reserves an upper bound on
/// its size ([`EncodedImages::bytes_bound`]) before it is drawn and
/// returns it when dropped, whether a cache memoises it or a running
/// job holds it; inputs that do not fit are left as raw images.
#[derive(Debug)]
pub(crate) struct InputBudget {
    limit: usize,
    held: Mutex<usize>,
}

impl InputBudget {
    /// An empty budget of `limit` bytes.
    pub(crate) const fn new(limit: usize) -> InputBudget {
        InputBudget {
            limit,
            held: Mutex::new(0),
        }
    }

    /// Bytes reserved now.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        *self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserves `bytes` if they fit beside those already held.
    fn reserve(&'static self, bytes: usize) -> Option<InputCharge> {
        let mut held = self.held.lock().unwrap_or_else(PoisonError::into_inner);
        if bytes > self.limit - *held {
            return None;
        }
        *held += bytes;
        Some(InputCharge {
            budget: self,
            bytes,
        })
    }
}

/// Bytes reserved on an [`InputBudget`], returned when dropped.
#[derive(Debug)]
pub(crate) struct InputCharge {
    budget: &'static InputBudget,
    bytes: usize,
}

impl Drop for InputCharge {
    fn drop(&mut self) {
        *self
            .budget
            .held
            .lock()
            .unwrap_or_else(PoisonError::into_inner) -= self.bytes;
    }
}

/// Accuracy and activity-health numbers from one training+evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// Held-out classification accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Mean excitatory spikes per training presentation.
    pub mean_activity: f64,
    /// Fraction of training presentations with zero excitatory spikes.
    pub silent_fraction: f64,
}

/// The result of one attack experiment: the fault-free and the
/// attacked run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Fault-free run.
    pub baseline: RunMeasurement,
    /// Run under attack.
    pub attacked: RunMeasurement,
}

impl AttackOutcome {
    /// Relative accuracy change in percent, the paper's headline metric
    /// (−85.65 means the accuracy dropped by 85.65% of its baseline).
    pub fn relative_change_percent(&self) -> f64 {
        let baseline = self.baseline.accuracy;
        if baseline == 0.0 {
            return 0.0;
        }
        (self.attacked.accuracy - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::TargetLayer;

    fn tiny_setup(seed: u64) -> ExperimentSetup {
        // Deliberately small: these tests check plumbing and ordering, not
        // paper-scale numbers (integration tests cover those).
        let mut setup = ExperimentSetup::quick(seed);
        setup.n_train = 120;
        setup.n_test = 60;
        setup.network.sample_time_ms = 100.0;
        setup.train_options.assignment_window = None;
        setup
    }

    #[test]
    fn zero_faults_reproduce_baseline() {
        let setup = tiny_setup(3);
        // A theta change of 0: the drive keeps its nominal scale.
        let outcome = AttackOutcome {
            baseline: setup.baseline(),
            attacked: setup.run_with_plan(&FaultPlan::drive_only(1.0)),
        };
        assert_eq!(outcome.baseline.accuracy, outcome.attacked.accuracy);
        assert!(outcome.relative_change_percent().abs() < 1e-12);
    }

    #[test]
    fn inhibitory_collapse_dominates_excitatory() {
        // The paper's core finding, at reduced scale: the IL attack hurts
        // far more than the EL attack. Uses a slightly larger run than the
        // other plumbing tests so the ordering is stable.
        let mut setup = tiny_setup(7);
        setup.n_train = 250;
        setup.n_test = 100;
        let baseline = setup.baseline();
        assert!(
            baseline.accuracy > 0.15,
            "baseline {:.2}",
            baseline.accuracy
        );
        let il = setup.run_with_plan(&FaultPlan::layer_threshold(
            TargetLayer::Inhibitory,
            -0.20,
            1.0,
        ));
        let el = setup.run_with_plan(&FaultPlan::layer_threshold(
            TargetLayer::Excitatory,
            -0.20,
            1.0,
        ));
        assert!(
            il.accuracy < el.accuracy,
            "IL {:.2} must be below EL {:.2}",
            il.accuracy,
            el.accuracy
        );
        assert!(
            il.accuracy < 0.30,
            "IL attack should approach chance, got {:.2}",
            il.accuracy
        );
    }

    #[test]
    fn setup_reseeding_changes_data_and_network() {
        let a = tiny_setup(1);
        let b = a.with_seed(2);
        assert_ne!(a.network_seed, b.network_seed);
        assert_ne!(a.data_seed, b.data_seed);
        let (ta, _) = a.datasets();
        let (tb, _) = b.datasets();
        assert_ne!(ta, tb);
    }

    #[test]
    fn datasets_have_requested_sizes() {
        let setup = tiny_setup(5);
        let (train_data, test_data) = setup.datasets();
        assert_eq!(train_data.len(), setup.n_train);
        assert_eq!(test_data.len(), setup.n_test);
    }

    #[test]
    fn outcome_metrics() {
        let outcome = AttackOutcome {
            baseline: RunMeasurement {
                accuracy: 0.80,
                mean_activity: 100.0,
                silent_fraction: 0.0,
            },
            attacked: RunMeasurement {
                accuracy: 0.12,
                mean_activity: 10.0,
                silent_fraction: 0.5,
            },
        };
        assert!((outcome.relative_change_percent() + 85.0).abs() < 1e-9);
    }
}
