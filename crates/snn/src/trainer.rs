//! Training and evaluation protocol for the Diehl&Cook network.
//!
//! Mirrors the paper's §IV-A setup: a single pass over the training
//! images with STDP enabled, neuron-to-class assignment from the recorded
//! training activity, then accuracy measurement (with learning frozen) on
//! an evaluation set.
//!
//! Both loops step through [`Presentations`]: raw images, Poisson-encoded
//! as each is presented, or an [`EncodedImages`] set whose input rasters
//! were drawn beforehand. The two give the same bits, so a set that many
//! runs share can be encoded once.

use neurofi_data::LabeledImages;

use crate::classify::{assign_labels, predict_all_activity};
use crate::diehl_cook::{DiehlCook2015, DiehlCookConfig};
use crate::encoding::{PoissonEncoder, SpikeRaster};

/// The sample counter [`evaluate`] pins before its first presentation,
/// far past any training run's counters.
const EVALUATION_COUNTER_BASE: u64 = 1 << 32;

/// A labelled sequence of samples, as the training and evaluation loops
/// present them to a network.
pub trait Presentations {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when there is no sample.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Class label of sample `index`.
    fn label(&self, index: usize) -> u8;

    /// Presents sample `index` to `net` (learning when `train`) and
    /// returns the excitatory spike count per neuron.
    fn present(&self, index: usize, net: &mut DiehlCook2015, train: bool) -> Vec<f32>;
}

/// Raw images: each is Poisson-encoded as it is presented
/// ([`DiehlCook2015::run_sample`]).
impl Presentations for LabeledImages {
    fn len(&self) -> usize {
        LabeledImages::len(self)
    }

    fn label(&self, index: usize) -> u8 {
        LabeledImages::label(self, index)
    }

    fn present(&self, index: usize, net: &mut DiehlCook2015, train: bool) -> Vec<f32> {
        net.run_sample(self.image(index), train)
    }
}

/// The labels of an image set and each image's input raster, drawn
/// beforehand for one network seed and replayed by
/// [`DiehlCook2015::present`]. A training set is drawn for the sample
/// counters a freshly built network presents at (0, 1, …), an
/// evaluation set for the counters [`evaluate`] pins; presenting either
/// anywhere else panics.
#[derive(Clone)]
pub struct EncodedImages {
    labels: Box<[u8]>,
    rasters: Vec<SpikeRaster>,
}

impl EncodedImages {
    /// Encodes `images` for [`train`]ing a freshly built network of
    /// `config` and `seed`.
    pub fn for_training(
        images: &LabeledImages,
        config: &DiehlCookConfig,
        seed: u64,
    ) -> EncodedImages {
        EncodedImages::encode(images, config, seed, 0)
    }

    /// Encodes `images` for [`evaluate`] on a network of `config` and
    /// `seed`.
    pub fn for_evaluation(
        images: &LabeledImages,
        config: &DiehlCookConfig,
        seed: u64,
    ) -> EncodedImages {
        EncodedImages::encode(images, config, seed, EVALUATION_COUNTER_BASE)
    }

    fn encode(
        images: &LabeledImages,
        config: &DiehlCookConfig,
        seed: u64,
        first_sample: u64,
    ) -> EncodedImages {
        let mut encoder = PoissonEncoder::new(config.max_rate_hz, config.dt_ms, seed);
        let steps = config.steps_per_sample();
        let rasters = (0..images.len())
            .map(|i| encoder.raster(images.image(i), seed, first_sample + i as u64, steps))
            .collect();
        EncodedImages {
            labels: images.labels().into(),
            rasters,
        }
    }

    /// An upper bound on the bytes an [`EncodedImages`] of `images` under
    /// `config` occupies, computed without drawing its rasters: the
    /// labels plus the [rasters' bound](PoissonEncoder::rasters_bytes_bound).
    pub fn bytes_bound(images: &LabeledImages, config: &DiehlCookConfig) -> usize {
        // The seed is irrelevant: a bound makes no draws.
        let encoder = PoissonEncoder::new(config.max_rate_hz, config.dt_ms, 0);
        let rasters = (0..images.len()).map(|i| images.image(i));
        images.len() + encoder.rasters_bytes_bound(rasters, config.steps_per_sample())
    }

    /// Bytes the set occupies: its labels plus every raster.
    pub fn bytes(&self) -> usize {
        self.labels.len() + self.rasters.iter().map(SpikeRaster::bytes).sum::<usize>()
    }
}

impl std::fmt::Debug for EncodedImages {
    /// Size only: a set holds thousands of rasters.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedImages")
            .field("len", &self.rasters.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Pre-drawn rasters, replayed ([`DiehlCook2015::present`]).
impl Presentations for EncodedImages {
    fn len(&self) -> usize {
        self.rasters.len()
    }

    fn label(&self, index: usize) -> u8 {
        self.labels[index]
    }

    fn present(&self, index: usize, net: &mut DiehlCook2015, train: bool) -> Vec<f32> {
        net.present(&self.rasters[index], train)
    }
}

/// Options for [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Number of digit classes (10).
    pub n_classes: usize,
    /// Assign labels from only the last `assignment_window` samples
    /// (`None` = all samples). Later samples reflect the converged
    /// weights better; BindsNET's online protocol uses a trailing window.
    pub assignment_window: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> TrainOptions {
        TrainOptions {
            n_classes: 10,
            // BindsNET's online protocol assigns labels from the trailing
            // `update_interval = 250` samples; the converged weights make
            // late records more informative than early ones.
            assignment_window: Some(250),
        }
    }
}

/// Artifacts of a training pass.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Digit class assigned to each excitatory neuron.
    pub assignments: Vec<usize>,
    /// Excitatory spike counts recorded for every training presentation.
    pub spike_records: Vec<Vec<f32>>,
    /// Labels of the presented samples, aligned with `spike_records`.
    pub labels: Vec<u8>,
    /// Mean excitatory spikes per presentation (activity health metric).
    pub mean_activity: f64,
    /// Fraction of presentations with zero excitatory spikes.
    pub silent_fraction: f64,
    /// BindsNET-style online accuracy per trailing window: each entry is
    /// the accuracy over one `assignment_window`-sized block of training
    /// samples, predicted with assignments derived from the *previous*
    /// block (empty when fewer than two blocks were presented).
    pub online_accuracy: Vec<f64>,
}

/// Trains `net` on `data` (one pass, learning enabled) and derives
/// neuron-class assignments.
///
/// # Panics
/// Panics if `data` is empty or image sizes mismatch the network.
pub fn train<P: Presentations + ?Sized>(
    net: &mut DiehlCook2015,
    data: &P,
    options: &TrainOptions,
) -> TrainReport {
    train_with_hook(net, data, options, |_, _| {})
}

/// Like [`train`], but invokes `hook(sample_index, net)` before each
/// presentation. This is the extension point for *transient* fault
/// injection (supply glitches active only during part of training) and
/// for custom instrumentation.
///
/// # Panics
/// Panics if `data` is empty or image sizes mismatch the network.
pub fn train_with_hook<P: Presentations + ?Sized>(
    net: &mut DiehlCook2015,
    data: &P,
    options: &TrainOptions,
    mut hook: impl FnMut(usize, &mut DiehlCook2015),
) -> TrainReport {
    assert!(!data.is_empty(), "training set must not be empty");
    let mut spike_records = Vec::with_capacity(data.len());
    let mut labels = Vec::with_capacity(data.len());
    let mut total_spikes = 0.0f64;
    let mut silent = 0usize;
    for index in 0..data.len() {
        hook(index, net);
        let counts = data.present(index, net, true);
        let sum: f32 = counts.iter().sum();
        total_spikes += sum as f64;
        if sum == 0.0 {
            silent += 1;
        }
        spike_records.push(counts);
        labels.push(data.label(index));
    }
    let window = options
        .assignment_window
        .unwrap_or(spike_records.len())
        .min(spike_records.len())
        .max(1);

    // Online accuracy: predict each block with the previous block's
    // assignments (the BindsNET eth_mnist progress metric).
    let mut online_accuracy = Vec::new();
    let mut block_start = window;
    while block_start < spike_records.len() {
        let block_end = (block_start + window).min(spike_records.len());
        let assignments = assign_labels(
            &spike_records[block_start - window..block_start],
            &labels[block_start - window..block_start],
            options.n_classes,
        );
        let mut correct = 0usize;
        for i in block_start..block_end {
            if predict_all_activity(&spike_records[i], &assignments, options.n_classes)
                == labels[i] as usize
            {
                correct += 1;
            }
        }
        online_accuracy.push(correct as f64 / (block_end - block_start) as f64);
        block_start = block_end;
    }

    let start = spike_records.len() - window;
    let assignments = assign_labels(&spike_records[start..], &labels[start..], options.n_classes);
    TrainReport {
        assignments,
        mean_activity: total_spikes / data.len() as f64,
        silent_fraction: silent as f64 / data.len() as f64,
        spike_records,
        labels,
        online_accuracy,
    }
}

/// Evaluates classification accuracy on `data` with learning frozen.
/// Returns the fraction of correctly classified samples.
///
/// # Panics
/// Panics if `data` is empty or sizes mismatch.
pub fn evaluate<P: Presentations + ?Sized>(
    net: &mut DiehlCook2015,
    assignments: &[usize],
    data: &P,
    n_classes: usize,
) -> f64 {
    assert!(!data.is_empty(), "evaluation set must not be empty");
    // Pin the encoding counter so repeated evaluations of the same
    // network and dataset are bit-identical (training may have advanced
    // it by a varying amount), and snapshot the adaptive thresholds —
    // they keep adapting during evaluation (hardware has no test mode)
    // but must not leak across evaluations.
    net.set_sample_counter(EVALUATION_COUNTER_BASE);
    let theta_exc = net.excitatory.theta.clone();
    let theta_inh = net.inhibitory.theta.clone();
    let mut correct = 0usize;
    for index in 0..data.len() {
        let counts = data.present(index, net, false);
        if predict_all_activity(&counts, assignments, n_classes) == data.label(index) as usize {
            correct += 1;
        }
    }
    net.excitatory.theta = theta_exc;
    net.inhibitory.theta = theta_inh;
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diehl_cook::DiehlCookConfig;
    use neurofi_data::SynthDigits;

    fn tiny_net(seed: u64) -> DiehlCook2015 {
        let mut config = DiehlCookConfig::quick();
        config.sample_time_ms = 100.0;
        DiehlCook2015::new(config, seed)
    }

    #[test]
    fn train_produces_consistent_report() {
        let data = SynthDigits::default().generate(30, 3);
        let mut net = tiny_net(1);
        let report = train(&mut net, &data, &TrainOptions::default());
        assert_eq!(report.assignments.len(), 100);
        assert_eq!(report.spike_records.len(), 30);
        assert_eq!(report.labels.len(), 30);
        assert!(report.mean_activity > 0.0, "network completely silent");
        assert!(report.assignments.iter().all(|&a| a < 10));
    }

    #[test]
    fn assignment_window_restricts_records() {
        let data = SynthDigits::default().generate(30, 3);
        let full = {
            let mut net = tiny_net(1);
            train(&mut net, &data, &TrainOptions::default())
        };
        let windowed = {
            let mut net = tiny_net(1);
            train(
                &mut net,
                &data,
                &TrainOptions {
                    assignment_window: Some(10),
                    ..Default::default()
                },
            )
        };
        // Identical dynamics (same seed), potentially different
        // assignments from the different windows.
        assert_eq!(full.spike_records, windowed.spike_records);
    }

    #[test]
    fn small_training_run_beats_chance() {
        // 150 samples, abbreviated exposure: far from the paper's setup,
        // but the pipeline must already classify well above the 10%
        // chance level.
        let gen = SynthDigits::default();
        let train_data = gen.generate(150, 11);
        let test_data = gen.generate(40, 12);
        let mut net = tiny_net(5);
        let report = train(&mut net, &train_data, &TrainOptions::default());
        let accuracy = evaluate(&mut net, &report.assignments, &test_data, 10);
        assert!(
            accuracy > 0.25,
            "accuracy {accuracy:.2} not above chance — training broken"
        );
    }

    #[test]
    fn evaluation_is_bit_reproducible() {
        let data = SynthDigits::default().generate(15, 3);
        let mut net = tiny_net(1);
        let report = train(&mut net, &data, &TrainOptions::default());
        let a = evaluate(&mut net, &report.assignments, &data, 10);
        let b = evaluate(&mut net, &report.assignments, &data, 10);
        assert_eq!(a, b, "evaluation must be deterministic per network");
    }

    #[test]
    fn encoded_sets_replay_the_per_sample_path_bit_for_bit() {
        let gen = SynthDigits::default();
        let (train_data, test_data) = (gen.generate(12, 3), gen.generate(6, 4));
        let run = |train_set: &dyn Presentations, test_set: &dyn Presentations| {
            let mut net = tiny_net(1);
            let report = train(&mut net, train_set, &TrainOptions::default());
            let accuracy = evaluate(&mut net, &report.assignments, test_set, 10);
            let again = evaluate(&mut net, &report.assignments, test_set, 10);
            assert_eq!(accuracy.to_bits(), again.to_bits());
            (report.spike_records, accuracy.to_bits(), net.input_to_exc.w)
        };
        let config = tiny_net(1).config().clone();
        let train_set = EncodedImages::for_training(&train_data, &config, 1);
        let test_set = EncodedImages::for_evaluation(&test_data, &config, 1);
        let (raw, encoded) = (run(&train_data, &test_data), run(&train_set, &test_set));
        assert_eq!(raw.0, encoded.0);
        assert_eq!(raw.1, encoded.1);
        assert_eq!(raw.2.as_slice(), encoded.2.as_slice());
        // The bound sizes a set before drawing it, and not loosely.
        for (images, set) in [(&train_data, &train_set), (&test_data, &test_set)] {
            let (bound, actual) = (EncodedImages::bytes_bound(images, &config), set.bytes());
            assert!(
                actual <= bound && bound < actual + actual / 4,
                "{actual} vs {bound}"
            );
        }
    }

    #[test]
    fn evaluation_does_not_change_weights() {
        let data = SynthDigits::default().generate(20, 3);
        let mut net = tiny_net(1);
        let report = train(&mut net, &data, &TrainOptions::default());
        let weights = net.input_to_exc.w.clone();
        let _ = evaluate(&mut net, &report.assignments, &data, 10);
        assert_eq!(weights.as_slice(), net.input_to_exc.w.as_slice());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_set_rejected() {
        let data = neurofi_data::LabeledImages::empty(28, 28);
        let mut net = tiny_net(0);
        train(&mut net, &data, &TrainOptions::default());
    }

    #[test]
    fn hook_fires_once_per_sample_in_order() {
        let data = SynthDigits::default().generate(12, 3);
        let mut net = tiny_net(1);
        let mut seen = Vec::new();
        train_with_hook(&mut net, &data, &TrainOptions::default(), |i, _| {
            seen.push(i)
        });
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn hook_can_mutate_faults_mid_training() {
        let data = SynthDigits::default().generate(10, 3);
        let mut net = tiny_net(1);
        train_with_hook(&mut net, &data, &TrainOptions::default(), |i, net| {
            if i == 5 {
                net.inhibitory.threshold_scale.fill(0.8);
            }
        });
        // The fault injected mid-training is still present afterwards.
        assert!(net.inhibitory.threshold_scale.iter().all(|&s| s == 0.8));
    }

    #[test]
    fn online_accuracy_blocks() {
        let data = SynthDigits::default().generate(30, 3);
        let mut net = tiny_net(1);
        let report = train(
            &mut net,
            &data,
            &TrainOptions {
                assignment_window: Some(10),
                ..Default::default()
            },
        );
        // 30 samples, window 10 → blocks [10,20) and [20,30).
        assert_eq!(report.online_accuracy.len(), 2);
        for acc in &report.online_accuracy {
            assert!((0.0..=1.0).contains(acc));
        }
    }

    #[test]
    fn online_accuracy_empty_without_two_blocks() {
        let data = SynthDigits::default().generate(8, 3);
        let mut net = tiny_net(1);
        let report = train(&mut net, &data, &TrainOptions::default());
        assert!(report.online_accuracy.is_empty());
    }
}
