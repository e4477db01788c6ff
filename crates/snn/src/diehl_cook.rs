//! The Diehl&Cook (2015) unsupervised digit-classification network, as
//! configured by the paper (§IV-A).
//!
//! Architecture (paper Fig. 7a):
//!
//! ```text
//! 784 Poisson inputs ──all-to-all (plastic, STDP)──▶ 100 excitatory (EL)
//! EL ──one-to-one (+22.5)──▶ 100 inhibitory (IL)
//! IL ──all-but-self (−120)──▶ EL        (lateral competition)
//! ```
//!
//! Learning is a single pass with post-pre STDP applied after every
//! simulation step (the paper trains in batches of 32; see
//! [`PostPreStdp`] for the rates), per-sample weight normalisation to
//! 78.4, and adaptive excitatory thresholds. Classification assigns each
//! excitatory neuron to the digit class it fires most for, then predicts
//! by mean assigned-class activity.

use crate::encoding::{PoissonEncoder, SpikeRaster};
use crate::learning::{Activity, PostPreStdp};
use crate::neurons::{InputLayer, LifLayer, LifParameters};
use crate::tensor::indices;
use crate::topology::{DenseConnection, LateralInhibition, OneToOneConnection};

/// Configuration of the Diehl&Cook network.
#[derive(Debug, Clone, PartialEq)]
pub struct DiehlCookConfig {
    /// Number of input channels (784 for 28×28 images).
    pub n_input: usize,
    /// Excitatory population size (100 in the paper).
    pub n_excitatory: usize,
    /// Inhibitory population size (100 in the paper).
    pub n_inhibitory: usize,
    /// Excitatory → inhibitory one-to-one weight (22.5).
    pub exc_weight: f32,
    /// Inhibitory → excitatory lateral weight magnitude (120, applied
    /// negatively).
    pub inh_weight: f32,
    /// Upper bound for plastic input weights.
    pub w_max: f32,
    /// Initial weight scale (uniform in `[0, w_init)`).
    pub w_init: f32,
    /// Per-neuron incoming-weight normalisation target (78.4).
    pub norm: f32,
    /// Simulation time per sample, ms (250 in BindsNET's protocol).
    pub sample_time_ms: f64,
    /// Simulation step, ms.
    pub dt_ms: f64,
    /// Poisson rate of a fully-bright pixel, Hz (BindsNET intensity 128).
    pub max_rate_hz: f64,
    /// STDP learning rates.
    pub stdp: PostPreStdp,
    /// Excitatory neuron parameters.
    pub excitatory: LifParameters,
    /// Inhibitory neuron parameters.
    pub inhibitory: LifParameters,
}

impl Default for DiehlCookConfig {
    fn default() -> DiehlCookConfig {
        DiehlCookConfig {
            n_input: 784,
            n_excitatory: 100,
            n_inhibitory: 100,
            exc_weight: 22.5,
            inh_weight: 120.0,
            w_max: 1.0,
            w_init: 0.3,
            norm: 78.4,
            sample_time_ms: 250.0,
            dt_ms: 1.0,
            // BindsNET's eth_mnist intensity: a 255 pixel fires at 128 Hz.
            max_rate_hz: 128.0,
            // BindsNET's shipped rates, which reproduce the paper's
            // baseline — see PostPreStdp::paper() for why the paper's
            // prose rates are not used here.
            stdp: PostPreStdp::bindsnet(),
            excitatory: LifParameters::diehl_cook_excitatory(),
            inhibitory: LifParameters::diehl_cook_inhibitory(),
        }
    }
}

impl DiehlCookConfig {
    /// A reduced-fidelity configuration for fast tests and smoke
    /// reproduction: shorter exposure per sample.
    pub fn quick() -> DiehlCookConfig {
        DiehlCookConfig {
            sample_time_ms: 100.0,
            ..DiehlCookConfig::default()
        }
    }

    /// Number of simulation steps per sample.
    pub fn steps_per_sample(&self) -> usize {
        (self.sample_time_ms / self.dt_ms).round() as usize
    }
}

/// The instantiated network.
#[derive(Debug, Clone)]
pub struct DiehlCook2015 {
    config: DiehlCookConfig,
    /// Input population (Poisson spike carriers + traces).
    pub input: InputLayer,
    /// Excitatory population (adaptive thresholds; fault hooks live here).
    pub excitatory: LifLayer,
    /// Inhibitory population (fault hooks live here).
    pub inhibitory: LifLayer,
    /// Plastic input → excitatory pathway (drive-gain fault hook).
    pub input_to_exc: DenseConnection,
    /// Excitatory → inhibitory one-to-one pathway.
    pub exc_to_inh: OneToOneConnection,
    /// Inhibitory → excitatory lateral competition.
    pub inh_to_exc: LateralInhibition,
    /// When false, STDP is disabled (evaluation mode).
    pub learning: bool,
    seed: u64,
    samples_seen: u64,
    // Scratch buffers reused across steps.
    exc_current: Vec<f32>,
    inh_current: Vec<f32>,
}

impl DiehlCook2015 {
    /// Builds the network with seeded weight initialisation; the seed
    /// also fixes every presentation's Poisson input stream.
    ///
    /// # Panics
    /// Panics if the configuration is structurally invalid (zero-sized
    /// layers, non-positive times, or an excitatory/inhibitory size
    /// mismatch — the one-to-one wiring requires equal sizes).
    pub fn new(config: DiehlCookConfig, seed: u64) -> DiehlCook2015 {
        assert_eq!(
            config.n_excitatory, config.n_inhibitory,
            "one-to-one wiring requires equally sized EL and IL"
        );
        assert!(config.sample_time_ms > 0.0, "sample time must be positive");
        let dt = config.dt_ms as f32;
        let input = InputLayer::new(config.n_input, config.excitatory.tau_trace, dt);
        let excitatory = LifLayer::new(config.n_excitatory, config.excitatory.clone(), dt);
        let inhibitory = LifLayer::new(config.n_inhibitory, config.inhibitory.clone(), dt);
        let input_to_exc = DenseConnection::random(
            config.n_input,
            config.n_excitatory,
            config.w_init,
            0.0,
            config.w_max,
            seed,
        )
        .with_norm(config.norm);
        let exc_to_inh = OneToOneConnection::new(config.n_excitatory, config.exc_weight);
        let inh_to_exc = LateralInhibition::new(config.n_inhibitory, -config.inh_weight.abs());
        let n_exc = config.n_excitatory;
        let n_inh = config.n_inhibitory;
        DiehlCook2015 {
            config,
            input,
            excitatory,
            inhibitory,
            input_to_exc,
            exc_to_inh,
            inh_to_exc,
            learning: true,
            seed,
            samples_seen: 0,
            exc_current: vec![0.0; n_exc],
            inh_current: vec![0.0; n_inh],
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &DiehlCookConfig {
        &self.config
    }

    /// Number of simulation steps per sample.
    pub fn steps_per_sample(&self) -> usize {
        self.config.steps_per_sample()
    }

    /// Advances the network one step with the given dense input frame,
    /// 1.0 for an input that fires and 0.0 for one that does not: a
    /// wrapper that lists the firing inputs and runs the step
    /// [`present`](DiehlCook2015::present) runs.
    ///
    /// # Panics
    /// Panics if `input_spikes.len() != config.n_input`, or if an entry
    /// is neither 0.0 nor 1.0; the message names the entry.
    pub fn step(&mut self, input_spikes: &[f32]) {
        assert_eq!(
            input_spikes.len(),
            self.config.n_input,
            "input spike length mismatch"
        );
        let binary = |s: f32| s == 0.0 || s == 1.0;
        // One vectorised test; the search for the offender runs only on
        // failure.
        if !input_spikes.iter().fold(true, |all, &s| all & binary(s)) {
            let i = input_spikes
                .iter()
                .position(|&s| !binary(s))
                .expect("a non-binary entry exists");
            panic!(
                "input spike entry {i} is {}, not 0.0 or 1.0",
                input_spikes[i]
            );
        }
        self.input.fire(indices(input_spikes, |s| s == 1.0));
        self.advance();
    }

    /// The network's one step, after the input layer has fired
    /// (synchronous update: layer inputs are computed from the previous
    /// step's spikes before any layer advances). The input forward pass
    /// and STDP read the input layer's index lists, so their cost follows
    /// the spikes.
    fn advance(&mut self) {
        self.exc_current.fill(0.0);
        self.input_to_exc
            .forward_spiking(self.input.spiking(), &mut self.exc_current);
        self.inh_to_exc
            .forward_into(&self.inhibitory.spikes, &mut self.exc_current);

        self.inh_current.fill(0.0);
        self.exc_to_inh
            .forward_into(&self.excitatory.spikes, &mut self.inh_current);

        self.excitatory.step(&self.exc_current);
        self.inhibitory.step(&self.inh_current);

        if self.learning {
            self.config.stdp.apply(
                &mut self.input_to_exc,
                Activity {
                    spikes: &self.input.spikes,
                    spiking: self.input.spiking(),
                    traces: &self.input.traces,
                },
                self.input.traced().iter().copied(),
                Activity {
                    spikes: &self.excitatory.spikes,
                    spiking: self.excitatory.spiking(),
                    traces: &self.excitatory.traces,
                },
            );
        }
    }

    /// Presents one image for `sample_time_ms`, returning the excitatory
    /// spike count per neuron: draws the image's input raster for this
    /// presentation, then [`present`](DiehlCook2015::present)s it.
    ///
    /// # Panics
    /// Panics if `image.len() != config.n_input`.
    pub fn run_sample(&mut self, image: &[u8], train: bool) -> Vec<f32> {
        let raster = PoissonEncoder::new(self.config.max_rate_hz, self.config.dt_ms, self.seed)
            .raster(image, self.seed, self.samples_seen, self.steps_per_sample());
        self.present(&raster, train)
    }

    /// Presents one input raster, returning the excitatory spike count
    /// per neuron: the network's only step loop, fed each step's index
    /// list straight from the raster. Dynamic state resets between
    /// samples (adaptive thresholds and learned weights persist);
    /// weights are renormalised before the presentation when `train` is
    /// set. The presentation advances the sample counter.
    ///
    /// # Panics
    /// Panics if the raster was drawn for another input size, network
    /// seed, sample counter or step count; the message names the field.
    pub fn present(&mut self, raster: &SpikeRaster, train: bool) -> Vec<f32> {
        assert!(
            raster.n_input() == self.config.n_input,
            "raster of {} inputs does not match the input layer of {}",
            raster.n_input(),
            self.config.n_input
        );
        assert!(
            raster.seed() == self.seed,
            "raster seed {} does not match the network seed {}",
            raster.seed(),
            self.seed
        );
        assert!(
            raster.sample() == self.samples_seen,
            "raster sample counter {} does not match the network's {}",
            raster.sample(),
            self.samples_seen
        );
        assert!(
            raster.steps() == self.steps_per_sample(),
            "raster step count {} does not match the network's {} steps per sample",
            raster.steps(),
            self.steps_per_sample()
        );
        self.learning = train;
        // Threshold adaptation stays active in both modes: the analog
        // hardware this models has no train/test switch. The evaluation
        // protocol in `trainer::evaluate` snapshots and restores theta so
        // repeated evaluations are reproducible.
        if train {
            self.input_to_exc.normalize();
        }
        self.input.reset_state();
        self.excitatory.reset_state();
        self.inhibitory.reset_state();
        self.samples_seen += 1;

        let mut counts = vec![0.0f32; self.config.n_excitatory];
        for t in 0..raster.steps() {
            self.input
                .fire(raster.step(t).iter().map(|&i| usize::from(i)));
            self.advance();
            for &j in self.excitatory.spiking() {
                counts[j] += 1.0;
            }
        }
        counts
    }

    /// Clears every injected fault (threshold scales and drive gains).
    pub fn clear_faults(&mut self) {
        self.excitatory.clear_faults();
        self.inhibitory.clear_faults();
        self.input_to_exc.gain = 1.0;
    }

    /// Pins the per-sample encoding counter. Each presentation derives its
    /// Poisson stream from `(network seed, counter)`, so fixing the
    /// counter makes a run over the same dataset bit-reproducible — the
    /// evaluation protocol uses this so that repeated evaluations of one
    /// network agree exactly.
    pub fn set_sample_counter(&mut self, value: u64) {
        self.samples_seen = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofi_data::SynthDigits;

    fn quick_net(seed: u64) -> DiehlCook2015 {
        let mut config = DiehlCookConfig::quick();
        config.sample_time_ms = 100.0;
        DiehlCook2015::new(config, seed)
    }

    #[test]
    fn paper_configuration_defaults() {
        let c = DiehlCookConfig::default();
        assert_eq!(c.n_input, 784);
        assert_eq!(c.n_excitatory, 100);
        assert_eq!(c.n_inhibitory, 100);
        assert!((c.exc_weight - 22.5).abs() < 1e-6);
        assert!((c.inh_weight - 120.0).abs() < 1e-6);
        assert!((c.norm - 78.4).abs() < 1e-6);
    }

    #[test]
    fn excitatory_neurons_respond_to_input() {
        let data = SynthDigits::default().generate(4, 5);
        let mut net = quick_net(1);
        let counts = net.run_sample(data.image(0), true);
        let total: f32 = counts.iter().sum();
        assert!(total > 0.0, "no excitatory activity at all");
        assert!(total < 2000.0, "implausible activity level {total}");
    }

    #[test]
    fn lateral_inhibition_sparsifies_activity() {
        // With −120 lateral inhibition only a few neurons should dominate
        // each presentation (competition), versus many without it.
        let data = SynthDigits::default().generate(2, 9);
        let active = |inh: f32| {
            let mut config = DiehlCookConfig::quick();
            config.inh_weight = inh;
            let mut net = DiehlCook2015::new(config, 3);
            let counts = net.run_sample(data.image(0), true);
            counts.iter().filter(|&&c| c > 0.0).count()
        };
        let with_inh = active(120.0);
        let without = active(0.0);
        assert!(
            with_inh < without,
            "inhibition should sparsify: {with_inh} vs {without}"
        );
    }

    #[test]
    fn run_sample_is_deterministic_in_sequence() {
        let data = SynthDigits::default().generate(3, 5);
        let run = || {
            let mut net = quick_net(7);
            let mut all = Vec::new();
            for (img, _) in data.iter() {
                all.push(net.run_sample(img, true));
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn learning_changes_weights_evaluation_does_not() {
        let data = SynthDigits::default().generate(2, 5);
        let mut net = quick_net(7);
        let before = net.input_to_exc.w.clone();
        net.run_sample(data.image(0), true);
        let after_train = net.input_to_exc.w.clone();
        assert_ne!(before.as_slice(), after_train.as_slice());
        net.run_sample(data.image(1), false);
        assert_eq!(
            after_train.as_slice(),
            net.input_to_exc.w.as_slice(),
            "evaluation must not learn"
        );
    }

    #[test]
    fn theta_accumulates_across_samples() {
        let data = SynthDigits::default().generate(4, 5);
        let mut net = quick_net(7);
        for (img, _) in data.iter() {
            net.run_sample(img, true);
        }
        let total_theta: f32 = net.excitatory.theta.iter().sum();
        assert!(total_theta > 0.0, "adaptive thresholds never engaged");
    }

    #[test]
    fn silencing_inhibitory_layer_floods_excitatory() {
        // The Attack-3 mechanism: scaling the (negative) IL threshold by
        // 0.8 silences the inhibitory population, removing competition.
        let data = SynthDigits::default().generate(2, 5);
        let mut nominal = quick_net(3);
        let n_counts = nominal.run_sample(data.image(0), true);
        let n_active = n_counts.iter().filter(|&&c| c > 0.0).count();
        let n_inh_spikes: f32 = nominal.inhibitory.spikes.iter().sum();
        let _ = n_inh_spikes;

        let mut attacked = quick_net(3);
        attacked.inhibitory.threshold_scale.fill(0.8);
        let a_counts = attacked.run_sample(data.image(0), true);
        let a_active = a_counts.iter().filter(|&&c| c > 0.0).count();
        assert!(
            a_active >= n_active,
            "silenced inhibition should not reduce activity ({a_active} vs {n_active})"
        );
        let a_total: f32 = a_counts.iter().sum();
        let n_total: f32 = n_counts.iter().sum();
        assert!(
            a_total > n_total,
            "total excitatory activity should rise without inhibition"
        );
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn rejects_mismatched_populations() {
        let config = DiehlCookConfig {
            n_inhibitory: 50,
            ..Default::default()
        };
        DiehlCook2015::new(config, 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_wrong_image_size() {
        let mut net = quick_net(0);
        net.run_sample(&[0u8; 100], true);
    }

    /// `present`, spelled as a loop of the dense `step` over the
    /// raster's frames.
    fn present_by_steps(net: &mut DiehlCook2015, raster: &SpikeRaster, train: bool) -> Vec<f32> {
        net.learning = train;
        if train {
            net.input_to_exc.normalize();
        }
        net.input.reset_state();
        net.excitatory.reset_state();
        net.inhibitory.reset_state();
        net.samples_seen += 1;
        let mut counts = vec![0.0f32; net.config.n_excitatory];
        let mut frame = vec![0.0f32; raster.n_input()];
        for t in 0..raster.steps() {
            frame.fill(0.0);
            for &i in raster.step(t) {
                frame[usize::from(i)] = 1.0;
            }
            net.step(&frame);
            for (c, &s) in counts.iter_mut().zip(&net.excitatory.spikes) {
                *c += s;
            }
        }
        counts
    }

    #[test]
    fn present_equals_a_loop_of_step_over_the_dense_frames() {
        let data = SynthDigits::default().generate(5, 5);
        let mut by_raster = quick_net(7);
        let mut by_frames = by_raster.clone();
        let steps = by_raster.steps_per_sample();
        let mut encoder = PoissonEncoder::new(128.0, 1.0, 7);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (sample, (image, _)) in data.iter().enumerate() {
            let train = sample < 3;
            let raster = encoder.raster(image, 7, sample as u64, steps);
            let counts = by_raster.present(&raster, train);
            assert_eq!(
                bits(&counts),
                bits(&present_by_steps(&mut by_frames, &raster, train)),
                "counts of sample {sample}"
            );
            assert!(
                counts.iter().sum::<f32>() > 0.0,
                "sample {sample} is silent"
            );
            assert_eq!(
                bits(by_raster.input_to_exc.w.as_slice()),
                bits(by_frames.input_to_exc.w.as_slice()),
                "weights after sample {sample}"
            );
            assert_eq!(
                bits(&by_raster.excitatory.theta),
                bits(&by_frames.excitatory.theta),
                "theta after sample {sample}"
            );
        }
    }

    #[test]
    fn trained_weights_are_never_negative_zero() {
        // The STDP kernel skips rows whose trace is 0.0, which is exact
        // only while no weight is −0.0 (see `DenseConnection::w`).
        let data = SynthDigits::default().generate(8, 5);
        let mut net = quick_net(11);
        for (img, _) in data.iter() {
            net.run_sample(img, true);
        }
        let w = net.input_to_exc.w.as_slice();
        assert!(w.iter().all(|w| w.to_bits() != (-0.0f32).to_bits()));
        assert!(
            w.contains(&0.0),
            "no weight was clamped to the 0.0 bound, so the check saw no zero"
        );
    }

    #[test]
    #[should_panic(expected = "input spike entry 3 is 0.5, not 0.0 or 1.0")]
    fn step_refuses_a_spike_amplitude() {
        let mut net = quick_net(0);
        let mut frame = vec![0.0f32; net.config().n_input];
        frame[3] = 0.5;
        net.step(&frame);
    }

    /// A raster of a digit drawn for `(seed, sample)` over `steps` steps.
    fn raster(seed: u64, sample: u64, steps: usize) -> SpikeRaster {
        let data = SynthDigits::default().generate(1, 5);
        PoissonEncoder::new(128.0, 1.0, seed).raster(data.image(0), seed, sample, steps)
    }

    #[test]
    #[should_panic(expected = "raster seed 8 does not match the network seed 7")]
    fn present_refuses_a_raster_of_another_seed() {
        let mut net = quick_net(7);
        let steps = net.steps_per_sample();
        net.present(&raster(8, 0, steps), true);
    }

    #[test]
    #[should_panic(expected = "raster sample counter 1 does not match the network's 0")]
    fn present_refuses_a_raster_of_another_sample() {
        let mut net = quick_net(7);
        let steps = net.steps_per_sample();
        net.present(&raster(7, 1, steps), true);
    }

    #[test]
    #[should_panic(expected = "raster step count 99 does not match the network's 100")]
    fn present_refuses_a_raster_of_another_step_count() {
        let mut net = quick_net(7);
        net.present(&raster(7, 0, 99), false);
    }
}
