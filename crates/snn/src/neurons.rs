//! Neuron layer models: leaky integrate-and-fire, with and without the
//! Diehl&Cook adaptive threshold.
//!
//! Conventions follow BindsNET (and through it, the paper): voltages in
//! millivolts on the biological scale (rest −65 mV, thresholds negative),
//! time in milliseconds, synchronous update (all layers step on the
//! spikes of the previous step).
//!
//! ## Fault hook
//!
//! The threshold attacks in `neurofi-core` write
//! [`LifLayer::threshold_scale`], a per-neuron multiplicative factor on
//! the *signed* firing threshold, as the paper applies its sweep to
//! BindsNET's parameters.

use crate::tensor::decay;

/// Parameters of a LIF population.
#[derive(Debug, Clone, PartialEq)]
pub struct LifParameters {
    /// Resting potential, mV.
    pub v_rest: f32,
    /// Post-spike reset potential, mV.
    pub v_reset: f32,
    /// Firing threshold, mV (negative, biological convention).
    pub v_thresh: f32,
    /// Membrane time constant, ms.
    pub tau_m: f32,
    /// Absolute refractory period, ms.
    pub refractory_ms: f32,
    /// Synaptic-trace time constant, ms (for STDP).
    pub tau_trace: f32,
    /// Adaptive-threshold increment per spike, mV (0 disables adaptation).
    pub theta_plus: f32,
    /// Adaptive-threshold decay time constant, ms (ignored when
    /// `theta_plus == 0`; Diehl&Cook uses 10⁷ ms — effectively static
    /// within one experiment).
    pub tau_theta: f32,
}

impl LifParameters {
    /// The Diehl&Cook excitatory population (BindsNET `DiehlAndCookNodes`):
    /// rest −65 mV, reset −60 mV, threshold −52 mV + adaptive theta.
    pub fn diehl_cook_excitatory() -> LifParameters {
        LifParameters {
            v_rest: -65.0,
            v_reset: -60.0,
            v_thresh: -52.0,
            tau_m: 100.0,
            refractory_ms: 5.0,
            tau_trace: 20.0,
            theta_plus: 0.05,
            tau_theta: 1.0e7,
        }
    }

    /// The Diehl&Cook inhibitory population (BindsNET `LIFNodes`):
    /// rest −60 mV, reset −45 mV, threshold −40 mV, fast membrane.
    pub fn diehl_cook_inhibitory() -> LifParameters {
        LifParameters {
            v_rest: -60.0,
            v_reset: -45.0,
            v_thresh: -40.0,
            tau_m: 10.0,
            refractory_ms: 2.0,
            tau_trace: 20.0,
            theta_plus: 0.0,
            tau_theta: 1.0e7,
        }
    }
}

/// A population of LIF neurons (adaptive-threshold capable).
#[derive(Debug, Clone)]
pub struct LifLayer {
    params: LifParameters,
    dt_ms: f32,
    v_decay: f32,
    trace_decay: f32,
    theta_decay: f32,
    /// Membrane potentials, mV.
    pub v: Vec<f32>,
    /// Spike indicator from the most recent step (1.0 = spiked).
    pub spikes: Vec<f32>,
    /// The neurons that spiked in the most recent step, ascending.
    spiking: Vec<usize>,
    /// Synaptic traces (decaying spike memory for STDP).
    pub traces: Vec<f32>,
    /// Adaptive threshold increments, mV (all zeros when disabled).
    pub theta: Vec<f32>,
    /// Remaining refractory time per neuron, ms.
    refractory_left: Vec<f32>,
    /// FAULT HOOK: per-neuron multiplicative factor on the signed firing
    /// threshold (1.0 = nominal). −20% threshold change ⇒ 0.8.
    pub threshold_scale: Vec<f32>,
}

impl LifLayer {
    /// Creates a population of `n` neurons at rest.
    ///
    /// # Panics
    /// Panics if `n` is zero or `dt_ms` is not positive.
    pub fn new(n: usize, params: LifParameters, dt_ms: f32) -> LifLayer {
        assert!(n > 0, "layer must contain at least one neuron");
        assert!(dt_ms > 0.0, "dt must be positive");
        LifLayer {
            v_decay: (-dt_ms / params.tau_m).exp(),
            trace_decay: (-dt_ms / params.tau_trace).exp(),
            theta_decay: (-dt_ms / params.tau_theta).exp(),
            dt_ms,
            v: vec![params.v_rest; n],
            spikes: vec![0.0; n],
            spiking: Vec::with_capacity(n),
            traces: vec![0.0; n],
            theta: vec![0.0; n],
            refractory_left: vec![0.0; n],
            threshold_scale: vec![1.0; n],
            params,
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True when the layer is empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The layer parameters.
    pub fn params(&self) -> &LifParameters {
        &self.params
    }

    /// The neurons that spiked in the most recent step, ascending: the
    /// indices of [`LifLayer::spikes`]' nonzero entries.
    pub fn spiking(&self) -> &[usize] {
        &self.spiking
    }

    /// The effective firing threshold of neuron `i`, including the fault
    /// scale and adaptive theta, mV.
    #[inline]
    pub fn effective_threshold(&self, i: usize) -> f32 {
        self.params.v_thresh * self.threshold_scale[i] + self.theta[i]
    }

    /// Advances the population one step with the given per-neuron input
    /// currents (mV of membrane change per step).
    ///
    /// # Panics
    /// Panics if `input.len() != len()`.
    pub fn step(&mut self, input: &[f32]) {
        assert_eq!(input.len(), self.len(), "input length mismatch");
        let p = &self.params;
        // Decay stays in dedicated passes: they auto-vectorise, unlike the
        // branchy membrane loop below (refractory skips, spike resets).
        decay(&mut self.traces, self.trace_decay);
        let adapt = p.theta_plus != 0.0;
        if adapt {
            decay(&mut self.theta, self.theta_decay);
        }
        self.spiking.clear();
        // The membrane loop walks five parallel arrays; indexing beats a
        // five-way zip for clarity here.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.v.len() {
            self.spikes[i] = 0.0;
            if self.refractory_left[i] > 0.0 {
                self.refractory_left[i] -= self.dt_ms;
                continue;
            }
            // Leak toward rest, then integrate input.
            self.v[i] = p.v_rest + (self.v[i] - p.v_rest) * self.v_decay + input[i];
            if self.v[i] >= self.effective_threshold(i) {
                self.spikes[i] = 1.0;
                self.spiking.push(i);
                self.traces[i] = 1.0;
                self.v[i] = p.v_reset;
                self.refractory_left[i] = p.refractory_ms;
                if adapt {
                    self.theta[i] += p.theta_plus;
                }
            }
        }
    }

    /// Resets dynamic state (membrane, spikes, traces, refractory) while
    /// keeping learned theta and any injected faults — the between-samples
    /// reset of the Diehl&Cook protocol.
    pub fn reset_state(&mut self) {
        self.v.fill(self.params.v_rest);
        self.spikes.fill(0.0);
        self.spiking.clear();
        self.traces.fill(0.0);
        self.refractory_left.fill(0.0);
    }

    /// Clears the threshold fault back to nominal.
    pub fn clear_faults(&mut self) {
        self.threshold_scale.fill(1.0);
    }
}

/// The input population: an encoder decides which channels fire each
/// step; the layer keeps their spike indicators and STDP traces, and the
/// two index lists that let every consumer work in O(spikes) instead of
/// O(channels):
///
/// - [`InputLayer::spiking`]: this step's firing channels, ascending;
/// - [`InputLayer::traced`]: the *traced rows*, every channel whose trace
///   is nonzero, in no particular order. A channel outside the list has
///   a trace of exactly 0.0.
///
/// [`InputLayer::fire`] and [`InputLayer::reset_state`] keep the dense
/// vectors and the lists in step; write `spikes` and `traces` through
/// them only.
#[derive(Debug, Clone)]
pub struct InputLayer {
    trace_decay: f32,
    /// Spike indicator for the current step (1.0 = fired).
    pub spikes: Vec<f32>,
    /// Synaptic traces.
    pub traces: Vec<f32>,
    spiking: Vec<usize>,
    traced: Vec<usize>,
}

impl InputLayer {
    /// Creates an input population of `n` channels.
    ///
    /// # Panics
    /// Panics if `n` is zero or parameters are non-positive.
    pub fn new(n: usize, tau_trace: f32, dt_ms: f32) -> InputLayer {
        assert!(n > 0, "layer must contain at least one neuron");
        assert!(
            tau_trace > 0.0 && dt_ms > 0.0,
            "time constants must be positive"
        );
        InputLayer {
            trace_decay: (-dt_ms / tau_trace).exp(),
            spikes: vec![0.0; n],
            traces: vec![0.0; n],
            spiking: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.spikes.len()
    }

    /// True when empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.spikes.is_empty()
    }

    /// Advances one step in which exactly the channels `spiking` fire:
    /// their traces reset to 1 and every other trace decays. Only the
    /// traced rows decay (every other trace is 0.0, and `0.0 · decay` is
    /// 0.0), and a row leaves the list when its trace underflows to 0.0,
    /// so the step costs O(traced rows + spikes).
    ///
    /// # Panics
    /// Panics if a channel is out of range or the channels are not
    /// strictly ascending.
    pub fn fire(&mut self, spiking: impl IntoIterator<Item = usize>) {
        for &i in &self.spiking {
            self.spikes[i] = 0.0;
        }
        self.spiking.clear();
        let mut underflow = false;
        for &i in &self.traced {
            self.traces[i] *= self.trace_decay;
            underflow |= self.traces[i] == 0.0;
        }
        if underflow {
            // Some trace decayed to 0.0 (thousands of silent steps after
            // its spike): its row leaves the list.
            let traces = &self.traces;
            self.traced.retain(|&i| traces[i] != 0.0);
        }
        let n = self.spikes.len();
        for i in spiking {
            assert!(i < n, "input channel {i} out of range for {n} channels");
            assert!(
                self.spiking.last().is_none_or(|&last| last < i),
                "input channels must be strictly ascending, got {i} after {:?}",
                self.spiking.last()
            );
            if self.traces[i] == 0.0 {
                self.traced.push(i);
            }
            self.traces[i] = 1.0;
            self.spikes[i] = 1.0;
            self.spiking.push(i);
        }
    }

    /// This step's firing channels, ascending.
    pub fn spiking(&self) -> &[usize] {
        &self.spiking
    }

    /// The traced rows: every channel whose trace is nonzero.
    pub fn traced(&self) -> &[usize] {
        &self.traced
    }

    /// Clears spikes and traces.
    pub fn reset_state(&mut self) {
        self.spikes.fill(0.0);
        self.traces.fill(0.0);
        self.spiking.clear();
        self.traced.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(n: usize) -> LifLayer {
        LifLayer::new(n, LifParameters::diehl_cook_excitatory(), 1.0)
    }

    #[test]
    fn integrates_and_fires() {
        let mut l = layer(1);
        let mut fired_at = None;
        for step in 0..100 {
            l.step(&[2.0]);
            if l.spikes[0] > 0.0 {
                fired_at = Some(step);
                break;
            }
        }
        // Needs 13 mV of depolarisation at ~2 mV/step (minus leak).
        let at = fired_at.expect("neuron should fire");
        assert!((5..=30).contains(&at), "fired at step {at}");
        assert_eq!(l.v[0], -60.0, "reset to v_reset");
    }

    #[test]
    fn subthreshold_input_never_fires() {
        let mut l = layer(1);
        for _ in 0..500 {
            l.step(&[0.1]);
        }
        assert_eq!(l.spikes[0], 0.0);
        // Settles at rest + input·tau/dt-ish equilibrium below threshold.
        assert!(l.v[0] < l.effective_threshold(0));
    }

    #[test]
    fn refractory_blocks_integration() {
        let mut l = layer(1);
        // Force a spike.
        while l.spikes[0] == 0.0 {
            l.step(&[5.0]);
        }
        let v_after = l.v[0];
        // During the 5 ms refractory period, input is ignored.
        for _ in 0..4 {
            l.step(&[100.0]);
            assert_eq!(l.spikes[0], 0.0, "spiked during refractory");
            assert_eq!(l.v[0], v_after, "membrane moved during refractory");
        }
    }

    #[test]
    fn theta_grows_with_spikes_and_raises_threshold() {
        let mut l = layer(1);
        let thr0 = l.effective_threshold(0);
        for _ in 0..200 {
            l.step(&[5.0]);
        }
        assert!(l.theta[0] > 0.0);
        assert!(l.effective_threshold(0) > thr0);
    }

    #[test]
    fn inhibitory_params_have_no_theta() {
        let mut l = LifLayer::new(1, LifParameters::diehl_cook_inhibitory(), 1.0);
        for _ in 0..100 {
            l.step(&[25.0]);
        }
        assert_eq!(l.theta[0], 0.0);
    }

    #[test]
    fn threshold_scale_semantics_match_paper() {
        // Thresholds are negative; scaling by 0.8 (a "−20% change") moves
        // them toward zero, making the neuron HARDER to fire.
        let mut nominal = layer(1);
        let mut attacked = layer(1);
        attacked.threshold_scale[0] = 0.8;
        assert!(attacked.effective_threshold(0) > nominal.effective_threshold(0));
        let fire_step = |l: &mut LifLayer| {
            l.reset_state();
            for step in 0..400 {
                l.step(&[1.0]);
                if l.spikes[0] > 0.0 {
                    return Some(step);
                }
            }
            None
        };
        let t_nom = fire_step(&mut nominal);
        let t_att = fire_step(&mut attacked);
        match (t_nom, t_att) {
            (Some(a), Some(b)) => assert!(b > a, "attacked must fire later ({a} vs {b})"),
            (Some(_), None) => {} // attacked silenced entirely: also valid
            other => panic!("unexpected firing pattern {other:?}"),
        }
    }

    #[test]
    fn scale_above_one_makes_firing_easier() {
        // +20% on a negative threshold moves it closer to rest.
        let mut boosted = layer(1);
        boosted.threshold_scale[0] = 1.2;
        assert!(boosted.effective_threshold(0) < layer(1).effective_threshold(0));
    }

    #[test]
    fn reset_state_preserves_theta_and_faults() {
        let mut l = layer(2);
        l.threshold_scale[1] = 0.7;
        for _ in 0..100 {
            l.step(&[5.0, 5.0]);
        }
        let theta = l.theta.clone();
        l.reset_state();
        assert_eq!(l.v, vec![-65.0, -65.0]);
        assert_eq!(l.theta, theta);
        assert_eq!(l.threshold_scale[1], 0.7);
        l.clear_faults();
        assert_eq!(l.threshold_scale[1], 1.0);
    }

    #[test]
    fn traces_decay_exponentially() {
        let mut l = layer(1);
        while l.spikes[0] == 0.0 {
            l.step(&[5.0]);
        }
        assert_eq!(l.traces[0], 1.0);
        l.step(&[0.0]);
        let expect = (-1.0f32 / 20.0).exp();
        assert!((l.traces[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn input_layer_traces() {
        let mut input = InputLayer::new(3, 20.0, 1.0);
        input.fire([0]);
        assert_eq!(input.traces[0], 1.0);
        assert_eq!(input.spikes, vec![1.0, 0.0, 0.0]);
        input.fire([1]);
        assert!(input.traces[0] < 1.0);
        assert_eq!(input.traces[1], 1.0);
        assert_eq!(input.spikes, vec![0.0, 1.0, 0.0]);
        assert_eq!(input.spiking(), &[1]);
        input.reset_state();
        assert_eq!(input.traces, vec![0.0; 3]);
        assert!(input.spiking().is_empty() && input.traced().is_empty());
    }

    /// The reference: one dense decay-and-load pass over every channel,
    /// in which traces of firing channels reset to 1 and the rest decay.
    fn dense_fire(traces: &mut [f32], spikes: &[f32], decay: f32) {
        for (trace, &s) in traces.iter_mut().zip(spikes) {
            let decayed = *trace * decay;
            *trace = if s > 0.0 { 1.0 } else { decayed };
        }
    }

    #[test]
    fn fire_equals_the_dense_pass_and_lists_the_nonzero_traces() {
        // tau = dt/16: a trace underflows to 0.0 within a few dozen
        // steps, so rows leave the traced list and come back.
        let mut input = InputLayer::new(5, 1.0 / 16.0, 1.0);
        let mut traces = vec![0.0f32; 5];
        let mut state = 7u64;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = if step % 50 < 30 { state >> 59 } else { 0 };
            let spikes: Vec<f32> = (0..5).map(|i| ((bits >> i) & 1) as f32).collect();
            input.fire((0..5).filter(|&i| spikes[i] > 0.0));
            dense_fire(&mut traces, &spikes, input.trace_decay);
            assert_eq!(input.spikes, spikes, "step {step}");
            let bits = |v: &[f32]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&input.traces), bits(&traces), "step {step}");
            let mut traced = input.traced().to_vec();
            traced.sort_unstable();
            let nonzero: Vec<usize> = (0..5).filter(|&i| traces[i] != 0.0).collect();
            assert_eq!(traced, nonzero, "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending, got 0 after Some(2)")]
    fn fire_refuses_unsorted_channels() {
        InputLayer::new(3, 20.0, 1.0).fire([2, 0]);
    }

    #[test]
    fn lif_spiking_lists_the_spike_indicators() {
        let mut l = layer(3);
        let mut fired = 0;
        for _ in 0..30 {
            l.step(&[5.0, 3.0, 0.0]);
            let nonzero: Vec<usize> = (0..3).filter(|&i| l.spikes[i] > 0.0).collect();
            assert_eq!(l.spiking(), &nonzero[..]);
            fired += nonzero.len();
        }
        assert!(fired > 2, "the driven neurons fired only {fired} times");
        l.reset_state();
        assert!(l.spiking().is_empty());
    }
}
