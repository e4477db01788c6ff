//! Synaptic connection topologies.
//!
//! Three wiring patterns cover the Diehl&Cook network: dense all-to-all
//! (input → excitatory, plastic), one-to-one (excitatory → inhibitory),
//! and all-but-self lateral inhibition (inhibitory → excitatory).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Matrix;

/// Dense all-to-all connection with optional weight bounds and column
/// normalisation (the plastic input → excitatory pathway).
///
/// Both per-step operations take index lists, so their cost follows the
/// spikes: the forward pass adds one weight row per spiking input
/// ([`DenseConnection::forward_spiking`]), and the STDP kernel
/// ([`PostPreStdp`](crate::learning::PostPreStdp)) rewrites the rows of
/// spiking inputs and touches the other traced rows at the spiking
/// columns only.
#[derive(Debug, Clone)]
pub struct DenseConnection {
    /// Weight matrix, `[pre][post]`.
    ///
    /// STDP skips the rows whose input trace is exactly 0.0: their update
    /// would be `clamp(w + 0.0)`, which leaves `w` unchanged under two
    /// preconditions that every write must keep.
    ///
    /// - *No weight is −0.0* (`−0.0 + 0.0` is `+0.0`). No operation of
    ///   this crate makes one: initial weights are drawn from
    ///   `[0, init_scale)`, `x + (−x)` rounds to `+0.0`, and
    ///   normalisation only scales.
    /// - *Every weight is within `[w_min, w_max]`*, unless the
    ///   connection is marked dirty, in which case the next update ends
    ///   with a full clamp. After writing out-of-range values directly,
    ///   call [`DenseConnection::mark_weights_dirty`] (or
    ///   [`DenseConnection::clamp_weights`]).
    pub w: Matrix,
    /// Lower weight bound.
    pub w_min: f32,
    /// Upper weight bound.
    pub w_max: f32,
    /// Per-post-neuron target for the sum of incoming weights
    /// (Diehl&Cook uses 78.4); `None` disables normalisation.
    pub norm: Option<f32>,
    /// FAULT HOOK: multiplicative drive scale applied at propagation time
    /// (1.0 = nominal). Models corrupted input-spike amplitude from the
    /// current drivers (paper Attacks 1 and 5) without touching the
    /// learned weights.
    pub gain: f32,
    /// Set when an operation (normalisation) may have pushed weights
    /// outside `[w_min, w_max]`; cleared by a full clamp. While false,
    /// every weight is known in-bounds, so STDP only needs to clamp the
    /// weights it touched.
    pub(crate) maybe_unclamped: bool,
    /// Reusable `cols`-sized buffer for the per-step depression delta, so
    /// the STDP hot loop never allocates.
    pub(crate) depression_scratch: Vec<f32>,
}

impl DenseConnection {
    /// Creates a connection with uniform random weights in
    /// `[0, init_scale)`, matching BindsNET's initialisation.
    ///
    /// # Panics
    /// Panics if dimensions are zero or bounds are inverted.
    pub fn random(
        pre: usize,
        post: usize,
        init_scale: f32,
        w_min: f32,
        w_max: f32,
        seed: u64,
    ) -> DenseConnection {
        assert!(w_min <= w_max, "inverted weight bounds");
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::from_fn(pre, post, |_, _| rng.gen::<f32>() * init_scale);
        DenseConnection {
            w,
            w_min,
            w_max,
            norm: None,
            gain: 1.0,
            // Random initialisation draws from [0, init_scale), which may
            // exceed w_max for degenerate configurations.
            maybe_unclamped: true,
            depression_scratch: vec![0.0; post],
        }
    }

    /// Sets the normalisation target (builder style).
    #[must_use]
    pub fn with_norm(mut self, norm: f32) -> DenseConnection {
        self.norm = Some(norm);
        self
    }

    /// Accumulates postsynaptic currents from the presynaptic neurons
    /// listed in `spiking`: `out[post] += gain · w[pre][post]` for each
    /// listed `pre`, in list order (ascending lists sum in index order).
    ///
    /// # Panics
    /// Panics if `out.len()` is not the number of postsynaptic neurons or
    /// an index is out of range.
    pub fn forward_spiking(&self, spiking: &[usize], out: &mut [f32]) {
        assert_eq!(out.len(), self.w.cols(), "output length mismatch");
        for &pre in spiking {
            self.w.add_row_into(pre, self.gain, out);
        }
    }

    /// Renormalises incoming weights per postsynaptic neuron to the
    /// configured target (no-op when `norm` is `None`). Rescaling can push
    /// individual weights above `w_max` (matching BindsNET, which does not
    /// clamp after normalisation); the excess is removed by the next STDP
    /// clamp.
    pub fn normalize(&mut self) {
        if let Some(target) = self.norm {
            self.w.normalize_columns(target);
            self.maybe_unclamped = true;
        }
    }

    /// Declares that `w` (or the bounds) may have been mutated directly
    /// into an out-of-range state. Callers writing through the public `w`
    /// field should invoke this so the next STDP update restores the
    /// in-bounds invariant with a full clamp instead of clamping only the
    /// weights it touched.
    pub fn mark_weights_dirty(&mut self) {
        self.maybe_unclamped = true;
    }

    /// Clamps all weights into `[w_min, w_max]`.
    pub fn clamp_weights(&mut self) {
        self.w.clamp_all(self.w_min, self.w_max);
        self.maybe_unclamped = false;
    }
}

/// One-to-one excitatory connection (excitatory → inhibitory, weight 22.5
/// in Diehl&Cook).
#[derive(Debug, Clone, PartialEq)]
pub struct OneToOneConnection {
    /// Connection weight applied to each matching pair.
    pub weight: f32,
    n: usize,
}

impl OneToOneConnection {
    /// Creates a one-to-one mapping over `n` neurons.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: usize, weight: f32) -> OneToOneConnection {
        assert!(n > 0, "connection must span at least one neuron");
        OneToOneConnection { weight, n }
    }

    /// `out[i] += weight · pre_spikes[i]`.
    ///
    /// # Panics
    /// Panics if slice lengths do not match.
    pub fn forward_into(&self, pre_spikes: &[f32], out: &mut [f32]) {
        assert_eq!(pre_spikes.len(), self.n, "pre spike length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        for (o, &s) in out.iter_mut().zip(pre_spikes) {
            *o += self.weight * s;
        }
    }
}

/// All-but-self lateral connection (inhibitory → excitatory, weight −120
/// in Diehl&Cook): each presynaptic spike drives every postsynaptic
/// neuron *except* its own partner.
#[derive(Debug, Clone, PartialEq)]
pub struct LateralInhibition {
    /// Connection weight (negative for inhibition).
    pub weight: f32,
    n: usize,
}

impl LateralInhibition {
    /// Creates an all-but-self mapping over `n` neurons.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: usize, weight: f32) -> LateralInhibition {
        assert!(n > 0, "connection must span at least one neuron");
        LateralInhibition { weight, n }
    }

    /// `out[j] += weight · (Σ_i pre[i] − pre[j])`.
    ///
    /// # Panics
    /// Panics if slice lengths do not match.
    pub fn forward_into(&self, pre_spikes: &[f32], out: &mut [f32]) {
        assert_eq!(pre_spikes.len(), self.n, "pre spike length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let total: f32 = pre_spikes.iter().sum();
        if total == 0.0 {
            return;
        }
        for (j, o) in out.iter_mut().enumerate() {
            *o += self.weight * (total - pre_spikes[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_accumulates_spiking_rows() {
        let mut conn = DenseConnection::random(3, 2, 0.0, 0.0, 1.0, 0);
        conn.w.set(0, 0, 0.5);
        conn.w.set(0, 1, 0.25);
        conn.w.set(2, 0, 1.0);
        let mut out = vec![0.0f32; 2];
        conn.forward_spiking(&[0, 2], &mut out);
        assert_eq!(out, vec![1.5, 0.25]);
    }

    #[test]
    fn dense_gain_scales_drive_without_touching_weights() {
        let mut conn = DenseConnection::random(2, 2, 0.0, 0.0, 1.0, 0);
        conn.w.set(0, 0, 1.0);
        conn.gain = 0.68; // the paper's VDD=0.8 drive scale
        let mut out = vec![0.0f32; 2];
        conn.forward_spiking(&[0], &mut out);
        assert!((out[0] - 0.68).abs() < 1e-6);
        assert_eq!(conn.w.get(0, 0), 1.0, "weights must be untouched");
    }

    #[test]
    fn dense_random_init_in_range() {
        let conn = DenseConnection::random(50, 20, 0.3, 0.0, 1.0, 42);
        for &w in conn.w.as_slice() {
            assert!((0.0..0.3).contains(&w));
        }
    }

    #[test]
    fn dense_init_is_seeded() {
        let a = DenseConnection::random(10, 10, 0.3, 0.0, 1.0, 7);
        let b = DenseConnection::random(10, 10, 0.3, 0.0, 1.0, 7);
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn normalization_applies_target() {
        let mut conn = DenseConnection::random(10, 4, 0.3, 0.0, 1.0, 1).with_norm(5.0);
        conn.normalize();
        for s in conn.w.column_sums() {
            assert!((s - 5.0).abs() < 1e-4);
        }
    }

    #[test]
    fn clamp_respects_bounds() {
        let mut conn = DenseConnection::random(4, 4, 0.3, 0.0, 0.1, 1);
        conn.w.set(0, 0, 5.0);
        conn.clamp_weights();
        assert!(conn.w.get(0, 0) <= 0.1);
    }

    #[test]
    fn one_to_one_maps_identically() {
        let conn = OneToOneConnection::new(3, 22.5);
        let mut out = vec![0.0f32; 3];
        conn.forward_into(&[0.0, 1.0, 0.0], &mut out);
        assert_eq!(out, vec![0.0, 22.5, 0.0]);
    }

    #[test]
    fn lateral_inhibition_spares_self() {
        let conn = LateralInhibition::new(3, -120.0);
        let mut out = vec![0.0f32; 3];
        conn.forward_into(&[0.0, 1.0, 0.0], &mut out);
        assert_eq!(out, vec![-120.0, 0.0, -120.0]);
    }

    #[test]
    fn lateral_inhibition_sums_multiple_sources() {
        let conn = LateralInhibition::new(3, -1.0);
        let mut out = vec![0.0f32; 3];
        conn.forward_into(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0, -2.0]);
    }

    #[test]
    fn lateral_inhibition_quiet_when_silent() {
        let conn = LateralInhibition::new(2, -120.0);
        let mut out = vec![3.0f32; 2];
        conn.forward_into(&[0.0, 0.0], &mut out);
        assert_eq!(out, vec![3.0, 3.0]);
    }
}
