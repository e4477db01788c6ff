//! Post-pre STDP with synaptic traces (BindsNET's `PostPre` rule).
//!
//! On a presynaptic spike the weight is *depressed* in proportion to the
//! postsynaptic trace (the post neuron fired a while ago — anti-causal);
//! on a postsynaptic spike the weight is *potentiated* in proportion to
//! the presynaptic trace (the pre neuron fired a while ago — causal):
//!
//! ```text
//! pre spike  at i: w[i][:] -= nu_pre  · post_trace[:]
//! post spike at j: w[:][j] += nu_post · pre_trace[:]
//! ```
//!
//! The paper trains with `nu_pre = 4·10⁻⁴` and `nu_post = 2·10⁻⁴`
//! (§IV-A: "fixed learning rates of 0.0004 and 0.0002 for pre-synaptic
//! and post-synaptic events").

use crate::topology::DenseConnection;

/// The post-pre STDP rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostPreStdp {
    /// Learning rate for presynaptic-spike (depression) events.
    pub nu_pre: f32,
    /// Learning rate for postsynaptic-spike (potentiation) events.
    pub nu_post: f32,
}

impl PostPreStdp {
    /// The learning rates stated in the paper's §IV-A prose
    /// (0.0004 pre / 0.0002 post).
    ///
    /// Calibration note: with these rates a from-scratch single-pass run
    /// over 1000 images barely moves the weights and classification stays
    /// near chance (~12%); the BindsNET library the paper built on ships
    /// `nu = (1e-4, 1e-2)` ([`PostPreStdp::bindsnet`]), which reproduces
    /// the paper's 75.92% baseline (~79% on SynthDigits). The default
    /// network configuration therefore uses [`PostPreStdp::bindsnet`].
    pub fn paper() -> PostPreStdp {
        PostPreStdp {
            nu_pre: 4.0e-4,
            nu_post: 2.0e-4,
        }
    }

    /// BindsNET's shipped `DiehlAndCook2015` learning rates
    /// (`nu = (1e-4, 1e-2)`), which reproduce the paper's baseline.
    pub fn bindsnet() -> PostPreStdp {
        PostPreStdp {
            nu_pre: 1.0e-4,
            nu_post: 1.0e-2,
        }
    }

    /// Applies one step of plasticity to `conn` given this step's spikes
    /// and the (already-updated) traces, then clamps weights.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with the connection shape.
    pub fn update(
        &self,
        conn: &mut DenseConnection,
        pre_spikes: &[f32],
        pre_traces: &[f32],
        post_spikes: &[f32],
        post_traces: &[f32],
    ) {
        assert_eq!(pre_spikes.len(), conn.w.rows(), "pre spike length mismatch");
        assert_eq!(pre_traces.len(), conn.w.rows(), "pre trace length mismatch");
        assert_eq!(
            post_spikes.len(),
            conn.w.cols(),
            "post spike length mismatch"
        );
        assert_eq!(
            post_traces.len(),
            conn.w.cols(),
            "post trace length mismatch"
        );

        // The result must equal "apply every update, then clamp the whole
        // matrix" (the original semantics), but the work must scale with
        // spike sparsity. Depression runs first and unclamped; the
        // potentiation clamp fuses into the strided column walk it already
        // pays for (each entry sees its row update before its column
        // update, and re-clamping is idempotent, so this is bit-identical);
        // finally the touched rows get one contiguous clamp pass. The
        // depression delta is staged once per step in a buffer owned by
        // the connection — the hot loop never allocates.
        let (lo, hi) = (conn.w_min, conn.w_max);
        let mut any_pre = false;
        if pre_spikes.iter().any(|&s| s > 0.0) {
            let delta = &mut conn.depression_scratch;
            for (d, &t) in delta.iter_mut().zip(post_traces) {
                *d = -self.nu_pre * t;
            }
            for (i, &s) in pre_spikes.iter().enumerate() {
                if s > 0.0 {
                    conn.w.add_into_row(i, &conn.depression_scratch);
                    any_pre = true;
                }
            }
        }
        let mut any_post = false;
        for (j, &s) in post_spikes.iter().enumerate() {
            if s > 0.0 {
                conn.w
                    .add_clamped_into_col(j, self.nu_post, pre_traces, lo, hi);
                any_post = true;
            }
        }
        if conn.maybe_unclamped {
            // Normalisation (or init) may have left out-of-range weights
            // anywhere; one full clamp restores the in-bounds invariant the
            // sparse path relies on.
            if any_pre || any_post {
                conn.clamp_weights();
            }
        } else if any_pre {
            for (i, &s) in pre_spikes.iter().enumerate() {
                if s > 0.0 {
                    conn.w.clamp_row(i, lo, hi);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DenseConnection;

    fn conn() -> DenseConnection {
        let mut c = DenseConnection::random(3, 2, 0.0, 0.0, 1.0, 0);
        for r in 0..3 {
            for col in 0..2 {
                c.w.set(r, col, 0.5);
            }
        }
        c
    }

    #[test]
    fn pre_spike_depresses_by_post_trace() {
        let mut c = conn();
        let rule = PostPreStdp {
            nu_pre: 0.1,
            nu_post: 0.0,
        };
        rule.update(
            &mut c,
            &[1.0, 0.0, 0.0],
            &[0.0; 3],
            &[0.0, 0.0],
            &[1.0, 0.5],
        );
        assert!((c.w.get(0, 0) - 0.4).abs() < 1e-6);
        assert!((c.w.get(0, 1) - 0.45).abs() < 1e-6);
        // Non-spiking rows untouched.
        assert_eq!(c.w.get(1, 0), 0.5);
    }

    #[test]
    fn post_spike_potentiates_by_pre_trace() {
        let mut c = conn();
        let rule = PostPreStdp {
            nu_pre: 0.0,
            nu_post: 0.2,
        };
        rule.update(
            &mut c,
            &[0.0; 3],
            &[1.0, 0.5, 0.0],
            &[0.0, 1.0],
            &[0.0, 0.0],
        );
        assert!((c.w.get(0, 1) - 0.7).abs() < 1e-6);
        assert!((c.w.get(1, 1) - 0.6).abs() < 1e-6);
        assert_eq!(c.w.get(2, 1), 0.5);
        // Non-spiking column untouched.
        assert_eq!(c.w.get(0, 0), 0.5);
    }

    #[test]
    fn weights_stay_clamped() {
        let mut c = conn();
        c.w_max = 0.55;
        c.w_min = 0.48;
        let rule = PostPreStdp {
            nu_pre: 1.0,
            nu_post: 1.0,
        };
        rule.update(
            &mut c,
            &[1.0, 1.0, 1.0],
            &[1.0; 3],
            &[1.0, 1.0],
            &[1.0, 1.0],
        );
        for &w in c.w.as_slice() {
            assert!((0.48..=0.55).contains(&w), "weight {w} escaped clamp");
        }
    }

    #[test]
    fn no_spikes_no_change() {
        let mut c = conn();
        let before = c.w.clone();
        PostPreStdp::paper().update(&mut c, &[0.0; 3], &[1.0; 3], &[0.0; 2], &[1.0; 2]);
        assert_eq!(c.w, before);
    }

    #[test]
    fn paper_rates() {
        let rule = PostPreStdp::paper();
        assert!((rule.nu_pre - 4.0e-4).abs() < 1e-12);
        assert!((rule.nu_post - 2.0e-4).abs() < 1e-12);
    }

    #[test]
    fn sparse_clamp_matches_full_clamp_after_normalization() {
        // Normalisation can push weights above w_max anywhere in the
        // matrix; the first spiking update must fall back to a full clamp
        // so the sparsity-scaled path stays bit-identical to the original
        // clamp-everything semantics.
        let mut c = DenseConnection::random(4, 3, 0.3, 0.0, 0.4, 9).with_norm(3.0);
        c.clamp_weights();
        c.normalize(); // columns rescale; some weights now exceed 0.4
        assert!(c.w.as_slice().iter().any(|&w| w > c.w_max));
        let rule = PostPreStdp {
            nu_pre: 0.01,
            nu_post: 0.01,
        };
        // Only row 0 / column 1 spike, yet every weight must be clamped.
        rule.update(
            &mut c,
            &[1.0, 0.0, 0.0, 0.0],
            &[1.0; 4],
            &[0.0, 1.0, 0.0],
            &[1.0; 3],
        );
        for &w in c.w.as_slice() {
            assert!((c.w_min..=c.w_max).contains(&w), "weight {w} escaped clamp");
        }
        // Subsequent updates keep the invariant via the sparse path.
        rule.update(
            &mut c,
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0; 4],
            &[0.0, 0.0, 1.0],
            &[1.0; 3],
        );
        for &w in c.w.as_slice() {
            assert!(
                (c.w_min..=c.w_max).contains(&w),
                "weight {w} escaped sparse clamp"
            );
        }
    }

    #[test]
    fn causal_pairing_net_potentiates() {
        // Pre fires, then post fires shortly after: the potentiation term
        // (driven by the fresh pre trace) must dominate.
        let mut c = conn();
        let rule = PostPreStdp {
            nu_pre: 0.01,
            nu_post: 0.01,
        };
        // Step 1: pre spike (post trace is zero — no depression).
        rule.update(
            &mut c,
            &[1.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
        );
        // Step 2: post spike with decayed pre trace 0.9.
        rule.update(
            &mut c,
            &[0.0; 3],
            &[0.9, 0.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
        );
        assert!(c.w.get(0, 0) > 0.5, "causal pair should potentiate");
    }
}
