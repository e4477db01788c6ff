//! Post-pre STDP with synaptic traces (BindsNET's `PostPre` rule).
//!
//! On a presynaptic spike the weight is *depressed* in proportion to the
//! postsynaptic trace (the post neuron fired a while ago — anti-causal);
//! on a postsynaptic spike the weight is *potentiated* in proportion to
//! the presynaptic trace (the pre neuron fired a while ago — causal);
//! then every weight is clamped into `[w_min, w_max]`:
//!
//! ```text
//! pre spike  at i: w[i][:] -= nu_pre  · post_trace[:]
//! post spike at j: w[:][j] += nu_post · pre_trace[:]
//! ```
//!
//! The paper trains with `nu_pre = 4·10⁻⁴` and `nu_post = 2·10⁻⁴`
//! (§IV-A: "fixed learning rates of 0.0004 and 0.0002 for pre-synaptic
//! and post-synaptic events").
//!
//! ## One fused, row-major kernel
//!
//! Each weight `w[i][j]` goes through these operations, in this order:
//!
//! 1. if input `i` spiked, the depression `w += d[j]`, unclamped, where
//!    `d[j] = −nu_pre · post_trace[j]`;
//! 2. if excitatory neuron `j` spiked, the potentiation
//!    `w = clamp(w + p_i)`, where `p_i = nu_post · pre_trace[i]`;
//! 3. the clamp, if input `i` spiked.
//!
//! Elements are independent, so the kernel orders its loops by row and
//! its work follows the spikes. A spiking input row gets one pass over
//! its weights that applies all three operations. Every other *traced
//! row* (an input whose trace is nonzero) gets the potentiation at the
//! spiking columns only. A row whose trace is exactly 0.0 is skipped: its
//! potentiation would be `clamp(w + 0.0)`, which is `w` for a weight
//! that is in bounds and not −0.0, the two preconditions documented on
//! [`DenseConnection::w`].
//!
//! While the connection may hold out-of-range weights (after
//! normalisation, or a direct write marked with
//! [`DenseConnection::mark_weights_dirty`]), spiking rows are stored
//! unclamped and the kernel finishes with a full clamp instead. The clamp
//! is idempotent, so either way every weight ends with the bits of
//! "apply every update, then clamp the whole matrix".

use crate::tensor::indices;
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
    /// and the (already-updated) traces, then clamps weights: a wrapper
    /// that lists the spiking neurons (entries above 0.0) and the traced
    /// rows (nonzero pre traces), then runs the fused kernel.
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
        let pre_spiking: Vec<usize> = indices(pre_spikes, |s| s > 0.0).collect();
        let post_spiking: Vec<usize> = indices(post_spikes, |s| s > 0.0).collect();
        self.apply(
            conn,
            Activity {
                spikes: pre_spikes,
                spiking: &pre_spiking,
                traces: pre_traces,
            },
            indices(pre_traces, |t| t != 0.0),
            Activity {
                spikes: post_spikes,
                spiking: &post_spiking,
                traces: post_traces,
            },
        );
    }

    /// The fused kernel (see the module doc). `traced` must list every
    /// pre row whose trace is nonzero; it may list more, and may list the
    /// spiking rows, which it skips. It is read only when a post neuron
    /// spiked. Slice lengths are the caller's to check.
    pub(crate) fn apply(
        &self,
        conn: &mut DenseConnection,
        pre: Activity<'_>,
        traced: impl IntoIterator<Item = usize>,
        post: Activity<'_>,
    ) {
        let (lo, hi) = (conn.w_min, conn.w_max);
        // Checked once here, so the clamps in the loops below need not be.
        assert!(lo <= hi, "inverted weight bounds");
        let dirty = conn.maybe_unclamped;
        if !pre.spiking.is_empty() {
            for (d, &t) in conn.depression_scratch.iter_mut().zip(post.traces) {
                *d = -self.nu_pre * t;
            }
            for &i in pre.spiking {
                let p = self.nu_post * pre.traces[i];
                let row = conn.w.row_mut(i);
                for ((w, &d), &s) in row
                    .iter_mut()
                    .zip(&conn.depression_scratch)
                    .zip(post.spikes)
                {
                    let mut v = *w + d;
                    if s > 0.0 {
                        v = (v + p).clamp(lo, hi);
                    }
                    *w = if dirty { v } else { v.clamp(lo, hi) };
                }
            }
        }
        if !post.spiking.is_empty() {
            for i in traced {
                if pre.spikes[i] > 0.0 {
                    continue;
                }
                let p = self.nu_post * pre.traces[i];
                let row = conn.w.row_mut(i);
                for &j in post.spiking {
                    row[j] = (row[j] + p).clamp(lo, hi);
                }
            }
        }
        if dirty && !(pre.spiking.is_empty() && post.spiking.is_empty()) {
            // Normalisation (or init) may have left out-of-range weights
            // anywhere; one full clamp restores the in-bounds invariant
            // the row-local clamps rely on.
            conn.clamp_weights();
        }
    }
}

/// One step of a layer's activity, as the STDP kernel reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Activity<'a> {
    /// Spike indicators (above 0.0 = fired).
    pub(crate) spikes: &'a [f32],
    /// The indices of the neurons that fired.
    pub(crate) spiking: &'a [usize],
    /// Synaptic traces.
    pub(crate) traces: &'a [f32],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;
    use crate::topology::DenseConnection;
    use proptest::prelude::*;

    /// `m[row][c] += delta[c]`: the reference's depression pass.
    fn add_into_row(m: &mut Matrix, row: usize, delta: &[f32]) {
        assert_eq!(delta.len(), m.cols(), "delta length mismatch");
        for (w, d) in m.row_mut(row).iter_mut().zip(delta) {
            *w += d;
        }
    }

    /// Clamps row `row` of `m` into `[lo, hi]`: the reference's
    /// touched-row clamp.
    fn clamp_row(m: &mut Matrix, row: usize, lo: f32, hi: f32) {
        for w in m.row_mut(row) {
            *w = w.clamp(lo, hi);
        }
    }

    /// `m[r][col] = clamp(m[r][col] + gain · values[r])` for every row:
    /// the reference's potentiation pass, one strided column walk.
    fn add_clamped_into_col(
        m: &mut Matrix,
        col: usize,
        gain: f32,
        values: &[f32],
        lo: f32,
        hi: f32,
    ) {
        assert_eq!(values.len(), m.rows(), "values length mismatch");
        for (r, v) in values.iter().enumerate() {
            let w = m.get(r, col);
            m.set(r, col, (w + gain * v).clamp(lo, hi));
        }
    }

    /// The reference: one pass per operation. Depression runs over every
    /// spiking row, unclamped; potentiation walks every spiking column of
    /// every row with the clamp fused in; then the spiking rows are
    /// clamped, or the whole matrix while the connection may hold
    /// out-of-range weights.
    fn three_pass(
        rule: &PostPreStdp,
        conn: &mut DenseConnection,
        pre_spikes: &[f32],
        pre_traces: &[f32],
        post_spikes: &[f32],
        post_traces: &[f32],
    ) {
        let (lo, hi) = (conn.w_min, conn.w_max);
        let mut any_pre = false;
        if pre_spikes.iter().any(|&s| s > 0.0) {
            let delta: Vec<f32> = post_traces.iter().map(|&t| -rule.nu_pre * t).collect();
            for (i, &s) in pre_spikes.iter().enumerate() {
                if s > 0.0 {
                    add_into_row(&mut conn.w, i, &delta);
                    any_pre = true;
                }
            }
        }
        let mut any_post = false;
        for (j, &s) in post_spikes.iter().enumerate() {
            if s > 0.0 {
                add_clamped_into_col(&mut conn.w, j, rule.nu_post, pre_traces, lo, hi);
                any_post = true;
            }
        }
        if conn.maybe_unclamped {
            if any_pre || any_post {
                conn.clamp_weights();
            }
        } else if any_pre {
            for (i, &s) in pre_spikes.iter().enumerate() {
                if s > 0.0 {
                    clamp_row(&mut conn.w, i, lo, hi);
                }
            }
        }
    }

    #[test]
    fn row_update() {
        let mut m = Matrix::from_fn(2, 3, |_, _| 0.0);
        add_into_row(&mut m, 0, &[1.0, -2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, -2.0, 3.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn clamp_row_touches_only_its_span() {
        let mut m = Matrix::from_fn(3, 3, |_, _| 5.0);
        clamp_row(&mut m, 0, 0.0, 1.0);
        assert_eq!(m.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(m.row(1), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn clamped_col_update_matches_add_then_clamp() {
        let mut fused = Matrix::from_fn(3, 2, |r, _| r as f32 * 0.4);
        let mut staged = fused.clone();
        let values = [1.0f32, 2.0, -4.0];
        add_clamped_into_col(&mut fused, 1, 0.5, &values, 0.0, 1.0);
        for (r, v) in values.iter().enumerate() {
            staged.set(r, 1, staged.get(r, 1) + 0.5 * v);
        }
        staged.clamp_all(0.0, 1.0);
        for r in 0..3 {
            assert_eq!(fused.get(r, 1).to_bits(), staged.get(r, 1).to_bits());
            // Column 0 untouched by the fused update.
            assert_eq!(fused.get(r, 0), r as f32 * 0.4);
        }
    }

    /// A splitmix64 stream for the kernel property's inputs.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }

        /// True with probability `1/n`.
        fn one_in(&mut self, n: u64) -> bool {
            self.next().is_multiple_of(n)
        }

        /// A spike vector: none (mode 0), all (mode 1) or a random half.
        fn spikes(&mut self, n: usize, mode: u8) -> Vec<f32> {
            (0..n)
                .map(|_| match mode {
                    0 => 0.0,
                    1 => 1.0,
                    _ => f32::from(u8::from(self.one_in(2))),
                })
                .collect()
        }

        /// Traces in `[0, 1)`, a third of them exactly 0.0.
        fn traces(&mut self, n: usize) -> Vec<f32> {
            (0..n)
                .map(|_| if self.one_in(3) { 0.0 } else { self.unit() })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fused kernel leaves every weight with the bits of the
        /// three-pass reference, over three successive steps, on small
        /// matrices with empty, full and random spike sets, traces with
        /// exact zeros, weights at and (while dirty) beyond the bounds,
        /// `nu_post = 0`, and bounds narrower than the updates.
        #[test]
        fn fused_kernel_equals_three_pass_reference(
            shape in (1usize..10, 1usize..8),
            modes in (0u8..3, 0u8..3),
            flags in (any::<bool>(), any::<bool>(), any::<bool>()),
            seed in any::<u64>(),
        ) {
            let ((rows, cols), (pre_mode, post_mode)) = (shape, modes);
            let (dirty, zero_nu_post, narrow) = flags;
            let mut draws = Draws(seed);
            let (lo, hi) = if narrow {
                (0.3, 0.3 + 0.02 * draws.unit())
            } else {
                (0.0, 1.0)
            };
            let rule = PostPreStdp {
                nu_pre: 0.3 * draws.unit(),
                nu_post: if zero_nu_post { 0.0 } else { 0.3 * draws.unit() },
            };
            let mut fused = DenseConnection::random(rows, cols, 0.0, lo, hi, 0);
            let reach = if dirty { 0.5 } else { 0.0 };
            for r in 0..rows {
                for c in 0..cols {
                    let w = match draws.next() % 8 {
                        0 => lo,
                        1 => hi,
                        2 if dirty || lo == 0.0 => 0.0,
                        _ => lo - reach + draws.unit() * (hi - lo + 2.0 * reach),
                    };
                    fused.w.set(r, c, if dirty { w } else { w.clamp(lo, hi) });
                }
            }
            fused.maybe_unclamped = dirty;
            let mut reference = fused.clone();
            for step in 0..3 {
                let pre_spikes = draws.spikes(rows, pre_mode);
                let pre_traces = draws.traces(rows);
                let post_spikes = draws.spikes(cols, post_mode);
                let post_traces = draws.traces(cols);
                rule.update(&mut fused, &pre_spikes, &pre_traces, &post_spikes, &post_traces);
                three_pass(
                    &rule,
                    &mut reference,
                    &pre_spikes,
                    &pre_traces,
                    &post_spikes,
                    &post_traces,
                );
                let bits = |c: &DenseConnection| -> Vec<u32> {
                    c.w.as_slice().iter().map(|w| w.to_bits()).collect()
                };
                prop_assert_eq!(bits(&fused), bits(&reference), "step {}", step);
                prop_assert_eq!(fused.maybe_unclamped, reference.maybe_unclamped);
            }
        }
    }

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
