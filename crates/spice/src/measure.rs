//! Waveform measurement utilities.
//!
//! These free functions operate on `(times, values)` slice pairs as produced
//! by [`TranResult::voltage`](crate::TranResult::voltage) and implement the
//! quantities the paper reports: spike times, inter-spike periods,
//! extrema and window averages. [`RisingEdges`] counts spikes online, over
//! the points of [`Circuit::tran_observe`](crate::Circuit::tran_observe),
//! by the same rule as [`spike_times`].

/// Whether consecutive samples `v0` then `v1` cross `level` from below:
/// the one rising-edge rule of [`spike_times`] and [`RisingEdges`].
/// NaN samples compare false, so a non-finite glitch in the waveform
/// never fabricates a crossing.
fn rises_through(v0: f64, v1: f64, level: f64) -> bool {
    v0 < level && v1 >= level
}

/// Times at which `values` crosses `level` from below, linearly
/// interpolated between samples.
///
/// # Panics
/// Panics if `times` and `values` have different lengths.
fn crossings(times: &[f64], values: &[f64], level: f64) -> Vec<f64> {
    assert_eq!(times.len(), values.len(), "times/values length mismatch");
    let mut out = Vec::new();
    for (tw, vw) in times.windows(2).zip(values.windows(2)) {
        let (&[t0, t1], &[v0, v1]) = (tw, vw) else {
            continue;
        };
        if rises_through(v0, v1, level) {
            let frac = if (v1 - v0).abs() < f64::MIN_POSITIVE {
                0.0
            } else {
                (level - v0) / (v1 - v0)
            };
            out.push(t0 + frac * (t1 - t0));
        }
    }
    out
}

/// Rising-edge spike times: crossings of `threshold` from below.
pub fn spike_times(times: &[f64], values: &[f64], threshold: f64) -> Vec<f64> {
    crossings(times, values, threshold)
}

/// Counts the rising crossings of a level over samples fed in time
/// order: `spike_times(times, values, level).len()` over the same
/// samples, without storing them.
#[derive(Debug, Clone, Copy)]
pub struct RisingEdges {
    level: f64,
    last: Option<f64>,
    count: usize,
}

impl RisingEdges {
    /// A counter of crossings of `level` from below, with no samples yet.
    pub fn new(level: f64) -> RisingEdges {
        RisingEdges {
            level,
            last: None,
            count: 0,
        }
    }

    /// Feeds the next sample.
    pub fn push(&mut self, value: f64) {
        if self
            .last
            .is_some_and(|last| rises_through(last, value, self.level))
        {
            self.count += 1;
        }
        self.last = Some(value);
    }

    /// Rising crossings seen so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Mean period between consecutive spikes, if at least two spikes exist.
pub fn mean_spike_period(times: &[f64], values: &[f64], threshold: f64) -> Option<f64> {
    let spikes = spike_times(times, values, threshold);
    if spikes.len() < 2 {
        return None;
    }
    let (first, last) = (spikes.first()?, spikes.last()?);
    Some((last - first) / (spikes.len() - 1) as f64)
}

/// Largest finite-comparable sample value (`f64::max` skips NaN, so a
/// NaN glitch never poisons the result; an empty slice yields `-∞`).
pub fn maximum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Smallest finite-comparable sample value (`f64::min` skips NaN; an
/// empty slice yields `+∞`).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Trapezoidal time-average of `values` over `[t0, t1]`.
///
/// Returns `None` when the window contains fewer than two samples.
pub fn average_in(times: &[f64], values: &[f64], t0: f64, t1: f64) -> Option<f64> {
    assert_eq!(times.len(), values.len(), "times/values length mismatch");
    let mut area = 0.0;
    let mut span = 0.0;
    for (tw, vw) in times.windows(2).zip(values.windows(2)) {
        let (&[ta, tb], &[va, vb]) = (tw, vw) else {
            continue;
        };
        if tb <= t0 || ta >= t1 {
            continue;
        }
        let lo = ta.max(t0);
        let hi = tb.min(t1);
        if hi <= lo {
            continue;
        }
        // Linear interpolation of the segment endpoints onto [lo, hi].
        let f = |t: f64| {
            if tb == ta {
                vb
            } else {
                va + (vb - va) * (t - ta) / (tb - ta)
            }
        };
        area += 0.5 * (f(lo) + f(hi)) * (hi - lo);
        span += hi - lo;
    }
    if span > 0.0 {
        Some(area / span)
    } else {
        None
    }
}

/// Relative change `(value - reference) / reference`, in percent.
///
/// Degenerate inputs never panic: a zero reference yields `0.0` when
/// the value is also zero and a signed infinity otherwise, and any
/// non-finite input yields `NaN` — which compares false against every
/// threshold, so downstream comparisons fail closed rather than
/// reporting a spurious change.
pub fn percent_change(value: f64, reference: f64) -> f64 {
    if !value.is_finite() || !reference.is_finite() {
        return f64::NAN;
    }
    if reference == 0.0 {
        return if value == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(value)
        };
    }
    (value - reference) / reference * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> (Vec<f64>, Vec<f64>) {
        let times: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let values: Vec<f64> = times.iter().map(|&t| t * 0.1).collect();
        (times, values)
    }

    #[test]
    fn rising_crossing_interpolates() {
        let (t, v) = ramp();
        let c = crossings(&t, &v, 0.55);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 5.5).abs() < 1e-12);
    }

    /// A falling crossing is no spike: only rising edges count.
    #[test]
    fn falling_crossing() {
        let times: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let values: Vec<f64> = times.iter().map(|&t| 1.0 - t * 0.1).collect();
        assert!(crossings(&times, &values, 0.35).is_empty());
    }

    #[test]
    fn spike_counting_square_wave() {
        // Three pulses.
        let mut t = Vec::new();
        let mut v = Vec::new();
        for i in 0..300 {
            t.push(i as f64);
            v.push(if (i / 50) % 2 == 1 { 1.0 } else { 0.0 });
        }
        assert_eq!(spike_times(&t, &v, 0.5).len(), 3);
        let period = mean_spike_period(&t, &v, 0.5).unwrap();
        assert!((period - 100.0).abs() < 1.0);
    }

    /// The online counter counts what `spike_times` finds, NaN
    /// glitches and samples exactly at the level included.
    #[test]
    fn rising_edges_count_what_spike_times_finds() {
        let times: Vec<f64> = (0..12).map(f64::from).collect();
        let nan = f64::NAN;
        let waves = [
            [0.0, nan, 0.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.2, 0.6, 0.4, 0.5],
            [0.5, 0.4, 0.5, 0.5, 0.49, 1.0, nan, 1.0, 0.0, 0.0, 1.0, 0.0],
        ];
        for values in waves {
            let mut edges = RisingEdges::new(0.5);
            for &v in &values {
                edges.push(v);
            }
            assert_eq!(edges.count(), spike_times(&times, &values, 0.5).len());
        }
        assert_eq!(RisingEdges::new(0.5).count(), 0);
    }

    #[test]
    fn min_max() {
        let v = [1.0, -3.0, 2.0];
        assert_eq!(maximum(&v), 2.0);
        assert_eq!(minimum(&v), -3.0);
    }

    #[test]
    fn average_of_constant() {
        let t: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let v = vec![2.0; 11];
        let a = average_in(&t, &v, 2.0, 8.0).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_ramp_over_window() {
        let (t, v) = ramp();
        // Average of 0.1*t over [0,10] = 0.5.
        let a = average_in(&t, &v, 0.0, 10.0).unwrap();
        assert!((a - 0.5).abs() < 1e-12);
        // Over [4,6]: mean value = 0.5 as well.
        let a = average_in(&t, &v, 4.0, 6.0).unwrap();
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn average_outside_window_is_none() {
        let (t, v) = ramp();
        assert!(average_in(&t, &v, 100.0, 200.0).is_none());
    }

    #[test]
    fn percent_change_signs() {
        assert!((percent_change(1.2, 1.0) - 20.0).abs() < 1e-12);
        assert!((percent_change(0.8, 1.0) + 20.0).abs() < 1e-12);
    }

    #[test]
    fn percent_change_degenerate_inputs() {
        assert_eq!(percent_change(0.0, 0.0), 0.0);
        assert_eq!(percent_change(1.0, 0.0), f64::INFINITY);
        assert_eq!(percent_change(-1.0, 0.0), f64::NEG_INFINITY);
        assert!(percent_change(f64::NAN, 1.0).is_nan());
        assert!(percent_change(1.0, f64::NAN).is_nan());
        assert!(percent_change(f64::INFINITY, 1.0).is_nan());
        // NaN fails closed against thresholds: incomparable, not less
        // or greater.
        assert_eq!(percent_change(f64::NAN, 1.0).partial_cmp(&5.0), None);
        assert_eq!(percent_change(f64::NAN, 1.0).partial_cmp(&-5.0), None);
    }

    #[test]
    fn nan_glitch_never_fabricates_crossings() {
        let t: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let v = [0.0, f64::NAN, 0.0, 0.0, 1.0, 1.0];
        // Only the genuine 0→1 edge at t ∈ [3,4] is reported.
        let c = crossings(&t, &v, 0.5);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_skip_nan_and_handle_empty() {
        let v = [1.0, f64::NAN, 2.0];
        assert_eq!(maximum(&v), 2.0);
        assert_eq!(minimum(&v), 1.0);
        assert_eq!(maximum(&[]), f64::NEG_INFINITY);
        assert_eq!(minimum(&[]), f64::INFINITY);
    }

    #[test]
    fn degenerate_waveforms_dont_panic() {
        // Empty and single-sample waveforms flow through every helper.
        assert!(crossings(&[], &[], 0.5).is_empty());
        assert!(mean_spike_period(&[0.0], &[1.0], 0.5).is_none());
        assert!(spike_times(&[], &[], 0.5).is_empty());
        assert!(average_in(&[0.0], &[1.0], 0.0, 1.0).is_none());
        // Reversed window: no overlap, None rather than garbage.
        let (t, v) = ramp();
        assert!(average_in(&t, &v, 8.0, 2.0).is_none());
    }
}
