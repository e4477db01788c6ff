//! Dummy-neuron voltage-fault-injection detection (§V-C, Figs. 10b/10c).
//!
//! A dummy neuron with a fixed input is placed in each layer; its output
//! spike count over a sampling window is compared against the enrolled
//! baseline. The paper flags an attack when the count deviates by ≥10%.
//! Only *local* VDD manipulation is detectable this way — a global
//! attacker also controls the detector's reference window, which the
//! paper notes as a limitation.

use neurofi_analog::PowerTransferTable;

use crate::error::Error;

/// The supply the detector's dummy neuron is enrolled at — the paper's
/// nominal 1.0 V. Cells attacked at exactly the nominal supply are not
/// attacks at all; [`summarize`] and the per-cell sweep reporting treat
/// them as quiet true negatives rather than misses.
pub const VDD_NOMINAL: f64 = 1.0;

/// Deterministic dummy-neuron spike-count response at the given supply,
/// as a scale factor relative to an arbitrary fixed-input rate: an
/// integrate-and-fire neuron's rate grows with its input drive and
/// shrinks with its firing threshold, so the count tracks
/// `drive_scale / if_threshold_scale` sampled from the *undefended*
/// transfer table (the detector's own dummy neuron sees the raw supply —
/// §V defenses harden the network, not the sensor).
pub fn dummy_count_scale(vdd: f64, transfer: &PowerTransferTable) -> f64 {
    let point = transfer.sample(vdd);
    point.drive_scale / point.if_threshold_scale
}

/// The spike-count deviation detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DummyNeuronDetector {
    /// Enrolled attack-free spike count for the sampling window.
    pub baseline_count: f64,
    /// Relative deviation that triggers a detection (0.10 in the paper).
    pub tolerance: f64,
}

impl DummyNeuronDetector {
    /// Creates a detector with the paper's 10% rule.
    ///
    /// # Errors
    /// [`Error::Invalid`] when `baseline_count` is not positive and
    /// finite — enrollment data arrives from characterisation runs and
    /// spec files, so a degenerate baseline must surface as a
    /// recoverable error, not a panic.
    pub fn new(baseline_count: f64) -> Result<DummyNeuronDetector, Error> {
        if !(baseline_count.is_finite() && baseline_count > 0.0) {
            return Err(Error::Invalid(format!(
                "baseline spike count must be positive, got {baseline_count}"
            )));
        }
        Ok(DummyNeuronDetector {
            baseline_count,
            tolerance: 0.10,
        })
    }

    /// Enrolls a detector from a dummy-neuron VDD characterisation series
    /// (`(vdd, count)` pairs): the baseline is the count at the nominal
    /// supply `vdd_nominal`.
    ///
    /// # Errors
    /// [`Error::Invalid`] when the series lacks the nominal point.
    pub fn from_characterisation(
        series: &[(f64, f64)],
        vdd_nominal: f64,
    ) -> Result<DummyNeuronDetector, Error> {
        let baseline = series
            .iter()
            .find(|(v, _)| (v - vdd_nominal).abs() < 1e-9)
            .map(|(_, c)| *c)
            .ok_or_else(|| {
                Error::Invalid(format!(
                    "characterisation series has no point at vdd={vdd_nominal}"
                ))
            })?;
        if !(baseline.is_finite() && baseline > 0.0) {
            return Err(Error::Invalid(format!(
                "baseline count at vdd={vdd_nominal} must be positive, got {baseline}"
            )));
        }
        DummyNeuronDetector::new(baseline)
    }

    /// Relative deviation of an observed count from the baseline.
    pub fn deviation(&self, observed_count: f64) -> f64 {
        (observed_count - self.baseline_count) / self.baseline_count
    }

    /// True when the observation triggers the ≥`tolerance` rule.
    pub fn is_attack(&self, observed_count: f64) -> bool {
        self.deviation(observed_count).abs() >= self.tolerance
    }
}

/// Per-cell outcome of an armed detector (sweep reporting; the
/// series-level counterpart is [`DetectionSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionOutcome {
    /// The deviation tripped the ≥`tolerance` rule — a hit.
    Detected,
    /// An off-nominal supply stayed under the rule — a miss (false
    /// negative).
    Missed,
    /// The nominal supply stayed under the rule — a true negative,
    /// counted as neither hit nor miss.
    Quiet,
}

impl DetectionOutcome {
    /// The report label (`hit` / `miss` / `quiet`).
    pub fn label(self) -> &'static str {
        match self {
            DetectionOutcome::Detected => "hit",
            DetectionOutcome::Missed => "miss",
            DetectionOutcome::Quiet => "quiet",
        }
    }
}

/// One row of a detection evaluation (Fig. 10c style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRow {
    /// Supply voltage of the observation.
    pub vdd: f64,
    /// Observed dummy spike count.
    pub count: f64,
    /// Relative deviation from baseline, percent.
    pub deviation_percent: f64,
    /// Whether the detector flags this observation.
    pub flagged: bool,
}

/// Evaluates a detector against a `(vdd, count)` series.
pub fn evaluate_series(detector: &DummyNeuronDetector, series: &[(f64, f64)]) -> Vec<DetectionRow> {
    series
        .iter()
        .map(|&(vdd, count)| DetectionRow {
            vdd,
            count,
            deviation_percent: detector.deviation(count) * 100.0,
            flagged: detector.is_attack(count),
        })
        .collect()
}

/// Summary statistics of a detection evaluation: how many attacked points
/// (VDD ≠ nominal) were caught and whether the nominal point stayed
/// quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionSummary {
    /// Off-nominal points flagged (true positives).
    pub detected: usize,
    /// Off-nominal points missed (false negatives).
    pub missed: usize,
    /// Nominal points flagged (false positives).
    pub false_positives: usize,
}

/// Summarises detection over a series, treating points within `vdd_tol`
/// of `vdd_nominal` as attack-free.
pub fn summarize(rows: &[DetectionRow], vdd_nominal: f64, vdd_tol: f64) -> DetectionSummary {
    let mut summary = DetectionSummary {
        detected: 0,
        missed: 0,
        false_positives: 0,
    };
    for row in rows {
        let nominal = (row.vdd - vdd_nominal).abs() <= vdd_tol;
        match (nominal, row.flagged) {
            (false, true) => summary.detected += 1,
            (false, false) => summary.missed += 1,
            (true, true) => summary.false_positives += 1,
            (true, false) => {}
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_percent_rule() {
        let d = DummyNeuronDetector::new(1000.0).unwrap();
        assert!(!d.is_attack(1000.0));
        assert!(!d.is_attack(1099.0));
        assert!(d.is_attack(1100.0));
        assert!(d.is_attack(899.0));
        assert!(!d.is_attack(901.0));
    }

    #[test]
    fn deviation_signs() {
        let d = DummyNeuronDetector::new(200.0).unwrap();
        assert!((d.deviation(220.0) - 0.1).abs() < 1e-12);
        assert!((d.deviation(180.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn enrollment_from_series() {
        let series = [(0.8, 1500.0), (1.0, 1000.0), (1.2, 700.0)];
        let d = DummyNeuronDetector::from_characterisation(&series, 1.0).unwrap();
        assert_eq!(d.baseline_count, 1000.0);
        let rows = evaluate_series(&d, &series);
        assert!(rows[0].flagged, "VDD=0.8 must be detected");
        assert!(!rows[1].flagged, "nominal must stay quiet");
        assert!(rows[2].flagged, "VDD=1.2 must be detected");
    }

    #[test]
    fn enrollment_requires_nominal_point() {
        let series = [(0.8, 1500.0), (1.2, 700.0)];
        assert!(DummyNeuronDetector::from_characterisation(&series, 1.0).is_err());
    }

    #[test]
    fn summary_counts() {
        let d = DummyNeuronDetector::new(1000.0).unwrap();
        let rows = evaluate_series(
            &d,
            &[(0.8, 1400.0), (0.9, 1050.0), (1.0, 1000.0), (1.2, 600.0)],
        );
        let s = summarize(&rows, 1.0, 1e-6);
        assert_eq!(s.detected, 2); // 0.8 and 1.2
        assert_eq!(s.missed, 1); // 0.9 deviates only 5%
        assert_eq!(s.false_positives, 0);
    }

    #[test]
    fn rejects_bad_baselines_and_tolerances() {
        // Degenerate enrollment data is a recoverable error, never a
        // panic — the values arrive from characterisation runs.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = DummyNeuronDetector::new(bad).unwrap_err().to_string();
            assert!(err.contains("positive"), "diagnostic names the rule: {err}");
        }
    }

    #[test]
    fn count_scale_tracks_drive_over_threshold() {
        let table = PowerTransferTable::paper_nominal();
        let nominal = dummy_count_scale(VDD_NOMINAL, &table);
        let attacked = dummy_count_scale(0.8, &table);
        let point = table.sample(0.8);
        assert_eq!(attacked, point.drive_scale / point.if_threshold_scale);
        // Undervolting starves the dummy neuron: the count must drop
        // hard enough for the 10% rule to fire.
        assert!(
            (attacked / nominal - 1.0).abs() >= 0.10,
            "scale {attacked} vs {nominal}"
        );
    }
}
