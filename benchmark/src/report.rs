//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the benchmark's tests keep the two in step.

use std::collections::BTreeMap;

use crate::stats::is_metric_name;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("campaign_p50_s", "s"),
    ("campaign_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("core.plan_ms", "ms"),
    ("core.baseline_ms", "ms"),
    ("core.snn_cell_ms", "ms"),
    ("core.cell_self_ms", "ms"),
    ("core.layer_cell_ms", "ms"),
    ("core.layer_cell_sim_ratio", "ratio"),
    ("core.pool_busy_ratio", "ratio"),
    ("data.generate_ms", "ms"),
    ("data.cell_share", "ratio"),
    ("snn.net_new_ms", "ms"),
    ("snn.train_ms", "ms"),
    ("snn.eval_ms", "ms"),
    ("snn.steps_per_run", "count"),
    ("snn.step_ns", "ns"),
    ("snn.encode_ns", "ns"),
    ("snn.stdp_us", "us"),
    ("analog.build_ms", "ms"),
    ("spice.tran_s", "s"),
    ("spice.newton_us", "us"),
    ("spice.newton_iterations", "count"),
    ("spice.accepted_steps", "count"),
    ("spice.rejected_steps", "count"),
    ("spice.reject_ratio", "ratio"),
    ("spice.waveform_mb", "MiB"),
    ("solver.full_factorizations", "count"),
    ("solver.refactorizations", "count"),
    ("solver.solves", "count"),
    ("solver.pattern_rebuilds", "count"),
    ("solver.nnz", "count"),
    ("solver.lu_nnz", "count"),
    ("dist.submit_cold_ms", "ms"),
    ("dist.submit_warm_ms", "ms"),
    ("dist.status_us", "us"),
    ("dist.assign_wait_ms", "ms"),
    ("dist.assign_useful_ratio", "ratio"),
    ("dist.cells_per_assign", "count"),
    ("dist.ack_wait_us", "us"),
    ("dist.worker_busy_ratio", "ratio"),
    ("dist.encode_us", "us"),
    ("dist.decode_us", "us"),
    ("dist.digest_us", "us"),
    ("dist.journal_open_ms", "ms"),
    ("dist.journal_append_us", "us"),
    ("dist.duplicate_cells", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.open_ms", "ms"),
    ("store.records", "count"),
    ("store.bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values by name, filled by a workload.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Cells produced and checked against the reference.
    pub attempted: u64,
    /// Cells that failed to execute, went missing, or differ in any bit
    /// from the reference.
    pub failed: u64,
    /// Measured values.
    pub values: Values,
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `catalogue` with its unit. A metric the run did not measure, or
/// measured as non-finite, reads 0 so the line stays valid JSON.
pub fn result_json(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            debug_assert!(is_metric_name(name), "bad metric name `{name}`");
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Restarts the peak-resident-set count (`VmHWM`) from the current
/// resident set, so [`peak_rss_mb`] reads the peak of one pass. Where
/// the kernel refuses, the count simply keeps running.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), MiB, since start or the
/// last [`reset_peak_rss`]; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_well_formed() {
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_metric_name(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut outcome = Outcome {
            attempted: 4,
            failed: 0,
            ..Outcome::default()
        };
        outcome.values.insert("setup_s", 0.25);
        outcome.values.insert("cells_per_s", f64::NAN);
        let line = result_json(&outcome, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"cells_per_s\": {\"value\": 0, \"unit\": \"cells/s\"}"));
        assert!(!line.contains('\n'));
        outcome.failed = 1;
        assert!(result_json(&outcome, &END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_measured() {
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
