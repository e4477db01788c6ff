//! A short run of each workload, untraced and traced, passes its output
//! check and emits exactly the metrics `BENCHMARK.json` names, each a
//! finite number in the unit the file gives.

use std::path::Path;
use std::process::Command;

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json is readable")
}

/// The values of `key` in the array under `section` (`workloads`,
/// `end_to_end` or `per_layer`), in order.
fn strings(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{section}`"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("each section is an array")];
    body.match_indices(&format!("\"{key}\": \""))
        .map(|(i, key)| {
            let rest = &body[i + key.len()..];
            rest[..rest.find('"').expect("strings are quoted")].to_string()
        })
        .collect()
}

/// `(name, unit)` of every metric under `section`.
fn metrics(json: &str, section: &str) -> Vec<(String, String)> {
    let names = strings(json, section, "name");
    let units = strings(json, section, "unit");
    assert_eq!(names.len(), units.len(), "every metric has a unit");
    names.into_iter().zip(units).collect()
}

/// `(name, value, unit)` of every metric in a result line.
fn emitted(line: &str) -> Vec<(String, f64, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("the line has metrics")..];
    metrics
        .match_indices(": {\"value\": ")
        .map(|(i, key)| {
            let name_end = i - 1;
            let name_start = metrics[..name_end].rfind('"').expect("names are quoted") + 1;
            let rest = &metrics[i + key.len()..];
            let comma = rest.find(',').expect("a unit follows the value");
            let unit = &rest[comma..];
            let unit = &unit[unit.find(": \"").expect("the unit is quoted") + 3..];
            (
                metrics[name_start..name_end].to_string(),
                rest[..comma].parse().expect("values are numbers"),
                unit[..unit.find('"').expect("the unit is quoted")].to_string(),
            )
        })
        .collect()
}

fn smoke(workload: &str) {
    let json = benchmark_json();
    assert!(strings(&json, "workloads", "name")
        .iter()
        .any(|w| w == workload));
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_neurofi-benchmark"))
            .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
            .args(["--trace", trace])
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("the benchmark runs");
        let stdout = String::from_utf8(output.stdout).expect("the output is text");
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = stdout.lines().last().expect("a result line");
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        let mut got: Vec<(String, String)> = emitted(line)
            .into_iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                (name, unit)
            })
            .collect();
        let mut want = metrics(&json, section);
        got.sort();
        want.sort();
        assert_eq!(got, want, "{workload} --trace {trace}");
    }
}

#[test]
fn snn_sweep_emits_every_metric() {
    smoke("snn-sweep");
}

#[test]
fn layer_sweep_emits_every_metric() {
    smoke("layer-sweep");
}

#[test]
fn service_mix_emits_every_metric() {
    smoke("service-mix");
}

#[test]
fn result_line_parser_reads_names_and_values() {
    let line = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                {\"a.b_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
                \"c\": {\"value\": 0, \"unit\": \"count\"}}}";
    assert_eq!(
        emitted(line),
        vec![
            ("a.b_ms".to_string(), 1.5, "ms".to_string()),
            ("c".to_string(), 0.0, "count".to_string())
        ]
    );
}
