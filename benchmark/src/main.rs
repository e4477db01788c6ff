//! The repository benchmark. One command runs one workload against the
//! workspace crates' public APIs, checks every merged cell bit for bit,
//! and prints one JSON result line:
//!
//! ```text
//! neurofi-benchmark --workload snn-sweep|layer-sweep|service-mix \
//!     --seed N --seconds S --trace 0|1
//! neurofi-benchmark --workload W --write-reference
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced run. `--write-reference` recomputes the
//! committed default-seed fingerprints of one workload serially. The exit
//! code is 0 only when every cell matched its reference.
//!
//! Scratch files (result store, journals) go under `.bench_run/` in the
//! working directory and are removed at exit; a traced run leaves its
//! span log there.

mod check;
mod gen;
mod probes;
mod report;
mod service;
mod stats;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::check::Reference;
use crate::report::{result_json, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["snn-sweep", "layer-sweep", "service-mix"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Recompute the committed reference instead of measuring.
    pub write_reference: bool,
}

fn usage() -> String {
    format!(
        "usage: neurofi-benchmark --workload snn-sweep|layer-sweep|service-mix \
         [--seed N] [--seconds S] [--trace 0|1] [--write-reference]\n\
         the default seed is {}; seed {} is held out for confirming claims",
        gen::DEFAULT_SEED,
        gen::HELD_OUT_SEED
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        write_reference: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be within (0, 600]".into());
    }
    Ok(args)
}

/// Where a traced run leaves its span log.
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(format!(
        ".bench_run/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ))
}

/// Recomputes the default-seed fingerprints of `workload` serially and
/// writes them beside the benchmark's sources.
fn write_reference(workload: &str) -> Result<PathBuf, String> {
    let seed = gen::DEFAULT_SEED;
    let (labels, specs): (Vec<String>, Vec<_>) = match workload {
        "service-mix" => {
            let (warm_up, cold) = gen::ServiceMix::campaigns(seed);
            std::iter::once(warm_up)
                .chain(cold)
                .map(|c| (c.name, c.spec))
                .unzip()
        }
        _ => {
            let campaigns = match workload {
                "snn-sweep" => gen::snn_sweep(seed),
                _ => gen::layer_sweep(seed),
            };
            campaigns
                .into_iter()
                .map(|c| (c.label.to_string(), c.spec))
                .unzip()
        }
    };
    let refs: Vec<_> = specs.iter().collect();
    let reference: Reference = check::serial_reference(&refs).map_err(|e| e.to_string())?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.txt"));
    let header = format!(
        "{workload}, seed {seed}: cell fingerprints per campaign, plan order \
         (regenerate: --workload {workload} --write-reference)"
    );
    std::fs::write(&path, reference.to_text(&header, &labels)).map_err(|e| e.to_string())?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.write_reference {
        return match write_reference(&args.workload) {
            Ok(path) => {
                eprintln!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write the reference: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let dir = PathBuf::from(format!(
        ".bench_run/{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "snn-sweep" => sweeps::run(&args, gen::snn_sweep, &dir),
        "layer-sweep" => sweeps::run(&args, gen::layer_sweep, &dir),
        _ => service::run(&args, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(&outcome, catalogue));
    if outcome.failed > 0 {
        eprintln!(
            "{} of {} cells failed the bit-for-bit check",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
