//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [--quick] [--out DIR]
//! repro fig8b fig9a [--quick] [--out DIR]
//! repro sweep --attack threshold-inhibitory --axis "rel_change=-20%,20%" ...
//! repro serve [--grid NAME]... [--spec FILE]... [--bind ADDR] [--workers N] [--store PATH]
//! repro work --connect HOST:PORT [--threads N] [--retry N] [--backoff MS]
//! repro submit (--grid NAME | --spec FILE | --attack ... --axis ...) --to HOST:PORT
//! repro status --to HOST:PORT [--campaign NAME]
//! repro store <stat|compact> --store PATH [--max-records N] [--max-age-days D]
//! repro list
//! ```
//!
//! Each experiment prints a markdown table (measured values next to the
//! paper's reported numbers) and, with `--out`, writes a CSV per
//! experiment. `sweep` runs an arbitrary declarative N-axis scenario
//! (attack family × typed axes — see `repro sweep --help` for the
//! grammar) locally through the same engine.
//! `serve`/`work` shard sweep campaigns across
//! workers over TCP with checkpoint/resume (see `neurofi-dist`); repeat
//! `--grid`/`--spec` to queue several campaigns on one worker fleet,
//! `submit` enqueues another scenario — catalog preset or arbitrary
//! custom grid — on a *running* coordinator, and `--fair` interleaves
//! campaigns by weighted round-robin instead of FIFO. Workers reconnect
//! through link losses with capped jittered backoff (`--retry`/
//! `--backoff`), and submission is idempotent, so retries are safe on
//! both sides. Every merged result is bit-identical to a serial run
//! regardless of scheduling or faults. `serve` with campaigns exits
//! once they settle; with an empty queue it is a long-lived service
//! that outlives queue drain. `status` polls per-campaign progress, and
//! `--store` plugs in the content-addressed result store so overlapping
//! campaigns dedup to store hits instead of recomputing (`store
//! stat`/`store compact` maintain it offline).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use neurofi_bench::{run_experiment, ExperimentId, Fidelity};

fn usage() -> &'static str {
    "usage: repro <all|list|sweep|serve|work|submit|status|store|EXPERIMENT...> [--quick] [--out DIR]\n\
     experiments: fig3 fig4 fig5b fig5c fig6a fig6b fig6c fig7b fig8a fig8b \
     fig8c fig9a fig9b fig9c fig10c defenses overheads ext-glitch ext-weightfaults\n\
     sweep: run a declarative N-axis scenario locally (see `repro sweep --help`)\n\
     serve/work/submit/status: distributed sweep campaigns, as a run or \
     an always-on service, with live submission of arbitrary scenarios \
     and progress queries (see `repro serve --help`, `repro submit --help`)\n\
     store: content-addressed result store maintenance \
     (see `repro store --help`)"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    // The scenario and distributed subcommands own their argument
    // lists entirely.
    match args[0].as_str() {
        "sweep" => return neurofi_bench::scenario_cli::sweep_main(&args[1..]),
        "work" => return neurofi_bench::orchestrate::work_main(&args[1..]),
        "submit" => return neurofi_bench::orchestrate::submit_main(&args[1..]),
        "serve" => return neurofi_bench::orchestrate::serve_main(&args[1..]),
        "status" => return neurofi_bench::orchestrate::status_main(&args[1..]),
        "store" => return neurofi_bench::orchestrate::store_main(&args[1..]),
        _ => {}
    }

    let mut fidelity = Fidelity::Full;
    let mut out_dir: Option<PathBuf> = None;
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--full" => fidelity = Fidelity::Full,
            "--out" => match iter.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "all" => selected = ExperimentId::all(),
            "list" => {
                for id in ExperimentId::all() {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => match ExperimentId::parse(other) {
                Some(id) => selected.push(id),
                None => {
                    eprintln!("unknown experiment '{other}'\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if selected.is_empty() {
        eprintln!("no experiments selected\n{}", usage());
        return ExitCode::FAILURE;
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "# neurofi reproduction — fidelity: {}\n",
        match fidelity {
            Fidelity::Quick => "quick (reduced grids; use --full for paper grids)",
            Fidelity::Full => "full (paper grids)",
        }
    );

    let mut failures = 0usize;
    for id in selected {
        let started = Instant::now();
        match run_experiment(id, fidelity) {
            Ok(table) => {
                println!("{}", table.to_markdown());
                println!("_{} completed in {:.1?}_\n", id, started.elapsed());
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.csv"));
                    if let Err(e) = std::fs::write(&path, table.to_csv()) {
                        eprintln!("cannot write {}: {e}", path.display());
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("{id} FAILED: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
