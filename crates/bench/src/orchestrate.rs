//! CLI backends for the distributed-sweep subcommands:
//! `repro serve` (the coordinator: shard campaigns over TCP workers,
//! either as a run that exits once its start-up campaigns settle or as
//! an always-on service), `repro work` (join as a worker), `repro
//! submit` (enqueue a campaign on a *running* coordinator), `repro
//! status` (query a running coordinator's per-campaign progress over
//! the v5 control plane), and `repro store` (offline stat/compact of
//! the content-addressed result store).
//!
//! All return a process exit code and print human-oriented progress to
//! stderr, results to stdout — any failed cell, failed worker, or
//! failed verification exits nonzero so CI catches silent regressions.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, SystemTime};

use neurofi_core::{cell_countermeasures, AxisKind, Parallelism, SweepResult, Table};
use neurofi_dist::{
    named_campaign, query_status, run_local_cluster, run_worker, submit_campaign_retrying,
    CampaignProgress, CampaignSpec, CampaignSweep, Coordinator, CoordinatorConfig, NamedCampaign,
    PolicyKind, RetryPolicy, WorkerConfig, NAMED_CAMPAIGNS,
};
use neurofi_store::{EvictionPolicy, Store};

fn serve_usage() -> String {
    format!(
        "usage: repro serve [--grid NAME]... [--spec FILE]... [--weight GRID=W]... [--fair] \
         [--bind ADDR] [--journal PATH] [--store PATH] [--workers N] \
         [--worker-max-cells K] [--idle-timeout SECS] [--verify-serial] [--out DIR]\n\
         grids: {}\n\
         The coordinator. The start-up queue sets the mode:\n\
         * empty (no --grid/--spec): an always-on service. It needs --bind, \
         serves `repro work` peers, accepts `repro submit` campaigns, and runs \
         until killed — it does NOT exit when the queue drains. Poll it with \
         `repro status --to ADDR`. --idle-timeout, --verify-serial and --out \
         are refused (nothing is merged before the kill).\n\
         * --grid/--spec campaigns: a run that exits once they and any live \
         submissions settle, printing each merge. It needs --workers N, --bind, \
         or both.\n\
         --grid NAME / --spec FILE  queue a catalog preset / a scenario file in \
         the axis grammar (see `repro sweep --help`); repeat to queue several \
         campaigns on one fleet\n\
         --fair  weighted round-robin across campaigns instead of FIFO (a \
         campaign with --weight GRID=W gets W consecutive batches per \
         rotation; default weight 1)\n\
         --bind ADDR  listen for external `repro work --connect` peers and \
         `repro submit`/`repro status` clients\n\
         --journal PATH  checkpoint each campaign to its own journal \
         `PATH.<name>`; rerunning the same command resumes them\n\
         --store PATH  content-addressed result store: cells already present \
         (from *any* earlier campaign, under any name) are filled as store \
         hits before workers are assigned, and newly computed cells are \
         recorded for future runs\n\
         --workers N  spawn N local workers over localhost TCP (default 0: \
         only external peers compute)\n\
         --worker-max-cells K  preempt each local worker after K cells \
         (exercises the requeue/resume path; mainly for CI)\n\
         --idle-timeout SECS  give up, journaling progress, after SECS with \
         work pending and no worker connected (default 60)\n\
         --verify-serial  re-run every merged campaign serially and fail \
         unless the merge is bit-identical\n\
         --out DIR  also write each merge to `DIR/distributed_sweep.<name>.csv`",
        NAMED_CAMPAIGNS.join(" ")
    )
}

fn status_usage() -> &'static str {
    "usage: repro status --to HOST:PORT [--campaign NAME]\n\
     One progress snapshot per campaign on the running coordinator \
     (queued / running / done / resumed / store-hit cell counts plus \
     the dummy-neuron detection hit/miss counters, in queue order); \
     --campaign restricts the report to one name. Exits nonzero if a \
     reported campaign has failed."
}

fn store_usage() -> &'static str {
    "usage: repro store <stat|compact> --store PATH [--max-records N] [--max-age-days D]\n\
     Offline maintenance of a content-addressed result store (no \
     coordinator needed; do not run against a store a live `repro serve` \
     has open).\n\
     stat     print record counts, file size, and stamp range\n\
     compact  rewrite the store dropping evicted records: --max-age-days \
     drops records older than D days, --max-records keeps only the N \
     newest (both optional; with neither, compaction just rewrites \
     the file dropping dead bytes)"
}

fn work_usage() -> &'static str {
    "usage: repro work --connect HOST:PORT [--threads N] [--max-cells K] \
     [--retry N] [--backoff MS]\n\
     --retry N  give up after N consecutive failed dials/sessions \
     (default 4; a completed handshake resets the count, so a long-lived \
     worker rides through any number of separated link flaps; a worker \
     started before its coordinator binds keeps dialling)\n\
     --backoff MS  base reconnect delay, doubled per consecutive failure \
     and jittered (default 250, capped at 5000)"
}

fn submit_usage() -> String {
    format!(
        "usage: repro submit (--grid NAME | --spec FILE | --attack FAMILY --axis \
         NAME=VALUES...) --to HOST:PORT [--seeds LIST] [--setup bench|quick|paper] \
         [--setup-seed N] [--transfer paper|POINTS] [--weight W] [--name NAME]\n\
         grids: {}\n\
         Enqueues the scenario on a *running* coordinator (started with \
         `repro serve`) — a catalog preset, a spec file, or an inline \
         axis grammar (arbitrary grids, not just catalog names; see \
         `repro sweep --help` for the grammar). The campaign is journaled \
         and scheduled exactly like a bind-time campaign; --name overrides \
         the queue name, --weight sets its --fair round-robin share.\n\
         --retry N  retry link failures up to N times with backoff \
         (default 4) — safe because enqueueing is idempotent: a retry \
         after a lost acknowledgement returns the existing campaign id\n\
         --backoff MS  base retry delay, doubled per attempt and jittered \
         (default 250, capped at 5000)",
        NAMED_CAMPAIGNS.join(" ")
    )
}

/// One row per cell, one column per resolved axis — a cross-product
/// grid (e.g. threshold × vdd) would otherwise print indistinguishable
/// rows. When the producing spec carries a defense or detector axis,
/// each row additionally reports the defense overhead and the
/// dummy-neuron detection outcome (hit / miss / quiet).
pub(crate) fn sweep_table(name: &str, sweep: &SweepResult, spec: &CampaignSpec) -> Table {
    let title = format!("Sweep `{name}` — attack {}", sweep.kind.paper_id());
    // Countermeasure reporting is derived, never measured: overhead and
    // detection are pure functions of each planned attack, so the cells'
    // bytes stay identical whether or not these columns print.
    let armed = spec
        .scenario
        .axes
        .iter()
        .any(|a| matches!(a.kind, AxisKind::Defense | AxisKind::Detector));
    let countermeasures = armed.then(|| {
        let transfer = spec.scenario.transfer_table().ok().flatten();
        spec.plan()
            .jobs
            .iter()
            .map(|job| cell_countermeasures(&job.attack, transfer.as_ref()))
            .collect::<Vec<_>>()
    });
    let mut headers: Vec<String> = sweep.axes.iter().map(|a| a.kind.to_string()).collect();
    headers.push("accuracy".into());
    headers.push("vs baseline".into());
    if countermeasures.is_some() {
        headers.push("overhead".into());
        headers.push("detection".into());
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for (flat, cell) in sweep.cells.iter().enumerate() {
        let indices = sweep
            .axis_indices(flat)
            .expect("every assembled cell decomposes into axis indices");
        let mut row: Vec<String> = sweep
            .axes
            .iter()
            .zip(&indices)
            .map(|(axis, &i)| axis.value_label(i).unwrap_or_default())
            .collect();
        row.push(format!("{:.1}%", cell.accuracy * 100.0));
        row.push(format!("{:+.2}%", cell.relative_change_percent));
        if let Some(cms) = countermeasures.as_ref().and_then(|cms| cms.get(flat)) {
            row.push(
                if cms.power_overhead_percent == 0.0 && cms.area_overhead_percent == 0.0 {
                    "—".into()
                } else {
                    format!(
                        "+{}% pwr, +{}% area",
                        cms.power_overhead_percent, cms.area_overhead_percent
                    )
                },
            );
            row.push(match cms.detection {
                Some(outcome) => outcome.label().to_string(),
                None => "—".into(),
            });
        }
        table.push_row(&row);
    }
    table.push_note(format!(
        "baseline accuracy {:.2}%",
        sweep.baseline_accuracy * 100.0
    ));
    table
}

/// Bit-level comparison of two sweep results — the golden-merge check
/// behind `--verify-serial`. Pure so the divergence detection itself is
/// testable without training runs.
pub fn diff_sweeps(serial: &SweepResult, merged: &SweepResult) -> Result<(), String> {
    if serial.baseline_accuracy.to_bits() != merged.baseline_accuracy.to_bits() {
        return Err(format!(
            "baseline accuracy diverged: serial {:?} vs distributed {:?}",
            serial.baseline_accuracy, merged.baseline_accuracy
        ));
    }
    if serial.cells.len() != merged.cells.len() {
        return Err(format!(
            "cell count diverged: serial {} vs distributed {}",
            serial.cells.len(),
            merged.cells.len()
        ));
    }
    for (i, (s, d)) in serial.cells.iter().zip(&merged.cells).enumerate() {
        if !s.same_bits(d) {
            return Err(format!(
                "cell {i} diverged: serial {s:?} vs distributed {d:?}"
            ));
        }
    }
    Ok(())
}

/// Re-runs a merged campaign serially and demands bit identity. Works
/// for bind-time *and* live-submitted campaigns: the [`CampaignSweep`]
/// carries the spec that produced it.
fn verify_against_serial(sweep: &CampaignSweep) -> Result<(), String> {
    let serial = sweep
        .spec
        .run_serial()
        .map_err(|e| format!("serial reference run failed: {e}"))?;
    diff_sweeps(&serial, &sweep.result)
}

/// Prints one merged campaign and, with `out_dir`, writes it to
/// `distributed_sweep.<name>.csv` there. The name is always in the file
/// name: a live `repro submit` can add campaigns to any run, so a path
/// that depended on the campaign count would rename earlier results.
fn report_sweep(sweep: &CampaignSweep, out_dir: Option<&Path>) -> Result<(), String> {
    let table = sweep_table(&sweep.name, &sweep.result, &sweep.spec);
    println!("{}", table.to_markdown());
    // The zero-hit format is frozen: CI greps the exact
    // `... N computed)` suffix on runs without a store.
    let hits = if sweep.store_hit_cells > 0 {
        format!(", {} store hits", sweep.store_hit_cells)
    } else {
        String::new()
    };
    println!(
        "_campaign `{}`: merged {} cells ({} resumed from checkpoint, {} computed{hits})_\n",
        sweep.name, sweep.total_cells, sweep.resumed_cells, sweep.computed_cells
    );
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
        let path = dir.join(format!("distributed_sweep.{}.csv", sweep.name));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `repro work ...`: join a campaign as a worker.
pub fn work_main(args: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let mut parallelism = Parallelism::Auto;
    let mut max_cells: Option<usize> = None;
    let mut retries: Option<u32> = None;
    let mut backoff: Option<u64> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--connect" => match take("--connect") {
                Ok(v) => connect = Some(v),
                Err(e) => return usage_error(&e, work_usage()),
            },
            "--threads" => match take("--threads").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("bad thread count `{v}`"))
            }) {
                Ok(v) => parallelism = Parallelism::Threads(v),
                Err(e) => return usage_error(&e, work_usage()),
            },
            "--max-cells" => match take("--max-cells").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("bad cell budget `{v}`"))
            }) {
                Ok(v) => max_cells = Some(v),
                Err(e) => return usage_error(&e, work_usage()),
            },
            "--retry" => match take("--retry").and_then(|v| {
                v.parse::<u32>()
                    .map_err(|_| format!("bad retry count `{v}`"))
            }) {
                Ok(v) => retries = Some(v),
                Err(e) => return usage_error(&e, work_usage()),
            },
            "--backoff" => match take("--backoff")
                .and_then(|v| v.parse::<u64>().map_err(|_| format!("bad backoff `{v}`")))
            {
                Ok(v) => backoff = Some(v),
                Err(e) => return usage_error(&e, work_usage()),
            },
            "--help" | "-h" => {
                println!("{}", work_usage());
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`"), work_usage()),
        }
    }
    let Some(connect) = connect else {
        return usage_error("--connect is required", work_usage());
    };

    let mut config = WorkerConfig::new(connect);
    config.parallelism = parallelism;
    config.max_cells = max_cells;
    if let Some(retries) = retries {
        config.retry.max_retries = retries;
    }
    if let Some(backoff) = backoff {
        config.retry.backoff = Duration::from_millis(backoff);
    }
    // Per-process jitter seed so a fleet restarted together does not
    // redial in lockstep.
    config.retry.seed ^= u64::from(std::process::id());
    eprintln!(
        "work: connecting to {} with {} thread(s)...",
        config.connect,
        parallelism.worker_count()
    );
    match run_worker(&config) {
        Ok(summary) => {
            eprintln!(
                "work: executed {} cell(s); {}",
                summary.cells_executed,
                if summary.finished {
                    "campaign finished"
                } else {
                    "cell budget reached, left campaign"
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("work FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Resolves `--grid` presets and `--spec` files into the campaign
/// queue, applying `--weight` overrides (at most one per campaign).
fn build_campaigns(
    grids: &[String],
    spec_files: &[PathBuf],
    weights: &[(String, u32)],
) -> Result<Vec<NamedCampaign>, String> {
    let mut campaigns: Vec<NamedCampaign> = Vec::with_capacity(grids.len() + spec_files.len());
    for grid in grids {
        let Some(spec) = named_campaign(grid) else {
            return Err(format!("unknown grid `{grid}`"));
        };
        if campaigns.iter().any(|c| &c.name == grid) {
            return Err(format!("grid `{grid}` queued twice"));
        }
        campaigns.push(NamedCampaign::new(grid.clone(), spec));
    }
    for path in spec_files {
        let spec_arg = crate::scenario_cli::SpecArgs {
            spec_file: Some(path.clone()),
            ..Default::default()
        };
        let campaign = spec_arg.build("spec")?;
        if campaigns.iter().any(|c| c.name == campaign.name) {
            return Err(format!("campaign `{}` queued twice", campaign.name));
        }
        campaigns.push(campaign);
    }
    for (i, (name, weight)) in weights.iter().enumerate() {
        if weights[..i].iter().any(|(earlier, _)| earlier == name) {
            return Err(format!("--weight given twice for `{name}`"));
        }
        let Some(campaign) = campaigns.iter_mut().find(|c| &c.name == name) else {
            return Err(format!("--weight names unqueued grid `{name}`"));
        };
        campaign.weight = *weight;
    }
    Ok(campaigns)
}

/// Parses a `--weight GRID=W` argument.
fn parse_weight(value: &str) -> Result<(String, u32), String> {
    let (name, weight) = value
        .split_once('=')
        .ok_or_else(|| format!("bad weight `{value}` (expected GRID=W)"))?;
    let weight: u32 = weight
        .parse()
        .map_err(|_| format!("bad weight `{value}` (W must be a positive integer)"))?;
    if name.is_empty() || weight == 0 {
        return Err(format!(
            "bad weight `{value}` (grid name and a weight >= 1 required)"
        ));
    }
    Ok((name.to_string(), weight))
}

/// `repro submit ...`: enqueue a scenario — catalog preset, spec file,
/// or inline axis grammar — on a running coordinator.
pub fn submit_main(args: &[String]) -> ExitCode {
    let mut spec_args = crate::scenario_cli::SpecArgs::default();
    let mut to: Option<String> = None;
    let mut weight: Option<u32> = None;
    let mut queue_name: Option<String> = None;
    let mut retry = RetryPolicy::default();
    retry.seed ^= u64::from(std::process::id());

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--to" => match take("--to") {
                Ok(v) => to = Some(v),
                Err(e) => return usage_error(&e, &submit_usage()),
            },
            "--weight" => match take("--weight")
                .and_then(|v| v.parse::<u32>().map_err(|_| format!("bad weight `{v}`")))
            {
                Ok(v) if v >= 1 => weight = Some(v),
                Ok(_) => return usage_error("--weight must be >= 1", &submit_usage()),
                Err(e) => return usage_error(&e, &submit_usage()),
            },
            "--name" => match take("--name") {
                Ok(v) => queue_name = Some(v),
                Err(e) => return usage_error(&e, &submit_usage()),
            },
            "--retry" => match take("--retry").and_then(|v| {
                v.parse::<u32>()
                    .map_err(|_| format!("bad retry count `{v}`"))
            }) {
                Ok(v) => retry.max_retries = v,
                Err(e) => return usage_error(&e, &submit_usage()),
            },
            "--backoff" => match take("--backoff")
                .and_then(|v| v.parse::<u64>().map_err(|_| format!("bad backoff `{v}`")))
            {
                Ok(v) => retry.backoff = Duration::from_millis(v),
                Err(e) => return usage_error(&e, &submit_usage()),
            },
            "--help" | "-h" => {
                println!("{}", submit_usage());
                return ExitCode::SUCCESS;
            }
            other => match spec_args.take_arg(other, || take(other)) {
                Ok(true) => {}
                Ok(false) => {
                    return usage_error(&format!("unknown argument `{other}`"), &submit_usage())
                }
                Err(e) => return usage_error(&e, &submit_usage()),
            },
        }
    }
    let Some(to) = to else {
        return usage_error("--to is required", &submit_usage());
    };
    let mut campaign = match spec_args.build("submitted") {
        Ok(campaign) => campaign,
        Err(e) => return usage_error(&e, &submit_usage()),
    };
    if let Some(name) = queue_name {
        campaign.name = name;
    }
    if let Some(weight) = weight {
        campaign.weight = weight;
    }
    let name = campaign.name.clone();
    eprintln!(
        "submit: enqueueing {} (weight {}) on {to}...",
        crate::scenario_cli::describe_campaign(&campaign),
        campaign.weight
    );
    match submit_campaign_retrying(&to, &campaign, &retry) {
        Ok(id) => {
            println!("submitted campaign `{name}` as id {id}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("submit FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro serve` after argument parsing: the coordinator config plus
/// what the CLI does around it.
#[derive(Debug)]
struct ServeArgs {
    config: CoordinatorConfig,
    /// Local workers to spawn over localhost TCP (0: external peers only).
    workers: usize,
    worker_max_cells: Option<usize>,
    verify_serial: bool,
    out_dir: Option<PathBuf>,
}

/// Parses `repro serve` arguments (`Ok(None)` for `--help`). The
/// start-up queue alone sets the mode: empty gives the always-on
/// service, any `--grid`/`--spec` campaign a run that exits once its
/// campaigns settle.
fn parse_serve(args: &[String]) -> Result<Option<ServeArgs>, String> {
    let mut grids: Vec<String> = Vec::new();
    let mut spec_files: Vec<PathBuf> = Vec::new();
    let mut weights: Vec<(String, u32)> = Vec::new();
    let mut config = CoordinatorConfig::with_campaigns("127.0.0.1:0", Vec::new());
    let mut bind: Option<String> = None;
    let mut idle_timeout: Option<u64> = None;
    let mut workers = 0usize;
    let mut worker_max_cells: Option<usize> = None;
    let mut verify_serial = false;
    let mut out_dir: Option<PathBuf> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--grid" => grids.push(take("--grid")?),
            "--spec" => spec_files.push(take("--spec")?.into()),
            "--weight" => weights.push(parse_weight(&take("--weight")?)?),
            "--fair" => config.policy = PolicyKind::WeightedRoundRobin,
            "--bind" => bind = Some(take("--bind")?),
            "--journal" => config.journal = Some(take("--journal")?.into()),
            "--store" => config.store = Some(take("--store")?.into()),
            "--workers" => workers = parse_number(&take("--workers")?, "worker count")?,
            "--worker-max-cells" => {
                worker_max_cells = Some(parse_number(&take("--worker-max-cells")?, "cell budget")?)
            }
            "--idle-timeout" => {
                idle_timeout = Some(parse_number(&take("--idle-timeout")?, "timeout")?)
            }
            "--verify-serial" => verify_serial = true,
            "--out" => out_dir = Some(take("--out")?.into()),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    config.campaigns = build_campaigns(&grids, &spec_files, &weights)?;
    config.persistent = config.campaigns.is_empty();
    if config.persistent {
        if bind.is_none() {
            return Err("an empty queue starts the always-on service, which needs --bind".into());
        }
        let merge_flags = [
            ("--idle-timeout", idle_timeout.is_some()),
            ("--verify-serial", verify_serial),
            ("--out", out_dir.is_some()),
        ];
        if let Some((flag, _)) = merge_flags.iter().find(|(_, given)| *given) {
            return Err(format!(
                "{flag} needs a --grid or --spec campaign: with an empty queue the \
                 service never idles out and merges nothing before it is killed"
            ));
        }
    } else if workers == 0 && bind.is_none() {
        return Err(
            "campaigns need --workers N or --bind (there would be nobody to compute them)".into(),
        );
    }
    if let Some(bind) = bind {
        config.bind = bind;
    }
    if let Some(secs) = idle_timeout {
        config.idle_timeout = Duration::from_secs(secs);
    }
    Ok(Some(ServeArgs {
        config,
        workers,
        worker_max_cells,
        verify_serial,
        out_dir,
    }))
}

/// Parses a numeric flag value, naming what was expected on failure.
fn parse_number<T: FromStr>(value: &str, what: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {what} `{value}`"))
}

/// `repro serve ...`: the coordinator. With an empty start-up queue it
/// is an always-on service that serves workers and accepts `repro
/// submit` campaigns until killed; results live in the journals and
/// (with `--store`) the result store, and `repro status` shows
/// progress. With `--grid`/`--spec` campaigns it exits once they and
/// any live submissions settle, and reports each merge.
pub fn serve_main(args: &[String]) -> ExitCode {
    let ServeArgs {
        config,
        workers,
        worker_max_cells,
        verify_serial,
        out_dir,
    } = match parse_serve(args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", serve_usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => return usage_error(&e, &serve_usage()),
    };

    let names: Vec<&str> = config.campaigns.iter().map(|c| c.name.as_str()).collect();
    let total_cells: usize = config
        .campaigns
        .iter()
        .map(|c| c.spec.plan().jobs.len())
        .sum();
    eprintln!(
        "serve: {}, {} scheduling, {workers} local worker(s){}{}",
        if config.persistent {
            "always-on service (empty start-up queue)".to_string()
        } else {
            format!(
                "{} campaign(s) [{}] ({total_cells} cells)",
                names.len(),
                names.join(", ")
            )
        },
        match config.policy {
            PolicyKind::Fifo => "fifo",
            PolicyKind::WeightedRoundRobin => "fair (weighted round-robin)",
        },
        match &config.journal {
            Some(p) => format!(", journal base {}", p.display()),
            None => String::new(),
        },
        match &config.store {
            Some(p) => format!(", store {}", p.display()),
            None => String::new(),
        }
    );

    let run = if workers > 0 {
        run_local_cluster(config, workers, Parallelism::Auto, worker_max_cells).map(|report| {
            for (i, worker) in report.workers.iter().enumerate() {
                match worker {
                    Ok(summary) => eprintln!(
                        "worker {i}: {} cell(s), {}",
                        summary.cells_executed,
                        if summary.finished {
                            "finished"
                        } else {
                            "left early"
                        }
                    ),
                    Err(e) => eprintln!("worker {i}: failed after merge completed: {e}"),
                }
            }
            report.run
        })
    } else {
        let bind = config.bind.clone();
        let until = if config.persistent {
            "; runs until killed"
        } else {
            ""
        };
        Coordinator::bind(config).and_then(|coordinator| {
            eprintln!(
                "serve: listening on {} — `repro submit --to` enqueues, `repro status --to` \
                 polls, `repro work --connect` computes{until}",
                coordinator
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or(bind)
            );
            coordinator.serve()
        })
    };

    // A persistent service only gets here on a service-level failure
    // (bind error, unusable journal or store): drained queues keep it
    // alive.
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("serve FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    for sweep in &run.campaigns {
        if let Err(e) = report_sweep(sweep, out_dir.as_deref()) {
            eprintln!("serve FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("_{} worker(s) served the fleet_\n", run.workers_seen);
    if verify_serial {
        // Every merged campaign is verified — including ones submitted
        // to the running coordinator after bind (the merge carries its
        // spec).
        for sweep in &run.campaigns {
            eprintln!(
                "verify: re-running campaign `{}` serially for the golden comparison...",
                sweep.name
            );
            match verify_against_serial(sweep) {
                Ok(()) => println!(
                    "_verify-serial `{}`: distributed merge is bit-identical to the \
                     serial engine_",
                    sweep.name
                ),
                Err(e) => {
                    eprintln!("serve FAILED verification for `{}`: {e}", sweep.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// `repro status ...`: one progress snapshot from a running
/// coordinator, per campaign in queue order.
pub fn status_main(args: &[String]) -> ExitCode {
    let mut to: Option<String> = None;
    let mut filter: Option<String> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--to" => match take("--to") {
                Ok(v) => to = Some(v),
                Err(e) => return usage_error(&e, status_usage()),
            },
            "--campaign" => match take("--campaign") {
                Ok(v) => filter = Some(v),
                Err(e) => return usage_error(&e, status_usage()),
            },
            "--help" | "-h" => {
                println!("{}", status_usage());
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`"), status_usage()),
        }
    }
    let Some(to) = to else {
        return usage_error("--to is required", status_usage());
    };

    let campaigns = match query_status(&to) {
        Ok(campaigns) => campaigns,
        Err(e) => {
            eprintln!("status FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shown: Vec<&CampaignProgress> = match &filter {
        Some(name) => {
            let picked: Vec<&CampaignProgress> =
                campaigns.iter().filter(|c| &c.name == name).collect();
            if picked.is_empty() {
                eprintln!("status FAILED: coordinator at {to} has no campaign `{name}`");
                return ExitCode::FAILURE;
            }
            picked
        }
        None => campaigns.iter().collect(),
    };
    if shown.is_empty() {
        println!("_coordinator at {to}: no campaigns queued yet_");
        return ExitCode::SUCCESS;
    }

    let mut table = Table::new(
        format!("Coordinator status — {to}"),
        &[
            "campaign",
            "queued",
            "running",
            "done",
            "resumed",
            "store hits",
            "detected",
            "missed",
            "total",
            "state",
        ],
    );
    let mut any_failed = false;
    for c in &shown {
        any_failed |= c.failed;
        table.push_row(&[
            c.name.clone(),
            c.queued.to_string(),
            c.running.to_string(),
            c.done.to_string(),
            c.resumed.to_string(),
            c.store_hits.to_string(),
            c.detected.to_string(),
            c.missed.to_string(),
            c.total.to_string(),
            if c.failed {
                "FAILED".into()
            } else if c.done == c.total {
                "done".to_string()
            } else {
                "active".to_string()
            },
        ]);
    }
    println!("{}", table.to_markdown());
    // One grep-friendly line per campaign for scripts and CI.
    for c in &shown {
        // The detection counters ride *after* "store hits" so existing
        // substring greps on the prefix keep matching.
        println!(
            "_campaign `{}`: {}/{} done, {} queued, {} running, {} resumed, {} store hits, \
             {} detected, {} missed{}_",
            c.name,
            c.done,
            c.total,
            c.queued,
            c.running,
            c.resumed,
            c.store_hits,
            c.detected,
            c.missed,
            if c.failed { ", FAILED" } else { "" }
        );
    }
    if any_failed {
        eprintln!("status: at least one campaign has failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro store <stat|compact> ...`: offline maintenance of a
/// content-addressed result store — no coordinator involved.
pub fn store_main(args: &[String]) -> ExitCode {
    let Some(verb) = args.first().map(String::as_str) else {
        return usage_error("a subcommand (stat or compact) is required", store_usage());
    };
    if matches!(verb, "--help" | "-h") {
        println!("{}", store_usage());
        return ExitCode::SUCCESS;
    }
    if !matches!(verb, "stat" | "compact") {
        return usage_error(&format!("unknown store subcommand `{verb}`"), store_usage());
    }

    let mut path: Option<PathBuf> = None;
    let mut policy = EvictionPolicy::default();
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--store" => match take("--store") {
                Ok(v) => path = Some(PathBuf::from(v)),
                Err(e) => return usage_error(&e, store_usage()),
            },
            "--max-records" => match take("--max-records").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("bad record cap `{v}`"))
            }) {
                Ok(v) => policy.max_records = Some(v),
                Err(e) => return usage_error(&e, store_usage()),
            },
            "--max-age-days" => match take("--max-age-days").and_then(|v| {
                let days: u64 = parse_number(&v, "age cap")?;
                days.checked_mul(86_400)
                    .ok_or_else(|| format!("age cap of {days} days overflows the seconds clock"))
            }) {
                Ok(secs) => policy.max_age_secs = Some(secs),
                Err(e) => return usage_error(&e, store_usage()),
            },
            "--help" | "-h" => {
                println!("{}", store_usage());
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`"), store_usage()),
        }
    }
    let Some(path) = path else {
        return usage_error("--store is required", store_usage());
    };
    // Opening creates a missing store, which would make a mistyped path
    // read as an empty store; maintenance only ever works on one that
    // exists.
    if !path.exists() {
        eprintln!("store FAILED: no store at {}", path.display());
        return ExitCode::FAILURE;
    }

    let mut store = match Store::open(&path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("store FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    if verb == "stat" {
        let stats = match store.stat() {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("store stat FAILED: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "store {}: {} cell(s), {} baseline(s), {} bytes on disk",
            path.display(),
            stats.cells,
            stats.baselines,
            stats.file_bytes
        );
        match (stats.oldest_stamp, stats.newest_stamp) {
            (Some(oldest), Some(newest)) => {
                println!("stamps: oldest {oldest}, newest {newest} (unix seconds)");
            }
            _ => println!("store is empty"),
        }
        return ExitCode::SUCCESS;
    }
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    match store.compact(&policy, now) {
        Ok(report) => {
            println!(
                "store {}: kept {} record(s), evicted {}, {} -> {} bytes",
                path.display(),
                report.kept,
                report.evicted,
                report.bytes_before,
                report.bytes_after
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("store compact FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str, usage: &str) -> ExitCode {
    eprintln!("{message}\n{usage}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofi_core::{AttackKind, SweepCell};

    fn result(baseline: f64, accuracies: &[f64]) -> SweepResult {
        SweepResult {
            kind: AttackKind::InhibitoryThreshold,
            baseline_accuracy: baseline,
            cells: accuracies
                .iter()
                .enumerate()
                .map(|(i, &accuracy)| SweepCell {
                    rel_change: -0.2,
                    fraction: i as f64 * 0.5,
                    accuracy,
                    relative_change_percent: (accuracy - baseline) / baseline * 100.0,
                })
                .collect(),
            axes: Vec::new(),
        }
    }

    #[test]
    fn diff_accepts_bit_identical_sweeps() {
        let a = result(0.55, &[0.5, 0.3]);
        let b = result(0.55, &[0.5, 0.3]);
        assert!(diff_sweeps(&a, &b).is_ok());
    }

    #[test]
    fn diff_catches_every_divergence_axis() {
        let golden = result(0.55, &[0.5, 0.3]);
        // One-ULP baseline drift.
        let mut bad = result(0.55, &[0.5, 0.3]);
        bad.baseline_accuracy = f64::from_bits(bad.baseline_accuracy.to_bits() + 1);
        assert!(diff_sweeps(&golden, &bad).unwrap_err().contains("baseline"));
        // Missing cell.
        let bad = result(0.55, &[0.5]);
        assert!(diff_sweeps(&golden, &bad).unwrap_err().contains("count"));
        // One-ULP cell drift.
        let mut bad = result(0.55, &[0.5, 0.3]);
        bad.cells[1].accuracy = f64::from_bits(bad.cells[1].accuracy.to_bits() + 1);
        assert!(diff_sweeps(&golden, &bad).unwrap_err().contains("cell 1"));
        // Swapped slots (same multiset of values, wrong order).
        let bad = result(0.55, &[0.3, 0.5]);
        assert!(diff_sweeps(&golden, &bad).is_err());
    }

    /// A merged result shaped like `spec`'s plan: one cell per job and
    /// the plan's axes, every cell at `accuracy`.
    fn planned_result(spec: &CampaignSpec, accuracy: f64) -> SweepResult {
        let plan = spec.plan();
        SweepResult {
            kind: spec.scenario.kind(),
            baseline_accuracy: 0.55,
            cells: plan
                .jobs
                .iter()
                .map(|_| SweepCell {
                    rel_change: 0.8,
                    fraction: 1.0,
                    accuracy,
                    relative_change_percent: (accuracy - 0.55) / 0.55 * 100.0,
                })
                .collect(),
            axes: plan.axes.clone(),
        }
    }

    #[test]
    fn sweep_table_has_one_row_per_cell() {
        let spec = named_campaign("tiny").unwrap();
        let sweep = planned_result(&spec, 0.3);
        let table = sweep_table("tiny", &sweep, &spec);
        assert_eq!(table.len(), sweep.cells.len());
        assert!(table.to_markdown().contains("baseline accuracy"));
        assert!(table.to_markdown().contains("`tiny`"));
    }

    #[test]
    fn sweep_table_reports_countermeasures_for_armed_specs() {
        use neurofi_core::scenario::{Axis, DefenseSel, DetectorSel};
        use neurofi_core::{PowerTransferTable, ScenarioSpec};
        use neurofi_dist::SetupSpec;

        let plain = CampaignSpec {
            setup: SetupSpec::bench(42),
            scenario: ScenarioSpec::vdd(&[0.8, 1.0], &PowerTransferTable::paper_nominal(), &[42]),
        };
        let mut armed = plain.clone();
        armed.scenario.axes.push(Axis::defenses(vec![
            DefenseSel::None,
            DefenseSel::BandgapThreshold,
        ]));
        armed
            .scenario
            .axes
            .push(Axis::detectors(vec![DetectorSel::DummyNeuron]));
        armed.validate().unwrap();
        let sweep = planned_result(&armed, 0.4);
        assert_eq!(sweep.kind, AttackKind::GlobalVdd);
        let rendered = sweep_table("shield", &sweep, &armed).to_markdown();
        assert!(rendered.contains("overhead"), "{rendered}");
        assert!(rendered.contains("detection"), "{rendered}");
        assert!(rendered.contains("+65% area"), "{rendered}");
        assert!(rendered.contains("hit"), "{rendered}");
        assert!(rendered.contains("quiet"), "{rendered}");
        // A spec without countermeasure axes prints only the axis
        // columns.
        plain.validate().unwrap();
        let rendered = sweep_table("vdd", &planned_result(&plain, 0.4), &plain).to_markdown();
        assert!(!rendered.contains("overhead"), "{rendered}");
        assert!(!rendered.contains("detection"), "{rendered}");
    }

    #[test]
    fn report_sweep_always_names_the_csv_after_the_campaign() {
        let dir = std::env::temp_dir().join(format!("neurofi-csv-name-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = named_campaign("tiny").unwrap();
        let result = planned_result(&spec, 0.3);
        let sweep = CampaignSweep {
            name: "tiny".into(),
            total_cells: result.cells.len(),
            resumed_cells: 0,
            store_hit_cells: 0,
            computed_cells: result.cells.len(),
            spec,
            result,
        };
        // A lone merged campaign gets the same name it would get beside
        // others, so a live submission cannot rename its file.
        report_sweep(&sweep, Some(&dir)).unwrap();
        let csv = std::fs::read_to_string(dir.join("distributed_sweep.tiny.csv")).unwrap();
        assert_eq!(csv.lines().count(), sweep.total_cells + 1, "{csv}");
        assert!(!dir.join("distributed_sweep.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<ServeArgs, String> {
        parse_serve(&args(list)).map(|parsed| parsed.expect("not a --help request"))
    }

    #[test]
    fn serve_mode_follows_the_start_up_queue() {
        let service = parse(&["--bind", "127.0.0.1:0", "--store", "s.store"]).unwrap();
        assert!(service.config.persistent);
        assert!(service.config.campaigns.is_empty());

        let run = parse(&["--grid", "tiny", "--workers", "2", "--idle-timeout", "5"]).unwrap();
        assert!(!run.config.persistent);
        assert_eq!(run.workers, 2);
        assert_eq!(run.config.bind, "127.0.0.1:0");
        assert_eq!(run.config.idle_timeout, Duration::from_secs(5));

        let run = parse(&["--grid", "tiny", "--bind", "127.0.0.1:0", "--verify-serial"]).unwrap();
        assert!(!run.config.persistent);
        assert_eq!(run.workers, 0);
        assert!(run.verify_serial);

        assert!(parse_serve(&args(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn serve_refuses_merge_flags_without_campaigns_and_campaigns_without_workers() {
        // An empty queue is the always-on service: it needs --bind and
        // never merges, so the merge-only flags are usage errors.
        assert!(parse(&[]).unwrap_err().contains("--bind"));
        for extra in [
            &["--verify-serial"][..],
            &["--out", "results"],
            &["--idle-timeout", "5"],
        ] {
            let mut list = vec!["--bind", "127.0.0.1:0"];
            list.extend_from_slice(extra);
            let err = parse(&list).unwrap_err();
            assert!(err.contains(extra[0]), "{extra:?}: {err}");
            assert_ne!(serve_main(&args(&list)), ExitCode::SUCCESS);
        }
        // Campaigns need somebody to compute them.
        assert!(parse(&["--grid", "tiny"])
            .unwrap_err()
            .contains("--workers"));
        assert!(parse(&["--grid", "tiny", "--workers", "0"]).is_err());
    }

    #[test]
    fn serve_rejects_a_repeated_weight_for_one_grid() {
        let base = ["--grid", "tiny", "--grid", "tiny-theta", "--workers", "1"];
        let mut list = base.to_vec();
        list.extend_from_slice(&["--weight", "tiny=2", "--weight", "tiny=3"]);
        assert!(parse(&list).unwrap_err().contains("twice"));

        let mut list = base.to_vec();
        list.extend_from_slice(&["--weight", "tiny-theta=3", "--fair"]);
        let parsed = parse(&list).unwrap();
        let weights: Vec<u32> = parsed.config.campaigns.iter().map(|c| c.weight).collect();
        assert_eq!(weights, [1, 3]);
        assert_eq!(parsed.config.policy, PolicyKind::WeightedRoundRobin);
    }

    #[test]
    fn store_maintenance_refuses_a_missing_store_and_creates_nothing() {
        let dir = std::env::temp_dir().join(format!("neurofi-no-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("typo").join("results.store");
        let path_arg = path.to_string_lossy().into_owned();
        for verb in ["stat", "compact"] {
            let code = store_main(&args(&[verb, "--store", &path_arg]));
            assert_ne!(code, ExitCode::SUCCESS, "`store {verb}` on a missing path");
            assert!(!dir.exists(), "`store {verb}` created {}", dir.display());
        }
    }

    #[test]
    fn store_compact_refuses_an_overflowing_age_cap_and_keeps_the_store() {
        let dir = std::env::temp_dir().join(format!("neurofi-age-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.store");
        // Records stamped at the epoch: any real age cutoff, including
        // the one a wrapped `D * 86_400` would produce, evicts them.
        let bits = |v: f64| format!("{:016x}", v.to_bits());
        let text = format!(
            "neurofi-store v1\ncell {:016x} 1 {} {} {} {}\nbase {:016x} 1 {}\n",
            7,
            bits(-0.2),
            bits(0.5),
            bits(0.4),
            bits(-27.0),
            9,
            bits(0.55)
        );
        std::fs::write(&path, &text).unwrap();

        let path_arg = path.to_string_lossy().into_owned();
        // 213503982334602 * 86400 wraps to about 17 hours in u64.
        let code = store_main(&args(&[
            "compact",
            "--store",
            &path_arg,
            "--max-age-days",
            "213503982334602",
        ]));
        assert_ne!(code, ExitCode::SUCCESS);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let stats = Store::open(&path).unwrap().stat().unwrap();
        assert_eq!((stats.cells, stats.baselines), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
