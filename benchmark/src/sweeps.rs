//! `snn-sweep` and `layer-sweep`: figure campaigns through
//! `scenario_sweep_cached` on a 2-thread in-process pool, the path
//! `repro fig*` and `repro sweep` take.
//!
//! A pass issues every campaign of the workload once; passes repeat
//! until the run's time is up. A campaign's latency is its
//! `scenario_sweep_cached` call.

use std::path::Path;
use std::time::Instant;

use neurofi_core::sweep::scenario_sweep_cached;
use neurofi_core::{BaselineCache, Error, Parallelism, SweepResult};
use neurofi_dist::{CampaignSpec, NamedCampaign};

use crate::check::{self, Reference};
use crate::gen::{self, SweepCampaign, DEFAULT_SEED};
use crate::probes::{self, timed};
use crate::report::{peak_rss_mb, reset_peak_rss, Outcome, Values};
use crate::service;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;

/// The in-process pool: one thread per core of the 2-core target box.
const POOL: Parallelism = Parallelism::Threads(2);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One pass over the workload's campaigns.
struct Pass {
    seconds: f64,
    traced: bool,
    /// Each campaign's `scenario_sweep_cached` latency, seconds.
    latencies: Vec<f64>,
    results: Vec<Result<SweepResult, Error>>,
    /// The process's peak resident set during the pass.
    peak_rss_mb: f64,
}

/// Runs a sweep workload, its campaigns made by `generate` from the
/// seed, for `args.seconds` and checks every cell.
pub fn run(args: &Args, generate: fn(u64) -> Vec<SweepCampaign>, dir: &Path) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let mut values = Values::new();

    // Set-up: generate and validate the specs, characterise their
    // transfer tables, plan them, and prime the baseline cache.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut primed = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let campaigns = generate(args.seed);
        for campaign in &campaigns {
            let spec = &campaign.spec;
            spec.validate().expect("generated specs validate");
            spec.transfer_table().expect("generated tables are usable");
            spec.plan();
        }
        let spec = &campaigns[0].spec;
        let cache = BaselineCache::new(&spec.materialize().with_parallelism(POOL));
        tracer.span("core.baseline", None, None, |_| {
            cache.prime(spec.scenario.baseline_seeds())
        });
        setups.push(start.elapsed().as_secs_f64());
        primed = Some((campaigns, cache));
    }
    let (campaigns, cache) = primed.expect("at least one set-up");
    values.insert("setup_s", median(&setups));
    let specs: Vec<&CampaignSpec> = campaigns.iter().map(|c| &c.spec).collect();

    // Timed phase: whole passes until the time is up. A traced run
    // alternates untraced and traced passes to measure its overhead.
    let mut passes: Vec<Pass> = Vec::new();
    // A traced run needs an untraced and a traced pass at least.
    let min_passes = if args.trace { 2 } else { 1 };
    let phase = Instant::now();
    while passes.len() < min_passes || phase.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        reset_peak_rss();
        let start = Instant::now();
        let (mut latencies, mut results) = (Vec::new(), Vec::new());
        for (id, spec) in specs.iter().enumerate() {
            let id = Some(id as u64);
            if traced {
                tracer.span("core.plan", None, id, |_| {
                    spec.validate().expect("generated specs validate");
                    spec.transfer_table().expect("generated tables are usable");
                    spec.plan()
                });
            }
            let (result, t) = timed(|| {
                tracer.span("core.sweep", None, id, |_| {
                    scenario_sweep_cached(&cache, &spec.scenario)
                })
            });
            latencies.push(t);
            results.push(result);
        }
        passes.push(Pass {
            seconds: start.elapsed().as_secs_f64(),
            traced,
            latencies,
            results,
            peak_rss_mb: peak_rss_mb(),
        });
    }
    tracer.set_enabled(args.trace);
    let cells_per_pass: usize = specs.iter().map(|s| s.scenario.n_cells()).sum();
    let timed_seconds: f64 = passes.iter().map(|p| p.seconds).sum();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| cells_per_pass as f64 / p.seconds)
        .collect();
    values.insert("cells_per_s", median(&rates));
    // A pass is a fixed set of campaigns, too few for percentiles of its
    // own beyond the median and the largest; each pass gives one of each
    // and the median over passes keeps a burst of host load out.
    let per_pass = |p: f64| -> Vec<f64> {
        passes
            .iter()
            .map(|pass| percentile(&pass.latencies, p))
            .collect()
    };
    values.insert("campaign_p50_s", median(&per_pass(50.0)));
    values.insert("campaign_p90_s", median(&per_pass(90.0)));
    let pass_seconds: Vec<String> = passes.iter().map(|p| format!("{:.2}", p.seconds)).collect();
    eprintln!(
        "{}: {} passes of {cells_per_pass} cells in {timed_seconds:.2} s ({} s each)",
        args.workload,
        passes.len(),
        pass_seconds.join(", ")
    );

    // The smallest pass peak: how much freed memory the allocator keeps
    // between passes depends on thread timing, and moved the layer
    // sweep's median pass peak between 23 and 32 MiB from run to run.
    let rss = passes
        .iter()
        .map(|p| p.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    values.insert("peak_rss_mb", rss);

    // The reference: committed for the default seed, otherwise an
    // untimed serial run. A traced run always runs serially, one cell at
    // a time on this thread, for the per-cell timings.
    let mut serial_seconds: Vec<Vec<f64>> = Vec::new();
    let serial = args.trace.then(|| {
        let cache = check::serial_cache(specs[0]);
        cache.prime(specs[0].scenario.baseline_seeds());
        let rows = specs
            .iter()
            .map(|spec| {
                let mut seconds = Vec::new();
                let row = check::run_serial(&cache, spec, &mut seconds)
                    .map(|cells| cells.iter().map(check::fingerprint).collect::<Vec<u64>>());
                serial_seconds.push(seconds);
                row
            })
            .collect::<Result<Vec<_>, Error>>();
        Reference {
            rows: rows.expect("the serial reference runs"),
        }
    });
    let reference = match (&serial, args.seed) {
        (_, DEFAULT_SEED) => Reference::committed(&args.workload),
        (Some(serial), _) => serial.clone(),
        (None, _) => check::serial_reference(&specs).expect("the serial reference runs"),
    };

    let mut outcome = Outcome::default();
    for pass in &passes {
        for (expected, result) in reference.rows.iter().zip(&pass.results) {
            let got: Vec<_> = match result {
                Ok(result) => result.cells.iter().copied().map(Some).collect(),
                Err(_) => Vec::new(),
            };
            outcome.attempted += expected.len() as u64;
            outcome.failed += check::mismatches(expected, &got) as u64;
        }
    }
    if let Some(serial) = &serial {
        for (row, got) in reference.rows.iter().zip(&serial.rows) {
            outcome.failed += row.iter().zip(got).filter(|(a, b)| a != b).count() as u64;
        }
    }

    if args.trace {
        let (attempted, failed) = layers(
            args,
            &campaigns,
            &reference,
            &tracer,
            &passes,
            &serial_seconds,
            dir,
            &mut values,
        );
        outcome.attempted += attempted;
        outcome.failed += failed;
        if let Err(e) = tracer.write_jsonl(&crate::spans_path(args)) {
            eprintln!("cannot write the span log: {e}");
        }
    }
    outcome.values = values;
    outcome
}

/// The campaign labelled `label`, with its index.
fn labelled<'a>(campaigns: &'a [SweepCampaign], label: &str) -> (usize, &'a SweepCampaign) {
    campaigns
        .iter()
        .enumerate()
        .find(|(_, c)| c.label == label)
        .unwrap_or_else(|| panic!("the workload has campaign `{label}`"))
}

/// Per-layer metrics of a traced sweep run. The layers a sweep does not
/// drive itself are probed on stand-ins: the control plane on two of
/// its own campaigns, and the SNN or circuit layers on the generator's
/// probe campaigns. Returns `(attempted, failed)` cells of the control
/// plane probe's store check.
#[allow(clippy::too_many_arguments)]
fn layers(
    args: &Args,
    campaigns: &[SweepCampaign],
    reference: &Reference,
    tracer: &Tracer,
    passes: &[Pass],
    serial_seconds: &[Vec<f64>],
    dir: &Path,
    values: &mut Values,
) -> (u64, u64) {
    let ms = |s: f64| s * 1e3;
    values.insert("core.plan_ms", ms(median(&tracer.seconds("core.plan"))));
    values.insert(
        "core.baseline_ms",
        ms(median(&tracer.seconds("core.baseline"))),
    );
    let pass_seconds = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.seconds)
            .collect()
    };
    let (untraced, traced) = (pass_seconds(false), pass_seconds(true));
    let serial_total: f64 = serial_seconds.iter().flatten().sum();
    values.insert(
        "core.pool_busy_ratio",
        serial_total / (POOL.worker_count() as f64 * median(&untraced)),
    );
    values.insert(
        "trace.overhead_ratio",
        median(&traced) / median(&untraced) - 1.0,
    );
    let own_cells: Vec<f64> = serial_seconds.iter().flatten().map(|&s| ms(s)).collect();
    let spec = &campaigns[0].spec;
    let serial = spec.materialize().with_parallelism(Parallelism::Serial);
    let seed = spec.scenario.baseline_seeds()[0];
    let service_pair = if args.workload == "snn-sweep" {
        values.insert("core.snn_cell_ms", median(&own_cells));
        // The representative cell: Fig. 8b at its second threshold
        // change and a middle fraction.
        let fig8b = &labelled(campaigns, "fig8b").1.spec;
        probes::snn_stages(tracer, fig8b, &fig8b.plan().jobs[6 + 2], values);
        probes::layer_probe(tracer, &gen::layer_probe(args.seed), &[], values);
        ("fig8c", "fig7b")
    } else {
        let snn = gen::snn_probe(args.seed);
        let mut snn_seconds = Vec::new();
        check::run_serial(&check::serial_cache(&snn), &snn, &mut snn_seconds)
            .expect("the SNN probe runs serially");
        let snn_ms: Vec<f64> = snn_seconds.iter().map(|&s| ms(s)).collect();
        values.insert("core.snn_cell_ms", median(&snn_ms));
        probes::snn_stages(tracer, &snn, &snn.plan().jobs[0], values);
        probes::layer_probe(
            tracer,
            &labelled(campaigns, "layer-4").1.spec,
            &own_cells,
            values,
        );
        ("layer-2", "layer-2-sized")
    };
    probes::snn_kernels(&serial.with_seed(seed), values);
    let (warm_row, warm_up) = labelled(campaigns, service_pair.0);
    let (cold_row, cold) = labelled(campaigns, service_pair.1);
    service::probe(
        &dir.join("service-probe"),
        tracer,
        (
            &NamedCampaign::new(warm_up.label, warm_up.spec.clone()),
            &NamedCampaign::new(cold.label, cold.spec.clone()),
        ),
        (warm_row, cold_row),
        reference,
        values,
    )
}
