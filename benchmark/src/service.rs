//! `service-mix`: a persistent coordinator with a result store and a
//! checkpoint journal — the configuration `repro serve --store --journal`
//! runs — fed by one closed-loop submitter.
//!
//! Two serial workers connect over loopback TCP. Each round submits one
//! cold campaign of new cells and waits for it, then resubmits an
//! earlier grid under a new name, which the store covers in full. Four
//! cold campaigns in five are small (4 cells) and the fifth is large
//! (12 cells). A campaign's latency runs from its submit frame to the
//! first status poll that shows it done. The submitter holds one submit
//! and one status connection for the whole run.
//!
//! The sweeps' traced runs reuse the same session on a few of their own
//! campaigns, so every workload reports the control-plane layers.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neurofi_core::Parallelism;
use neurofi_dist::transport::Canceller;
use neurofi_dist::{
    query_status_on, run_worker_reconnecting, serve_transport, submit_on, CampaignProgress,
    CampaignSpec, Connection, CoordinatedRun, CoordinatorConfig, DistError, NamedCampaign,
    RetryPolicy, TcpConnection, TcpServerListener, WorkerConfig, WorkerSummary,
};
use neurofi_store::Store;

use crate::check::{self, Reference};
use crate::gen::{self, DEFAULT_SEED};
use crate::probes::{self, timed};
use crate::report::{peak_rss_mb, reset_peak_rss, Outcome, Values};
use crate::stats::{median, percentile, supported};
use crate::trace::{FrameStats, StoppableListener, TimedConnection, Tracer};
use crate::Args;

/// In-process workers, each executing serially (one per core).
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Cold campaigns a run needs so ten latency samples lie beyond p90;
/// the run extends past `--seconds` (up to twice it) to reach them.
const MIN_ROUNDS: usize = 100;
/// Pause between status polls while a campaign runs.
const POLL: Duration = Duration::from_millis(1);
/// A campaign not done by then counts as failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);
/// Rounds per block. Throughput is taken per block (the median is
/// reported), and a traced run alternates untraced and traced blocks.
/// A block holds one large cold campaign, so every block does the same
/// work.
const BLOCK: usize = gen::LARGE_EVERY;

/// A running service plus the submitter's two connections.
struct Service {
    stop: Arc<AtomicBool>,
    cancel: Canceller,
    coordinator: JoinHandle<Result<CoordinatedRun, DistError>>,
    workers: Vec<JoinHandle<Result<WorkerSummary, DistError>>>,
    submit: TcpConnection,
    status: TcpConnection,
    frames: Arc<FrameStats>,
    store: PathBuf,
}

fn dial(addr: &str) -> Result<TcpConnection, DistError> {
    let mut conn = TcpConnection::new(TcpStream::connect(addr)?);
    conn.set_recv_timeout(Some(CAMPAIGN_TIMEOUT));
    Ok(conn)
}

impl Service {
    /// Binds a persistent coordinator with a store and a journal under
    /// `dir`, submits `warm_up`, then starts the workers (a worker that
    /// meets an empty queue exits) and waits for the warm-up campaign.
    fn start(dir: &Path, warm_up: &NamedCampaign) -> Result<Service, DistError> {
        std::fs::create_dir_all(dir)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let listener = TcpServerListener::new(listener)?;
        let cancel = neurofi_dist::Listener::canceller(&listener);
        let stop = Arc::new(AtomicBool::new(false));
        let store = dir.join("store");
        let mut config = CoordinatorConfig::with_campaigns(addr.clone(), Vec::new());
        config.persistent = true;
        config.store = Some(store.clone());
        config.journal = Some(dir.join("journal"));
        let listener = StoppableListener::new(listener, Arc::clone(&stop));
        let coordinator = std::thread::spawn(move || serve_transport(listener, config));
        let frames = Arc::new(FrameStats::default());
        let mut service = Service {
            stop,
            cancel,
            coordinator,
            workers: Vec::new(),
            submit: dial(&addr)?,
            status: dial(&addr)?,
            frames: Arc::clone(&frames),
            store,
        };
        let id = submit_on(&mut service.submit, warm_up.clone())?;
        for i in 0..WORKERS {
            let (addr, frames) = (addr.clone(), Arc::clone(&frames));
            let config = WorkerConfig {
                parallelism: Parallelism::Serial,
                retry: RetryPolicy::none().with_seed(i as u64),
                ..WorkerConfig::new(addr.clone())
            };
            service.workers.push(std::thread::spawn(move || {
                run_worker_reconnecting(
                    || Ok(TimedConnection::new(dial(&addr)?, Arc::clone(&frames))),
                    &config,
                )
            }));
        }
        service.wait(id, &mut Vec::new())?;
        Ok(service)
    }

    /// Polls until campaign `id` is done; records each poll's round trip.
    fn wait(&mut self, id: u32, polls: &mut Vec<f64>) -> Result<CampaignProgress, DistError> {
        let deadline = Instant::now() + CAMPAIGN_TIMEOUT;
        loop {
            let (snapshot, t) = timed(|| query_status_on(&mut self.status));
            polls.push(t);
            let progress = snapshot?
                .into_iter()
                .nth(id as usize)
                .ok_or_else(|| DistError::Protocol(format!("status lacks campaign {id}")))?;
            if progress.failed {
                return Err(DistError::Protocol(format!(
                    "campaign `{}` failed",
                    progress.name
                )));
            }
            if progress.done == progress.total {
                return Ok(progress);
            }
            if Instant::now() > deadline {
                return Err(DistError::Protocol(format!(
                    "campaign `{}` timed out",
                    progress.name
                )));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Stops the coordinator, which drains and disconnects the workers,
    /// and joins every thread. Returns the per-campaign progress seen
    /// last.
    fn stop(mut self) -> Vec<CampaignProgress> {
        let last = query_status_on(&mut self.status).unwrap_or_default();
        drop((self.submit, self.status));
        self.stop.store(true, Ordering::SeqCst);
        (self.cancel)();
        // The coordinator reports the stop as a listener failure, and
        // the workers as a lost or aborted session: both expected.
        let _ = self
            .coordinator
            .join()
            .expect("coordinator thread panicked");
        for worker in self.workers {
            let _ = worker.join().expect("worker thread panicked");
        }
        last
    }
}

/// One submission: the campaign, its row in the reference, and whether
/// it is cold (new cells) or a warm resubmission.
struct Submission {
    campaign: NamedCampaign,
    /// Its row in the reference the store is checked against.
    row: usize,
    /// Cold (new cells) or warm (every cell already stored).
    cold: bool,
}

/// What a session measured.
#[derive(Default)]
struct Log {
    rounds: usize,
    cold_s: Vec<f64>,
    submit_cold: Vec<f64>,
    submit_warm: Vec<f64>,
    /// Status round trips of traced rounds.
    polls: Vec<f64>,
    /// Cold latencies of traced and untraced rounds of a traced run.
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    executed: u64,
    hits: u64,
    cells: u64,
    /// Cells executed per second in each block of rounds.
    block_rates: Vec<f64>,
    /// Peak resident set over the first [`MIN_ROUNDS`] rounds: the
    /// coordinator keeps every campaign's state, so memory grows with
    /// the rounds done and a fixed count keeps runs comparable.
    peak_rss_mb: f64,
    /// `(campaign, reference row, done)` of every submission.
    submitted: Vec<(CampaignSpec, usize, bool)>,
}

/// Submits `rounds` in order, each submission waited for before the
/// next, until `more(rounds done, seconds elapsed)` says stop. With
/// `alternate`, blocks of rounds alternate untraced and traced so the
/// harness can measure its own overhead; otherwise the tracer's state
/// is kept.
fn drive(
    service: &mut Service,
    tracer: &Tracer,
    rounds: impl IntoIterator<Item = Vec<Submission>>,
    alternate: bool,
    mut more: impl FnMut(usize, f64) -> bool,
) -> (Log, f64) {
    let mut log = Log::default();
    let keep = tracer.enabled();
    let phase = Instant::now();
    let (mut block_start, mut block_executed) = (Instant::now(), 0);
    reset_peak_rss();
    for round in rounds {
        if !more(log.rounds, phase.elapsed().as_secs_f64()) {
            break;
        }
        if log.rounds % BLOCK == 0 {
            (block_start, block_executed) = (Instant::now(), log.executed);
        }
        let traced = if alternate {
            (log.rounds / BLOCK) % 2 == 1
        } else {
            keep
        };
        tracer.set_enabled(traced);
        service.frames.enabled.store(traced, Ordering::Relaxed);
        for Submission {
            campaign,
            row,
            cold,
        } in round
        {
            if traced {
                tracer.span("core.plan", None, Some(row as u64), |_| {
                    campaign.spec.validate().expect("generated specs validate");
                    campaign
                        .spec
                        .transfer_table()
                        .expect("generated tables are usable");
                    campaign.spec.plan()
                });
            }
            let spec = campaign.spec.clone();
            log.cells += spec.scenario.n_cells() as u64;
            let mut polls = Vec::new();
            let name = if cold { "dist.cold" } else { "dist.warm" };
            let start = Instant::now();
            let (id, submit) = tracer.span(name, None, Some(row as u64), |_| {
                let (id, submit) = timed(|| submit_on(&mut service.submit, campaign));
                (id.and_then(|id| service.wait(id, &mut polls)), submit)
            });
            let latency = start.elapsed().as_secs_f64();
            if traced {
                log.polls.extend(polls);
            }
            match &id {
                Ok(p) => {
                    log.executed += p.done - p.store_hits - p.resumed;
                    log.hits += p.store_hits;
                }
                Err(e) => eprintln!("service round {}: {e}", log.rounds),
            }
            log.submitted.push((spec, row, id.is_ok()));
            if cold {
                log.cold_s.push(latency);
                log.submit_cold.push(submit);
                if alternate {
                    if traced {
                        &mut log.traced_s
                    } else {
                        &mut log.untraced_s
                    }
                    .push(latency);
                }
            } else {
                log.submit_warm.push(submit);
            }
        }
        log.rounds += 1;
        if log.rounds % BLOCK == 0 {
            let executed = (log.executed - block_executed) as f64;
            log.block_rates
                .push(executed / block_start.elapsed().as_secs_f64());
        }
        if log.rounds <= MIN_ROUNDS {
            log.peak_rss_mb = peak_rss_mb();
        }
    }
    let seconds = phase.elapsed().as_secs_f64();
    tracer.set_enabled(keep);
    service.frames.enabled.store(false, Ordering::Relaxed);
    (log, seconds)
}

/// Stops `service` and reads every submitted campaign's cells back from
/// a copy of its store through `cell_digest`, counting them against
/// `reference`. Cells of a campaign that failed or timed out all fail,
/// even if they reached the store later. A traced session also reports
/// the control-plane and store layers into `values`.
fn finish(
    service: Service,
    log: &Log,
    reference: &Reference,
    dir: &Path,
    tracer: &Tracer,
    values: &mut Values,
) -> (u64, u64) {
    let frames = Arc::clone(&service.frames);
    let store_path = service.store.clone();
    let last = Service::stop(service);
    let copy = dir.join("store.copy");
    std::fs::copy(&store_path, &copy).expect("the store file copies");
    let store = Store::open(&copy).expect("the store copy opens");
    let (mut attempted, mut failed) = (0, 0);
    let mut digests = Vec::new();
    for (spec, row, done) in &log.submitted {
        let got: Vec<_> = spec
            .plan()
            .jobs
            .iter()
            .map(|job| {
                let digest = spec.cell_digest(&job.attack);
                digests.push(digest);
                store.get_cell(digest)
            })
            .collect();
        attempted += got.len() as u64;
        failed += if *done {
            check::mismatches(&reference.rows[*row], &got) as u64
        } else {
            got.len() as u64
        };
    }
    drop(store);
    if !tracer.enabled() {
        return (attempted, failed);
    }

    let log_frames = frames.log.lock().expect("frame log poisoned");
    let ms = |s: f64| s * 1e3;
    values.insert("dist.submit_cold_ms", ms(median(&log.submit_cold)));
    values.insert("dist.submit_warm_ms", ms(median(&log.submit_warm)));
    values.insert("dist.status_us", median(&log.polls) * 1e6);
    values.insert("dist.assign_wait_ms", ms(median(&log_frames.assign_waits)));
    values.insert(
        "dist.assign_useful_ratio",
        log_frames.useful_assigns as f64 / log_frames.assigns.max(1) as f64,
    );
    values.insert(
        "dist.cells_per_assign",
        log_frames.cells_assigned as f64 / log_frames.useful_assigns.max(1) as f64,
    );
    values.insert("dist.ack_wait_us", median(&log_frames.ack_waits) * 1e6);
    let traced_wall: f64 = if log.traced_s.is_empty() {
        log.cold_s.iter().sum()
    } else {
        log.traced_s.iter().sum()
    };
    values.insert(
        "dist.worker_busy_ratio",
        log_frames.busy_seconds / (WORKERS as f64 * traced_wall),
    );
    let computed: u64 = last.iter().map(|p| p.done - p.store_hits - p.resumed).sum();
    values.insert(
        "dist.duplicate_cells",
        log_frames.cells_reported as f64 - computed as f64,
    );
    if let (Some(assign), Some(results)) = (&log_frames.sample_assign, &log_frames.sample_results) {
        probes::wire(assign, results, values);
    }
    drop(log_frames);
    values.insert("store.hit_ratio", log.hits as f64 / log.cells.max(1) as f64);
    let specs: Vec<&CampaignSpec> = log.submitted.iter().map(|(s, _, _)| s).collect();
    probes::digests(&specs, values);
    probes::journal(dir, values);
    probes::store(&copy, dir, &digests, values);
    (attempted, failed)
}

/// The control-plane probe of a sweep's traced run: a service started
/// on `warm_up`, one cold campaign, then warm resubmissions of it.
/// `rows` are the two campaigns' rows in `reference`. Returns
/// `(attempted, failed)` cells of the store check.
pub fn probe(
    dir: &Path,
    tracer: &Tracer,
    (warm_up, cold): (&NamedCampaign, &NamedCampaign),
    rows: (usize, usize),
    reference: &Reference,
    values: &mut Values,
) -> (u64, u64) {
    let mut service = Service::start(dir, warm_up).expect("the probe service starts");
    let resubmit = |i: usize| Submission {
        campaign: NamedCampaign::new(format!("warm-{i}"), cold.spec.clone()),
        row: rows.1,
        cold: false,
    };
    let mut rounds = vec![vec![
        Submission {
            campaign: cold.clone(),
            row: rows.1,
            cold: true,
        },
        resubmit(0),
    ]];
    rounds.extend((1..10).map(|i| vec![resubmit(i)]));
    let (mut log, _) = drive(&mut service, tracer, rounds, false, |_, _| true);
    log.submitted
        .insert(0, (warm_up.spec.clone(), rows.0, true));
    finish(service, &log, reference, dir, tracer, values)
}

/// Runs the service mix for `args.seconds` (and at least
/// [`MIN_ROUNDS`] rounds) and checks every cell through the store.
pub fn run(args: &Args, dir: &Path) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let mut values = Values::new();

    // Set-up: generate the traffic, then start a service on the warm-up
    // campaign.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut started = None;
    for k in 0..SETUP_REPEATS {
        if let Some((previous, _)) = started.take() {
            Service::stop(previous);
        }
        let start = Instant::now();
        let traffic = gen::ServiceMix::campaigns(args.seed);
        let service = Service::start(&dir.join(format!("service-{k}")), &traffic.0)
            .expect("the service starts");
        setups.push(start.elapsed().as_secs_f64());
        started = Some((service, traffic));
    }
    let (mut service, (warm_up, cold)) = started.expect("at least one set-up");
    values.insert("setup_s", median(&setups));

    // Row 0 of the reference is the warm-up campaign, row i + 1 cold `i`.
    let rounds = cold.iter().enumerate().map(|(r, campaign)| {
        let source = gen::warm_source(args.seed, r);
        vec![
            Submission {
                campaign: campaign.clone(),
                row: r + 1,
                cold: true,
            },
            Submission {
                campaign: NamedCampaign::new(format!("warm-{r}"), cold[source].spec.clone()),
                row: source + 1,
                cold: false,
            },
        ]
    });
    let seconds = args.seconds;
    let (mut log, timed_seconds) = drive(&mut service, &tracer, rounds, args.trace, |r, t| {
        (t < seconds || r < MIN_ROUNDS) && t < 2.0 * seconds
    });
    log.submitted.insert(0, (warm_up.spec.clone(), 0, true));
    values.insert("cells_per_s", median(&log.block_rates));
    values.insert("campaign_p50_s", percentile(&log.cold_s, 50.0));
    values.insert("campaign_p90_s", percentile(&log.cold_s, 90.0));
    values.insert("peak_rss_mb", log.peak_rss_mb);
    eprintln!(
        "service-mix: {} rounds in {timed_seconds:.2} s; {} cells executed, {} store hits; {}",
        log.rounds,
        log.executed,
        log.hits,
        supported("cold", log.cold_s.len())
    );

    // The reference: committed for the default seed, otherwise (or past
    // its end) an untimed serial run of the campaigns used.
    let used_rows = 1 + log.rounds;
    let mut reference = if args.seed == DEFAULT_SEED {
        Reference::committed(&args.workload)
    } else {
        Reference::default()
    };
    if reference.rows.len() < used_rows {
        let missing: Vec<&CampaignSpec> = std::iter::once(&warm_up)
            .chain(&cold)
            .skip(reference.rows.len())
            .take(used_rows - reference.rows.len())
            .map(|c| &c.spec)
            .collect();
        let extra = check::serial_reference(&missing).expect("the serial reference runs");
        reference.rows.extend(extra.rows);
    }
    let (attempted, failed) = finish(service, &log, &reference, dir, &tracer, &mut values);

    if args.trace {
        let ms = |s: f64| s * 1e3;
        values.insert("core.plan_ms", ms(median(&tracer.seconds("core.plan"))));
        values.insert(
            "trace.overhead_ratio",
            median(&log.traced_s) / median(&log.untraced_s) - 1.0,
        );
        // SNN work of the workers' cells, run serially here.
        let serial = warm_up
            .spec
            .materialize()
            .with_parallelism(Parallelism::Serial);
        let seed = warm_up.spec.scenario.baseline_seeds()[0];
        values.insert(
            "core.baseline_ms",
            ms(probes::prime_once(&tracer, &serial, seed)),
        );
        let cache = check::serial_cache(&warm_up.spec);
        let mut cell_seconds = Vec::new();
        for campaign in cold.iter().take(3) {
            check::run_serial(&cache, &campaign.spec, &mut cell_seconds)
                .expect("cold campaigns run serially");
        }
        let cell_ms: Vec<f64> = cell_seconds.iter().map(|&s| ms(s)).collect();
        values.insert("core.snn_cell_ms", median(&cell_ms));
        // The workers' pool: two serial workers over the timed phase.
        values.insert(
            "core.pool_busy_ratio",
            log.executed as f64 * median(&cell_seconds) / (WORKERS as f64 * timed_seconds),
        );
        let job = cold[0].spec.plan().jobs[0];
        probes::snn_stages(&tracer, &cold[0].spec, &job, &mut values);
        probes::snn_kernels(&serial.with_seed(seed), &mut values);
        probes::layer_probe(&tracer, &gen::layer_probe(args.seed), &[], &mut values);
        if let Err(e) = tracer.write_jsonl(&crate::spans_path(args)) {
            eprintln!("cannot write the span log: {e}");
        }
    }
    Outcome {
        attempted,
        failed,
        values,
    }
}
