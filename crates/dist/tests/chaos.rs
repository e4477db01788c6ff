//! Chaos soak suite: the full coordinator/worker control plane driven
//! through seeded, deterministic fault schedules ([`FaultSchedule`])
//! over the loopback hub. The invariant under *any* schedule:
//!
//! * the run either completes with merges **bit-identical** to the
//!   serial engine, or fails loudly as [`DistError::Incomplete`] with
//!   resumable journals — never a hang, never silent corruption;
//! * journals never hold duplicate cell records, and a clean follow-up
//!   run on them resumes every journaled cell without recomputing any.
//!
//! Alongside the proptest soak: the acceptance scenario (every worker
//! link severed at least once *and* a `SubmitOk` lost in flight), the
//! ack-window crash edges (link cut between `Results` and `Ack`; a
//! `Results` window dropped in flight), and the dial-retry paths (a
//! worker started before its coordinator binds; budget exhaustion).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use neurofi_core::sweep::SweepResult;
use neurofi_core::Parallelism;
use neurofi_dist::{
    campaign_journal_path, named_campaign, run_worker_reconnecting, serve_transport, submit_on,
    submit_with_retry, ChaosDialer, ConnectionFaults, CoordinatedRun, CoordinatorConfig, DistError,
    FaultSchedule, LoopbackConn, LoopbackHub, NamedCampaign, RetryPolicy, WorkerConfig,
    WorkerSummary,
};
use proptest::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("neurofi-dist-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bit_identical(distributed: &SweepResult, serial: &SweepResult) {
    assert_eq!(distributed.family, serial.family);
    assert_eq!(
        distributed.baseline_accuracy.to_bits(),
        serial.baseline_accuracy.to_bits(),
        "baseline accuracy diverged"
    );
    assert_eq!(distributed.cells.len(), serial.cells.len());
    for (d, s) in distributed.cells.iter().zip(&serial.cells) {
        assert_eq!(d.accuracy.to_bits(), s.accuracy.to_bits());
        assert_eq!(d.rel_change.to_bits(), s.rel_change.to_bits());
        assert_eq!(d.fraction.to_bits(), s.fraction.to_bits());
        assert_eq!(
            d.relative_change_percent.to_bits(),
            s.relative_change_percent.to_bits()
        );
    }
}

/// The serial golden surfaces for the two soak campaigns, computed once
/// per test process.
fn serials() -> &'static (SweepResult, SweepResult) {
    static SERIALS: OnceLock<(SweepResult, SweepResult)> = OnceLock::new();
    SERIALS.get_or_init(|| {
        (
            named_campaign("tiny").unwrap().run_serial().unwrap(),
            named_campaign("tiny-theta").unwrap().run_serial().unwrap(),
        )
    })
}

/// The cell indices journaled under `path`, in append order (empty when
/// the journal does not exist yet).
fn journal_cells(path: &Path) -> Vec<usize> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|line| line.starts_with("cell "))
        .map(|line| {
            line.split_whitespace()
                .nth(1)
                .and_then(|index| index.parse().ok())
                .unwrap_or_else(|| panic!("malformed journal line: {line}"))
        })
        .collect()
}

struct ChaosOutcome {
    run: Result<CoordinatedRun, DistError>,
    workers: Vec<Result<WorkerSummary, DistError>>,
}

/// Runs the two-campaign fleet (tiny + tiny-theta) over the loopback
/// hub with a chaos schedule on the listener side and one per worker on
/// the dial side, journaling under `journal`.
fn chaos_cluster(
    journal: &Path,
    listener_schedule: FaultSchedule,
    worker_schedules: Vec<FaultSchedule>,
    io_timeout: Duration,
    retry: &RetryPolicy,
) -> ChaosOutcome {
    let campaigns = vec![
        NamedCampaign::new("tiny", named_campaign("tiny").unwrap()),
        NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
    ];
    let mut config = CoordinatorConfig::with_campaigns("loopback", campaigns);
    config.journal = Some(journal.to_path_buf());
    // Generous bounds so chaos-induced stalls never trip them: the
    // worker's io_timeout (which must exceed the coordinator's 500 ms
    // keep-alive slice) is what breaks dropped-frame deadlocks.
    config.idle_timeout = Duration::from_secs(10);
    config.worker_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let listener = neurofi_dist::ChaosListener::new(hub.listener(), listener_schedule);
    std::thread::scope(|scope| {
        let serve = scope.spawn(move || serve_transport(listener, config));
        let worker_handles: Vec<_> = worker_schedules
            .into_iter()
            .enumerate()
            .map(|(w, schedule)| {
                let hub = hub.clone();
                let mut worker_config = WorkerConfig::new("chaos-loopback");
                worker_config.parallelism = Parallelism::Serial;
                worker_config.io_timeout = io_timeout;
                worker_config.retry = retry.clone().with_seed(retry.seed.wrapping_add(w as u64));
                scope.spawn(move || {
                    let dialer = ChaosDialer::new(schedule);
                    run_worker_reconnecting(|| dialer.dial(hub.connect()), &worker_config)
                })
            })
            .collect();
        let run = serve.join().expect("coordinator panicked");
        let workers = worker_handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect();
        ChaosOutcome { run, workers }
    })
}

/// A retry policy tuned for chaos tests: a deep consecutive-failure
/// budget (the longest faulty streak a schedule can produce is well
/// under it) with near-zero backoff so faults cost little wall clock.
fn chaos_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 40,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole invariant, soaked over seeded schedules: whatever
    /// the faults, the run converges bit-identical or fails loudly with
    /// journals a clean follow-up resumes at zero recompute.
    #[test]
    fn chaos_soak_converges_bit_identical_or_fails_loudly(seed in any::<u64>()) {
        let dir = temp_dir(&format!("soak-{seed:016x}"));
        let journal = dir.join("run.journal");
        let listener_schedule = FaultSchedule::from_seed(seed ^ 0x00c0_ffee, 10);
        let worker_schedules = vec![
            FaultSchedule::from_seed(seed.wrapping_add(1), 3),
            FaultSchedule::from_seed(seed.wrapping_add(2), 3),
        ];
        let chaos = chaos_cluster(
            &journal,
            listener_schedule,
            worker_schedules,
            Duration::from_millis(1500),
            &chaos_retry(seed),
        );
        let (serial_tiny, serial_theta) = serials();
        match &chaos.run {
            Ok(run) => {
                prop_assert_eq!(run.campaigns.len(), 2);
                assert_bit_identical(&run.campaigns[0].result, serial_tiny);
                assert_bit_identical(&run.campaigns[1].result, serial_theta);
            }
            // Both workers burned their retry budget before the grids
            // drained: a loud, resumable failure is within contract —
            // and the workers must have failed loudly too, not stalled.
            Err(DistError::Incomplete { .. }) => {
                for worker in &chaos.workers {
                    prop_assert!(
                        worker.is_err(),
                        "an incomplete run implies every worker gave up loudly"
                    );
                }
            }
            Err(other) => prop_assert!(
                false,
                "chaos must converge or fail loudly as Incomplete, got: {}",
                other
            ),
        }

        // Duplicate deliveries (requeue + re-execution) must never
        // journal a cell twice.
        let mut journaled = 0usize;
        for name in ["tiny", "tiny-theta"] {
            let cells = journal_cells(&campaign_journal_path(&journal, name));
            let unique: HashSet<usize> = cells.iter().copied().collect();
            prop_assert_eq!(
                unique.len(),
                cells.len(),
                "journal `{}` holds duplicate cell records",
                name
            );
            journaled += cells.len();
        }

        // A clean follow-up run on the same journals converges, resumes
        // exactly the journaled cells, and recomputes none of them.
        let clean = chaos_cluster(
            &journal,
            FaultSchedule::clean(),
            vec![FaultSchedule::clean()],
            Duration::from_secs(10),
            &RetryPolicy::none(),
        );
        let run = clean.run.expect("clean follow-up run must converge");
        let total: usize = run.campaigns.iter().map(|c| c.total_cells).sum();
        let resumed: usize = run.campaigns.iter().map(|c| c.resumed_cells).sum();
        let computed: usize = run.campaigns.iter().map(|c| c.computed_cells).sum();
        prop_assert_eq!(resumed, journaled, "every journaled cell must be resumed");
        prop_assert_eq!(computed, total - journaled, "zero recompute of journaled cells");
        assert_bit_identical(&run.campaigns[0].result, serial_tiny);
        assert_bit_identical(&run.campaigns[1].result, serial_theta);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance scenario from the issue: sever every worker's first
/// link mid-session *and* lose a `SubmitOk` in flight. The submission
/// retry must land on the same campaign id (idempotent enqueue), and
/// the run must converge bit-identical with exactly one journal record
/// per cell.
#[test]
fn severed_worker_links_and_a_lost_submit_ok_still_converge_bit_identical() {
    let dir = temp_dir("acceptance");
    let journal = dir.join("run.journal");
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![NamedCampaign::new("tiny", named_campaign("tiny").unwrap())],
    );
    config.journal = Some(journal.clone());
    config.idle_timeout = Duration::from_secs(10);
    config.worker_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let listener = hub.listener();

    let (run, workers) = std::thread::scope(|scope| {
        let serve = scope.spawn(move || serve_transport(listener, config));

        // Submit tiny-theta mid-run, losing the first verdict in
        // flight: the Submit lands, the SubmitOk arrives truncated, and
        // the client cannot know whether it was enqueued. The retry
        // resubmits and must get the *same* id back.
        let submit_dialer = ChaosDialer::new(FaultSchedule {
            connections: vec![
                ConnectionFaults {
                    truncate_recv: Some(0),
                    ..ConnectionFaults::clean()
                },
                ConnectionFaults::clean(),
            ],
        });
        let late = NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap());
        let id = submit_with_retry(
            || submit_dialer.dial(hub.connect()),
            &late,
            &chaos_retry(0x00ac_ce55),
        )
        .expect("submission must survive a lost SubmitOk");
        assert_eq!(id, 1);
        // A further belt-and-braces resubmission is equally idempotent.
        let mut control = hub.connect();
        assert_eq!(
            submit_on(&mut control, late.clone()).expect("idempotent resubmission"),
            1
        );
        drop(control);

        // Two workers whose first link is severed mid-session (after a
        // few frames each); their reconnects are clean.
        let worker_handles: Vec<_> = (0..2)
            .map(|w| {
                let hub = hub.clone();
                let mut worker_config = WorkerConfig::new("chaos-loopback");
                worker_config.parallelism = Parallelism::Serial;
                worker_config.io_timeout = Duration::from_secs(5);
                worker_config.retry = chaos_retry(w as u64);
                scope.spawn(move || {
                    let dialer = ChaosDialer::new(FaultSchedule {
                        connections: vec![ConnectionFaults {
                            sever_after_sends: Some(3),
                            ..ConnectionFaults::clean()
                        }],
                    });
                    run_worker_reconnecting(|| dialer.dial(hub.connect()), &worker_config)
                })
            })
            .collect();

        let run = serve.join().expect("coordinator panicked");
        let workers: Vec<_> = worker_handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect();
        (run, workers)
    });

    let run = run.expect("the chaos run must converge");
    assert_eq!(run.campaigns.len(), 2, "the submission joined the queue");
    let (serial_tiny, serial_theta) = serials();
    assert_bit_identical(&run.campaigns[0].result, serial_tiny);
    assert_bit_identical(&run.campaigns[1].result, serial_theta);
    for worker in &workers {
        // Workers rode through their severed first session.
        assert!(worker.as_ref().expect("worker must recover").finished);
    }

    // Exactly one journal record per cell, despite severed windows.
    for (name, serial) in [("tiny", serial_tiny), ("tiny-theta", serial_theta)] {
        let cells = journal_cells(&campaign_journal_path(&journal, name));
        let unique: HashSet<usize> = cells.iter().copied().collect();
        assert_eq!(cells.len(), serial.cells.len(), "journal `{name}` complete");
        assert_eq!(unique.len(), cells.len(), "journal `{name}` duplicate-free");
    }

    // Zero recompute: a worker-less replay resumes everything.
    let mut replay = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![
            NamedCampaign::new("tiny", named_campaign("tiny").unwrap()),
            NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
        ],
    );
    replay.journal = Some(journal);
    replay.idle_timeout = Duration::from_millis(400);
    let replayed = serve_transport(LoopbackHub::new().listener(), replay)
        .expect("complete journals replay without workers");
    for sweep in &replayed.campaigns {
        assert_eq!(sweep.resumed_cells, sweep.total_cells);
        assert_eq!(sweep.computed_cells, 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Ack-window crash edge: the link dies *between* the coordinator
/// receiving a `Results` window and the worker receiving its `Ack`.
/// The window was journaled before the ack, so the reconnected worker
/// must not re-execute it and the journal holds exactly one record per
/// cell.
#[test]
fn a_link_severed_between_results_and_ack_journals_each_cell_once() {
    let dir = temp_dir("ack-edge");
    let journal = dir.join("run.journal");
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.journal = Some(journal.clone());
    config.idle_timeout = Duration::from_secs(10);
    config.worker_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let listener = hub.listener();

    let (run, worker) = std::thread::scope(|scope| {
        let serve = scope.spawn(move || serve_transport(listener, config));
        let worker_hub = hub.clone();
        let worker = scope.spawn(move || {
            let mut worker_config = WorkerConfig::new("chaos-loopback");
            worker_config.parallelism = Parallelism::Serial;
            worker_config.io_timeout = Duration::from_secs(5);
            worker_config.retry = chaos_retry(3);
            // Session recv order: Campaigns (0), Assign (1), Ack (2) —
            // severing before the third recv cuts the link exactly
            // between the Results delivery and its acknowledgement.
            let dialer = ChaosDialer::new(FaultSchedule {
                connections: vec![ConnectionFaults {
                    sever_after_recvs: Some(2),
                    ..ConnectionFaults::clean()
                }],
            });
            run_worker_reconnecting(|| dialer.dial(worker_hub.connect()), &worker_config)
        });
        (
            serve.join().expect("coordinator panicked"),
            worker.join().expect("worker panicked"),
        )
    });

    let run = run.expect("the run must converge");
    let sweep = &run.campaigns[0];
    let serial = &serials().0;
    assert_bit_identical(&sweep.result, serial);
    assert_eq!(sweep.computed_cells, serial.cells.len());
    assert_eq!(sweep.resumed_cells, 0);

    // The lost-ack window (one 2-cell batch: serial workers claim
    // 2 × threads cells) was journaled once and never re-executed: the
    // reconnected worker only acknowledged the remaining four cells.
    let cells = journal_cells(&campaign_journal_path(&journal, "main"));
    let unique: HashSet<usize> = cells.iter().copied().collect();
    assert_eq!(
        cells.len(),
        serial.cells.len(),
        "journal complete:\n{cells:?}"
    );
    assert_eq!(
        unique.len(),
        cells.len(),
        "journal duplicate-free:\n{cells:?}"
    );
    let summary = worker.expect("worker must recover");
    assert!(summary.finished);
    assert_eq!(
        summary.cells_executed,
        serial.cells.len() - 2,
        "the journaled-but-unacked window must not be re-executed"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The dual crash edge: a `Results` window dropped in flight (the
/// worker believes it reported; the coordinator never saw it). The
/// worker's io_timeout breaks the stalemate, the window re-executes on
/// reconnect, and the journal still holds exactly one record per cell.
#[test]
fn a_dropped_results_window_is_reexecuted_and_journaled_once() {
    let dir = temp_dir("dropped-results");
    let journal = dir.join("run.journal");
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.journal = Some(journal.clone());
    config.idle_timeout = Duration::from_secs(10);
    config.worker_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let listener = hub.listener();

    let (run, worker) = std::thread::scope(|scope| {
        let serve = scope.spawn(move || serve_transport(listener, config));
        let worker_hub = hub.clone();
        let worker = scope.spawn(move || {
            let mut worker_config = WorkerConfig::new("chaos-loopback");
            worker_config.parallelism = Parallelism::Serial;
            // Neither side knows the frame vanished: the worker waits
            // for an Ack that cannot come and must time out (the
            // timeout exceeds the coordinator's 500 ms keep-alive
            // slice, so it never fires on a healthy link).
            worker_config.io_timeout = Duration::from_millis(1200);
            worker_config.retry = chaos_retry(4);
            // Session send order: Hello (0), Request (1), Results (2).
            let dialer = ChaosDialer::new(FaultSchedule {
                connections: vec![ConnectionFaults {
                    drop_sends: vec![2],
                    ..ConnectionFaults::clean()
                }],
            });
            run_worker_reconnecting(|| dialer.dial(worker_hub.connect()), &worker_config)
        });
        (
            serve.join().expect("coordinator panicked"),
            worker.join().expect("worker panicked"),
        )
    });

    let run = run.expect("the run must converge");
    let sweep = &run.campaigns[0];
    let serial = &serials().0;
    assert_bit_identical(&sweep.result, serial);
    assert_eq!(sweep.computed_cells, serial.cells.len());

    let cells = journal_cells(&campaign_journal_path(&journal, "main"));
    let unique: HashSet<usize> = cells.iter().copied().collect();
    assert_eq!(
        cells.len(),
        serial.cells.len(),
        "journal complete:\n{cells:?}"
    );
    assert_eq!(
        unique.len(),
        cells.len(),
        "journal duplicate-free:\n{cells:?}"
    );
    // The dropped window's cells were executed twice (once lost, once
    // acknowledged) but acknowledged exactly once each.
    let summary = worker.expect("worker must recover");
    assert!(summary.finished);
    assert_eq!(summary.cells_executed, serial.cells.len());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker launched before its coordinator binds must keep dialling
/// (connection refused is a retryable session loss) and then serve the
/// whole campaign normally.
#[test]
fn a_worker_started_before_its_coordinator_binds_keeps_dialling() {
    let hub = LoopbackHub::new();
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.idle_timeout = Duration::from_secs(10);
    config.worker_timeout = Duration::from_secs(30);
    let listener = hub.listener();
    let attempts = AtomicUsize::new(0);

    let (run, worker) = std::thread::scope(|scope| {
        let worker_hub = hub.clone();
        let attempts = &attempts;
        let worker = scope.spawn(move || {
            let mut worker_config = WorkerConfig::new("chaos-loopback");
            worker_config.parallelism = Parallelism::Serial;
            worker_config.io_timeout = Duration::from_secs(5);
            worker_config.retry = chaos_retry(5);
            run_worker_reconnecting(
                || {
                    // The first two dials land before the coordinator
                    // exists — the TCP connect-refused shape.
                    if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                        return Err(DistError::Io(std::io::Error::new(
                            std::io::ErrorKind::ConnectionRefused,
                            "connection refused",
                        )));
                    }
                    Ok(worker_hub.connect())
                },
                &worker_config,
            )
        });
        let serve = scope.spawn(move || serve_transport(listener, config));
        (
            serve.join().expect("coordinator panicked"),
            worker.join().expect("worker panicked"),
        )
    });

    let run = run.expect("the run must converge");
    let serial = &serials().0;
    assert_bit_identical(&run.campaigns[0].result, serial);
    let summary = worker.expect("the worker must outlive the refused dials");
    assert!(summary.finished);
    assert_eq!(summary.cells_executed, serial.cells.len());
    assert!(
        attempts.load(Ordering::SeqCst) >= 3,
        "the first two dials were refused"
    );
}

/// An exhausted consecutive-failure budget is a loud error carrying the
/// last failure — never a silent exit or an unbounded dial loop.
#[test]
fn an_exhausted_retry_budget_returns_the_last_error() {
    let mut worker_config = WorkerConfig::new("nowhere");
    worker_config.retry = RetryPolicy {
        max_retries: 2,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        seed: 9,
    };
    let attempts = AtomicUsize::new(0);
    let err = run_worker_reconnecting::<LoopbackConn, _>(
        || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err(DistError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "connection refused",
            )))
        },
        &worker_config,
    )
    .expect_err("a coordinator that never appears must fail the worker");
    assert!(matches!(err, DistError::Io(_)), "got: {err}");
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        3,
        "initial dial plus max_retries retries"
    );
}
