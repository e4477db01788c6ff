//! Deterministic scheduler tests over the in-process loopback
//! transport: no real sockets, no ports, no timing sleeps. Worker
//! arrival, death, and live campaign submission are *scripted* — a
//! dropped loopback end is observed immediately by the coordinator, so
//! the tests assert exact scheduling orders instead of sleep-polling
//! around socket latency.
//!
//! Covered here: capacity-aware batch sizing, the worker-death requeue
//! path (which must never poison healthy cells), explicit
//! execution-failure poisoning, old-protocol rejection (v1 *and* v2),
//! live submission (announce ordering, journal binding, kill + resume,
//! bit-identical merges, a worker that joined an empty service, refusal
//! of an untrainable setup), and
//! `--fair` weighted-round-robin interleaving bounds.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use neurofi_core::sweep::{CellJob, CellResult, SweepCell, SweepResult};
use neurofi_dist::transport::Canceller;
use neurofi_dist::{
    campaign_journal_path, named_campaign, run_worker_on, serve_transport, submit_on, Connection,
    CoordinatedRun, CoordinatorConfig, DistError, Listener, LoopbackConn, LoopbackHub,
    LoopbackListener, Message, NamedCampaign, PolicyKind, WorkerConfig, CELLS_PER_THREAD,
    PROTOCOL_VERSION,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("neurofi-dist-sched-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns a coordinator serving `config` over the hub's listener.
fn spawn_coordinator(
    hub: &LoopbackHub,
    config: CoordinatorConfig,
) -> std::thread::JoinHandle<Result<CoordinatedRun, DistError>> {
    let listener = hub.listener();
    std::thread::spawn(move || serve_transport(listener, config))
}

/// A scripted worker connection: handshake as a v3 worker reporting
/// `threads`, return the connection and the announced campaign queue.
fn scripted_worker(hub: &LoopbackHub, threads: u32) -> (LoopbackConn, Vec<NamedCampaign>) {
    let mut conn = hub.connect();
    conn.send(&Message::Hello {
        protocol: PROTOCOL_VERSION,
        threads,
    })
    .unwrap();
    match conn.recv().unwrap() {
        Message::Campaigns { campaigns } => {
            assert!(!campaigns.is_empty());
            (conn, campaigns)
        }
        other => panic!("expected campaign queue, got {other:?}"),
    }
}

/// What a scripted `Request` came back with.
enum Reply {
    Assign(u32, Vec<CellJob>),
    Finished,
    Abort(String),
}

/// Sends one `Request` and reads up to the reply, recording any
/// `CampaignAnnounce` frames pushed ahead of it.
fn request(
    conn: &mut LoopbackConn,
    max_cells: u32,
    announces: &mut Vec<(u32, NamedCampaign)>,
) -> Reply {
    conn.send(&Message::Request { max_cells }).unwrap();
    loop {
        match conn.recv().unwrap() {
            Message::CampaignAnnounce { id, campaign } => announces.push((id, campaign)),
            Message::Assign { campaign, jobs } => return Reply::Assign(campaign, jobs),
            Message::Finished => return Reply::Finished,
            Message::Abort { reason } => return Reply::Abort(reason),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Requests until a non-empty batch arrives (an empty `Assign` is the
/// coordinator's keep-alive while requeues from a dropped connection
/// are still settling — rare on loopback, but possible).
fn request_batch(
    conn: &mut LoopbackConn,
    max_cells: u32,
    announces: &mut Vec<(u32, NamedCampaign)>,
) -> (u32, Vec<CellJob>) {
    loop {
        match request(conn, max_cells, announces) {
            Reply::Assign(_, jobs) if jobs.is_empty() => continue,
            Reply::Assign(campaign, jobs) => return (campaign, jobs),
            Reply::Finished => panic!("run finished while a batch was expected"),
            Reply::Abort(reason) => panic!("aborted while a batch was expected: {reason}"),
        }
    }
}

/// Reports synthetic (but per-cell deterministic) results for a batch
/// and consumes the acknowledgement. Scheduler tests only exercise
/// ordering, so cells need not be executed — the coordinator cannot
/// tell, and duplicate deliveries stay bit-consistent because the
/// values are a pure function of the cell index.
fn report_synthetic(
    conn: &mut LoopbackConn,
    campaign: u32,
    jobs: &[CellJob],
    announces: &mut Vec<(u32, NamedCampaign)>,
) {
    let results: Vec<CellResult> = jobs
        .iter()
        .map(|job| CellResult {
            index: job.index,
            cell: SweepCell {
                rel_change: 0.0,
                fraction: 0.0,
                accuracy: job.index as f64 * 0.01,
                relative_change_percent: job.index as f64,
            },
        })
        .collect();
    let sent = results.len();
    conn.send(&Message::Results {
        campaign,
        baseline_accuracy: 0.5,
        results,
    })
    .unwrap();
    loop {
        match conn.recv().unwrap() {
            Message::CampaignAnnounce { id, campaign } => announces.push((id, campaign)),
            Message::Ack {
                campaign: acked,
                received,
            } => {
                assert_eq!(acked, campaign);
                assert_eq!(received as usize, sent);
                return;
            }
            other => panic!("expected ack, got {other:?}"),
        }
    }
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
    }
}

#[test]
fn batch_sizes_scale_with_reported_worker_threads() {
    // fig8-reduced enumerates 24 cells — plenty pending for all claims.
    let mut config = CoordinatorConfig::new("loopback", named_campaign("fig8-reduced").unwrap());
    config.idle_timeout = Duration::from_secs(2);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    let (mut narrow, _) = scripted_worker(&hub, 1);
    let (_, narrow_batch) = request_batch(&mut narrow, u32::MAX, &mut announces);
    let (mut wide, _) = scripted_worker(&hub, 4);
    let (_, wide_batch) = request_batch(&mut wide, u32::MAX, &mut announces);

    assert_eq!(narrow_batch.len(), CELLS_PER_THREAD);
    assert_eq!(wide_batch.len(), 4 * CELLS_PER_THREAD);

    // A worker's own cap still wins over its capacity.
    let (mut capped, _) = scripted_worker(&hub, 8);
    let (_, capped_batch) = request_batch(&mut capped, 3, &mut announces);
    assert_eq!(capped_batch.len(), 3);

    // Nobody executes anything; dropping the connections requeues every
    // claimed cell and the coordinator eventually gives up idle.
    drop(narrow);
    drop(wide);
    drop(capped);
    match serve.join().unwrap() {
        Err(DistError::Incomplete { done, total, .. }) => {
            assert_eq!(done, 0);
            assert_eq!(total, 24);
        }
        other => panic!("expected Incomplete after idle abandonment, got {other:?}"),
    }
    assert!(announces.is_empty(), "nothing was submitted");
}

#[test]
fn repeatedly_killed_workers_never_poison_healthy_cells() {
    // Regression for the PR 2 bug where `claim_batch` counted
    // *assignments* toward the poison cap: a healthy grid whose workers
    // kept dying was declared poisoned after 5 assignments. Kill more
    // scripted workers than max_attempts, each holding the whole grid,
    // then let one *real* worker (run over the same loopback transport)
    // finish the campaign.
    let campaign = named_campaign("tiny").unwrap();
    let serial = campaign.run_serial().unwrap();
    let mut config = CoordinatorConfig::new("loopback", campaign);
    config.idle_timeout = Duration::from_secs(30);
    config.max_attempts = 5;
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    for kill in 0..7 {
        // threads=3 → capacity 6 = the whole tiny grid in one batch.
        let (mut doomed, _) = scripted_worker(&hub, 3);
        let (_, batch) = request_batch(&mut doomed, u32::MAX, &mut announces);
        assert!(!batch.is_empty(), "kill {kill}: worker must receive cells");
        drop(doomed); // dies holding every cell it claimed
    }

    let summary = run_worker_on(hub.connect(), &WorkerConfig::new("loopback")).unwrap();
    assert!(summary.finished);
    assert_eq!(summary.cells_executed, serial.cells.len());

    let run = serve.join().unwrap().expect(
        "a campaign whose workers died 7 times must still complete \
         (worker deaths are not cell failures)",
    );
    assert_bit_identical(&run.campaigns[0].result, &serial);
}

#[test]
fn repeated_execution_failures_poison_the_campaign_with_a_diagnostic() {
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.idle_timeout = Duration::from_secs(30);
    config.max_attempts = 2;
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    // Fail every cell we are handed, one at a time, until some cell
    // accumulates max_attempts execution failures and the coordinator
    // ends the run with the poison diagnostic.
    let (mut conn, _) = scripted_worker(&hub, 1);
    let abort_reason = loop {
        match request(&mut conn, 1, &mut announces) {
            Reply::Assign(campaign, jobs) => {
                if jobs.is_empty() {
                    continue;
                }
                conn.send(&Message::Failed {
                    campaign,
                    index: jobs[0].index as u64,
                    reason: "synthetic failure".into(),
                })
                .unwrap();
            }
            Reply::Abort(reason) => break reason,
            Reply::Finished => panic!("a poisoned lone campaign cannot finish cleanly"),
        }
    };
    assert!(
        abort_reason.contains("poisoned"),
        "diagnostic: {abort_reason}"
    );
    assert!(
        abort_reason.contains("synthetic failure"),
        "the failure log must surface the worker-reported reason: {abort_reason}"
    );
    drop(conn);
    match serve.join().unwrap() {
        Err(DistError::Protocol(message)) => {
            assert!(message.contains("poisoned"), "serve error: {message}")
        }
        other => panic!("expected a poisoned-campaign failure, got {other:?}"),
    }
}

#[test]
fn old_protocol_peers_are_rejected_with_a_clear_error() {
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.idle_timeout = Duration::from_millis(400);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);

    // A PR 2 (v1), PR 3 (v2), and PR 4 (v3) worker handshake: same
    // frame shape, old versions — all must be turned away naming both
    // versions.
    for old in [1u32, 2, 3] {
        let mut conn = hub.connect();
        conn.send(&Message::Hello {
            protocol: old,
            threads: 4,
        })
        .unwrap();
        match conn.recv().unwrap() {
            Message::Abort { reason } => {
                assert!(reason.contains("protocol mismatch"), "got: {reason}");
                assert!(
                    reason.contains(&format!("v{old}")),
                    "names the worker's version: {reason}"
                );
                assert!(
                    reason.contains(&format!("v{PROTOCOL_VERSION}")),
                    "names the coordinator's version: {reason}"
                );
            }
            other => panic!("expected Abort, got {other:?}"),
        }
    }

    // An old-protocol *submitter* is rejected the same way.
    let mut control = hub.connect();
    control
        .send(&Message::Submit {
            protocol: 2,
            campaign: NamedCampaign::new("late", named_campaign("tiny-theta").unwrap()),
        })
        .unwrap();
    match control.recv().unwrap() {
        Message::Abort { reason } => {
            assert!(reason.contains("protocol mismatch"), "got: {reason}");
        }
        other => panic!("expected Abort, got {other:?}"),
    }

    // No rejected peer ever joined, so the coordinator idles out.
    assert!(matches!(
        serve.join().unwrap(),
        Err(DistError::Incomplete { .. })
    ));
}

#[test]
fn fair_scheduling_interleaves_equal_weight_campaigns_strictly() {
    // tiny = 6 cells (campaign 0), tiny-theta = 4 cells (campaign 1).
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![
            NamedCampaign::new("tiny", named_campaign("tiny").unwrap()),
            NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
        ],
    );
    config.policy = PolicyKind::WeightedRoundRobin;
    config.idle_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    // One scripted worker claiming 1-cell batches: the claim order *is*
    // the policy's pick order, with no concurrency noise.
    let (mut conn, _) = scripted_worker(&hub, 1);
    let mut order = Vec::new();
    for _ in 0..10 {
        let (campaign, jobs) = request_batch(&mut conn, 1, &mut announces);
        assert_eq!(jobs.len(), 1);
        order.push(campaign as usize);
        report_synthetic(&mut conn, campaign, &jobs, &mut announces);
    }
    assert_eq!(
        order,
        vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 0],
        "equal weights must alternate strictly until the smaller grid drains"
    );
    // Interleaving bound: while both campaigns had pending cells (the
    // first 8 claims), neither waited more than sum-of-weights = 2
    // consecutive claims.
    for window in order[..8].windows(2) {
        assert_ne!(
            window[0], window[1],
            "a campaign waited too long: {order:?}"
        );
    }

    match request(&mut conn, 1, &mut announces) {
        Reply::Finished => {}
        other => panic!(
            "all cells reported: expected Finished, got {:?}",
            match other {
                Reply::Assign(c, j) => format!("Assign({c}, {} jobs)", j.len()),
                Reply::Abort(r) => format!("Abort({r})"),
                Reply::Finished => unreachable!(),
            }
        ),
    }
    let run = serve.join().unwrap().expect("run completes");
    assert_eq!(run.campaigns.len(), 2);
    assert_eq!(run.campaigns[0].computed_cells, 6);
    assert_eq!(run.campaigns[1].computed_cells, 4);
}

#[test]
fn weighted_fairness_grants_proportional_turns() {
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![
            NamedCampaign::new("tiny", named_campaign("tiny").unwrap()).with_weight(2),
            NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
        ],
    );
    config.policy = PolicyKind::WeightedRoundRobin;
    config.idle_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    let (mut conn, campaigns) = scripted_worker(&hub, 1);
    assert_eq!(campaigns[0].weight, 2, "the handshake carries weights");
    let mut order = Vec::new();
    for _ in 0..10 {
        let (campaign, jobs) = request_batch(&mut conn, 1, &mut announces);
        order.push(campaign as usize);
        report_synthetic(&mut conn, campaign, &jobs, &mut announces);
    }
    assert_eq!(
        order,
        vec![0, 0, 1, 0, 0, 1, 0, 0, 1, 1],
        "weight 2 grants two consecutive batches per rotation"
    );
    // Weight-proportional wait bound: while both campaigns were
    // pending, campaign 1 never waited more than weight(0) = 2 claims,
    // campaign 0 never more than weight(1) = 1.
    let both_pending = &order[..9];
    let mut since = [0usize; 2];
    for &pick in both_pending {
        since[pick] = 0;
        since[1 - pick] += 1;
        assert!(since[0] <= 1, "campaign 0 starved: {order:?}");
        assert!(since[1] <= 2, "campaign 1 starved: {order:?}");
    }

    assert!(matches!(
        request(&mut conn, 1, &mut announces),
        Reply::Finished
    ));
    serve.join().unwrap().expect("run completes");
}

#[test]
fn poisoning_one_campaign_never_stalls_the_other() {
    let dir = temp_dir("poison-fair");
    let journal = dir.join("run.journal");
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![
            NamedCampaign::new("doomed", named_campaign("tiny").unwrap()),
            NamedCampaign::new("healthy", named_campaign("tiny-theta").unwrap()),
        ],
    );
    config.policy = PolicyKind::WeightedRoundRobin;
    config.max_attempts = 1;
    config.journal = Some(journal.clone());
    config.idle_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    // The first claim comes from `doomed` (rotation starts at id 0);
    // one execution-failure report poisons it outright.
    let (mut conn, _) = scripted_worker(&hub, 1);
    let (campaign, jobs) = request_batch(&mut conn, 1, &mut announces);
    assert_eq!(campaign, 0);
    conn.send(&Message::Failed {
        campaign,
        index: jobs[0].index as u64,
        reason: "synthetic segfault".into(),
    })
    .unwrap();

    // Every subsequent claim must come from `healthy` — the poisoned
    // campaign never blocks the rotation — and the run completes the
    // healthy campaign before failing.
    for _ in 0..4 {
        let (campaign, jobs) = request_batch(&mut conn, 1, &mut announces);
        assert_eq!(campaign, 1, "the poisoned campaign must be skipped");
        report_synthetic(&mut conn, campaign, &jobs, &mut announces);
    }
    match request(&mut conn, 1, &mut announces) {
        Reply::Abort(reason) => {
            assert!(
                reason.contains("`doomed`"),
                "goodbye names the campaign: {reason}"
            );
        }
        Reply::Finished => panic!("a run with a poisoned campaign cannot finish cleanly"),
        Reply::Assign(c, j) => panic!("unexpected assignment ({c}, {} jobs)", j.len()),
    }
    drop(conn);

    match serve.join().unwrap() {
        Err(DistError::Protocol(message)) => {
            assert!(
                message.contains("`doomed`"),
                "error names the campaign: {message}"
            );
            assert!(
                message.contains("synthetic segfault"),
                "error keeps the log: {message}"
            );
        }
        other => panic!("expected a poisoned-campaign failure, got {other:?}"),
    }

    // The healthy campaign ran to completion and journaled every cell.
    let healthy = std::fs::read_to_string(campaign_journal_path(&journal, "healthy")).unwrap();
    assert_eq!(
        healthy.lines().filter(|l| l.starts_with("cell ")).count(),
        4,
        "healthy campaign must finish and journal despite the poisoned one:\n{healthy}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_submission_is_announced_before_any_frame_references_it() {
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.idle_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    // The worker handshakes while only `main` is queued.
    let (mut conn, campaigns) = scripted_worker(&hub, 1);
    assert_eq!(campaigns.len(), 1);
    let (campaign, jobs) = request_batch(&mut conn, 1, &mut announces);
    assert_eq!(campaign, 0);
    report_synthetic(&mut conn, campaign, &jobs, &mut announces);
    assert!(announces.is_empty(), "nothing submitted yet");

    // A control client submits a second campaign mid-run.
    let mut control = hub.connect();
    let id = submit_on(
        &mut control,
        NamedCampaign::new("late-theta", named_campaign("tiny-theta").unwrap()).with_weight(7),
    )
    .expect("submission accepted");
    assert_eq!(id, 1);
    // Resubmitting the same name with the same spec is idempotent: the
    // coordinator answers with the existing id instead of enqueueing a
    // duplicate, so a client that lost the first SubmitOk can retry.
    let resubmitted = submit_on(
        &mut control,
        NamedCampaign::new("late-theta", named_campaign("tiny-theta").unwrap()),
    )
    .expect("identical resubmission is idempotent");
    assert_eq!(resubmitted, id);
    // The same name bound to a *different* spec is still refused.
    match submit_on(
        &mut control,
        NamedCampaign::new("late-theta", named_campaign("tiny").unwrap()),
    ) {
        Err(DistError::Aborted(reason)) => {
            assert!(reason.contains("different spec"), "got: {reason}")
        }
        other => panic!("conflicting submission must be refused, got {other:?}"),
    }

    // The very next reply to this (pre-submission) worker must be
    // preceded by the announcement — before any frame references id 1.
    let mut order = vec![0usize];
    loop {
        let (campaign, jobs) = request_batch(&mut conn, 1, &mut announces);
        if campaign == 1 {
            assert!(
                !announces.is_empty(),
                "an Assign referenced campaign 1 before its announcement"
            );
        }
        order.push(campaign as usize);
        report_synthetic(&mut conn, campaign, &jobs, &mut announces);
        if order.len() == 10 {
            break;
        }
    }
    assert_eq!(announces.len(), 1, "exactly one announcement");
    let (announced_id, announced) = &announces[0];
    assert_eq!(*announced_id, 1);
    assert_eq!(announced.name, "late-theta");
    assert_eq!(
        announced.weight, 7,
        "announcements carry the scheduling weight"
    );
    // FIFO: the bind-time campaign drains first, then the submission.
    assert_eq!(order, vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1]);

    assert!(matches!(
        request(&mut conn, 1, &mut announces),
        Reply::Finished
    ));
    let run = serve.join().unwrap().expect("run completes");
    assert_eq!(run.campaigns.len(), 2);
    assert_eq!(run.campaigns[1].name, "late-theta");
    assert_eq!(run.campaigns[1].total_cells, 4);
}

#[test]
fn an_idle_control_connection_does_not_stall_run_exit() {
    // Regression: a control client may keep its connection open for
    // further submissions. Once every worker is done, the run must end
    // promptly by severing the idle control link — not block the scope
    // join until the 600 s worker timeout expires on its recv.
    let mut config = CoordinatorConfig::new("loopback", named_campaign("tiny").unwrap());
    config.idle_timeout = Duration::from_secs(30);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let mut announces = Vec::new();

    // Submit, then stay connected without ever sending another frame.
    let mut control = hub.connect();
    let id = submit_on(
        &mut control,
        NamedCampaign::new("late", named_campaign("tiny-theta").unwrap()),
    )
    .unwrap();
    assert_eq!(id, 1);

    // A scripted worker completes both campaigns.
    let (mut conn, campaigns) = scripted_worker(&hub, 8);
    assert_eq!(
        campaigns.len(),
        2,
        "a post-submission handshake already carries the new campaign"
    );
    loop {
        match request(&mut conn, u32::MAX, &mut announces) {
            Reply::Assign(_, jobs) if jobs.is_empty() => continue,
            Reply::Assign(campaign, jobs) => {
                report_synthetic(&mut conn, campaign, &jobs, &mut announces)
            }
            Reply::Finished => break,
            Reply::Abort(reason) => panic!("unexpected abort: {reason}"),
        }
    }

    // Joins promptly (the test itself is the timeout: a regression here
    // blocks for the 600 s default worker timeout).
    let run = serve.join().unwrap().expect("run completes");
    assert_eq!(run.campaigns.len(), 2);
    // The idle control link was severed by the drain.
    assert!(control.recv().is_err());
}

#[test]
fn live_submission_merges_bit_identical_and_survives_kill_plus_resume() {
    // The acceptance path, end to end and fully deterministic: a
    // campaign submitted to a *running* coordinator is executed by real
    // workers (over loopback), interrupted by worker death, resumed by
    // a fresh coordinator from its digest-bound journal, and merges
    // bit-identical to its serial run with zero recomputation of
    // journaled cells.
    let dir = temp_dir("submit-resume");
    let journal = dir.join("run.journal");
    let tiny = named_campaign("tiny").unwrap();
    let theta = named_campaign("tiny-theta").unwrap();
    let serial_tiny = tiny.run_serial().unwrap();
    let serial_theta = theta.run_serial().unwrap();

    // Phase 1: coordinator starts with only `tiny`; `tiny-theta`
    // arrives by live submission. Workers are preempted (killed) after
    // tiny cell budgets, so the run is left genuinely partial.
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![NamedCampaign::new("tiny", tiny.clone())],
    );
    config.journal = Some(journal.clone());
    config.idle_timeout = Duration::from_secs(2);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);

    // Worker 1: executes exactly 2 cells of `tiny`, then vanishes —
    // run inline, so the schedule is fully sequential.
    let mut worker_config = WorkerConfig::new("loopback");
    worker_config.max_cells = Some(2);
    let summary = run_worker_on(hub.connect(), &worker_config).unwrap();
    assert!(
        !summary.finished,
        "worker 1 must be preempted, not finished"
    );
    assert_eq!(summary.cells_executed, 2);

    // Live submission while the coordinator is running.
    let mut control = hub.connect();
    let id = submit_on(
        &mut control,
        NamedCampaign::new("tiny-theta", theta.clone()),
    )
    .expect("submission accepted");
    assert_eq!(id, 1);
    drop(control);

    // Worker 2: 3 more cells (FIFO: still `tiny`), then vanishes.
    worker_config.max_cells = Some(3);
    let summary = run_worker_on(hub.connect(), &worker_config).unwrap();
    assert!(!summary.finished);
    assert_eq!(summary.cells_executed, 3);

    // Nobody is left: the coordinator checkpoints and gives up.
    match serve.join().unwrap() {
        Err(DistError::Incomplete { done, total, .. }) => {
            assert_eq!(done, 5, "5 cells were executed before the kills");
            assert_eq!(total, 6 + 4, "both campaigns count toward the total");
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    // Both campaigns journaled — the submitted one exactly like the
    // bind-time one.
    assert!(campaign_journal_path(&journal, "tiny").exists());
    assert!(campaign_journal_path(&journal, "tiny-theta").exists());

    // Phase 2: resume. The submitted campaign is now simply queued at
    // bind time — its journal is digest-bound, so it resumes no
    // differently from how it was created.
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![
            NamedCampaign::new("tiny", tiny),
            NamedCampaign::new("tiny-theta", theta),
        ],
    );
    config.journal = Some(journal.clone());
    config.idle_timeout = Duration::from_secs(2);
    let hub = LoopbackHub::new();
    let serve = spawn_coordinator(&hub, config);
    let healthy = std::thread::spawn({
        let conn = hub.connect();
        move || run_worker_on(conn, &WorkerConfig::new("loopback"))
    });
    let run = serve.join().unwrap().expect("resumed run completes");
    let summary = healthy.join().unwrap().unwrap();
    assert!(summary.finished);

    assert_eq!(run.campaigns[0].resumed_cells, 5, "tiny resumes 5 cells");
    assert_eq!(run.campaigns[0].computed_cells, 1);
    assert_eq!(run.campaigns[1].resumed_cells, 0);
    assert_eq!(run.campaigns[1].computed_cells, 4);
    assert_eq!(
        summary.cells_executed, 5,
        "zero recomputation of journaled cells"
    );
    assert_bit_identical(&run.campaigns[0].result, &serial_tiny);
    assert_bit_identical(&run.campaigns[1].result, &serial_theta);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_submission_with_an_untrainable_setup_is_refused_naming_the_field() {
    // An empty training set would pass the scenario checks and then
    // panic inside every worker that takes the campaign; the
    // coordinator must refuse it at submission instead of answering
    // `SubmitOk`.
    let mut config = CoordinatorConfig::with_campaigns("loopback", Vec::new());
    config.persistent = true;
    let hub = LoopbackHub::new();
    let listener = StopOnCancel(hub.listener());
    let stop = listener.canceller();
    let serve = std::thread::spawn(move || serve_transport(listener, config));
    let mut broken = named_campaign("tiny").unwrap();
    broken.setup.n_train = 0;
    match submit_on(&mut hub.connect(), NamedCampaign::new("broken", broken)) {
        Err(DistError::Aborted(reason)) => {
            assert!(
                reason.contains("n_train"),
                "the abort names the field: {reason}"
            )
        }
        other => panic!("an untrainable setup must be refused, got {other:?}"),
    }
    stop();
    assert!(
        serve.join().unwrap().is_err(),
        "a stopped service reports the stop"
    );
}

/// A loopback listener whose cancellation fails the accept: the stop
/// signal of a persistent coordinator, which never settles on its own.
struct StopOnCancel(LoopbackListener);

impl Listener for StopOnCancel {
    type Conn = LoopbackConn;

    fn poll_accept(&mut self) -> Result<Option<LoopbackConn>, DistError> {
        self.0.poll_accept()
    }

    fn accept(&mut self) -> Result<Option<LoopbackConn>, DistError> {
        match self.0.accept()? {
            Some(conn) => Ok(Some(conn)),
            None => Err(DistError::Protocol("service stopped".into())),
        }
    }

    fn canceller(&self) -> Canceller {
        self.0.canceller()
    }
}

/// A worker link that reports when its first reply — the handshake's
/// campaign queue — has arrived.
struct SignalOnHandshake {
    conn: LoopbackConn,
    handshaken: Option<mpsc::Sender<()>>,
}

impl Connection for SignalOnHandshake {
    fn send(&mut self, message: &Message) -> Result<(), DistError> {
        self.conn.send(message)
    }

    fn recv(&mut self) -> Result<Message, DistError> {
        let message = self.conn.recv()?;
        if let Some(handshaken) = self.handshaken.take() {
            let _ = handshaken.send(());
        }
        Ok(message)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.conn.set_recv_timeout(timeout)
    }

    fn canceller(&self) -> Canceller {
        self.conn.canceller()
    }
}

#[test]
fn a_worker_that_joined_an_empty_service_executes_later_submissions() {
    // A worker may join a service before its first submission: an
    // empty campaign queue at handshake means "wait for campaigns",
    // not "exit".
    let dir = temp_dir("empty-service");
    let journal = dir.join("run.journal");
    let theta = named_campaign("tiny-theta").unwrap();
    let serial = theta.run_serial().unwrap();

    let mut config = CoordinatorConfig::with_campaigns("loopback", Vec::new());
    config.persistent = true;
    config.journal = Some(journal.clone());
    let hub = LoopbackHub::new();
    let listener = StopOnCancel(hub.listener());
    let stop = listener.canceller();
    let serve = std::thread::spawn(move || serve_transport(listener, config));

    // The worker handshakes while the queue is empty; its budget is the
    // campaign's cell count, so it returns once every cell is acked.
    let (handshaken, handshake_done) = mpsc::channel();
    let conn = SignalOnHandshake {
        conn: hub.connect(),
        handshaken: Some(handshaken),
    };
    let mut worker_config = WorkerConfig::new("loopback");
    worker_config.max_cells = Some(serial.cells.len());
    let worker = std::thread::spawn(move || run_worker_on(conn, &worker_config));
    handshake_done.recv().unwrap();

    let mut control = hub.connect();
    let id = submit_on(
        &mut control,
        NamedCampaign::new("tiny-theta", theta.clone()),
    )
    .expect("submission accepted");
    assert_eq!(id, 0);
    let summary = worker
        .join()
        .unwrap()
        .expect("a worker that joined an empty service keeps serving it");
    assert_eq!(summary.cells_executed, serial.cells.len());

    drop(control);
    stop();
    assert!(
        serve.join().unwrap().is_err(),
        "a stopped service reports the stop"
    );

    // Replay the journal through a fresh coordinator: every cell
    // resumes, nothing executes, and the merge matches serial.
    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![NamedCampaign::new("tiny-theta", theta)],
    );
    config.journal = Some(journal);
    let run = serve_transport(LoopbackHub::new().listener(), config).expect("replay completes");
    assert_eq!(run.campaigns[0].resumed_cells, serial.cells.len());
    assert_bit_identical(&run.campaigns[0].result, &serial);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_names_that_would_escape_the_journal_directory_are_refused() {
    // A campaign name is part of its journal's file name
    // (`<base>.<name>`): `x/../../escaped` would put the journal two
    // levels up, outside the journal's directory. Both a live
    // submission and a bind-time campaign must be refused before any
    // file is created.
    let dir = temp_dir("name-escape");
    let journal_dir = dir.join("journals");
    std::fs::create_dir_all(&journal_dir).unwrap();
    let journal = journal_dir.join("svc.journal");
    let tiny = named_campaign("tiny").unwrap();

    let mut config = CoordinatorConfig::with_campaigns("loopback", Vec::new());
    config.persistent = true;
    config.journal = Some(journal.clone());
    let hub = LoopbackHub::new();
    let listener = StopOnCancel(hub.listener());
    let stop = listener.canceller();
    let serve = std::thread::spawn(move || serve_transport(listener, config));
    for name in ["x/../../escaped", "x\\..\\..\\escaped", "", "line\nbreak"] {
        // A refusal ends the control session, so each name gets its own.
        match submit_on(&mut hub.connect(), NamedCampaign::new(name, tiny.clone())) {
            Err(DistError::Aborted(reason)) => assert!(
                reason.contains("must be non-empty and contain no `/`, `\\` or control"),
                "the abort names the rule: {reason}"
            ),
            other => panic!("campaign name {name:?} must be refused, got {other:?}"),
        }
    }
    stop();
    assert!(
        serve.join().unwrap().is_err(),
        "a stopped service reports the stop"
    );

    let mut config = CoordinatorConfig::with_campaigns(
        "loopback",
        vec![NamedCampaign::new("x/../../escaped", tiny)],
    );
    config.journal = Some(journal);
    config.idle_timeout = Duration::from_millis(100);
    match serve_transport(LoopbackHub::new().listener(), config) {
        Err(DistError::Protocol(reason)) => {
            assert!(reason.contains("must be non-empty"), "got: {reason}")
        }
        other => panic!("a bind-time campaign name must be refused too, got {other:?}"),
    }

    // Nothing was created: not the escaped journal, not the directory
    // its path walks through.
    let entries = |path: &std::path::Path| -> Vec<String> {
        std::fs::read_dir(path)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(entries(&dir), ["journals"]);
    assert!(entries(&journal_dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
