//! The campaign coordinator: queues multiple campaigns and shards their
//! cell grids over one shared worker fleet.
//!
//! Scheduling is pull-based work stealing at the granularity the PR 1
//! in-process pool established: idle workers request batches, the
//! coordinator pops pending cell indices from the campaign its
//! scheduling policy ([`PolicyKind`]) picks (FIFO by default; weighted
//! round-robin under `--fair`, so interleaved campaigns all make latency
//! progress),
//! and a worker that dies (or times out) simply has its in-flight cells
//! requeued for whoever asks next. Batches are sized by the `threads`
//! each worker reported in its `Hello` (capacity-aware batching — a
//! 16-core node gets 16× the cells of a 1-core node per round trip).
//! Because every cell is a pure function of `(setup, job)` and each
//! campaign's merge is slot-addressed ([`assemble_sweep`]), *any*
//! interleaving of campaigns, workers, retries, resumes, and scheduling
//! policies produces the same bit-exact [`SweepResult`]s as serial runs.
//!
//! The campaign queue is **live** (protocol v3): a control client may
//! [`Submit`](Message::Submit) a campaign to a running coordinator
//! (`repro submit`). The submission is validated, bound a digest-checked
//! journal exactly as bind-time campaigns are, announced to every
//! connected worker ([`Message::CampaignAnnounce`] — pushed before the
//! first reply that references the new campaign id), and scheduled by
//! the same policy as everything else.
//!
//! Completed cells are journaled — one journal per campaign, each bound
//! to its campaign digest — before they are acknowledged back to the
//! worker ([`Message::Ack`]), so a killed coordinator resumes every
//! queued campaign from its checkpoint without recomputing finished
//! cells (see [`crate::checkpoint`]).
//!
//! Failure accounting distinguishes *worker* failures from *cell*
//! failures: a worker that dies or times out has its in-flight cells
//! requeued without advancing the `max_attempts` poison cap (assignment
//! is not evidence against a cell), while an explicit
//! [`Message::Failed`] execution report counts toward it. A cell that
//! fails execution `max_attempts` times — or is orphaned by
//! `max_worker_losses` dying workers without ever reporting (the
//! signature of a cell that crashes worker *processes*) — poisons **its
//! campaign only**: the poisoned campaign stops scheduling, every other
//! queued campaign runs to completion (and journals), and the run then
//! ends failed, naming each poisoned campaign with its failure log.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use neurofi_core::sweep::{
    assemble_sweep, cell_countermeasures, CellResult, SweepPlan, SweepResult,
};
use neurofi_core::DetectionOutcome;
use neurofi_store::Store;

use crate::campaign::NamedCampaign;
use crate::checkpoint::Journal;
use crate::schedule::{Candidate, PolicyKind, Scheduler};
use crate::transport::{Canceller, Connection, Listener, TcpServerListener};
use crate::wire::{CampaignProgress, Message, PROTOCOL_VERSION};
use crate::DistError;

/// How a coordinator serves its campaign queue.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub bind: String,
    /// The campaigns to queue at bind time (more may arrive live via
    /// [`Message::Submit`]). Names must be unique.
    pub campaigns: Vec<NamedCampaign>,
    /// Checkpoint journal base path; `None` disables checkpointing.
    /// Every campaign — bind-time or submitted — journals to
    /// `<path>.<campaign-name>` (see [`campaign_journal_path`]).
    pub journal: Option<PathBuf>,
    /// Content-addressed result store path; `None` disables the store.
    /// Unlike journals (one per campaign, an in-flight ack/resume log),
    /// the store is one file shared by *every* campaign this coordinator
    /// will ever serve: cells are keyed by content digest
    /// ([`CampaignSpec::cell_digest`](crate::CampaignSpec::cell_digest)),
    /// so overlapping submissions dedupe to store hits before any cell
    /// reaches a worker.
    pub store: Option<PathBuf>,
    /// Service mode: when `true`, the coordinator outlives queue drain —
    /// it never settles `Complete`, never idles out, accepts an empty
    /// bind-time queue, and keeps accepting submissions until the
    /// process is killed (`repro serve`). Progress is observable via
    /// [`Message::Status`] queries, and the journals + store make a
    /// killed service resumable.
    pub persistent: bool,
    /// Cross-campaign scheduling policy (FIFO unless `--fair`).
    pub policy: PolicyKind,
    /// Socket read timeout per worker: a worker silent for this long is
    /// declared dead and its in-flight cells are requeued.
    pub worker_timeout: Duration,
    /// How long the coordinator tolerates pending work with *no* workers
    /// connected before giving up (the journals keep the progress).
    pub idle_timeout: Duration,
    /// Maximum times one cell may *fail execution* (reported via
    /// [`Message::Failed`]) before its campaign is declared poisoned.
    /// Worker deaths and timeouts do not count toward this — a healthy
    /// cell handed to five dying workers requeues for free.
    pub max_attempts: u32,
    /// Termination backstop for cells whose execution kills the worker
    /// *process* (no [`Message::Failed`] ever arrives): a cell orphaned
    /// by this many dying/timing-out workers poisons its campaign. Much
    /// larger than `max_attempts` so flaky fleets (spot preemption,
    /// restarts) never false-poison a healthy cell, but a
    /// worker-crashing cell cannot requeue forever.
    pub max_worker_losses: u32,
}

impl CoordinatorConfig {
    /// A single-campaign config with the defaults: FIFO scheduling,
    /// generous worker timeout (cells are training runs), 60 s idle
    /// timeout, 5 execution failures per cell, 50 worker losses per
    /// cell. The campaign is queued under the name `main`.
    pub fn new(bind: impl Into<String>, campaign: crate::CampaignSpec) -> CoordinatorConfig {
        CoordinatorConfig::with_campaigns(bind, vec![NamedCampaign::new("main", campaign)])
    }

    /// A config queueing several campaigns with the defaults.
    pub fn with_campaigns(
        bind: impl Into<String>,
        campaigns: Vec<NamedCampaign>,
    ) -> CoordinatorConfig {
        CoordinatorConfig {
            bind: bind.into(),
            campaigns,
            journal: None,
            store: None,
            persistent: false,
            policy: PolicyKind::Fifo,
            worker_timeout: Duration::from_secs(600),
            idle_timeout: Duration::from_secs(60),
            max_attempts: 5,
            max_worker_losses: 50,
        }
    }
}

/// Cells a worker gets per reported thread and scheduling round trip.
/// 2 keeps every core busy while the next request is in flight without
/// hoarding cells a slow node would strand until its timeout.
pub const CELLS_PER_THREAD: usize = 2;

/// Capacity-aware batch sizing: how many cells to hand a worker that
/// reported `threads` in its `Hello`, asked for at most `requested`, and
/// faces `pending` unassigned cells. Scales linearly with the reported
/// width, never exceeds the worker's own cap, and never over-claims the
/// queue.
pub fn capacity_batch(threads: u32, requested: u32, pending: usize) -> usize {
    (threads.max(1) as usize)
        .saturating_mul(CELLS_PER_THREAD)
        .min(requested.max(1) as usize)
        .min(pending)
}

/// The two per-cell poison caps, bundled for the handler threads.
#[derive(Debug, Clone, Copy)]
struct PoisonLimits {
    max_attempts: u32,
    max_worker_losses: u32,
}

/// The per-campaign journal path under `base`: always `base.<name>`.
///
/// The suffix is unconditional (PR 3 used the bare base path for a lone
/// campaign) because with live submission the number of campaigns a run
/// will ultimately serve is unknowable at bind time — a path that
/// depended on it could not resume reliably. The journal header's
/// campaign digest still guards against name collisions across
/// different grids.
pub fn campaign_journal_path(base: &Path, name: &str) -> PathBuf {
    PathBuf::from(format!("{}.{name}", base.display()))
}

/// One campaign's merged outcome within a [`CoordinatedRun`].
#[derive(Debug, Clone)]
pub struct CampaignSweep {
    /// The campaign's queue name.
    pub name: String,
    /// The campaign that produced the merge (bind-time or
    /// live-submitted) — callers can re-run it serially for golden
    /// verification without knowing how it was enqueued.
    pub spec: crate::CampaignSpec,
    /// The assembled sweep — bit-identical to a serial run.
    pub result: SweepResult,
    /// Cells in the campaign grid.
    pub total_cells: usize,
    /// Cells recovered from the checkpoint journal (not recomputed).
    pub resumed_cells: usize,
    /// Cells satisfied by the content-addressed result store — measured
    /// by some earlier campaign (any name, any submitter) and never
    /// assigned to a worker in this run.
    pub store_hit_cells: usize,
    /// Cells measured by workers during this run.
    pub computed_cells: usize,
}

/// The merged outcome of a coordinated run over every queued campaign
/// (bind-time and live-submitted, in queue order).
#[derive(Debug, Clone)]
pub struct CoordinatedRun {
    /// Per-campaign merges, in queue order.
    pub campaigns: Vec<CampaignSweep>,
    /// Distinct worker connections that completed the handshake.
    pub workers_seen: usize,
}

/// Why the serve loop stopped.
enum Outcome {
    Complete,
    Failed(String),
}

/// Scheduler state for one queued campaign.
struct CampaignState {
    /// The campaign as queued (name, scheduling weight, spec).
    campaign: NamedCampaign,
    /// Stage-1 enumeration of the campaign's cells (job lookup for
    /// assignments).
    plan: SweepPlan,
    pending: VecDeque<usize>,
    /// Execution failures per cell ([`Message::Failed`] reports only —
    /// assignments alone are never counted, so a healthy cell can
    /// survive any number of dying workers).
    failures: Vec<u32>,
    /// Times each cell was orphaned by a dying/timing-out worker. Not
    /// part of the `max_attempts` poison cap, but bounded by the much
    /// larger `max_worker_losses` so a cell that crashes worker
    /// *processes* (and therefore never gets a [`Message::Failed`])
    /// still cannot requeue forever.
    orphaned: Vec<u32>,
    /// Human-readable log of every execution failure, surfaced in the
    /// poison diagnostic so the operator sees what actually happened.
    failure_log: Vec<String>,
    completed: Vec<Option<CellResult>>,
    n_done: usize,
    /// Cells recovered from the journal when this campaign was queued.
    resumed: usize,
    /// Cells satisfied by the result store when this campaign was
    /// queued (cross-campaign dedup — never assigned to a worker).
    store_hits: usize,
    /// Per-cell content digests (store keys), index-aligned with the
    /// plan. Computed once at enqueue so the record path never re-walks
    /// the spec.
    digests: Vec<u64>,
    /// Detector-armed cells whose dummy neuron trips the ≥10% rule.
    /// Detection is a pure function of the planned attack (not of
    /// execution), so both counters are fixed at enqueue time.
    detected: usize,
    /// Detector-armed off-nominal cells the dummy neuron misses.
    missed: usize,
    baseline_accuracy: Option<f64>,
    journal: Option<Journal>,
    /// Set when this campaign is poisoned. A failed campaign stops
    /// scheduling its cells; the *other* queued campaigns keep running
    /// to completion (their journals make the merges resumable), and
    /// the run as a whole ends failed, naming every poisoned campaign.
    failed: Option<String>,
}

impl CampaignState {
    /// Builds the scheduler state for one campaign: enumerates its
    /// plan, opens (and replays) its digest-bound journal when
    /// checkpointing is on, seeds `completed` from the recovery, then
    /// consults the content-addressed store — journal-recovered cells
    /// drain *into* it, and every still-missing cell it already holds
    /// is filled as a store hit (never assigned to a worker). Used
    /// identically for bind-time campaigns and live submissions.
    fn create(
        campaign: NamedCampaign,
        journal_base: Option<&Path>,
        store: Option<&Mutex<Store>>,
    ) -> Result<CampaignState, DistError> {
        campaign.spec.validate()?;
        let plan = campaign.spec.plan();
        let total = plan.jobs.len();
        let (journal, recovered) = match journal_base {
            Some(base) => {
                let path = campaign_journal_path(base, &campaign.name);
                let (journal, recovered) = Journal::open(&path, campaign.spec.digest(), total)?;
                (Some(journal), recovered)
            }
            None => (None, Default::default()),
        };
        let digests: Vec<u64> = plan
            .jobs
            .iter()
            .map(|job| campaign.spec.cell_digest(&job.attack))
            .collect();
        // Detection outcomes are a pure function of the planned attack
        // (the dummy neuron watches the raw supply, not the measured
        // accuracy), so the status counters are fixed here, once.
        let transfer = campaign.spec.scenario.transfer_table()?;
        let (mut detected, mut missed) = (0usize, 0usize);
        for job in &plan.jobs {
            match cell_countermeasures(&job.attack, transfer.as_ref()).detection {
                Some(DetectionOutcome::Detected) => detected += 1,
                Some(DetectionOutcome::Missed) => missed += 1,
                Some(DetectionOutcome::Quiet) | None => {}
            }
        }
        // The journal replay range-checked and deduplicated its cells.
        let mut completed: Vec<Option<CellResult>> = vec![None; total];
        for result in &recovered.results {
            completed[result.index] = Some(*result);
        }
        let resumed = recovered.results.len();
        let mut state = CampaignState {
            campaign,
            plan,
            pending: VecDeque::new(),
            failures: vec![0; total],
            orphaned: vec![0; total],
            failure_log: Vec::new(),
            completed,
            n_done: resumed,
            resumed,
            store_hits: 0,
            digests,
            detected,
            missed,
            baseline_accuracy: recovered.baseline_accuracy,
            journal,
            failed: None,
        };
        if let Some(mut store) = lock_store(store) {
            let baseline_digest = state.campaign.spec.baseline_digest();
            // Journal-recovered cells drain into the store first, so
            // progress made under this campaign's name is visible to
            // every overlapping campaign. A conflict here means two
            // runs measured different bits for the same content —
            // surface it, never cache over it.
            if let Some(accuracy) = state.baseline_accuracy {
                store.put_baseline(baseline_digest, accuracy)?;
            }
            for result in state.completed.iter().flatten() {
                store.put_cell(state.digests[result.index], result.cell)?;
            }
            // The baseline must be pinned before any hit is filled in:
            // store-held cells were measured against the store-held
            // baseline, so mixing them with a *different* baseline
            // would blend two relative-change scales in one grid.
            if state.baseline_accuracy.is_none() {
                if let Some(accuracy) = store.get_baseline(baseline_digest) {
                    state
                        .record_baseline(accuracy, None)
                        .map_err(DistError::Journal)?;
                }
            }
            // Then every cell the store already holds is a hit: filled
            // in, journaled for the per-campaign resume log (so a
            // restart resumes it even against a compacted store), and
            // never assigned to a worker.
            for index in 0..total {
                if state.completed[index].is_some() {
                    continue;
                }
                if let Some(cell) = store.get_cell(state.digests[index]) {
                    state
                        .record_cell(&CellResult { index, cell }, None)
                        .map_err(DistError::Journal)?;
                    state.store_hits += 1;
                }
            }
        }
        state.pending = (0..total)
            .filter(|&i| state.completed[i].is_none())
            .collect();
        Ok(state)
    }

    fn total(&self) -> usize {
        self.completed.len()
    }

    /// Complete or poisoned — either way, nothing left to schedule.
    fn settled(&self) -> bool {
        self.failed.is_some() || self.n_done == self.total()
    }

    /// Poisons this campaign (first reason wins) and drops its pending
    /// queue so no further cells are scheduled.
    fn poison(&mut self, reason: String) {
        if self.failed.is_none() {
            self.failed = Some(reason);
        }
        self.pending.clear();
    }

    fn schedulable(&self) -> bool {
        self.failed.is_none() && !self.pending.is_empty()
    }

    /// Pins the baseline a worker reported: the first report is
    /// journaled, then stored; every later one must carry the same
    /// bits (the cross-worker determinism check).
    fn record_baseline(&mut self, accuracy: f64, store: Option<&mut Store>) -> Result<(), String> {
        match self.baseline_accuracy {
            Some(existing) if existing.to_bits() != accuracy.to_bits() => Err(format!(
                "worker baseline accuracy {accuracy:?} diverges from \
                 campaign baseline {existing:?}: non-deterministic runner"
            )),
            Some(_) => Ok(()),
            None => {
                if let Some(journal) = self.journal.as_mut() {
                    journal
                        .record_baseline(accuracy)
                        .map_err(|e| format!("journal write failed: {e}"))?;
                }
                self.baseline_accuracy = Some(accuracy);
                if let Some(store) = store {
                    store
                        .put_baseline(self.campaign.spec.baseline_digest(), accuracy)
                        .map_err(|e| format!("result store write failed: {e}"))?;
                }
                Ok(())
            }
        }
    }

    /// Records one measured cell: journaled first (the journal is the
    /// ack-before-send contract), then stored (the store is the dedup
    /// index). A store failure is as fatal as a journal failure: acking
    /// a cell the store silently dropped would let a later campaign
    /// recompute it, and a conflict means a non-deterministic runner.
    fn record_cell(
        &mut self,
        result: &CellResult,
        store: Option<&mut Store>,
    ) -> Result<(), String> {
        let index = result.index;
        let (Some(slot), Some(&digest)) = (self.completed.get_mut(index), self.digests.get(index))
        else {
            return Err(format!("worker reported cell {index} outside the grid"));
        };
        match slot {
            // A duplicate delivery (the cell was requeued after a
            // timeout and finished twice) must carry identical bits —
            // this is the per-cell determinism cross-check.
            // assemble_sweep never sees conflicting duplicates because
            // only the first value is kept, so the comparison has to
            // happen here.
            Some(existing) if !existing.cell.same_bits(&result.cell) => Err(format!(
                "cell {index} measured twice with different bits \
                 ({:?} vs {:?}): non-deterministic runner",
                existing.cell, result.cell
            )),
            Some(_) => Ok(()),
            None => {
                if let Some(journal) = self.journal.as_mut() {
                    journal
                        .record_cell(result)
                        .map_err(|e| format!("journal write failed: {e}"))?;
                }
                *slot = Some(*result);
                self.n_done += 1;
                if let Some(store) = store {
                    store
                        .put_cell(digest, result.cell)
                        .map_err(|e| format!("result store write failed: {e}"))?;
                }
                Ok(())
            }
        }
    }
}

struct State {
    campaigns: Vec<CampaignState>,
    /// Picks which campaign serves each batch claim.
    scheduler: Scheduler,
    workers_connected: usize,
    workers_seen: usize,
    /// Campaigns accepted by live submission. The serve loop treats a
    /// growing count as activity, so an accepted submission resets the
    /// idle-abandonment clock — a coordinator that just told a client
    /// `SubmitOk` must give workers a chance to arrive for it.
    submissions_accepted: usize,
    /// Service mode: a persistent coordinator never settles `Complete`
    /// when its queue drains — it waits for the next submission.
    persistent: bool,
    outcome: Option<Outcome>,
}

impl State {
    fn fail(&mut self, reason: String) {
        if self.outcome.is_none() {
            self.outcome = Some(Outcome::Failed(reason));
        }
    }

    /// Ends the run once every campaign is settled: `Complete` when all
    /// succeeded, otherwise `Failed` naming every poisoned campaign
    /// (healthy campaigns were still driven to completion and journaled
    /// first). A persistent coordinator never settles — a drained queue
    /// just means it is waiting for the next submission, and a poisoned
    /// campaign must not take the service down with it.
    fn settle_if_done(&mut self) {
        if self.persistent
            || self.outcome.is_some()
            || !self.campaigns.iter().all(CampaignState::settled)
        {
            return;
        }
        let poisoned: Vec<&String> = self
            .campaigns
            .iter()
            .filter_map(|c| c.failed.as_ref())
            .collect();
        if poisoned.is_empty() {
            self.outcome = Some(Outcome::Complete);
        } else {
            let reasons: Vec<String> = poisoned.into_iter().cloned().collect();
            self.fail(reasons.join("; "));
        }
    }

    fn cells_done(&self) -> usize {
        self.campaigns.iter().map(|c| c.n_done).sum()
    }

    fn cells_total(&self) -> usize {
        self.campaigns.iter().map(CampaignState::total).sum()
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when pending work appears, completion flips, the run
    /// fails, or a campaign is submitted — anything a blocked scheduler
    /// call cares about.
    changed: Condvar,
    /// One canceller slot per accepted connection, so shutdown can
    /// unblock handler reads once the run is over. A handler clears its
    /// slot when its connection ends — a long-lived coordinator churns
    /// through connections without pinning dead handles (and their
    /// duplicated fds) for the whole run.
    conns: Mutex<Vec<Option<Canceller>>>,
    /// Journal base for campaigns submitted after bind.
    journal_base: Option<PathBuf>,
    /// The cross-campaign result store, shared by the record path and
    /// every enqueue. Lock order is strictly `state` → `store` (the
    /// enqueue path locks `store` *without* `state`, never the
    /// reverse), so the pair cannot deadlock.
    store: Option<Mutex<Store>>,
}

/// Locks the result store, if there is one, shedding poison: the
/// store's own conflict checks make a torn in-memory update loud on the
/// next insert, and an abandoned lock must not wedge every later
/// campaign.
fn lock_store(store: Option<&Mutex<Store>>) -> Option<MutexGuard<'_, Store>> {
    store.map(|store| {
        store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    })
}

impl Shared {
    /// Locks the scheduler state, recovering from mutex poisoning: if a
    /// handler thread panicked mid-update, the run is marked failed with
    /// a diagnostic and every caller keeps operating on the (possibly
    /// torn, but no longer trusted) state long enough to deliver clean
    /// `Abort`s to its workers — instead of cascading panics across
    /// every connection.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.fail(
                    "a coordinator handler thread panicked mid-update; \
                     failing the run (state can no longer be trusted)"
                        .into(),
                );
                self.changed.notify_all();
                guard
            }
        }
    }

    /// [`Condvar::wait_timeout`] with the same poison recovery as
    /// [`Shared::lock_state`]. Returns the reacquired guard and whether
    /// the wait timed out.
    fn wait_changed<'a>(
        &'a self,
        guard: MutexGuard<'a, State>,
        timeout: Duration,
    ) -> (MutexGuard<'a, State>, bool) {
        match self.changed.wait_timeout(guard, timeout) {
            Ok((guard, result)) => (guard, result.timed_out()),
            Err(poisoned) => {
                let (mut guard, result) = poisoned.into_inner();
                guard.fail(
                    "a coordinator handler thread panicked mid-update; \
                     failing the run (state can no longer be trusted)"
                        .into(),
                );
                self.changed.notify_all();
                (guard, result.timed_out())
            }
        }
    }

    /// Locks the canceller registry, shedding poison (the registry is
    /// only ever appended to, so a torn update cannot corrupt it).
    fn lock_conns(&self) -> MutexGuard<'_, Vec<Option<Canceller>>> {
        self.conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers a connection's canceller, returning the slot to clear
    /// when the connection ends.
    fn register_conn(&self, canceller: Canceller) -> usize {
        let mut conns = self.lock_conns();
        conns.push(Some(canceller));
        conns.len() - 1
    }

    /// Severs every connection still registered (idle control clients,
    /// half-open handshakes, workers mid-computation).
    fn cancel_all_conns(&self) {
        for cancel in self.lock_conns().iter().flatten() {
            cancel();
        }
    }
}

/// After the run ends, how long handlers get to deliver a graceful
/// `Finished`/`Abort` before their connections are forcibly severed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Validates a campaign queue: valid specs, unique names, and —
/// except for a persistent service, which legitimately starts empty
/// and fills by submission — non-empty.
fn validate_queue(campaigns: &[NamedCampaign], allow_empty: bool) -> Result<(), DistError> {
    if campaigns.is_empty() && !allow_empty {
        return Err(DistError::Protocol("no campaigns queued".into()));
    }
    for (i, campaign) in campaigns.iter().enumerate() {
        campaign.spec.validate()?;
        campaign.check_name().map_err(DistError::Protocol)?;
        if campaigns[..i].iter().any(|c| c.name == campaign.name) {
            return Err(DistError::Protocol(format!(
                "campaign name `{}` is queued twice; names must be unique \
                 (they key journals and reports)",
                campaign.name
            )));
        }
    }
    Ok(())
}

/// A bound coordinator, ready to serve over TCP. Splitting bind from
/// serve lets callers learn the actual port (`bind = "127.0.0.1:0"`)
/// before workers are launched — the local-cluster helper and CI rely
/// on it. Tests that need determinism instead drive [`serve_transport`]
/// directly over a loopback listener.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    config: CoordinatorConfig,
}

impl Coordinator {
    /// Validates every queued campaign and binds the listener.
    ///
    /// # Errors
    /// Fails on an empty queue, duplicate campaign names, invalid
    /// campaigns, or unbindable addresses.
    pub fn bind(config: CoordinatorConfig) -> Result<Coordinator, DistError> {
        validate_queue(&config.campaigns, config.persistent)?;
        let listener = TcpListener::bind(&config.bind)?;
        Ok(Coordinator { listener, config })
    }

    /// The address workers should connect to.
    ///
    /// # Errors
    /// Propagates the (unlikely) socket introspection failure.
    pub fn local_addr(&self) -> Result<SocketAddr, DistError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serves the campaign queue until every campaign settles (all
    /// cells measured, or the campaign poisoned), then assembles the
    /// merged sweeps.
    ///
    /// # Errors
    /// See [`serve_transport`].
    pub fn serve(self) -> Result<CoordinatedRun, DistError> {
        serve_transport(TcpServerListener::new(self.listener)?, self.config)
    }
}

/// Serves a campaign queue over any [`Listener`] until every campaign
/// settles, then assembles the merged sweeps. This is the whole
/// coordinator — [`Coordinator::serve`] runs it over TCP, tests run it
/// over a [`LoopbackHub`](crate::transport::LoopbackHub) listener for
/// deterministic scheduling tests.
///
/// # Errors
/// * [`DistError::Incomplete`] when work remains but no workers have
///   been connected for `idle_timeout` — the journals hold the
///   progress and the same command resumes all campaigns.
/// * A poisoned campaign (over `max_attempts` execution failures or
///   `max_worker_losses` orphaning worker deaths on one cell) fails
///   the run *after* the healthy campaigns finish and journal; the
///   error names each poisoned campaign with its failure log, and
///   rerunning without the poisoned grid resumes the rest at zero
///   cost.
/// * Divergent worker baselines, journal i/o failures, and protocol
///   violations surface as their respective variants.
pub fn serve_transport<L: Listener>(
    mut listener: L,
    config: CoordinatorConfig,
) -> Result<CoordinatedRun, DistError> {
    validate_queue(&config.campaigns, config.persistent)?;
    let store = config
        .store
        .as_deref()
        .map(Store::open)
        .transpose()?
        .map(Mutex::new);
    let mut states = Vec::with_capacity(config.campaigns.len());
    for campaign in &config.campaigns {
        states.push(CampaignState::create(
            campaign.clone(),
            config.journal.as_deref(),
            store.as_ref(),
        )?);
    }

    let shared = Shared {
        state: Mutex::new(State {
            campaigns: states,
            scheduler: Scheduler::new(config.policy),
            workers_connected: 0,
            workers_seen: 0,
            submissions_accepted: 0,
            persistent: config.persistent,
            outcome: None,
        }),
        changed: Condvar::new(),
        conns: Mutex::new(Vec::new()),
        journal_base: config.journal.clone(),
        store,
    };
    shared.lock_state().settle_if_done();

    let worker_timeout = config.worker_timeout;
    let idle_timeout = config.idle_timeout;
    let limits = PoisonLimits {
        max_attempts: config.max_attempts,
        max_worker_losses: config.max_worker_losses,
    };

    // The listener's canceller is the shutdown signal for the accept
    // thread: it unblocks the blocking accept and makes every later
    // accept return `None`.
    let unblock_accept = listener.canceller();

    std::thread::scope(|scope| {
        let shared = &shared;
        // Accept thread: parks in the kernel (TCP) or on the hub's
        // condvar (loopback) — no polling — and spawns one handler per
        // peer. It exits when the canceller fires or the listener
        // breaks.
        scope.spawn(move || loop {
            match listener.accept() {
                Ok(Some(conn)) => {
                    scope.spawn(move || serve_conn(conn, shared, worker_timeout, limits));
                }
                Ok(None) => break, // cancelled: run is over
                Err(e) => {
                    let mut state = shared.lock_state();
                    state.fail(format!("listener failed: {e}"));
                    shared.changed.notify_all();
                    break;
                }
            }
        });

        // Main loop: sleep on the `changed` condvar, re-checking
        // outcome and idleness on every wake. The bounded slice exists
        // only so the idle deadline is noticed promptly when *nothing*
        // happens; all real transitions (completion, failure, worker
        // arrival/departure, submission) signal the condvar.
        let mut idle_since = Instant::now();
        let mut submissions_seen = 0usize;
        let slice = idle_timeout
            .min(Duration::from_millis(500))
            .max(Duration::from_millis(10));
        let mut state = shared.lock_state();
        loop {
            if state.outcome.is_some() {
                break;
            }
            // Connected workers *and* accepted submissions count as
            // activity: a coordinator that just replied `SubmitOk`
            // must give workers a chance to arrive for the new
            // campaign instead of idling out moments later.
            if state.workers_connected > 0 || state.submissions_accepted != submissions_seen {
                submissions_seen = state.submissions_accepted;
                idle_since = Instant::now();
            } else if !state.persistent && idle_since.elapsed() > idle_timeout {
                // A persistent service is exempt: waiting for the next
                // submission with no workers around is its steady state,
                // not abandonment.
                state.fail(String::new()); // marker: idle abandonment
                shared.changed.notify_all();
                break;
            }
            state = shared.wait_changed(state, slice).0;
        }
        drop(state);
        unblock_accept();

        // Drain: wake blocked handlers so they deliver Finished/Abort
        // to their workers; after a short grace, force-sever any
        // connection still open (e.g. a worker mid-computation on
        // cells that were requeued and finished elsewhere). Once every
        // *worker* is gone, sever whatever remains anyway — an idle
        // control client (or a peer that never finished its handshake)
        // would otherwise pin its handler in `recv` until the worker
        // timeout, stalling the scope join for minutes after the merge
        // is ready. Handler exits signal `changed`, so the drain waits
        // on the condvar too (the slice re-notifies stragglers).
        let deadline = Instant::now() + DRAIN_GRACE;
        let mut state = shared.lock_state();
        loop {
            shared.changed.notify_all();
            if state.workers_connected == 0 || Instant::now() > deadline {
                break;
            }
            state = shared.wait_changed(state, Duration::from_millis(50)).0;
        }
        drop(state);
        shared.cancel_all_conns();
    });

    let state = shared
        .state
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cells_done, cells_total) = (state.cells_done(), state.cells_total());
    match state.outcome {
        Some(Outcome::Complete) => {
            let mut merged = Vec::with_capacity(state.campaigns.len());
            for campaign_state in state.campaigns {
                let total = campaign_state.total();
                let baseline_accuracy = match campaign_state.baseline_accuracy {
                    Some(b) => b,
                    // Fully resumed from a journal written before any
                    // baseline record existed (not produced by this
                    // version, but cheap to tolerate): derive it
                    // locally.
                    None => {
                        let setup = campaign_state.campaign.spec.materialize();
                        let cache = neurofi_core::BaselineCache::new(&setup);
                        neurofi_core::sweep::mean_baseline_accuracy(
                            &cache,
                            campaign_state.campaign.spec.scenario.baseline_seeds(),
                        )
                    }
                };
                let results: Vec<CellResult> =
                    campaign_state.completed.iter().flatten().copied().collect();
                let result = assemble_sweep(&campaign_state.plan, baseline_accuracy, results)?;
                merged.push(CampaignSweep {
                    name: campaign_state.campaign.name.clone(),
                    spec: campaign_state.campaign.spec.clone(),
                    result,
                    total_cells: total,
                    resumed_cells: campaign_state.resumed,
                    store_hit_cells: campaign_state.store_hits,
                    computed_cells: campaign_state.n_done
                        - campaign_state.resumed
                        - campaign_state.store_hits,
                });
            }
            Ok(CoordinatedRun {
                campaigns: merged,
                workers_seen: state.workers_seen,
            })
        }
        Some(Outcome::Failed(reason)) if reason.is_empty() => Err(DistError::Incomplete {
            done: cells_done,
            total: cells_total,
            journal: config.journal.clone(),
        }),
        Some(Outcome::Failed(reason)) => Err(DistError::Protocol(reason)),
        None => unreachable!("serve loop exits only with an outcome"),
    }
}

/// Pops a capacity-sized batch of pending cells from the campaign the
/// scheduling policy picks, blocking until work, completion, or
/// failure. Returns the campaign id with the batch, `Some((0, []))` as
/// a keep-alive while all remaining work is in flight elsewhere, and
/// `None` when the run is over (complete or failed).
///
/// Claiming never mutates failure counts — assignment is not evidence
/// against a cell, and a popped batch can no longer be dropped on the
/// floor by a mid-pop poison abort (poisoning happens in
/// [`cell_failed`], outside any batch assembly).
fn claim_batch(shared: &Shared, threads: u32, requested: u32) -> Option<(usize, Vec<usize>)> {
    let mut state = shared.lock_state();
    loop {
        if state.outcome.is_some() {
            return None;
        }
        let candidates: Vec<Candidate> = state
            .campaigns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.schedulable())
            .map(|(id, c)| Candidate {
                id,
                weight: c.campaign.weight,
            })
            .collect();
        if let Some(id) = state.scheduler.pick(&candidates) {
            let campaign = &mut state.campaigns[id];
            let take = capacity_batch(threads, requested, campaign.pending.len());
            let batch: Vec<usize> = campaign.pending.drain(..take).collect();
            return Some((id, batch));
        }
        // No schedulable work anywhere: everything is done, poisoned,
        // or in flight elsewhere. Wait in slices so the caller can
        // heartbeat its worker.
        let (next, timed_out) = shared.wait_changed(state, Duration::from_millis(500));
        state = next;
        if timed_out
            && state.outcome.is_none()
            && !state.campaigns.iter().any(CampaignState::schedulable)
        {
            // Hand back an empty batch as a keep-alive; the worker will
            // re-request.
            return Some((0, Vec::new()));
        }
    }
}

/// Records one acknowledgement window of measured cells for `campaign`;
/// journals each cell before the caller acknowledges the window. Any
/// refusal fails the run.
fn record_results(
    shared: &Shared,
    in_flight: &mut Vec<(usize, usize)>,
    campaign: usize,
    baseline_accuracy: f64,
    results: &[CellResult],
) -> Result<(), String> {
    let mut state = shared.lock_state();
    let mut store = lock_store(shared.store.as_ref());
    let recorded = match state.campaigns.get_mut(campaign) {
        None => Err(format!(
            "worker reported results for unknown campaign {campaign}"
        )),
        Some(campaign_state) if campaign_state.failed.is_some() => {
            // The campaign was poisoned while this window was in flight:
            // drop the results (acked but unrecorded) and let the worker
            // keep serving the surviving campaigns.
            in_flight.retain(|&(c, _)| c != campaign);
            return Ok(());
        }
        Some(campaign_state) => campaign_state
            .record_baseline(baseline_accuracy, store.as_deref_mut())
            .and_then(|()| {
                results.iter().try_for_each(|result| {
                    in_flight.retain(|&(c, i)| !(c == campaign && i == result.index));
                    campaign_state.record_cell(result, store.as_deref_mut())
                })
            }),
    };
    if let Err(reason) = recorded {
        state.fail(reason.clone());
        shared.changed.notify_all();
        return Err(reason);
    }
    state.settle_if_done();
    shared.changed.notify_all();
    Ok(())
}

/// Records one explicit execution failure for a cell. The cell requeues
/// unless it has now failed `max_attempts` times, in which case *its*
/// campaign is poisoned with the accumulated failure log — the other
/// queued campaigns keep running, and the reporting worker keeps
/// serving them. Only this path and the `max_worker_losses` backstop
/// advance the poison caps — ordinary worker deaths requeue for free.
/// `Err` is returned only for protocol violations (which do abort the
/// connection).
fn cell_failed(
    shared: &Shared,
    in_flight: &mut Vec<(usize, usize)>,
    campaign: usize,
    index: usize,
    reason: &str,
    limits: PoisonLimits,
) -> Result<(), String> {
    let mut state = shared.lock_state();
    let total = state.campaigns.get(campaign).map(|c| c.total());
    let Some(total) = total else {
        let reason = format!("worker reported a failure in unknown campaign {campaign}");
        state.fail(reason.clone());
        shared.changed.notify_all();
        return Err(reason);
    };
    if index >= total {
        let reason = format!("worker reported failing cell {index} outside the grid");
        state.fail(reason.clone());
        shared.changed.notify_all();
        return Err(reason);
    }
    in_flight.retain(|&(c, i)| !(c == campaign && i == index));
    let Some(campaign_state) = state.campaigns.get_mut(campaign) else {
        return Err("internal: campaign index out of range after bounds check".into());
    };
    if campaign_state
        .completed
        .get(index)
        .is_some_and(Option::is_some)
        || campaign_state.failed.is_some()
    {
        // Finished elsewhere, or the campaign is already poisoned; the
        // report is moot.
        return Ok(());
    }
    let attempts = match campaign_state.failures.get_mut(index) {
        Some(count) => {
            *count += 1;
            *count
        }
        None => return Err("internal: cell index out of range after bounds check".into()),
    };
    campaign_state.failure_log.push(format!(
        "cell {index} execution failure {attempts}: {reason}"
    ));
    if attempts >= limits.max_attempts {
        let log = campaign_state.failure_log.join("; ");
        let poison = format!(
            "campaign `{}` poisoned: cell {index} failed execution {} times \
             (failure log: {log})",
            campaign_state.campaign.name, limits.max_attempts
        );
        campaign_state.poison(poison);
    } else if !campaign_state.pending.contains(&index) {
        campaign_state.pending.push_back(index);
    }
    state.settle_if_done();
    shared.changed.notify_all();
    Ok(())
}

/// Returns a dead worker's unacknowledged cells to their campaigns'
/// pending queues. Deliberately does *not* touch the `max_attempts`
/// failure counts — a worker dying while holding a cell is evidence
/// against the worker, not the cell — but each loss advances the cell's
/// orphan tally: a cell whose execution crashes worker *processes*
/// never produces a `Failed` report, so the much larger
/// `max_worker_losses` backstop is the only thing standing between it
/// and an infinite requeue loop.
fn requeue(shared: &Shared, in_flight: &mut Vec<(usize, usize)>, limits: PoisonLimits) {
    if in_flight.is_empty() {
        return;
    }
    let mut state = shared.lock_state();
    for &(campaign, index) in in_flight.iter() {
        // In-flight entries always name real cells (claim_batch built
        // them) — `get` only so a bookkeeping bug degrades to a skipped
        // requeue instead of a poisoned lock.
        let Some(campaign_state) = state.campaigns.get_mut(campaign) else {
            continue;
        };
        if campaign_state
            .completed
            .get(index)
            .is_some_and(Option::is_some)
            || campaign_state.failed.is_some()
        {
            continue;
        }
        let losses = match campaign_state.orphaned.get_mut(index) {
            Some(count) => {
                *count += 1;
                *count
            }
            None => continue,
        };
        if losses >= limits.max_worker_losses {
            let poison = format!(
                "campaign `{}` poisoned: cell {index} was orphaned by {} \
                 dying/timing-out workers without ever reporting an execution \
                 failure — it is likely crashing worker processes",
                campaign_state.campaign.name, limits.max_worker_losses
            );
            campaign_state.poison(poison);
        } else if !campaign_state.pending.contains(&index) {
            campaign_state.pending.push_back(index);
        }
    }
    in_flight.clear();
    state.settle_if_done();
    shared.changed.notify_all();
}

/// Enqueues a live-submitted campaign: validates it, binds (and
/// replays) its digest-checked journal exactly as a bind-time campaign
/// gets, appends it to the queue, and wakes every blocked scheduler
/// call so idle workers pick it up immediately. Returns the new
/// campaign id.
fn enqueue_submission(shared: &Shared, campaign: NamedCampaign) -> Result<u32, String> {
    // `Ok(Some(id))` short-circuits: the campaign is already enqueued
    // and this submission is a retry. A client whose `SubmitOk` was
    // lost cannot know whether its submit landed, so resubmitting must
    // be idempotent — same name *and* same digest answer with the
    // existing id; same name but a different spec is still an error
    // (two different campaigns cannot share a journal or a report row).
    fn admissible(state: &State, name: &str, digest: u64) -> Result<Option<u32>, String> {
        if state.outcome.is_some() {
            return Err("the run is already over; submit to a fresh coordinator".into());
        }
        if let Some(id) = state.campaigns.iter().position(|c| c.campaign.name == name) {
            if state.campaigns[id].campaign.spec.digest() == digest {
                return Ok(Some(id as u32));
            }
            return Err(format!(
                "campaign name `{name}` is already queued on this coordinator \
                 with a different spec; pick another name"
            ));
        }
        Ok(None)
    }
    // Cheap pre-checks so obviously inadmissible submissions never touch
    // the filesystem.
    campaign.check_name()?;
    let digest = campaign.spec.digest();
    if let Some(id) = admissible(&shared.lock_state(), &campaign.name, digest)? {
        return Ok(id);
    }
    // Plan enumeration and journal open/replay can be slow for big
    // resumed grids — build the state *outside* the scheduler lock so
    // the fleet's claim/record handlers never stall behind a
    // submission. (`CampaignState::create` also validates the spec.)
    let name = campaign.name.clone();
    let campaign_state = CampaignState::create(
        campaign,
        shared.journal_base.as_deref(),
        shared.store.as_ref(),
    )
    .map_err(|e| format!("cannot enqueue campaign `{name}`: {e}"))?;
    let mut state = shared.lock_state();
    // Re-check under the lock: a racing duplicate submission (or the
    // run ending) may have won while the journal was replaying.
    if let Some(id) = admissible(&state, &name, digest)? {
        return Ok(id);
    }
    state.campaigns.push(campaign_state);
    state.submissions_accepted += 1;
    let id = (state.campaigns.len() - 1) as u32;
    // A submission that resumes fully from its journal may settle the
    // whole run right here.
    state.settle_if_done();
    shared.changed.notify_all();
    Ok(id)
}

/// One accepted connection: dispatch on its first frame. Workers open
/// with `Hello`, control clients with `Submit`, status clients with
/// `Status`; each carries its protocol version and is rejected with a
/// versioned `Abort` on mismatch.
fn serve_conn<C: Connection>(
    mut conn: C,
    shared: &Shared,
    worker_timeout: Duration,
    limits: PoisonLimits,
) {
    conn.set_recv_timeout(Some(worker_timeout));
    let slot = shared.register_conn(conn.canceller());

    match conn.recv() {
        Ok(Message::Hello { protocol, threads }) if protocol == PROTOCOL_VERSION => {
            serve_worker(conn, shared, threads, limits);
        }
        Ok(Message::Submit { protocol, campaign }) if protocol == PROTOCOL_VERSION => {
            serve_control(conn, shared, campaign);
        }
        Ok(Message::Status { protocol }) if protocol == PROTOCOL_VERSION => {
            serve_status(conn, shared);
        }
        Ok(Message::Hello { protocol, .. })
        | Ok(Message::Submit { protocol, .. })
        | Ok(Message::Status { protocol }) => {
            let _ = conn.send(&Message::Abort {
                reason: format!(
                    "protocol mismatch: peer speaks v{protocol}, coordinator v{PROTOCOL_VERSION} \
                     (the v{PROTOCOL_VERSION} control plane needs v{PROTOCOL_VERSION} peers; \
                     upgrade `repro work` / `repro submit`)"
                ),
            });
        }
        _ => {}
    }

    // The connection is over: release its canceller (and, for TCP, the
    // duplicated fd it pins) so a long-lived coordinator's registry
    // does not grow with every worker churn or submit invocation.
    shared.lock_conns()[slot] = None;
}

/// A control connection: the first `Submit` was already read; keep
/// accepting further `Submit` frames until the client disconnects.
/// Validation or journal failures abort the connection with the reason
/// but never touch the run.
fn serve_control<C: Connection>(mut conn: C, shared: &Shared, first: NamedCampaign) {
    let mut next = Some(first);
    loop {
        let campaign = match next.take() {
            Some(campaign) => campaign,
            None => match conn.recv() {
                Ok(Message::Submit { protocol, campaign }) if protocol == PROTOCOL_VERSION => {
                    campaign
                }
                Ok(Message::Submit { protocol, .. }) => {
                    let _ = conn.send(&Message::Abort {
                        reason: format!(
                            "protocol mismatch: submitter speaks v{protocol}, \
                             coordinator v{PROTOCOL_VERSION}"
                        ),
                    });
                    return;
                }
                // Disconnect or anything else ends the control session.
                _ => return,
            },
        };
        match enqueue_submission(shared, campaign) {
            Ok(id) => {
                if conn.send(&Message::SubmitOk { id }).is_err() {
                    return;
                }
            }
            Err(reason) => {
                let _ = conn.send(&Message::Abort { reason });
                return;
            }
        }
    }
}

/// One campaign's progress counters, straight off the scheduler state.
/// `running` is everything neither pending nor done — i.e. in flight on
/// a worker (for a poisoned campaign, whose pending queue is dropped,
/// the never-to-run remainder also lands here; the `failed` flag tells
/// the reader how to interpret it).
fn campaign_progress(c: &CampaignState) -> CampaignProgress {
    let (total, queued, done) = (c.total(), c.pending.len(), c.n_done);
    CampaignProgress {
        name: c.campaign.name.clone(),
        total: total as u64,
        queued: queued as u64,
        running: total.saturating_sub(queued + done) as u64,
        done: done as u64,
        resumed: c.resumed as u64,
        store_hits: c.store_hits as u64,
        detected: c.detected as u64,
        missed: c.missed as u64,
        failed: c.failed.is_some(),
    }
}

/// A status connection: the first `Status` was already read. Answer it
/// — and every further `Status` poll — with a `Progress` snapshot of
/// all queued campaigns, until the client disconnects. Read-only: a
/// status client never touches scheduling, journals, or the store.
fn serve_status<C: Connection>(mut conn: C, shared: &Shared) {
    loop {
        let campaigns: Vec<CampaignProgress> = {
            let state = shared.lock_state();
            state.campaigns.iter().map(campaign_progress).collect()
        };
        if conn.send(&Message::Progress { campaigns }).is_err() {
            return;
        }
        match conn.recv() {
            Ok(Message::Status { protocol }) if protocol == PROTOCOL_VERSION => {}
            _ => return,
        }
    }
}

/// Pushes a `CampaignAnnounce` for every campaign queued after this
/// connection's last announcement, so the worker knows every campaign
/// id before the reply that may reference it.
fn announce_new<C: Connection>(
    conn: &mut C,
    shared: &Shared,
    announced: &mut usize,
) -> Result<(), DistError> {
    loop {
        let next = {
            let state = shared.lock_state();
            if state.campaigns.len() <= *announced {
                return Ok(());
            }
            state.campaigns[*announced].campaign.clone()
        };
        conn.send(&Message::CampaignAnnounce {
            id: *announced as u32,
            campaign: next,
        })?;
        *announced += 1;
    }
}

/// One worker connection, from completed handshake to goodbye.
fn serve_worker<C: Connection>(mut conn: C, shared: &Shared, threads: u32, limits: PoisonLimits) {
    // Handshake reply: the current campaign queue. Campaigns submitted
    // later reach this worker via `CampaignAnnounce` pushes.
    let (campaigns, mut announced) = {
        let state = shared.lock_state();
        let campaigns: Vec<NamedCampaign> =
            state.campaigns.iter().map(|c| c.campaign.clone()).collect();
        let announced = campaigns.len();
        (campaigns, announced)
    };
    if conn.send(&Message::Campaigns { campaigns }).is_err() {
        return;
    }
    {
        let mut state = shared.lock_state();
        state.workers_connected += 1;
        state.workers_seen += 1;
        // The main loop sleeps on `changed` and must observe worker
        // arrival promptly — it resets the idle clock.
        shared.changed.notify_all();
    }

    let mut in_flight: Vec<(usize, usize)> = Vec::new();
    loop {
        match conn.recv() {
            Ok(Message::Request { max_cells }) => {
                match claim_batch(shared, threads, max_cells) {
                    Some((campaign, batch)) => {
                        in_flight.extend(batch.iter().map(|&i| (campaign, i)));
                        let jobs = {
                            let state = shared.lock_state();
                            // claim_batch only hands out indices from this
                            // campaign's plan; `get` so a scheduler bug
                            // shrinks the batch instead of panicking with
                            // the state lock held.
                            state.campaigns.get(campaign).map_or_else(Vec::new, |c| {
                                batch
                                    .iter()
                                    .filter_map(|&i| c.plan.jobs.get(i).copied())
                                    .collect()
                            })
                        };
                        // The claimed campaign may have been submitted
                        // after this worker's handshake: announce before
                        // the Assign that references its id.
                        if announce_new(&mut conn, shared, &mut announced).is_err() {
                            break;
                        }
                        let assign = Message::Assign {
                            campaign: campaign as u32,
                            jobs,
                        };
                        if conn.send(&assign).is_err() {
                            break;
                        }
                    }
                    None => {
                        // The run is over: tell the worker why and stop.
                        let state = shared.lock_state();
                        let goodbye = match &state.outcome {
                            Some(Outcome::Failed(reason)) => Message::Abort {
                                reason: if reason.is_empty() {
                                    "run abandoned".into()
                                } else {
                                    reason.clone()
                                },
                            },
                            _ => Message::Finished,
                        };
                        drop(state);
                        let _ = conn.send(&goodbye);
                        break;
                    }
                }
            }
            Ok(Message::Results {
                campaign,
                baseline_accuracy,
                results,
            }) => {
                match record_results(
                    shared,
                    &mut in_flight,
                    campaign as usize,
                    baseline_accuracy,
                    &results,
                ) {
                    Ok(()) => {
                        // Journaled: acknowledge the window so the worker
                        // can drop it and stream the next. Announcements
                        // piggyback on the ack so idle-free workers still
                        // learn about submissions promptly.
                        if announce_new(&mut conn, shared, &mut announced).is_err() {
                            break;
                        }
                        let ack = Message::Ack {
                            campaign,
                            received: results.len() as u32,
                        };
                        if conn.send(&ack).is_err() {
                            break;
                        }
                    }
                    Err(reason) => {
                        let _ = conn.send(&Message::Abort { reason });
                        break;
                    }
                }
            }
            Ok(Message::Failed {
                campaign,
                index,
                reason,
            }) => {
                if let Err(reason) = cell_failed(
                    shared,
                    &mut in_flight,
                    campaign as usize,
                    index as usize,
                    &reason,
                    limits,
                ) {
                    let _ = conn.send(&Message::Abort { reason });
                    break;
                }
            }
            Ok(Message::Abort { .. }) | Ok(_) | Err(_) => break,
        }
    }

    requeue(shared, &mut in_flight, limits);
    let mut state = shared.lock_state();
    state.workers_connected -= 1;
    drop(state);
    shared.changed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_batch_scales_with_reported_threads() {
        // Linear in threads while the queue and the worker cap allow it.
        assert_eq!(capacity_batch(1, u32::MAX, 100), CELLS_PER_THREAD);
        assert_eq!(capacity_batch(4, u32::MAX, 100), 4 * CELLS_PER_THREAD);
        assert_eq!(capacity_batch(16, u32::MAX, 100), 16 * CELLS_PER_THREAD);
        // Clamped by the worker's own request cap...
        assert_eq!(capacity_batch(16, 3, 100), 3);
        // ...and by what is actually pending.
        assert_eq!(capacity_batch(16, u32::MAX, 5), 5);
        // Degenerate reports never produce a zero batch on a non-empty
        // queue (that would spin), nor a claim on an empty one.
        assert_eq!(capacity_batch(0, 0, 100), 1);
        assert_eq!(capacity_batch(8, u32::MAX, 0), 0);
    }

    #[test]
    fn journal_paths_are_suffixed_by_campaign_name() {
        let base = Path::new("/tmp/run.journal");
        assert_eq!(
            campaign_journal_path(base, "tiny"),
            PathBuf::from("/tmp/run.journal.tiny")
        );
        assert_eq!(
            campaign_journal_path(base, "tiny-theta"),
            PathBuf::from("/tmp/run.journal.tiny-theta")
        );
    }

    const TEST_LIMITS: PoisonLimits = PoisonLimits {
        max_attempts: 5,
        max_worker_losses: 50,
    };

    fn test_campaign_state(name: &str, n_cells: usize) -> CampaignState {
        let spec = crate::campaign::named_campaign("tiny").unwrap();
        CampaignState {
            campaign: NamedCampaign::new(name, spec.clone()),
            plan: spec.plan(),
            pending: (0..n_cells).collect(),
            failures: vec![0; n_cells],
            orphaned: vec![0; n_cells],
            failure_log: Vec::new(),
            completed: vec![None; n_cells],
            n_done: 0,
            resumed: 0,
            store_hits: 0,
            detected: 0,
            missed: 0,
            digests: vec![0; n_cells],
            baseline_accuracy: None,
            journal: None,
            failed: None,
        }
    }

    fn test_shared_with(campaigns: Vec<CampaignState>, policy: PolicyKind) -> Shared {
        Shared {
            state: Mutex::new(State {
                campaigns,
                scheduler: Scheduler::new(policy),
                workers_connected: 0,
                workers_seen: 0,
                submissions_accepted: 0,
                persistent: false,
                outcome: None,
            }),
            changed: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            journal_base: None,
            store: None,
        }
    }

    fn test_shared(n_cells: usize) -> Shared {
        test_shared_with(vec![test_campaign_state("main", n_cells)], PolicyKind::Fifo)
    }

    #[test]
    fn poisoned_state_mutex_fails_the_run_instead_of_cascading_panics() {
        let shared = test_shared(4);
        // Poison the mutex the way a real handler would: panic while
        // holding the guard.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.state.lock().unwrap();
            panic!("handler bug");
        }));
        assert!(result.is_err());
        assert!(shared.state.is_poisoned());

        // Every subsequent lock recovers, and the run is marked failed
        // with a diagnostic instead of panicking.
        let state = shared.lock_state();
        match &state.outcome {
            Some(Outcome::Failed(reason)) => assert!(reason.contains("panicked")),
            _ => panic!("poisoned lock must fail the run"),
        }
        drop(state);
        // A scheduler call on the poisoned state returns "run over"
        // rather than panicking.
        assert!(claim_batch(&shared, 4, u32::MAX).is_none());
    }

    #[test]
    fn worker_deaths_requeue_without_advancing_the_poison_cap() {
        let shared = test_shared(2);
        // Simulate the cells being claimed and orphaned many more times
        // than max_attempts: they must always requeue (only the much
        // larger max_worker_losses backstop may eventually intervene).
        for _ in 0..20 {
            let (campaign, batch) = claim_batch(&shared, 1, 1).unwrap();
            assert_eq!(campaign, 0);
            let mut in_flight: Vec<(usize, usize)> = batch.iter().map(|&i| (campaign, i)).collect();
            requeue(&shared, &mut in_flight, TEST_LIMITS);
        }
        let state = shared.lock_state();
        assert!(state.outcome.is_none(), "healthy cells must never poison");
        assert_eq!(state.campaigns[0].failures, vec![0, 0]);
        assert_eq!(state.campaigns[0].orphaned, vec![10, 10]);
        assert_eq!(state.campaigns[0].pending.len(), 2);
    }

    #[test]
    fn worker_crashing_cells_hit_the_orphan_backstop() {
        // A cell that crashes the worker process never sends Failed; the
        // max_worker_losses backstop must still terminate the campaign.
        let shared = test_shared(2);
        let limits = PoisonLimits {
            max_attempts: 5,
            max_worker_losses: 3,
        };
        for _ in 0..3 {
            let mut in_flight = vec![(0usize, 0usize)];
            requeue(&shared, &mut in_flight, limits);
        }
        let state = shared.lock_state();
        let reason = state.campaigns[0]
            .failed
            .as_ref()
            .expect("campaign poisons");
        assert!(reason.contains("orphaned by 3"), "diagnostic: {reason}");
        assert!(
            matches!(state.outcome, Some(Outcome::Failed(_))),
            "a lone poisoned campaign settles the run"
        );
    }

    #[test]
    fn repeated_execution_failures_poison_only_their_campaign() {
        let shared = test_shared_with(
            vec![
                test_campaign_state("doomed", 2),
                test_campaign_state("healthy", 2),
            ],
            PolicyKind::Fifo,
        );
        let mut in_flight = vec![(0usize, 0usize)];
        for _ in 0..5 {
            cell_failed(
                &shared,
                &mut in_flight,
                0,
                0,
                "solver diverged",
                TEST_LIMITS,
            )
            .expect("execution failures are not protocol violations");
        }
        let state = shared.lock_state();
        let reason = state.campaigns[0]
            .failed
            .as_ref()
            .expect("campaign poisons");
        assert!(
            reason.contains("`doomed`"),
            "diagnostic names the campaign: {reason}"
        );
        assert!(
            reason.contains("cell 0"),
            "diagnostic names the cell: {reason}"
        );
        assert!(
            reason.contains("solver diverged"),
            "diagnostic keeps the log: {reason}"
        );
        // The other campaign is untouched and still schedulable; the run
        // as a whole is not over yet.
        assert!(state.campaigns[1].failed.is_none());
        assert!(state.outcome.is_none(), "healthy campaigns keep running");
        drop(state);
        let (campaign, batch) = claim_batch(&shared, 1, u32::MAX).unwrap();
        assert_eq!(campaign, 1, "scheduling skips the poisoned campaign");
        assert!(!batch.is_empty());
    }

    #[test]
    fn fair_claims_interleave_campaigns_batch_by_batch() {
        let shared = test_shared_with(
            vec![
                test_campaign_state("front", 6),
                test_campaign_state("back", 6),
            ],
            PolicyKind::WeightedRoundRobin,
        );
        // One-cell batches: the claim order is exactly the policy's pick
        // order.
        let order: Vec<usize> = (0..12)
            .map(|_| claim_batch(&shared, 1, 1).unwrap().0)
            .collect();
        assert_eq!(
            order,
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
            "equal-weight fair scheduling must alternate strictly"
        );
    }

    #[test]
    fn submissions_enqueue_and_are_scheduled() {
        let shared = test_shared(2);
        let submitted = NamedCampaign::new(
            "late",
            crate::campaign::named_campaign("tiny-theta").unwrap(),
        );
        let id = enqueue_submission(&shared, submitted).expect("submission accepted");
        assert_eq!(id, 1);
        // An identical resubmission (same name, same digest) is a retry
        // after a lost `SubmitOk`: it must answer with the existing id,
        // not enqueue a second instance and not abort.
        let duplicate = NamedCampaign::new(
            "late",
            crate::campaign::named_campaign("tiny-theta").unwrap(),
        );
        assert_eq!(
            enqueue_submission(&shared, duplicate).expect("idempotent resubmission"),
            1
        );
        // Same name, different spec: that is a genuine conflict.
        let conflicting =
            NamedCampaign::new("late", crate::campaign::named_campaign("tiny").unwrap());
        let err = enqueue_submission(&shared, conflicting).unwrap_err();
        assert!(err.contains("different spec"), "diagnostic: {err}");
        // The new campaign's cells are schedulable (FIFO serves the
        // bind-time campaign first, then the submission).
        let state = shared.lock_state();
        assert_eq!(state.campaigns.len(), 2, "no second instance enqueued");
        assert_eq!(
            state.submissions_accepted, 1,
            "accepted submissions count as serve-loop activity \
             (idempotent retries and rejected conflicts do not)"
        );
        assert_eq!(state.campaigns[1].pending.len(), 4);
        drop(state);
        let (campaign, _) = claim_batch(&shared, 8, u32::MAX).unwrap();
        assert_eq!(campaign, 0);
        let (campaign, batch) = claim_batch(&shared, 8, u32::MAX).unwrap();
        assert_eq!(campaign, 1, "the submitted campaign is scheduled next");
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn submissions_after_the_run_ends_are_refused() {
        let shared = test_shared(2);
        shared.lock_state().fail("done".into());
        let submitted = NamedCampaign::new(
            "late",
            crate::campaign::named_campaign("tiny-theta").unwrap(),
        );
        let err = enqueue_submission(&shared, submitted).unwrap_err();
        assert!(err.contains("already over"), "diagnostic: {err}");
    }
}
