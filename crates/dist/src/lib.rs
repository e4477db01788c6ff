//! # neurofi-dist
//!
//! Distributed sweep orchestration: shards the paper's
//! `rel_changes × fractions × seeds × attack-kind` cell grids across
//! worker processes and machines, with checkpoint/resume, while keeping
//! the merged [`SweepResult`](neurofi_core::SweepResult) **bit-identical**
//! to a serial in-process run.
//!
//! Built entirely on `std` (TCP from `std::net`, hand-rolled binary
//! serialisation) because the workspace builds offline — no tokio, no
//! serde, no crates.io.
//!
//! ## Architecture
//!
//! * [`campaign`] — [`CampaignSpec`]: a self-contained, serialisable
//!   description of one sweep campaign (experiment preset and scale
//!   knobs plus a declarative N-axis
//!   [`ScenarioSpec`](neurofi_core::ScenarioSpec)), with a digest that
//!   binds journals and handshakes to the exact campaign. The preset
//!   catalog ([`named_campaign`]) and the spec-file grammar
//!   ([`parse_campaign_text`]) both expand to the same specs.
//!   [`NamedCampaign`] queues several on one coordinator, each with a
//!   scheduling weight.
//! * [`wire`] — length-prefixed framing and defensive binary encoding of
//!   the coordinator/worker [`Message`]s (v4: campaigns carry whole
//!   scenario specs, and cell jobs carry resolved composite attacks, so
//!   live [`Submit`](wire::Message::Submit) frames can enqueue
//!   *arbitrary* cross-product grids — not just catalog names); floats
//!   travel as IEEE-754 bit patterns.
//! * [`transport`] — the [`Connection`] / [`Listener`] abstraction the
//!   coordinator and worker are generic over: TCP in production, a
//!   deterministic in-process [`LoopbackHub`] in the scheduler tests (no
//!   ports, no timing sleeps).
//! * [`schedule`] — pluggable cross-campaign [`SchedulingPolicy`]: FIFO
//!   for compatibility, weighted round-robin (`--fair`) so interleaved
//!   campaigns all make latency progress. Policies cannot affect merged
//!   results — cells are pure and merges slot-addressed.
//! * [`coordinator`] — pull-based multi-campaign scheduler: one fleet
//!   serves every queued campaign, batches are sized by each worker's
//!   reported thread width, and dead workers' cells requeue without
//!   advancing the poison cap (explicit execution failures advance it;
//!   a large orphan backstop terminates worker-crashing cells; a
//!   poisoned campaign never takes the healthy ones down with it).
//!   Campaigns may be submitted to a *running* coordinator; every
//!   completed cell is journaled before its window is acked.
//! * [`control`] — the submission client (`repro submit`).
//! * [`worker`] — executes campaign-tagged batches on the PR 1
//!   in-process pool; campaigns over the same setup share one
//!   [`BaselineCache`](neurofi_core::BaselineCache) per process, so
//!   per-seed baselines are trained, and layer references simulated,
//!   once no matter how many campaigns are queued or submitted.
//! * [`checkpoint`] — the append-only journals (one per campaign)
//!   interrupted runs resume from without recomputing finished cells.
//!
//! ## Quickstart (in-process cluster over localhost TCP)
//!
//! ```no_run
//! use neurofi_core::Parallelism;
//! use neurofi_dist::{named_campaign, run_local_cluster, CoordinatorConfig, NamedCampaign};
//!
//! let campaigns = vec![
//!     NamedCampaign::new("tiny", named_campaign("tiny").unwrap()),
//!     NamedCampaign::new("tiny-theta", named_campaign("tiny-theta").unwrap()),
//! ];
//! let config = CoordinatorConfig::with_campaigns("127.0.0.1:0", campaigns);
//! let report = run_local_cluster(config, 2, Parallelism::Serial, None)?;
//! for sweep in &report.run.campaigns {
//!     println!("campaign `{}`: {} cells merged", sweep.name, sweep.result.cells.len());
//! }
//! # Ok::<(), neurofi_dist::DistError>(())
//! ```
//!
//! Across machines, run `repro serve` on one host and
//! `repro work --connect host:port` on the rest.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod control;
pub mod coordinator;
pub mod schedule;
pub mod transport;
pub mod wire;
pub mod worker;

use std::path::PathBuf;
use std::time::Duration;

use neurofi_core::Parallelism;

pub use campaign::{
    named_campaign, parse_campaign_text, CampaignSpec, NamedCampaign, ParsedCampaign, SetupBase,
    SetupSpec, NAMED_CAMPAIGNS,
};
pub use chaos::{
    ChaosConnection, ChaosDialer, ChaosListener, ConnectionFaults, FaultSchedule, SplitMix64,
};
pub use checkpoint::Journal;
pub use control::{
    query_status, query_status_on, submit_campaign_retrying, submit_on, submit_with_retry,
};
pub use coordinator::{
    campaign_journal_path, capacity_batch, serve_transport, CampaignSweep, CoordinatedRun,
    Coordinator, CoordinatorConfig, CELLS_PER_THREAD,
};
pub use schedule::{Candidate, Fifo, PolicyKind, SchedulingPolicy, WeightedRoundRobin};
pub use transport::{
    loopback_pair, Connection, Listener, LoopbackConn, LoopbackHub, LoopbackListener,
    TcpConnection, TcpServerListener,
};
pub use wire::{
    clamp_str, CampaignProgress, Message, WireError, MAX_FRAME_LEN, MAX_NAME_LEN, MAX_REASON_LEN,
    PROTOCOL_VERSION,
};
pub use worker::{
    run_worker, run_worker_on, run_worker_reconnecting, WorkerConfig, WorkerSummary,
    DEFAULT_ACK_WINDOW,
};

/// Any error produced by the distributed layer.
#[derive(Debug)]
pub enum DistError {
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// A frame or message could not be encoded/decoded.
    Wire(WireError),
    /// The peer violated the protocol (bad handshake, unexpected
    /// message, divergent determinism fingerprint, poisoned cell, ...).
    Protocol(String),
    /// The peer abandoned the campaign and said why.
    Aborted(String),
    /// A checkpoint journal could not be used.
    Journal(String),
    /// The content-addressed result store refused an operation
    /// (corruption, i/o, or a conflicting record under one digest).
    Store(neurofi_store::StoreError),
    /// Executing or assembling cells failed in the core engine.
    Core(neurofi_core::Error),
    /// The coordinator gave up with work remaining (no workers for the
    /// idle timeout). The journal, when present, holds the progress;
    /// rerunning the same command resumes it.
    Incomplete {
        /// Cells measured so far (journaled when a journal is set).
        done: usize,
        /// Cells in the campaign.
        total: usize,
        /// The journal base path holding the progress, if checkpointing
        /// was on (per-campaign files are derived from it — see
        /// [`campaign_journal_path`]).
        journal: Option<PathBuf>,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "i/o failed: {e}"),
            DistError::Wire(e) => write!(f, "wire protocol failed: {e}"),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::Aborted(reason) => write!(f, "campaign aborted by peer: {reason}"),
            DistError::Journal(msg) => write!(f, "checkpoint journal unusable: {msg}"),
            DistError::Store(e) => write!(f, "result store unusable: {e}"),
            DistError::Core(e) => write!(f, "sweep execution failed: {e}"),
            DistError::Incomplete {
                done,
                total,
                journal,
            } => match journal {
                Some(path) => write!(
                    f,
                    "campaign incomplete ({done}/{total} cells): no workers connected; \
                     progress checkpointed under {} — rerun the same command to resume \
                     every queued campaign",
                    path.display()
                ),
                None => write!(
                    f,
                    "campaign incomplete ({done}/{total} cells): no workers connected \
                     and no --journal was set, so progress was not checkpointed"
                ),
            },
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Wire(e) => Some(e),
            DistError::Core(e) => Some(e),
            DistError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<neurofi_store::StoreError> for DistError {
    fn from(e: neurofi_store::StoreError) -> DistError {
        DistError::Store(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> DistError {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> DistError {
        // An i/o failure underneath the wire layer is an i/o failure.
        match e {
            WireError::Io(io) => DistError::Io(io),
            other => DistError::Wire(other),
        }
    }
}

impl From<neurofi_core::Error> for DistError {
    fn from(e: neurofi_core::Error) -> DistError {
        DistError::Core(e)
    }
}

/// How a client (worker or submitter) retries a failed link: capped
/// exponential backoff with seeded jitter.
///
/// Attempt `n` (0-based) sleeps `backoff × 2ⁿ`, capped at
/// `max_backoff`, then scaled by a jitter factor in `[0.5, 1.5)` drawn
/// from a [`SplitMix64`] stream seeded with `seed` — so two workers
/// given different seeds do not reconnect in lockstep, yet a given
/// seed's timing replays exactly (which the chaos suite relies on).
///
/// Retries are *consecutive-failure* bounded: a worker that completes a
/// handshake resets its failure count, so a long-lived worker rides
/// through any number of separated link flaps, while a coordinator
/// that is truly gone is given up on after `max_retries + 1` dials.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// How many consecutive failed attempts to retry before giving up
    /// (0 = fail on the first error, preserving pre-retry behaviour).
    pub max_retries: u32,
    /// Base delay before the first retry.
    pub backoff: Duration,
    /// Ceiling on the exponentially grown delay.
    pub max_backoff: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff: Duration::from_millis(250),
            max_backoff: Duration::from_secs(5),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single-shot, pre-retry behaviour).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Same policy, different jitter seed (give each worker its own).
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The sleep before retry number `attempt` (0-based), jittered by
    /// `rng`.
    pub fn delay(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let doublings = attempt.min(16);
        let grown = self.backoff.saturating_mul(1u32 << doublings);
        let capped = grown.min(self.max_backoff);
        capped.mul_f64(0.5 + rng.unit_f64())
    }
}

/// What a local cluster run produced.
#[derive(Debug)]
pub struct LocalClusterReport {
    /// The coordinator's merged sweeps, one per queued campaign.
    pub run: CoordinatedRun,
    /// Per-worker outcomes, in spawn order. Workers that error *after*
    /// the run completed (their socket was shut down while they were
    /// computing requeued duplicates) are reported, not fatal.
    pub workers: Vec<Result<WorkerSummary, DistError>>,
}

/// Runs `config`'s coordinator and `workers` in-process workers over
/// localhost TCP and returns the merged sweeps. The transport is the
/// real wire protocol — this is the same code path as a multi-machine
/// campaign, minus the machines.
///
/// Each worker runs its batches on a `parallelism`-wide pool and, with
/// `max_cells`, leaves after that many cells (preemption — exercises
/// the requeue/resume path). Workers never reconnect
/// ([`RetryPolicy::none`]: they and their coordinator die together, so
/// redialling after the run ends would only delay exit) and keep
/// [`WorkerConfig::new`]'s 60 s I/O timeout.
///
/// # Errors
/// Propagates the coordinator's failure (worker failures are reported in
/// the [`LocalClusterReport`] but only fail the run when the coordinator
/// also fails).
pub fn run_local_cluster(
    config: CoordinatorConfig,
    workers: usize,
    parallelism: Parallelism,
    max_cells: Option<usize>,
) -> Result<LocalClusterReport, DistError> {
    let coordinator = Coordinator::bind(config)?;
    let addr = coordinator.local_addr()?;

    std::thread::scope(|scope| {
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let worker_config = WorkerConfig {
                    parallelism,
                    max_cells,
                    retry: RetryPolicy::none(),
                    ..WorkerConfig::new(addr.to_string())
                };
                scope.spawn(move || run_worker(&worker_config))
            })
            .collect();

        let run = coordinator.serve();
        let workers: Vec<Result<WorkerSummary, DistError>> = worker_handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(DistError::Protocol("worker thread panicked".into())))
            })
            .collect();
        run.map(|run| LocalClusterReport { run, workers })
    })
}
