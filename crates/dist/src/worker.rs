//! The campaign worker: executes assigned cells on the in-process pool.
//!
//! A worker is deliberately stateless between batches: it connects,
//! learns every queued [`CampaignSpec`](crate::CampaignSpec) from the
//! coordinator's handshake — plus any campaign submitted later, via
//! [`Message::CampaignAnnounce`] pushes — and then pulls campaign-tagged
//! job batches until the coordinator says [`Message::Finished`]. Cells
//! run on the PR 1 work-stealing pool ([`Parallelism`]), and **baseline
//! caches are shared across campaigns**: campaigns whose [`SetupSpec`]
//! is identical (the common case — several attack kinds over one
//! experiment) resolve to one [`BaselineCache`], so each per-seed
//! baseline is trained, and each layer design's nominal reference
//! simulated, at most once per process no matter how many campaigns
//! are queued or submitted. The cache also holds each seed's inputs
//! (labels and input spike rasters, ≈13 MiB per seed at paper scale,
//! ≈3.4 MiB at quick scale), so no cell regenerates or re-encodes
//! them. Every cache in the process draws on one fixed budget of
//! [`INPUT_BUDGET_BYTES`](neurofi_core::sweep::INPUT_BUDGET_BYTES)
//! (256 MiB). A worker keeps its caches for its lifetime, so once
//! earlier setups fill the budget, a later setup's seeds run per sample.
//!
//! Results stream back in acknowledgement windows: the worker sends one
//! [`Message::Results`] window, waits for the coordinator's
//! [`Message::Ack`] (which guarantees the cells were journaled), then
//! streams the next — so a huge grid never accumulates an unbounded
//! unacknowledged backlog, and a killed worker loses at most one
//! window. A cell that fails to execute is reported individually via
//! [`Message::Failed`] (counting toward its poison cap) while the rest
//! of the batch proceeds.
//!
//! The worker is generic over [`Connection`]: production runs it over
//! TCP ([`run_worker`]), the deterministic scheduler tests run the same
//! code over an in-process loopback link ([`run_worker_on`]).
//!
//! ## Sessions and reconnection
//!
//! A link to the coordinator is one *session*; the worker's life is a
//! loop of sessions ([`run_worker_reconnecting`]). When a session dies
//! — the link severed, a frame lost or corrupted, the conversation
//! desynchronised by a duplicated frame — the worker drops the
//! connection, sleeps a capped exponential backoff with seeded jitter
//! ([`RetryPolicy`]), redials, re-handshakes, and resumes pulling.
//! Three properties make this safe with no worker-side journal:
//!
//! * the coordinator requeues a dead worker's in-flight cells, and its
//!   duplicate-delivery tolerance accepts a re-executed cell as long as
//!   the bits match, so the lost unacked window is simply re-executed;
//! * `WorkerRuntimes` (baseline caches keyed by setup) survives
//!   across sessions in-process, so a reconnect retrains nothing;
//! * the re-handshake is *reconciled* against what the worker already
//!   knows: campaign ids must map to the same name + digest as before,
//!   otherwise the peer is not the coordinator this worker was serving
//!   and the mismatch is a loud protocol error, not silent corruption.
//!
//! Only consecutive failures count against the retry budget — a
//! completed handshake resets it — so a long-lived worker rides through
//! unlimited *separated* link flaps, and a worker started before its
//! coordinator binds the port keeps dialling until it arrives.

use std::net::TcpStream;
use std::time::Duration;

use neurofi_analog::PowerTransferTable;
use neurofi_core::sweep::{execute_cell, mean_baseline_accuracy, run_indexed};
use neurofi_core::{BaselineCache, Parallelism};

use crate::campaign::{NamedCampaign, SetupSpec};
use crate::chaos::SplitMix64;
use crate::transport::{Connection, TcpConnection};
use crate::wire::{Message, PROTOCOL_VERSION};
use crate::{DistError, RetryPolicy};

/// Acknowledgement-window size: cells per unacknowledged `Results`
/// frame, and so the most cells a killed worker can lose.
pub const DEFAULT_ACK_WINDOW: usize = 32;

/// How a worker connects and executes.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Cell-level parallelism on this node (the in-process pool). The
    /// pool width is reported in the `Hello` and drives the
    /// coordinator's capacity-aware batch sizing.
    pub parallelism: Parallelism,
    /// Stop after executing this many cells and disconnect without
    /// ceremony — deliberate preemption (spot instances, tests of the
    /// coordinator's requeue path). `None` runs to completion. It also
    /// caps each request; otherwise the coordinator sizes batches from
    /// the reported thread width.
    pub max_cells: Option<usize>,
    /// Socket timeout for coordinator replies (scheduling and ack
    /// replies are immediate — the coordinator heartbeats empty batches
    /// while work is in flight elsewhere — so this guards against a
    /// dead peer, not against slow cells).
    pub io_timeout: Duration,
    /// Reconnect policy for lost sessions and failed dials. The count
    /// bounds *consecutive* failures: a completed handshake resets it.
    pub retry: RetryPolicy,
}

impl WorkerConfig {
    /// A config with the defaults (auto parallelism, coordinator-sized
    /// batches, no cell budget, default reconnect backoff).
    pub fn new(connect: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            connect: connect.into(),
            parallelism: Parallelism::Auto,
            max_cells: None,
            io_timeout: Duration::from_secs(60),
            retry: RetryPolicy::default(),
        }
    }
}

/// What one worker session accomplished.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSummary {
    /// Cells this worker measured and reported.
    pub cells_executed: usize,
    /// True when the coordinator ended the session with `Finished`
    /// (false when the worker hit its `max_cells` budget and left).
    pub finished: bool,
}

/// Per-campaign execution state on the worker: which shared cache the
/// campaign resolves to, its transfer table, and the lazily derived mean
/// baseline (computed on the campaign's first assigned batch; a cache
/// hit when another campaign over the same setup already trained the
/// seeds).
struct CampaignRuntime {
    name: String,
    digest: u64,
    seeds: Vec<u64>,
    cache: usize,
    transfer: Option<PowerTransferTable>,
    baseline_accuracy: Option<f64>,
}

/// Every campaign this worker knows, with baseline caches deduplicated
/// by [`SetupSpec`] equality so campaigns over the same experiment
/// share per-seed baselines. Grows when the coordinator announces a
/// live-submitted campaign.
struct WorkerRuntimes {
    parallelism: Parallelism,
    setups: Vec<SetupSpec>,
    caches: Vec<BaselineCache>,
    campaigns: Vec<CampaignRuntime>,
}

impl WorkerRuntimes {
    fn new(campaigns: &[NamedCampaign], parallelism: Parallelism) -> Result<Self, DistError> {
        let mut runtimes = WorkerRuntimes {
            parallelism,
            setups: Vec::new(),
            caches: Vec::new(),
            campaigns: Vec::new(),
        };
        for campaign in campaigns {
            runtimes.add(campaign)?;
        }
        Ok(runtimes)
    }

    /// Registers one campaign, resolving it to an existing baseline
    /// cache when its setup matches one already built.
    fn add(&mut self, campaign: &NamedCampaign) -> Result<(), DistError> {
        campaign.spec.validate()?;
        let cache = match self.setups.iter().position(|s| *s == campaign.spec.setup) {
            Some(i) => i,
            None => {
                let setup = campaign
                    .spec
                    .materialize()
                    .with_parallelism(self.parallelism);
                self.setups.push(campaign.spec.setup.clone());
                self.caches.push(BaselineCache::new(&setup));
                self.caches.len() - 1
            }
        };
        self.campaigns.push(CampaignRuntime {
            name: campaign.name.clone(),
            digest: campaign.spec.digest(),
            seeds: campaign.spec.scenario.baseline_seeds().to_vec(),
            cache,
            transfer: campaign.spec.transfer_table()?,
            baseline_accuracy: None,
        });
        Ok(())
    }

    /// Whether slot `id` already holds exactly this campaign.
    fn matches(&self, id: usize, campaign: &NamedCampaign) -> bool {
        let known = &self.campaigns[id];
        known.name == campaign.name && known.digest == campaign.spec.digest()
    }

    /// Handles one [`Message::CampaignAnnounce`]. Announcements arrive
    /// in queue order, so the id is either the next unused one (new
    /// campaign) or an already-known slot — which is fine as long as it
    /// names the *same* campaign (a duplicated announce frame, or a
    /// re-handshake after reconnect, must be idempotent).
    fn announce(&mut self, id: u32, campaign: &NamedCampaign) -> Result<(), DistError> {
        let id = id as usize;
        if id < self.campaigns.len() {
            if self.matches(id, campaign) {
                return Ok(());
            }
            return Err(DistError::Protocol(format!(
                "coordinator announced campaign `{}` as id {id}, but this worker already \
                 holds `{}` there",
                campaign.name, self.campaigns[id].name
            )));
        }
        if id != self.campaigns.len() {
            return Err(DistError::Protocol(format!(
                "coordinator announced campaign `{}` as id {id}, expected {}",
                campaign.name,
                self.campaigns.len()
            )));
        }
        self.add(campaign)
    }

    /// Reconciles a re-handshake's campaign queue against what this
    /// worker already knows: every known id must still map to the same
    /// name and digest (otherwise the peer is a *different* coordinator
    /// and executing its cells against cached baselines would be
    /// corruption), and genuinely new campaigns are appended.
    fn reconcile(&mut self, campaigns: &[NamedCampaign]) -> Result<(), DistError> {
        if campaigns.len() < self.campaigns.len() {
            return Err(DistError::Protocol(format!(
                "re-handshake announced {} campaigns but this worker already knows {} — \
                 the coordinator is not the one this worker was serving",
                campaigns.len(),
                self.campaigns.len()
            )));
        }
        for (id, campaign) in campaigns.iter().enumerate() {
            if id < self.campaigns.len() {
                if !self.matches(id, campaign) {
                    return Err(DistError::Protocol(format!(
                        "re-handshake maps id {id} to campaign `{}` (digest {:#x}) but this \
                         worker knows `{}` (digest {:#x}) there",
                        campaign.name,
                        campaign.spec.digest(),
                        self.campaigns[id].name,
                        self.campaigns[id].digest,
                    )));
                }
            } else {
                self.add(campaign)?;
            }
        }
        Ok(())
    }

    /// The campaign's mean baseline accuracy, derived on first use (a
    /// pure cache hit when another campaign over the same setup already
    /// trained these seeds — the whole point of sharing the fleet).
    fn baseline(&mut self, id: usize) -> f64 {
        if let Some(b) = self.campaigns[id].baseline_accuracy {
            return b;
        }
        let cache = &self.caches[self.campaigns[id].cache];
        let b = mean_baseline_accuracy(cache, &self.campaigns[id].seeds);
        self.campaigns[id].baseline_accuracy = Some(b);
        b
    }
}

/// Receives the next protocol message, buffering any
/// [`Message::CampaignAnnounce`] pushed ahead of the actual reply (the
/// caller applies the buffer to its [`WorkerRuntimes`] before touching
/// a campaign id — the coordinator guarantees the announce precedes the
/// first reply referencing the id).
fn recv_reply<C: Connection>(
    conn: &mut C,
    pending: &mut Vec<(u32, NamedCampaign)>,
) -> Result<Message, DistError> {
    loop {
        match conn.recv()? {
            Message::CampaignAnnounce { id, campaign } => pending.push((id, campaign)),
            other => return Ok(other),
        }
    }
}

/// Registers every buffered announcement, in arrival order.
fn apply_announcements(
    runtimes: &mut WorkerRuntimes,
    pending: &mut Vec<(u32, NamedCampaign)>,
) -> Result<(), DistError> {
    for (id, campaign) in pending.drain(..) {
        runtimes.announce(id, &campaign)?;
    }
    Ok(())
}

/// How one session over one connection ended.
enum SessionEnd {
    /// The coordinator said [`Message::Finished`]: every campaign done.
    Finished,
    /// This worker's `max_cells` budget ran out (deliberate preemption).
    Budget,
    /// The link died or the conversation desynchronised (a dropped,
    /// duplicated, or truncated frame). Recoverable: drop the
    /// connection, redial, re-handshake — the coordinator requeues the
    /// unacked window and tolerates bit-identical re-delivery.
    Lost {
        /// Whether the handshake completed before the loss (resets the
        /// consecutive-failure count: the coordinator was alive).
        handshaken: bool,
        /// What went wrong (surfaced if the retry budget runs out).
        error: DistError,
    },
    /// Unrecoverable: the coordinator aborted, rejected the protocol
    /// version, or is demonstrably not the coordinator this worker was
    /// serving. Retrying would loop on the same answer.
    Fatal(DistError),
}

/// One session: handshake (or re-handshake), then pull/execute/stream
/// until the run ends, the budget runs out, or the link dies.
///
/// `runtimes_slot` and `executed` belong to the worker's whole life,
/// not the session — baseline caches survive reconnects (nothing is
/// retrained) and the cell budget counts across sessions.
fn worker_session<C: Connection>(
    mut conn: C,
    config: &WorkerConfig,
    runtimes_slot: &mut Option<WorkerRuntimes>,
    executed: &mut usize,
) -> SessionEnd {
    let lost = |handshaken: bool, error: DistError| SessionEnd::Lost { handshaken, error };
    let desync = |handshaken: bool, context: &str, got: &Message| SessionEnd::Lost {
        handshaken,
        error: DistError::Protocol(format!(
            "session desynchronised: expected {context}, got {got:?}"
        )),
    };

    conn.set_recv_timeout(Some(config.io_timeout));
    let pool_width = config.parallelism.worker_count();
    if let Err(e) = conn.send(&Message::Hello {
        protocol: PROTOCOL_VERSION,
        threads: pool_width as u32,
    }) {
        return lost(false, e);
    }

    let campaigns = match conn.recv() {
        Ok(Message::Campaigns { campaigns }) => campaigns,
        Ok(Message::Abort { reason }) => return SessionEnd::Fatal(DistError::Aborted(reason)),
        Ok(other) => return desync(false, "campaign-queue handshake", &other),
        Err(e) => return lost(false, e),
    };
    let runtimes = match runtimes_slot {
        None => match WorkerRuntimes::new(&campaigns, config.parallelism) {
            Ok(runtimes) => runtimes_slot.insert(runtimes),
            Err(e) => return SessionEnd::Fatal(e),
        },
        // Reconnect: the queue must still be the one this worker knows.
        Some(runtimes) => {
            if let Err(e) = runtimes.reconcile(&campaigns) {
                return SessionEnd::Fatal(e);
            }
            runtimes
        }
    };
    let mut pending: Vec<(u32, NamedCampaign)> = Vec::new();

    loop {
        let budget = match config.max_cells {
            Some(max) => {
                if *executed >= max {
                    // Preemption: vanish, exactly like a killed process.
                    return SessionEnd::Budget;
                }
                max - *executed
            }
            None => usize::MAX,
        };
        if let Err(e) = conn.send(&Message::Request {
            max_cells: budget.min(u32::MAX as usize) as u32,
        }) {
            return lost(true, e);
        }

        let (campaign, jobs) = match recv_reply(&mut conn, &mut pending) {
            Ok(Message::Assign { campaign, jobs }) => (campaign, jobs),
            Ok(Message::Finished) => return SessionEnd::Finished,
            Ok(Message::Abort { reason }) => return SessionEnd::Fatal(DistError::Aborted(reason)),
            Ok(other) => return desync(true, "assignment", &other),
            Err(e) => return lost(true, e),
        };
        // Any campaign submitted since the last reply was announced
        // ahead of this Assign: register it before resolving the id. A
        // mismatched announcement sequence means frames were lost or
        // duplicated in flight — reconnecting re-learns the queue, and
        // a genuinely different coordinator is caught at re-handshake.
        if let Err(e) = apply_announcements(runtimes, &mut pending) {
            return lost(true, e);
        }
        if jobs.is_empty() {
            // Keep-alive: nothing pending right now (work is in flight on
            // other workers). Back off briefly and ask again.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        if campaign as usize >= runtimes.campaigns.len() {
            // An Assign referencing a campaign this worker never saw
            // announced: the announce frame was lost in flight. A
            // re-handshake re-learns the full queue.
            return lost(
                true,
                DistError::Protocol(format!(
                    "coordinator assigned cells for unknown campaign {campaign}"
                )),
            );
        }

        // First batch of this campaign: derive the mean baseline (a
        // cache hit when another campaign shares the setup).
        let baseline_accuracy = runtimes.baseline(campaign as usize);
        let runtime = &runtimes.campaigns[campaign as usize];
        let cache = &runtimes.caches[runtime.cache];

        // Execute and stream the batch in acknowledgement windows; each
        // window is journaled by the coordinator before it is acked.
        for window in jobs.chunks(DEFAULT_ACK_WINDOW) {
            let measured = run_indexed(window.len(), config.parallelism, |i| {
                execute_cell(
                    cache,
                    &runtime.seeds,
                    baseline_accuracy,
                    &window[i],
                    runtime.transfer.as_ref(),
                )
            });
            let mut results = Vec::with_capacity(window.len());
            for (job, outcome) in window.iter().zip(measured) {
                match outcome {
                    Ok(result) => results.push(result),
                    // A cell this node cannot execute: report it
                    // individually (it counts toward the cell's poison
                    // cap) and keep serving the rest of the batch.
                    Err(e) => {
                        if let Err(send_err) = conn.send(&Message::Failed {
                            campaign,
                            index: job.index as u64,
                            reason: e.to_string(),
                        }) {
                            return lost(true, send_err);
                        }
                    }
                }
            }
            if results.is_empty() {
                continue;
            }
            let sent = results.len();
            if let Err(e) = conn.send(&Message::Results {
                campaign,
                baseline_accuracy,
                results,
            }) {
                return lost(true, e);
            }
            match recv_reply(&mut conn, &mut pending) {
                Ok(Message::Ack {
                    campaign: acked_campaign,
                    received,
                }) => {
                    if acked_campaign != campaign || received as usize != sent {
                        // A stale ack from a duplicated frame: resync by
                        // reconnecting (the coordinator journals before
                        // acking, so nothing is lost either way).
                        return lost(
                            true,
                            DistError::Protocol(format!(
                                "acknowledgement mismatch: sent {sent} cells for campaign \
                                 {campaign}, ack covers {received} for campaign {acked_campaign}"
                            )),
                        );
                    }
                }
                Ok(Message::Abort { reason }) => {
                    return SessionEnd::Fatal(DistError::Aborted(reason))
                }
                Ok(other) => return desync(true, "window acknowledgement", &other),
                Err(e) => return lost(true, e),
            }
            *executed += sent;
        }
    }
}

/// Connects to a coordinator over TCP and works until every queued
/// campaign finishes, the cell budget runs out, or the coordinator
/// aborts — reconnecting through link losses per the config's
/// [`RetryPolicy`]. A worker started before its coordinator binds the
/// port keeps dialling until the retry budget runs out.
///
/// # Errors
/// See [`run_worker_reconnecting`].
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerSummary, DistError> {
    run_worker_reconnecting(
        || {
            let stream = TcpStream::connect(&config.connect)?;
            Ok(TcpConnection::new(stream))
        },
        config,
    )
}

/// Works an already-established [`Connection`] for exactly one session —
/// no reconnection. [`run_worker`] wraps the same session logic in the
/// retry loop; deterministic single-session tests call this directly.
///
/// # Errors
/// Propagates link and protocol failures, and surfaces a coordinator
/// [`Message::Abort`] as [`DistError::Aborted`]. A cell that fails
/// execution is reported to the coordinator ([`Message::Failed`]) and
/// does *not* end the session.
pub fn run_worker_on<C: Connection>(
    conn: C,
    config: &WorkerConfig,
) -> Result<WorkerSummary, DistError> {
    let mut runtimes = None;
    let mut executed = 0usize;
    match worker_session(conn, config, &mut runtimes, &mut executed) {
        SessionEnd::Finished => Ok(WorkerSummary {
            cells_executed: executed,
            finished: true,
        }),
        SessionEnd::Budget => Ok(WorkerSummary {
            cells_executed: executed,
            finished: false,
        }),
        SessionEnd::Lost { error, .. } | SessionEnd::Fatal(error) => Err(error),
    }
}

/// The worker's whole life as a loop of sessions over connections
/// produced by `connect`: dial, handshake, pull and execute until the
/// link dies, then back off (capped exponential with seeded jitter),
/// redial, re-handshake, resume. Baseline caches and the cell budget
/// persist across sessions, so a reconnect retrains nothing and
/// recomputes nothing that was acknowledged.
///
/// Only *consecutive* failures count against `retry.max_retries`; any
/// completed handshake resets the count, so a long-lived worker rides
/// through unlimited separated link flaps.
///
/// # Errors
/// Returns the last error once the retry budget is exhausted, and
/// immediately on fatal conditions (coordinator [`Message::Abort`],
/// protocol-version rejection, or a re-handshake proving the peer is a
/// different coordinator).
pub fn run_worker_reconnecting<C, F>(
    mut connect: F,
    config: &WorkerConfig,
) -> Result<WorkerSummary, DistError>
where
    C: Connection,
    F: FnMut() -> Result<C, DistError>,
{
    let mut rng = SplitMix64::new(config.retry.seed);
    let mut runtimes: Option<WorkerRuntimes> = None;
    let mut executed = 0usize;
    let mut consecutive_failures = 0u32;
    loop {
        let end = match connect() {
            Ok(conn) => worker_session(conn, config, &mut runtimes, &mut executed),
            Err(error) => SessionEnd::Lost {
                handshaken: false,
                error,
            },
        };
        match end {
            SessionEnd::Finished => {
                return Ok(WorkerSummary {
                    cells_executed: executed,
                    finished: true,
                })
            }
            SessionEnd::Budget => {
                return Ok(WorkerSummary {
                    cells_executed: executed,
                    finished: false,
                })
            }
            SessionEnd::Fatal(error) => return Err(error),
            SessionEnd::Lost { handshaken, error } => {
                if handshaken {
                    consecutive_failures = 0;
                }
                if consecutive_failures >= config.retry.max_retries {
                    return Err(error);
                }
                std::thread::sleep(config.retry.delay(consecutive_failures, &mut rng));
                consecutive_failures += 1;
            }
        }
    }
}
