//! Length-prefixed framing and hand-rolled binary serialisation.
//!
//! The workspace builds offline, so there is no serde / bincode / tokio:
//! every value that crosses a socket is encoded by hand into a
//! big-endian byte buffer and shipped as one frame (`u32` length prefix
//! followed by the payload). Floats travel as IEEE-754 bit patterns,
//! which is what makes the distributed merge *bit*-identical to a
//! serial sweep rather than merely close.
//!
//! Decoding is defensive: frames larger than [`MAX_FRAME_LEN`] are
//! rejected before any allocation, truncated buffers fail with
//! [`WireError::Truncated`], and collection length prefixes are checked
//! against the bytes actually present so a hostile or corrupt header
//! cannot trigger an outsized allocation.

use std::io::{Read, Write};

use neurofi_analog::TransferPoint;
use neurofi_core::scenario::{
    AttackFamily, Axis, AxisKind, AxisValues, DefenseSel, DetectorSel, LayerSel, ScenarioSpec,
};
use neurofi_core::sweep::{CellAttack, CellJob, CellResult, SweepCell};

use crate::campaign::{CampaignSpec, NamedCampaign, SetupBase, SetupSpec};

/// Wire-protocol version; bumped on any incompatible encoding change.
///
/// v2: multi-campaign coordination. The handshake carries every queued
/// campaign ([`Message::Campaigns`]), `Assign`/`Results` frames are
/// campaign-tagged, result windows are acknowledged ([`Message::Ack`]),
/// and per-cell execution failures travel as [`Message::Failed`] instead
/// of aborting the whole connection.
///
/// v3: the control plane. A running coordinator accepts live campaign
/// submission ([`Message::Submit`] → [`Message::SubmitOk`]) and pushes
/// [`Message::CampaignAnnounce`] frames to connected workers before the
/// first reply that references the new campaign id. Campaign-queue
/// entries additionally carry their scheduling weight (the weighted
/// round-robin policy knob), which changes the `Campaigns` frame layout.
///
/// v4: declarative scenarios. Campaigns carry a full N-axis
/// [`ScenarioSpec`] (attack family, typed axes, seeds, transfer table)
/// instead of the three hardcoded grid shapes, so `repro submit` can
/// enqueue arbitrary cross products; cell jobs carry the resolved
/// composite [`CellAttack`] (optional threshold, theta, VDD, and seed
/// components) instead of a single-family coordinate pair.
///
/// v5: service mode. A status client opens a connection with
/// [`Message::Status`] (in place of a worker `Hello` or control
/// `Submit`) and the coordinator answers each poll with a
/// [`Message::Progress`] snapshot: per-campaign queued / running /
/// done / resumed / store-hit counters from the content-addressed
/// result store that now fronts cell assignment.
///
/// v6: countermeasure axes. Scenario specs may carry `defense` and
/// `detector` axes (§V hardenings and the §V-C dummy-neuron detector),
/// cell jobs unconditionally carry the resolved [`DefenseSel`] /
/// [`DetectorSel`] component tags, and [`CampaignProgress`] snapshots
/// gain `detected` / `missed` detection counters. Store digests are
/// *not* re-keyed for legacy cells: they hash through
/// [`encode_attack_digest`], which only appends the countermeasure
/// suffix when a cell actually carries one.
///
/// v7: the whole-layer netlist workload. Scenario specs may carry a
/// `neurons` axis (tag 9, integer values), and cell jobs carry the
/// resolved optional neuron-count component after the countermeasure
/// tags. Store digests follow the v6 pattern: legacy cells keep their
/// exact key, and a layer cell appends a `0x02` marker followed by its
/// neuron count ([`encode_attack_digest`]).
pub const PROTOCOL_VERSION: u32 = 7;

/// Upper bound on a single frame's payload (16 MiB). The largest real
/// message is an [`Message::Assign`] batch of cell jobs (~40 bytes per
/// job), so this is generous headroom, not a constraint.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Upper bound on a campaign name on the wire. Names key journals,
/// report rows, and the idempotent-resubmission check, so they are
/// never silently truncated: an overlong name is rejected at both ends
/// (the reader refuses to allocate it, [`validate_queue`] and the
/// submission path refuse to send it).
///
/// [`validate_queue`]: crate::coordinator
pub const MAX_NAME_LEN: usize = 256;

/// Upper bound on a free-text reason field (`Failed` execution reports,
/// `Abort` reasons — which can carry a poisoned campaign's whole
/// failure log). Unlike names, reasons are diagnostics: writers clamp
/// them to this cap at encode time (on a char boundary) rather than
/// failing, and readers refuse to allocate past it.
pub const MAX_REASON_LEN: usize = 64 * 1024;

/// Truncates `s` to at most `max` bytes on a `char` boundary.
pub fn clamp_str(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    // `end <= max < s.len()` and sits on a char boundary, so the slice
    // always exists; the fallback keeps the function panic-free anyway.
    s.get(..end).unwrap_or(s)
}

/// Errors produced while encoding, framing, or decoding.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket/stream failed.
    Io(std::io::Error),
    /// The buffer ended before the value was complete.
    Truncated,
    /// A frame header announced a payload larger than [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// A payload had bytes left over after the message was decoded.
    TrailingBytes(usize),
    /// An enum tag or field had no valid interpretation.
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::Truncated => write!(f, "frame truncated mid-value"),
            WireError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Invalid(msg) => write!(f, "invalid wire value: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Append-only big-endian encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length prefix for a collection of `len` items.
    pub fn seq_len(&mut self, len: usize) {
        self.u32(len as u32);
    }
}

/// Cursor-based decoder over one frame's payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decodes from `buf`, starting at its beginning.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into a fixed array (no panic path: the
    /// length is checked by `take` before the copy).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [byte] = self.take_array::<1>()?;
        Ok(byte)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `usize` (rejecting values that overflow the platform).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Invalid("usize overflows platform width".into()))
    }

    /// Reads a length-prefixed UTF-8 string, capped at
    /// [`MAX_REASON_LEN`] (the most permissive field cap; the fields this
    /// module decodes use `capped_string` with their own cap).
    pub fn string(&mut self) -> Result<String, WireError> {
        self.capped_string("string", MAX_REASON_LEN)
    }

    /// Reads a length-prefixed UTF-8 string, rejecting any announced
    /// length over `max` *before* allocating — the shared allocation
    /// guard every variable-length text field decodes through. `what`
    /// names the field in the error.
    fn capped_string(&mut self, what: &str, max: usize) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(WireError::Invalid(format!(
                "{what} of {len} bytes exceeds its {max}-byte cap"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid(format!("{what} is not UTF-8")))
    }

    /// Reads a collection length prefix, verifying that at least
    /// `min_item_bytes * len` bytes are actually present — a corrupt
    /// length can therefore never provoke an outsized allocation.
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(len)
    }
}

/// Writes `payload` as one length-prefixed frame.
///
/// # Errors
/// Rejects oversized payloads; propagates stream failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized(payload.len()));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. Oversized length prefixes are
/// rejected before the payload is allocated or read.
///
/// # Errors
/// Propagates stream failures (including truncation mid-frame, which
/// surfaces as [`WireError::Io`] with `UnexpectedEof`).
pub fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Everything coordinator and worker say to each other.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: introduce yourself.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Worker-pool threads the peer will run cells on. The
        /// coordinator sizes batches from this (capacity-aware
        /// scheduling), so it must reflect real execution width.
        threads: u32,
    },
    /// Coordinator → worker: every campaign queued on this coordinator.
    /// Campaign ids used by the other messages are indices into this
    /// list.
    Campaigns {
        /// The full, self-contained campaign descriptions, in queue
        /// order.
        campaigns: Vec<NamedCampaign>,
    },
    /// Worker → coordinator: give me up to `max_cells` jobs (from any
    /// campaign — the coordinator picks).
    Request {
        /// Batch-size cap for the next assignment (budget/CLI caps; the
        /// coordinator further sizes the batch by the worker's reported
        /// threads).
        max_cells: u32,
    },
    /// Coordinator → worker: a shard of jobs from one campaign (possibly
    /// empty, meaning "nothing available yet — ask again").
    Assign {
        /// Which campaign the jobs belong to.
        campaign: u32,
        /// The assigned cell jobs.
        jobs: Vec<CellJob>,
    },
    /// Worker → coordinator: one acknowledgement window of measured
    /// cells plus the worker's locally derived mean baseline accuracy
    /// for the campaign (the coordinator cross-checks the bits across
    /// workers to catch non-deterministic runners). The coordinator
    /// journals the cells and answers with [`Message::Ack`].
    Results {
        /// Which campaign the cells belong to.
        campaign: u32,
        /// The worker's mean fault-free baseline accuracy for this
        /// campaign.
        baseline_accuracy: f64,
        /// The measured cells.
        results: Vec<CellResult>,
    },
    /// Coordinator → worker: the preceding [`Message::Results`] window
    /// was journaled; the worker may drop it and stream the next.
    Ack {
        /// The campaign the acknowledged window belonged to.
        campaign: u32,
        /// How many cells were received in the window.
        received: u32,
    },
    /// Worker → coordinator: one cell failed to execute on this node
    /// (the rest of the batch is unaffected). Counts toward the cell's
    /// poison cap — unlike a worker death, which requeues for free.
    Failed {
        /// The campaign the failing cell belongs to.
        campaign: u32,
        /// The failing cell's slot index.
        index: u64,
        /// Why execution failed.
        reason: String,
    },
    /// Coordinator → worker: every campaign is complete; disconnect.
    Finished,
    /// Either direction: the run is being abandoned.
    Abort {
        /// Human-readable reason.
        reason: String,
    },
    /// Control client → coordinator: enqueue this campaign on the
    /// *running* coordinator (it is scheduled, journaled, and merged
    /// exactly as a bind-time campaign would be). Sent as the first
    /// frame of a control connection, in place of a worker `Hello`.
    Submit {
        /// The submitter's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// The campaign to enqueue (name, scheduling weight, spec).
        campaign: NamedCampaign,
    },
    /// Coordinator → control client: the submitted campaign was
    /// validated, journal-bound, and enqueued under this campaign id.
    /// Rejections travel as [`Message::Abort`] with the reason.
    SubmitOk {
        /// The queue id the campaign was enqueued under.
        id: u32,
    },
    /// Coordinator → worker: a campaign was submitted after your
    /// handshake. Announcements are pushed before the first `Assign` or
    /// `Ack` that references the new id, so a worker always knows a
    /// campaign before it sees the id on the wire.
    CampaignAnnounce {
        /// The new campaign's queue id (always the next unused id —
        /// announcements arrive in queue order).
        id: u32,
        /// The full campaign description.
        campaign: NamedCampaign,
    },
    /// Status client → coordinator: send me a progress snapshot. Sent
    /// as the first frame of a status connection (in place of a worker
    /// `Hello` or control `Submit`), then repeated to poll; each one is
    /// answered with a [`Message::Progress`].
    Status {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Coordinator → status client: one point-in-time snapshot of every
    /// campaign on the coordinator, in queue order.
    Progress {
        /// Per-campaign progress counters.
        campaigns: Vec<CampaignProgress>,
    },
}

/// One campaign's progress counters inside a [`Message::Progress`]
/// snapshot. `total = queued + running + done`; `done` includes both
/// `resumed` (journal replay) and `store_hits` (content-addressed store
/// lookups that skipped worker execution entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignProgress {
    /// The campaign's submitted name.
    pub name: String,
    /// Total cells in the campaign's plan.
    pub total: u64,
    /// Cells waiting for a worker.
    pub queued: u64,
    /// Cells currently assigned to workers.
    pub running: u64,
    /// Cells with a recorded result.
    pub done: u64,
    /// Cells recovered from the campaign's journal at enqueue time.
    pub resumed: u64,
    /// Cells satisfied by the result store without worker execution.
    pub store_hits: u64,
    /// Detector-armed cells whose dummy neuron trips the ≥10% rule
    /// (derived from the plan at enqueue time — detection is a pure
    /// function of the attack, not of execution).
    pub detected: u64,
    /// Detector-armed off-nominal cells the dummy neuron stays quiet on
    /// (false negatives).
    pub missed: u64,
    /// Whether the campaign is poisoned (failed and abandoned).
    pub failed: bool,
}

const TAG_HELLO: u8 = 0;
const TAG_CAMPAIGNS: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_ASSIGN: u8 = 3;
const TAG_RESULTS: u8 = 4;
const TAG_FINISHED: u8 = 5;
const TAG_ABORT: u8 = 6;
const TAG_ACK: u8 = 7;
const TAG_FAILED: u8 = 8;
const TAG_SUBMIT: u8 = 9;
const TAG_SUBMIT_OK: u8 = 10;
const TAG_ANNOUNCE: u8 = 11;
const TAG_STATUS: u8 = 12;
const TAG_PROGRESS: u8 = 13;

fn encode_campaign_progress(enc: &mut Encoder, progress: &CampaignProgress) {
    enc.string(clamp_str(&progress.name, MAX_NAME_LEN));
    enc.u64(progress.total);
    enc.u64(progress.queued);
    enc.u64(progress.running);
    enc.u64(progress.done);
    enc.u64(progress.resumed);
    enc.u64(progress.store_hits);
    enc.u64(progress.detected);
    enc.u64(progress.missed);
    enc.u8(progress.failed as u8);
}

fn decode_campaign_progress(dec: &mut Decoder<'_>) -> Result<CampaignProgress, WireError> {
    Ok(CampaignProgress {
        name: dec.capped_string("campaign name", MAX_NAME_LEN)?,
        total: dec.u64()?,
        queued: dec.u64()?,
        running: dec.u64()?,
        done: dec.u64()?,
        resumed: dec.u64()?,
        store_hits: dec.u64()?,
        detected: dec.u64()?,
        missed: dec.u64()?,
        failed: match dec.u8()? {
            0 => false,
            1 => true,
            tag => {
                return Err(WireError::Invalid(format!(
                    "unknown bool tag {tag} for campaign failure flag"
                )))
            }
        },
    })
}

fn encode_layer_sel(enc: &mut Encoder, sel: LayerSel) {
    enc.u8(match sel {
        LayerSel::Excitatory => 0,
        LayerSel::Inhibitory => 1,
        LayerSel::Both => 2,
    });
}

fn decode_layer_sel(dec: &mut Decoder<'_>) -> Result<LayerSel, WireError> {
    match dec.u8()? {
        0 => Ok(LayerSel::Excitatory),
        1 => Ok(LayerSel::Inhibitory),
        2 => Ok(LayerSel::Both),
        tag => Err(WireError::Invalid(format!("unknown layer tag {tag}"))),
    }
}

fn encode_defense_sel(enc: &mut Encoder, sel: DefenseSel) {
    enc.u8(match sel {
        DefenseSel::None => 0,
        DefenseSel::RobustDriver => 1,
        DefenseSel::BandgapThreshold => 2,
        DefenseSel::SizedNeuron => 3,
        DefenseSel::Comparator => 4,
    });
}

fn decode_defense_sel(dec: &mut Decoder<'_>) -> Result<DefenseSel, WireError> {
    match dec.u8()? {
        0 => Ok(DefenseSel::None),
        1 => Ok(DefenseSel::RobustDriver),
        2 => Ok(DefenseSel::BandgapThreshold),
        3 => Ok(DefenseSel::SizedNeuron),
        4 => Ok(DefenseSel::Comparator),
        tag => Err(WireError::Invalid(format!("unknown defense tag {tag}"))),
    }
}

fn encode_detector_sel(enc: &mut Encoder, sel: DetectorSel) {
    enc.u8(match sel {
        DetectorSel::None => 0,
        DetectorSel::DummyNeuron => 1,
    });
}

fn decode_detector_sel(dec: &mut Decoder<'_>) -> Result<DetectorSel, WireError> {
    match dec.u8()? {
        0 => Ok(DetectorSel::None),
        1 => Ok(DetectorSel::DummyNeuron),
        tag => Err(WireError::Invalid(format!("unknown detector tag {tag}"))),
    }
}

fn encode_family(enc: &mut Encoder, family: AttackFamily) {
    match family {
        AttackFamily::Threshold(sel) => {
            enc.u8(0);
            encode_layer_sel(enc, sel);
        }
        AttackFamily::Theta => enc.u8(1),
        AttackFamily::Vdd => enc.u8(2),
    }
}

fn decode_family(dec: &mut Decoder<'_>) -> Result<AttackFamily, WireError> {
    match dec.u8()? {
        0 => Ok(AttackFamily::Threshold(decode_layer_sel(dec)?)),
        1 => Ok(AttackFamily::Theta),
        2 => Ok(AttackFamily::Vdd),
        tag => Err(WireError::Invalid(format!("unknown family tag {tag}"))),
    }
}

fn encode_opt_f64(enc: &mut Encoder, value: Option<f64>) {
    match value {
        None => enc.u8(0),
        Some(v) => {
            enc.u8(1);
            enc.f64(v);
        }
    }
}

fn decode_opt_f64(dec: &mut Decoder<'_>) -> Result<Option<f64>, WireError> {
    match dec.u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec.f64()?)),
        tag => Err(WireError::Invalid(format!("unknown option tag {tag}"))),
    }
}

/// Encodes one resolved composite [`CellAttack`] (family, then the
/// optional threshold / theta / VDD / seed components, then the v6
/// defense/detector tags, then the v7 neuron-count component). This is
/// the job payload inside [`encode_cell_job`]; content digests hash
/// through [`encode_attack_digest`] instead, whose legacy prefix is
/// frozen.
fn encode_attack(enc: &mut Encoder, attack: &CellAttack) {
    encode_family(enc, attack.family);
    encode_opt_f64(enc, attack.rel_change);
    enc.f64(attack.fraction);
    encode_opt_f64(enc, attack.theta_change);
    encode_opt_f64(enc, attack.vdd);
    match attack.seed {
        None => enc.u8(0),
        Some(seed) => {
            enc.u8(1);
            enc.u64(seed);
        }
    }
    encode_defense_sel(enc, attack.defense);
    encode_detector_sel(enc, attack.detector);
    match attack.neurons {
        None => enc.u8(0),
        Some(neurons) => {
            enc.u8(1);
            enc.u64(neurons);
        }
    }
}

/// Encodes the fault-plan half of a cell's content digest. The layout
/// up to the seed component is the frozen pre-v6 `encode_attack`
/// stream, so every legacy (undefended, undetected) cell keeps its
/// exact store key across the protocol bump — existing stores keep
/// deduping. Cells that carry a countermeasure append a `0x01` marker
/// followed by the defense and detector tags, and cells that carry a
/// neuron-count component append a `0x02` marker followed by the count
/// (after the `0x01` block when both are present); the markers cannot
/// collide with a legacy stream's continuation because a digest stream
/// follows the attack with a seeds `seq_len` whose leading byte is
/// `0x00` for any realistic seed count (< 2^24). The golden digest
/// vectors pin all three halves of this contract.
pub fn encode_attack_digest(enc: &mut Encoder, attack: &CellAttack) {
    encode_family(enc, attack.family);
    encode_opt_f64(enc, attack.rel_change);
    enc.f64(attack.fraction);
    encode_opt_f64(enc, attack.theta_change);
    encode_opt_f64(enc, attack.vdd);
    match attack.seed {
        None => enc.u8(0),
        Some(seed) => {
            enc.u8(1);
            enc.u64(seed);
        }
    }
    if attack.defense != DefenseSel::None || attack.detector != DetectorSel::None {
        enc.u8(1);
        encode_defense_sel(enc, attack.defense);
        encode_detector_sel(enc, attack.detector);
    }
    if let Some(neurons) = attack.neurons {
        enc.u8(2);
        enc.u64(neurons);
    }
}

/// Encodes one [`CellJob`]: the slot index plus the resolved composite
/// [`CellAttack`].
pub fn encode_cell_job(enc: &mut Encoder, job: &CellJob) {
    enc.usize(job.index);
    encode_attack(enc, &job.attack);
}

/// Decodes one [`CellJob`].
///
/// # Errors
/// Fails on truncation or unknown tags.
pub fn decode_cell_job(dec: &mut Decoder<'_>) -> Result<CellJob, WireError> {
    let index = dec.usize()?;
    let family = decode_family(dec)?;
    let rel_change = decode_opt_f64(dec)?;
    let fraction = dec.f64()?;
    let theta_change = decode_opt_f64(dec)?;
    let vdd = decode_opt_f64(dec)?;
    let seed = match dec.u8()? {
        0 => None,
        1 => Some(dec.u64()?),
        tag => return Err(WireError::Invalid(format!("unknown option tag {tag}"))),
    };
    let defense = decode_defense_sel(dec)?;
    let detector = decode_detector_sel(dec)?;
    let neurons = match dec.u8()? {
        0 => None,
        1 => Some(dec.u64()?),
        tag => return Err(WireError::Invalid(format!("unknown option tag {tag}"))),
    };
    Ok(CellJob {
        index,
        attack: CellAttack {
            family,
            rel_change,
            fraction,
            theta_change,
            vdd,
            seed,
            defense,
            detector,
            neurons,
        },
    })
}

/// Encodes one [`CellResult`].
pub fn encode_cell_result(enc: &mut Encoder, result: &CellResult) {
    enc.usize(result.index);
    enc.f64(result.cell.rel_change);
    enc.f64(result.cell.fraction);
    enc.f64(result.cell.accuracy);
    enc.f64(result.cell.relative_change_percent);
}

/// Decodes one [`CellResult`].
///
/// # Errors
/// Fails on truncation.
pub fn decode_cell_result(dec: &mut Decoder<'_>) -> Result<CellResult, WireError> {
    Ok(CellResult {
        index: dec.usize()?,
        cell: SweepCell {
            rel_change: dec.f64()?,
            fraction: dec.f64()?,
            accuracy: dec.f64()?,
            relative_change_percent: dec.f64()?,
        },
    })
}

/// Encodes a resolved [`SetupSpec`] — the experiment-setup half of a
/// cell's content digest as well as part of the campaign wire layout.
pub fn encode_setup_spec(enc: &mut Encoder, spec: &SetupSpec) {
    enc.u8(match spec.base {
        SetupBase::Quick => 0,
        SetupBase::Paper => 1,
    });
    enc.u64(spec.seed);
    enc.usize(spec.n_train);
    enc.usize(spec.n_test);
    enc.f64(spec.sample_time_ms);
    match spec.assignment_window {
        None => enc.u8(0),
        Some(w) => {
            enc.u8(1);
            enc.usize(w);
        }
    }
}

fn decode_setup_spec(dec: &mut Decoder<'_>) -> Result<SetupSpec, WireError> {
    let base = match dec.u8()? {
        0 => SetupBase::Quick,
        1 => SetupBase::Paper,
        tag => return Err(WireError::Invalid(format!("unknown setup base tag {tag}"))),
    };
    let seed = dec.u64()?;
    let n_train = dec.usize()?;
    let n_test = dec.usize()?;
    let sample_time_ms = dec.f64()?;
    let assignment_window = match dec.u8()? {
        0 => None,
        1 => Some(dec.usize()?),
        tag => {
            return Err(WireError::Invalid(format!(
                "unknown option tag {tag} for assignment window"
            )))
        }
    };
    Ok(SetupSpec {
        base,
        seed,
        n_train,
        n_test,
        sample_time_ms,
        assignment_window,
    })
}

fn axis_kind_tag(kind: AxisKind) -> u8 {
    match kind {
        AxisKind::RelChange => 0,
        AxisKind::Fraction => 1,
        AxisKind::ThetaChange => 2,
        AxisKind::Vdd => 3,
        AxisKind::Layer => 4,
        AxisKind::Polarity => 5,
        AxisKind::Seed => 6,
        AxisKind::Defense => 7,
        AxisKind::Detector => 8,
        AxisKind::Neurons => 9,
    }
}

fn decode_axis_kind(dec: &mut Decoder<'_>) -> Result<AxisKind, WireError> {
    match dec.u8()? {
        0 => Ok(AxisKind::RelChange),
        1 => Ok(AxisKind::Fraction),
        2 => Ok(AxisKind::ThetaChange),
        3 => Ok(AxisKind::Vdd),
        4 => Ok(AxisKind::Layer),
        5 => Ok(AxisKind::Polarity),
        6 => Ok(AxisKind::Seed),
        7 => Ok(AxisKind::Defense),
        8 => Ok(AxisKind::Detector),
        9 => Ok(AxisKind::Neurons),
        tag => Err(WireError::Invalid(format!("unknown axis tag {tag}"))),
    }
}

fn encode_axis(enc: &mut Encoder, axis: &Axis) {
    enc.u8(axis_kind_tag(axis.kind));
    match &axis.values {
        AxisValues::Real(values) => {
            enc.seq_len(values.len());
            for &v in values {
                enc.f64(v);
            }
        }
        AxisValues::Layer(values) => {
            enc.seq_len(values.len());
            for &sel in values {
                encode_layer_sel(enc, sel);
            }
        }
        AxisValues::Seed(values) => {
            enc.seq_len(values.len());
            for &seed in values {
                enc.u64(seed);
            }
        }
        AxisValues::Defense(values) => {
            enc.seq_len(values.len());
            for &sel in values {
                encode_defense_sel(enc, sel);
            }
        }
        AxisValues::Detector(values) => {
            enc.seq_len(values.len());
            for &sel in values {
                encode_detector_sel(enc, sel);
            }
        }
        AxisValues::Neurons(values) => {
            enc.seq_len(values.len());
            for &n in values {
                enc.u64(n);
            }
        }
    }
}

/// The value representation is implied by the axis kind, so a decoded
/// axis can never carry a kind/values mismatch.
fn decode_axis(dec: &mut Decoder<'_>) -> Result<Axis, WireError> {
    let kind = decode_axis_kind(dec)?;
    let values = match kind {
        AxisKind::Layer => {
            let len = dec.seq_len(1)?;
            AxisValues::Layer(
                (0..len)
                    .map(|_| decode_layer_sel(dec))
                    .collect::<Result<Vec<_>, _>>()?,
            )
        }
        AxisKind::Seed => {
            let len = dec.seq_len(8)?;
            AxisValues::Seed((0..len).map(|_| dec.u64()).collect::<Result<Vec<_>, _>>()?)
        }
        AxisKind::Neurons => {
            let len = dec.seq_len(8)?;
            AxisValues::Neurons((0..len).map(|_| dec.u64()).collect::<Result<Vec<_>, _>>()?)
        }
        AxisKind::Defense => {
            let len = dec.seq_len(1)?;
            AxisValues::Defense(
                (0..len)
                    .map(|_| decode_defense_sel(dec))
                    .collect::<Result<Vec<_>, _>>()?,
            )
        }
        AxisKind::Detector => {
            let len = dec.seq_len(1)?;
            AxisValues::Detector(
                (0..len)
                    .map(|_| decode_detector_sel(dec))
                    .collect::<Result<Vec<_>, _>>()?,
            )
        }
        _ => {
            let len = dec.seq_len(8)?;
            AxisValues::Real((0..len).map(|_| dec.f64()).collect::<Result<Vec<_>, _>>()?)
        }
    };
    Ok(Axis { kind, values })
}

/// Encodes a full N-axis [`ScenarioSpec`]: family, axes, seeds, and the
/// optional transfer table.
pub fn encode_scenario_spec(enc: &mut Encoder, spec: &ScenarioSpec) {
    encode_family(enc, spec.family);
    enc.seq_len(spec.axes.len());
    for axis in &spec.axes {
        encode_axis(enc, axis);
    }
    enc.seq_len(spec.seeds.len());
    for &seed in &spec.seeds {
        enc.u64(seed);
    }
    match &spec.transfer {
        None => enc.u8(0),
        Some(transfer) => {
            enc.u8(1);
            enc.seq_len(transfer.len());
            for point in transfer {
                enc.f64(point.vdd);
                enc.f64(point.drive_scale);
                enc.f64(point.ah_threshold_scale);
                enc.f64(point.if_threshold_scale);
            }
        }
    }
}

/// Decodes a full [`ScenarioSpec`].
///
/// # Errors
/// Fails on truncation or unknown tags.
pub fn decode_scenario_spec(dec: &mut Decoder<'_>) -> Result<ScenarioSpec, WireError> {
    let family = decode_family(dec)?;
    // Minimum axis: 1 kind byte + 4-byte empty value list.
    let n_axes = dec.seq_len(5)?;
    let axes = (0..n_axes)
        .map(|_| decode_axis(dec))
        .collect::<Result<Vec<_>, _>>()?;
    let n_seeds = dec.seq_len(8)?;
    let seeds = (0..n_seeds)
        .map(|_| dec.u64())
        .collect::<Result<Vec<_>, _>>()?;
    let transfer = match dec.u8()? {
        0 => None,
        1 => {
            let len = dec.seq_len(32)?;
            Some(
                (0..len)
                    .map(|_| {
                        Ok(TransferPoint {
                            vdd: dec.f64()?,
                            drive_scale: dec.f64()?,
                            ah_threshold_scale: dec.f64()?,
                            if_threshold_scale: dec.f64()?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?,
            )
        }
        tag => {
            return Err(WireError::Invalid(format!(
                "unknown option tag {tag} for transfer table"
            )))
        }
    };
    Ok(ScenarioSpec {
        family,
        axes,
        seeds,
        transfer,
    })
}

/// Encodes a full [`CampaignSpec`] (also the byte stream its digest is
/// computed over).
pub fn encode_campaign_spec(enc: &mut Encoder, spec: &CampaignSpec) {
    encode_setup_spec(enc, &spec.setup);
    encode_scenario_spec(enc, &spec.scenario);
}

/// Decodes a full [`CampaignSpec`].
///
/// # Errors
/// Fails on truncation or unknown tags.
fn decode_campaign_spec(dec: &mut Decoder<'_>) -> Result<CampaignSpec, WireError> {
    Ok(CampaignSpec {
        setup: decode_setup_spec(dec)?,
        scenario: decode_scenario_spec(dec)?,
    })
}

/// Encodes a [`NamedCampaign`] queue entry (name, scheduling weight,
/// spec) — the v3 layout shared by `Campaigns`, `Submit`, and
/// `CampaignAnnounce` frames.
fn encode_named_campaign(enc: &mut Encoder, campaign: &NamedCampaign) {
    enc.string(&campaign.name);
    enc.u32(campaign.weight);
    encode_campaign_spec(enc, &campaign.spec);
}

/// Decodes a [`NamedCampaign`] queue entry.
///
/// # Errors
/// Fails on truncation or unknown tags.
fn decode_named_campaign(dec: &mut Decoder<'_>) -> Result<NamedCampaign, WireError> {
    Ok(NamedCampaign {
        name: dec.capped_string("campaign name", MAX_NAME_LEN)?,
        weight: dec.u32()?,
        spec: decode_campaign_spec(dec)?,
    })
}

impl Message {
    /// Encodes the message into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Message::Hello { protocol, threads } => {
                enc.u8(TAG_HELLO);
                enc.u32(*protocol);
                enc.u32(*threads);
            }
            Message::Campaigns { campaigns } => {
                enc.u8(TAG_CAMPAIGNS);
                enc.seq_len(campaigns.len());
                for campaign in campaigns {
                    encode_named_campaign(&mut enc, campaign);
                }
            }
            Message::Request { max_cells } => {
                enc.u8(TAG_REQUEST);
                enc.u32(*max_cells);
            }
            Message::Assign { campaign, jobs } => {
                enc.u8(TAG_ASSIGN);
                enc.u32(*campaign);
                enc.seq_len(jobs.len());
                for job in jobs {
                    encode_cell_job(&mut enc, job);
                }
            }
            Message::Results {
                campaign,
                baseline_accuracy,
                results,
            } => {
                enc.u8(TAG_RESULTS);
                enc.u32(*campaign);
                enc.f64(*baseline_accuracy);
                enc.seq_len(results.len());
                for result in results {
                    encode_cell_result(&mut enc, result);
                }
            }
            Message::Ack { campaign, received } => {
                enc.u8(TAG_ACK);
                enc.u32(*campaign);
                enc.u32(*received);
            }
            Message::Failed {
                campaign,
                index,
                reason,
            } => {
                enc.u8(TAG_FAILED);
                enc.u32(*campaign);
                enc.u64(*index);
                enc.string(clamp_str(reason, MAX_REASON_LEN));
            }
            Message::Finished => enc.u8(TAG_FINISHED),
            Message::Abort { reason } => {
                enc.u8(TAG_ABORT);
                enc.string(clamp_str(reason, MAX_REASON_LEN));
            }
            Message::Submit { protocol, campaign } => {
                enc.u8(TAG_SUBMIT);
                enc.u32(*protocol);
                encode_named_campaign(&mut enc, campaign);
            }
            Message::SubmitOk { id } => {
                enc.u8(TAG_SUBMIT_OK);
                enc.u32(*id);
            }
            Message::CampaignAnnounce { id, campaign } => {
                enc.u8(TAG_ANNOUNCE);
                enc.u32(*id);
                encode_named_campaign(&mut enc, campaign);
            }
            Message::Status { protocol } => {
                enc.u8(TAG_STATUS);
                enc.u32(*protocol);
            }
            Message::Progress { campaigns } => {
                enc.u8(TAG_PROGRESS);
                enc.seq_len(campaigns.len());
                for progress in campaigns {
                    encode_campaign_progress(&mut enc, progress);
                }
            }
        }
        enc.finish()
    }

    /// Decodes one message from a complete frame payload, requiring that
    /// every byte is consumed.
    ///
    /// # Errors
    /// Fails on truncation, trailing bytes, or unknown tags.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut dec = Decoder::new(payload);
        let message = match dec.u8()? {
            TAG_HELLO => Message::Hello {
                protocol: dec.u32()?,
                threads: dec.u32()?,
            },
            TAG_CAMPAIGNS => {
                // Minimum entry: 4-byte name prefix + 4-byte weight + the
                // smallest spec (34-byte setup + a ~15-byte axis-less
                // scenario); 8 is a safe floor.
                let len = dec.seq_len(8)?;
                let campaigns = (0..len)
                    .map(|_| decode_named_campaign(&mut dec))
                    .collect::<Result<Vec<_>, WireError>>()?;
                Message::Campaigns { campaigns }
            }
            TAG_REQUEST => Message::Request {
                max_cells: dec.u32()?,
            },
            TAG_ASSIGN => {
                let campaign = dec.u32()?;
                // Minimum job: 8-byte index + 1-byte family + the three
                // 1-byte component tags + 8-byte fraction + 1-byte seed
                // tag + the defense and detector tag bytes; 18 is a
                // safe floor.
                let len = dec.seq_len(18)?;
                let jobs = (0..len)
                    .map(|_| decode_cell_job(&mut dec))
                    .collect::<Result<Vec<_>, _>>()?;
                Message::Assign { campaign, jobs }
            }
            TAG_RESULTS => {
                let campaign = dec.u32()?;
                let baseline_accuracy = dec.f64()?;
                let len = dec.seq_len(40)?;
                let results = (0..len)
                    .map(|_| decode_cell_result(&mut dec))
                    .collect::<Result<Vec<_>, _>>()?;
                Message::Results {
                    campaign,
                    baseline_accuracy,
                    results,
                }
            }
            TAG_ACK => Message::Ack {
                campaign: dec.u32()?,
                received: dec.u32()?,
            },
            TAG_FAILED => Message::Failed {
                campaign: dec.u32()?,
                index: dec.u64()?,
                reason: dec.capped_string("failure reason", MAX_REASON_LEN)?,
            },
            TAG_FINISHED => Message::Finished,
            TAG_ABORT => Message::Abort {
                reason: dec.capped_string("abort reason", MAX_REASON_LEN)?,
            },
            TAG_SUBMIT => Message::Submit {
                protocol: dec.u32()?,
                campaign: decode_named_campaign(&mut dec)?,
            },
            TAG_SUBMIT_OK => Message::SubmitOk { id: dec.u32()? },
            TAG_ANNOUNCE => Message::CampaignAnnounce {
                id: dec.u32()?,
                campaign: decode_named_campaign(&mut dec)?,
            },
            TAG_STATUS => Message::Status {
                protocol: dec.u32()?,
            },
            TAG_PROGRESS => {
                // Minimum entry: 4-byte name prefix + eight u64
                // counters + 1-byte failure flag.
                let len = dec.seq_len(69)?;
                let campaigns = (0..len)
                    .map(|_| decode_campaign_progress(&mut dec))
                    .collect::<Result<Vec<_>, WireError>>()?;
                Message::Progress { campaigns }
            }
            tag => return Err(WireError::Invalid(format!("unknown message tag {tag}"))),
        };
        dec.expect_end()?;
        Ok(message)
    }

    /// Writes the message as one frame.
    ///
    /// # Errors
    /// Propagates framing and stream failures.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<(), WireError> {
        write_frame(writer, &self.encode())
    }

    /// Reads and decodes one framed message.
    ///
    /// # Errors
    /// Propagates framing, stream, and decoding failures.
    pub fn read_from(reader: &mut impl Read) -> Result<Message, WireError> {
        Message::decode(&read_frame(reader)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_job() -> CellJob {
        CellJob {
            index: 5,
            attack: CellAttack::threshold(Some(neurofi_core::TargetLayer::Inhibitory), -0.2, 0.75),
        }
    }

    #[test]
    fn messages_round_trip() {
        let tiny = crate::campaign::named_campaign("tiny").unwrap();
        let theta = crate::campaign::named_campaign("tiny-theta").unwrap();
        let messages = vec![
            Message::Hello {
                protocol: PROTOCOL_VERSION,
                threads: 4,
            },
            Message::Campaigns {
                campaigns: vec![
                    NamedCampaign::new("tiny", tiny),
                    NamedCampaign::new("tiny-theta", theta).with_weight(4),
                ],
            },
            Message::Request { max_cells: 3 },
            Message::Assign {
                campaign: 1,
                jobs: vec![
                    sample_job(),
                    CellJob {
                        index: 0,
                        attack: CellAttack::theta(0.1),
                    },
                    CellJob {
                        index: 1,
                        attack: CellAttack::vdd(0.8),
                    },
                    // A resolved composite cell (threshold × vdd with a
                    // pinned seed) — the v4 payload the three hardcoded
                    // planners could never express.
                    CellJob {
                        index: 2,
                        attack: CellAttack {
                            vdd: Some(0.9),
                            seed: Some(7),
                            ..CellAttack::threshold(None, -0.1, 1.0)
                        },
                    },
                    // A v6 countermeasure-bearing cell: a defended VDD
                    // attack watched by the dummy-neuron detector.
                    CellJob {
                        index: 3,
                        attack: CellAttack {
                            defense: DefenseSel::BandgapThreshold,
                            detector: DetectorSel::DummyNeuron,
                            ..CellAttack::vdd(0.85)
                        },
                    },
                    // A v7 layer-netlist cell: the VDD attack simulated
                    // against the actual 32-neuron analog layer.
                    CellJob {
                        index: 4,
                        attack: CellAttack {
                            neurons: Some(32),
                            ..CellAttack::vdd(0.85)
                        },
                    },
                ],
            },
            Message::Results {
                campaign: 0,
                baseline_accuracy: 0.55,
                results: vec![CellResult {
                    index: 5,
                    cell: SweepCell {
                        rel_change: -0.2,
                        fraction: 0.75,
                        accuracy: 0.31,
                        relative_change_percent: -43.6,
                    },
                }],
            },
            Message::Ack {
                campaign: 0,
                received: 1,
            },
            Message::Failed {
                campaign: 1,
                index: 3,
                reason: "solver diverged".into(),
            },
            Message::Finished,
            Message::Abort {
                reason: "testing".into(),
            },
            Message::Submit {
                protocol: PROTOCOL_VERSION,
                campaign: NamedCampaign::new(
                    "late",
                    crate::campaign::named_campaign("tiny-theta").unwrap(),
                )
                .with_weight(3),
            },
            Message::SubmitOk { id: 2 },
            Message::CampaignAnnounce {
                id: 2,
                campaign: NamedCampaign::new(
                    "late",
                    crate::campaign::named_campaign("tiny-theta").unwrap(),
                )
                .with_weight(3),
            },
            Message::Status {
                protocol: PROTOCOL_VERSION,
            },
            Message::Progress {
                campaigns: vec![
                    CampaignProgress {
                        name: "tiny".into(),
                        total: 6,
                        queued: 1,
                        running: 2,
                        done: 3,
                        resumed: 1,
                        store_hits: 2,
                        detected: 2,
                        missed: 1,
                        failed: false,
                    },
                    CampaignProgress {
                        name: "poisoned".into(),
                        total: 4,
                        queued: 0,
                        running: 0,
                        done: 1,
                        resumed: 0,
                        store_hits: 0,
                        detected: 0,
                        missed: 0,
                        failed: true,
                    },
                ],
            },
            Message::Progress { campaigns: vec![] },
        ];
        for message in messages {
            let decoded = Message::decode(&message.encode()).unwrap();
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn attack_digest_stream_freezes_the_legacy_prefix() {
        // The v7 job payload appends three unconditional tag bytes
        // (defense, detector, neurons option); the digest stream must
        // instead be the frozen pre-v6 layout for legacy cells, with
        // the countermeasure and neuron suffixes only when a cell
        // carries them.
        let legacy = CellAttack {
            vdd: Some(0.9),
            seed: Some(7),
            ..CellAttack::threshold(None, -0.1, 1.0)
        };
        let mut job = Encoder::new();
        encode_attack(&mut job, &legacy);
        let job = job.finish();
        let mut digest = Encoder::new();
        encode_attack_digest(&mut digest, &legacy);
        let digest = digest.finish();
        assert_eq!(digest, job[..job.len() - 3].to_vec());

        let armed = CellAttack {
            defense: DefenseSel::Comparator,
            detector: DetectorSel::DummyNeuron,
            ..legacy
        };
        let mut armed_digest = Encoder::new();
        encode_attack_digest(&mut armed_digest, &armed);
        let armed_digest = armed_digest.finish();
        let mut expected = digest.clone();
        expected.extend_from_slice(&[1, 4, 1]);
        assert_eq!(armed_digest, expected);

        // A layer cell appends the 0x02 marker + count; combined with a
        // countermeasure the 0x01 block comes first.
        let layered = CellAttack {
            neurons: Some(32),
            ..legacy
        };
        let mut layer_digest = Encoder::new();
        encode_attack_digest(&mut layer_digest, &layered);
        let mut expected = digest.clone();
        expected.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 32]);
        assert_eq!(layer_digest.finish(), expected);

        let both = CellAttack {
            defense: DefenseSel::Comparator,
            detector: DetectorSel::DummyNeuron,
            neurons: Some(32),
            ..legacy
        };
        let mut both_digest = Encoder::new();
        encode_attack_digest(&mut both_digest, &both);
        let mut expected = digest;
        expected.extend_from_slice(&[1, 4, 1, 2, 0, 0, 0, 0, 0, 0, 0, 32]);
        assert_eq!(both_digest.finish(), expected);
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let message = Message::Request { max_cells: 9 };
        let mut buf = Vec::new();
        message.write_to(&mut buf).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(Message::read_from(&mut cursor).unwrap(), message);
    }

    #[test]
    fn oversized_frame_header_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn truncated_frames_and_payloads_fail() {
        let message = Message::Assign {
            campaign: 0,
            jobs: vec![sample_job()],
        };
        let mut framed = Vec::new();
        message.write_to(&mut framed).unwrap();
        // Cut the frame mid-payload: the stream read must fail.
        let mut cursor = Cursor::new(framed[..framed.len() - 3].to_vec());
        assert!(Message::read_from(&mut cursor).is_err());
        // Cut the decoded payload: decoding must fail, not panic.
        let payload = message.encode();
        for cut in 0..payload.len() {
            assert!(Message::decode(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Message::Finished.encode();
        payload.push(0);
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn hostile_sequence_lengths_cannot_allocate() {
        // An Assign frame claiming 2^32-1 jobs but carrying none: the
        // length check must reject it as truncated instead of reserving.
        let mut enc = Encoder::new();
        enc.u8(3); // TAG_ASSIGN
        enc.u32(0); // campaign id
        enc.u32(u32::MAX);
        assert!(matches!(
            Message::decode(&enc.finish()),
            Err(WireError::Truncated)
        ));
    }
}
