//! Control-plane client: submit campaigns to — and query the progress
//! of — a *running* coordinator.
//!
//! A control connection opens with [`Message::Submit`] instead of a
//! worker `Hello`. The coordinator validates the campaign, binds it a
//! digest-checked journal exactly as bind-time campaigns get, announces
//! it to every connected worker, and replies [`Message::SubmitOk`] with
//! the assigned campaign id — or [`Message::Abort`] with the reason
//! (duplicate name, invalid spec, foreign journal, run already over).
//!
//! A status connection (v5) opens with [`Message::Status`] instead and
//! receives one [`Message::Progress`] snapshot per poll: per-campaign
//! queued / running / done / resumed / store-hit counters.
//!
//! `repro submit --grid NAME --to HOST:PORT` and
//! `repro status --to HOST:PORT` are the CLI front ends; the coordinator
//! they talk to is a `repro serve` process.
//!
//! Submission is **idempotent**, which makes retrying safe: the
//! coordinator answers a resubmission whose name *and* digest match an
//! already-enqueued campaign with the existing id rather than a
//! duplicate-name abort. So when the link dies between the `Submit`
//! going out and the `SubmitOk` coming back — the client cannot know
//! whether the campaign was enqueued — [`submit_with_retry`] simply
//! dials again and resubmits; whichever attempt's reply gets through
//! returns the one true id.

use std::net::TcpStream;
use std::time::Duration;

use crate::campaign::NamedCampaign;
use crate::chaos::SplitMix64;
use crate::transport::{Connection, TcpConnection};
use crate::wire::{CampaignProgress, Message, PROTOCOL_VERSION};
use crate::{DistError, RetryPolicy};

/// How long a submitter waits for the coordinator's verdict. Enqueueing
/// is a queue append plus one journal open, so replies are immediate;
/// this guards against a dead peer.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Submits one campaign over an already-established [`Connection`] and
/// returns the campaign id it was enqueued under — the
/// transport-generic core of [`submit_campaign_retrying`], also driven
/// directly by the deterministic loopback tests. The connection can be
/// reused for further submissions.
///
/// # Errors
/// Propagates link failures; a coordinator rejection surfaces as
/// [`DistError::Aborted`] with the coordinator's reason.
pub fn submit_on<C: Connection>(conn: &mut C, campaign: NamedCampaign) -> Result<u32, DistError> {
    // Fail fast client-side: the coordinator's reader would refuse to
    // allocate an overlong name anyway, but that surfaces as an opaque
    // dropped connection rather than this message.
    if campaign.name.len() > crate::wire::MAX_NAME_LEN {
        return Err(DistError::Protocol(format!(
            "campaign name of {} bytes exceeds the {}-byte wire cap",
            campaign.name.len(),
            crate::wire::MAX_NAME_LEN
        )));
    }
    conn.send(&Message::Submit {
        protocol: PROTOCOL_VERSION,
        campaign,
    })?;
    match conn.recv()? {
        Message::SubmitOk { id } => Ok(id),
        Message::Abort { reason } => Err(DistError::Aborted(reason)),
        other => Err(DistError::Protocol(format!(
            "expected a submission verdict, got {other:?}"
        ))),
    }
}

/// Submits one campaign through connections produced by `connect`,
/// retrying link failures with the policy's capped, jittered backoff.
/// Safe to retry because enqueueing is idempotent (see module docs): a
/// resubmission after a lost `SubmitOk` returns the existing id.
///
/// # Errors
/// A coordinator verdict ([`DistError::Aborted`]) or protocol violation
/// returns immediately — retrying would get the same answer. Link
/// errors return once the retry budget is exhausted.
pub fn submit_with_retry<C, F>(
    mut connect: F,
    campaign: &NamedCampaign,
    retry: &RetryPolicy,
) -> Result<u32, DistError>
where
    C: Connection,
    F: FnMut() -> Result<C, DistError>,
{
    let mut rng = SplitMix64::new(retry.seed);
    let mut attempt = 0u32;
    loop {
        let result = connect().and_then(|mut conn| submit_on(&mut conn, campaign.clone()));
        match result {
            Ok(id) => return Ok(id),
            Err(error @ (DistError::Aborted(_) | DistError::Protocol(_))) => return Err(error),
            Err(error) => {
                if attempt >= retry.max_retries {
                    return Err(error);
                }
                std::thread::sleep(retry.delay(attempt, &mut rng));
                attempt += 1;
            }
        }
    }
}

/// Queries the coordinator at `addr` for one progress snapshot of every
/// campaign it is serving, in queue order.
///
/// # Errors
/// Propagates connect/link failures; a coordinator rejection (e.g. a
/// protocol-version mismatch) surfaces as [`DistError::Aborted`].
pub fn query_status(addr: &str) -> Result<Vec<CampaignProgress>, DistError> {
    let stream = TcpStream::connect(addr)?;
    let mut conn = TcpConnection::new(stream);
    conn.set_recv_timeout(Some(SUBMIT_TIMEOUT));
    query_status_on(&mut conn)
}

/// One status poll over an already-established [`Connection`] — the
/// transport-generic core of [`query_status`], also driven directly by
/// the deterministic loopback tests. The connection can be reused for
/// further polls.
///
/// # Errors
/// See [`query_status`].
pub fn query_status_on<C: Connection>(conn: &mut C) -> Result<Vec<CampaignProgress>, DistError> {
    conn.send(&Message::Status {
        protocol: PROTOCOL_VERSION,
    })?;
    match conn.recv()? {
        Message::Progress { campaigns } => Ok(campaigns),
        Message::Abort { reason } => Err(DistError::Aborted(reason)),
        other => Err(DistError::Protocol(format!(
            "expected a progress snapshot, got {other:?}"
        ))),
    }
}

/// [`submit_with_retry`] over TCP: dials `addr` fresh for each attempt,
/// so a coordinator that was briefly unreachable (or not yet bound) is
/// retried rather than fatal.
///
/// # Errors
/// See [`submit_with_retry`].
pub fn submit_campaign_retrying(
    addr: &str,
    campaign: &NamedCampaign,
    retry: &RetryPolicy,
) -> Result<u32, DistError> {
    submit_with_retry(
        || {
            let stream = TcpStream::connect(addr)?;
            let mut conn = TcpConnection::new(stream);
            conn.set_recv_timeout(Some(SUBMIT_TIMEOUT));
            Ok(conn)
        },
        campaign,
        retry,
    )
}
