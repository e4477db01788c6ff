//! The traced-run harness: an in-memory span recorder, and wrappers
//! around the control plane's public `Connection` / `Listener` traits
//! that time frames the way `neurofi_dist::chaos` injects faults into
//! them.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! workspace crates; nothing inside the program is instrumented. They
//! stay in memory until the run ends and are then written out as JSON
//! lines.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use neurofi_dist::transport::Canceller;
use neurofi_dist::{Connection, DistError, Listener, Message};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `snn.train`.
    pub name: &'static str,
    /// The campaign the work belonged to, when there is one.
    pub campaign: Option<u64>,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    /// See `start`.
    pub end: Duration,
}

impl Span {
    /// The span's length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Collects spans while enabled; a disabled recorder runs the timed
/// closure and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, initially on or off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (the traced run alternates so it can
    /// measure its own overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Runs `work` inside a span named `name`; `work` receives the new
    /// span's id so it can parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        campaign: Option<u64>,
        work: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled() {
            return work(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = work(Some(id));
        let end = self.origin.elapsed();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            campaign,
            start,
            end,
        });
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Number of recorded spans.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"campaign\": {}, \
                 \"start_s\": {}, \"end_s\": {}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.campaign),
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            )?;
        }
        out.flush()
    }
}

/// Worker-side frame timings and counts, shared by every worker's
/// [`TimedConnection`].
#[derive(Debug, Default)]
pub struct FrameLog {
    /// `Request` sent → `Assign` received, seconds.
    pub assign_waits: Vec<f64>,
    /// Every `Assign` received.
    pub assigns: u64,
    /// `Assign`s that carried at least one cell.
    pub useful_assigns: u64,
    /// Cells carried by `Assign`s.
    pub cells_assigned: u64,
    /// `Results` sent → `Ack` received, seconds.
    pub ack_waits: Vec<f64>,
    /// Time between a non-empty `Assign` and the worker's next
    /// `Request`: the worker was executing, seconds.
    pub busy_seconds: f64,
    /// Cells reported in `Results` frames (counted even while timing is
    /// off, so duplicates are always visible).
    pub cells_reported: u64,
    /// One `Assign` and one `Results` frame of the run, for the wire
    /// encode/decode probes.
    pub sample_assign: Option<Message>,
    /// See `sample_assign`.
    pub sample_results: Option<Message>,
}

/// Shared switch plus log for every timed connection of one service.
#[derive(Debug, Default)]
pub struct FrameStats {
    /// Timing is recorded only while this is set.
    pub enabled: AtomicBool,
    /// The log.
    pub log: Mutex<FrameLog>,
}

/// A worker's [`Connection`] with its frames timed. Timestamps are
/// always taken (they are cheap); they are recorded only while the
/// shared switch is on.
#[derive(Debug)]
pub struct TimedConnection<C: Connection> {
    inner: C,
    stats: Arc<FrameStats>,
    request_sent: Option<Instant>,
    results_sent: Option<Instant>,
    executing_since: Option<Instant>,
}

impl<C: Connection> TimedConnection<C> {
    /// Wraps `inner`, logging into `stats`.
    pub fn new(inner: C, stats: Arc<FrameStats>) -> TimedConnection<C> {
        TimedConnection {
            inner,
            stats,
            request_sent: None,
            results_sent: None,
            executing_since: None,
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, FrameLog> {
        self.stats.log.lock().expect("frame log poisoned")
    }
}

impl<C: Connection> Connection for TimedConnection<C> {
    fn send(&mut self, message: &Message) -> Result<(), DistError> {
        let now = Instant::now();
        let timing = self.stats.enabled.load(Ordering::Relaxed);
        match message {
            Message::Request { .. } => {
                self.request_sent = Some(now);
                if let Some(since) = self.executing_since.take() {
                    if timing {
                        self.log().busy_seconds += (now - since).as_secs_f64();
                    }
                }
            }
            Message::Results { results, .. } => {
                self.results_sent = Some(now);
                let mut log = self.log();
                log.cells_reported += results.len() as u64;
                if timing && log.sample_results.is_none() {
                    log.sample_results = Some(message.clone());
                }
            }
            _ => {}
        }
        self.inner.send(message)
    }

    fn recv(&mut self) -> Result<Message, DistError> {
        let message = self.inner.recv()?;
        let now = Instant::now();
        if !self.stats.enabled.load(Ordering::Relaxed) {
            if matches!(&message, Message::Assign { jobs, .. } if !jobs.is_empty()) {
                self.executing_since = None;
            }
            return Ok(message);
        }
        match &message {
            Message::Assign { jobs, .. } => {
                let sent = self.request_sent.take();
                if !jobs.is_empty() {
                    self.executing_since = Some(now);
                }
                let mut log = self.log();
                if let Some(sent) = sent {
                    log.assign_waits.push((now - sent).as_secs_f64());
                }
                log.assigns += 1;
                if !jobs.is_empty() {
                    log.useful_assigns += 1;
                    log.cells_assigned += jobs.len() as u64;
                    if log.sample_assign.is_none() {
                        log.sample_assign = Some(message.clone());
                    }
                }
            }
            Message::Ack { .. } => {
                if let Some(sent) = self.results_sent.take() {
                    self.log().ack_waits.push((now - sent).as_secs_f64());
                }
            }
            _ => {}
        }
        Ok(message)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_recv_timeout(timeout);
    }

    fn canceller(&self) -> Canceller {
        self.inner.canceller()
    }
}

/// A coordinator [`Listener`] the benchmark can shut down. A persistent
/// (`serve`) coordinator never settles on its own; once `stop` is set
/// and the inner listener cancelled, the next accept fails, which ends
/// the serve loop, drains the workers and severs every connection.
#[derive(Debug)]
pub struct StoppableListener<L: Listener> {
    inner: L,
    stop: Arc<AtomicBool>,
}

impl<L: Listener> StoppableListener<L> {
    /// Wraps `inner`; setting `stop` and firing the inner canceller shuts
    /// the coordinator down.
    pub fn new(inner: L, stop: Arc<AtomicBool>) -> StoppableListener<L> {
        StoppableListener { inner, stop }
    }

    fn stopped(&self) -> DistError {
        DistError::Protocol("the benchmark stopped the service".into())
    }
}

impl<L: Listener> Listener for StoppableListener<L> {
    type Conn = L::Conn;

    fn poll_accept(&mut self) -> Result<Option<L::Conn>, DistError> {
        match self.inner.poll_accept()? {
            None if self.stop.load(Ordering::SeqCst) => Err(self.stopped()),
            conn => Ok(conn),
        }
    }

    fn accept(&mut self) -> Result<Option<L::Conn>, DistError> {
        match self.inner.accept()? {
            None if self.stop.load(Ordering::SeqCst) => Err(self.stopped()),
            conn => Ok(conn),
        }
    }

    fn canceller(&self) -> Canceller {
        self.inner.canceller()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("a", None, None, |id| id), None);
        assert_eq!(tracer.len(), 0);
        tracer.set_enabled(true);
        let parent = tracer.span("a", None, Some(3), |id| {
            tracer.span("b", id, Some(3), |_| ());
            id
        });
        assert_eq!(tracer.len(), 2);
        assert_eq!(tracer.seconds("a").len(), 1);
        let spans = tracer.spans.lock().unwrap();
        let child = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(child.parent, parent);
        assert!(child.start >= spans.iter().find(|s| s.name == "a").unwrap().start);
    }
}
