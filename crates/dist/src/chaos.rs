//! Deterministic fault injection for the dist transport.
//!
//! The repro's subject is injecting faults into neurons and measuring
//! the response; this module turns the same discipline on the control
//! plane itself. [`ChaosConnection`] and [`ChaosListener`] wrap any
//! [`Connection`]/[`Listener`] pair and apply a *seeded, fully
//! deterministic* fault schedule — sever the link after the Nth frame,
//! drop or duplicate the kth send, refuse the mth inbound connection,
//! deliver a truncated frame — so the chaos soak suite
//! (`tests/chaos.rs`) can replay the exact same failure sequence on
//! every run, over TCP and the loopback hub alike.
//!
//! Faults are expressed per connection in *arrival order*: the first
//! accepted (or dialled) connection gets `schedule.faults(0)`, the next
//! `faults(1)`, and connections beyond the schedule's end are clean.
//! Because both the schedule generation ([`FaultSchedule::from_seed`])
//! and the counters that trigger each fault are deterministic, a seed
//! identifies one exact chaos scenario.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::transport::{Canceller, Connection, Listener};
use crate::wire::{Message, WireError};
use crate::DistError;

/// SplitMix64: a tiny, high-quality, hand-rolled PRNG (no dependencies)
/// used for fault-schedule generation and retry jitter. The sequence is
/// a pure function of the seed, which is what makes chaos runs and
/// backoff timing replayable.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole output sequence is determined by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`0` when `bound` is `0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// A float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

/// The faults applied to one connection. Frame indices count from 0 per
/// direction: `drop_sends: vec![2]` loses the third frame this side
/// sends, `sever_after_recvs: Some(1)` kills the link once one frame
/// has been received.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionFaults {
    /// Refuse the connection outright: a [`ChaosListener`] drops it
    /// before the protocol sees it, as if the dial never completed.
    pub refuse: bool,
    /// Sever the link once this many frames have been sent.
    pub sever_after_sends: Option<u32>,
    /// Sever the link once this many frames have been received.
    pub sever_after_recvs: Option<u32>,
    /// Send indices that vanish in flight: `send` reports success but
    /// the peer never sees the frame.
    pub drop_sends: Vec<u32>,
    /// Send indices delivered twice, back to back.
    pub duplicate_sends: Vec<u32>,
    /// The receive index at which the peer's frame arrives truncated;
    /// the link is severed afterwards, like a socket cut mid-frame.
    pub truncate_recv: Option<u32>,
}

impl ConnectionFaults {
    /// No faults at all.
    pub fn clean() -> ConnectionFaults {
        ConnectionFaults::default()
    }
}

/// A deterministic fault plan for a sequence of connections, indexed by
/// arrival order. Connections past the end of the plan are clean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Per-connection faults, in arrival order.
    pub connections: Vec<ConnectionFaults>,
}

impl FaultSchedule {
    /// A schedule that injects nothing.
    pub fn clean() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Generates a schedule for `connections` connections from a seed.
    /// The same `(seed, connections)` pair always yields the same
    /// schedule, so a failing soak case is reproducible from its seed
    /// alone. Fault rates are tuned so most schedules contain several
    /// faults but leave later connections clean enough to converge.
    pub fn from_seed(seed: u64, connections: usize) -> FaultSchedule {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Vec::with_capacity(connections);
        for _ in 0..connections {
            let mut faults = ConnectionFaults::clean();
            if rng.chance(0.15) {
                faults.refuse = true;
                plan.push(faults);
                continue;
            }
            if rng.chance(0.35) {
                faults.sever_after_sends = Some(rng.below(8) as u32);
            }
            if rng.chance(0.35) {
                faults.sever_after_recvs = Some(rng.below(8) as u32);
            }
            for _ in 0..2 {
                if rng.chance(0.2) {
                    faults.drop_sends.push(rng.below(10) as u32);
                }
            }
            for _ in 0..2 {
                if rng.chance(0.2) {
                    faults.duplicate_sends.push(rng.below(10) as u32);
                }
            }
            if rng.chance(0.15) {
                faults.truncate_recv = Some(rng.below(8) as u32);
            }
            plan.push(faults);
        }
        FaultSchedule { connections: plan }
    }

    /// The faults for the `index`-th connection (clean past the end).
    fn faults(&self, index: usize) -> ConnectionFaults {
        self.connections.get(index).cloned().unwrap_or_default()
    }
}

fn chaos_severed() -> DistError {
    DistError::Io(std::io::Error::new(
        std::io::ErrorKind::BrokenPipe,
        "chaos: link severed by fault schedule",
    ))
}

/// A [`Connection`] that injects the faults of one
/// [`ConnectionFaults`] entry into an inner connection. Severing uses
/// the inner connection's own canceller, so the peer observes the cut
/// exactly as it would a real one.
#[derive(Debug)]
pub struct ChaosConnection<C: Connection> {
    inner: C,
    faults: ConnectionFaults,
    sends: u32,
    recvs: u32,
    dead: bool,
}

impl<C: Connection> ChaosConnection<C> {
    /// Wraps `inner`, applying `faults` to its frames.
    pub fn new(inner: C, faults: ConnectionFaults) -> ChaosConnection<C> {
        ChaosConnection {
            inner,
            faults,
            sends: 0,
            recvs: 0,
            dead: false,
        }
    }

    fn sever(&mut self) {
        if !self.dead {
            self.dead = true;
            (self.inner.canceller())();
        }
    }
}

impl<C: Connection> Connection for ChaosConnection<C> {
    fn send(&mut self, message: &Message) -> Result<(), DistError> {
        if self.dead {
            return Err(chaos_severed());
        }
        if let Some(n) = self.faults.sever_after_sends {
            if self.sends >= n {
                self.sever();
                return Err(chaos_severed());
            }
        }
        let index = self.sends;
        self.sends += 1;
        if self.faults.drop_sends.contains(&index) {
            // Lost in flight: this side believes the frame went out.
            return Ok(());
        }
        self.inner.send(message)?;
        if self.faults.duplicate_sends.contains(&index) {
            self.inner.send(message)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, DistError> {
        if self.dead {
            return Err(chaos_severed());
        }
        if let Some(n) = self.faults.sever_after_recvs {
            if self.recvs >= n {
                self.sever();
                return Err(chaos_severed());
            }
        }
        if self.faults.truncate_recv == Some(self.recvs) {
            // A frame cut mid-body: the bytes that did arrive are
            // consumed, the decode fails, and the link is gone.
            let _ = self.inner.recv();
            self.sever();
            return Err(DistError::Wire(WireError::Truncated));
        }
        let message = self.inner.recv()?;
        self.recvs += 1;
        Ok(message)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_recv_timeout(timeout);
    }

    fn canceller(&self) -> Canceller {
        self.inner.canceller()
    }
}

/// A [`Listener`] that wraps every accepted connection in a
/// [`ChaosConnection`], assigning faults by accept order, and silently
/// drops connections whose schedule entry says `refuse` (the dialling
/// side sees a severed link, as with a connection refused mid-dial).
#[derive(Debug)]
pub struct ChaosListener<L: Listener> {
    inner: L,
    schedule: FaultSchedule,
    accepted: usize,
}

impl<L: Listener> ChaosListener<L> {
    /// Wraps `inner`, applying `schedule` by accept order.
    pub fn new(inner: L, schedule: FaultSchedule) -> ChaosListener<L> {
        ChaosListener {
            inner,
            schedule,
            accepted: 0,
        }
    }

    fn admit(&mut self, conn: L::Conn) -> Option<ChaosConnection<L::Conn>> {
        let faults = self.schedule.faults(self.accepted);
        self.accepted += 1;
        if faults.refuse {
            drop(conn);
            return None;
        }
        Some(ChaosConnection::new(conn, faults))
    }
}

impl<L: Listener> Listener for ChaosListener<L> {
    type Conn = ChaosConnection<L::Conn>;

    fn poll_accept(&mut self) -> Result<Option<Self::Conn>, DistError> {
        while let Some(conn) = self.inner.poll_accept()? {
            if let Some(admitted) = self.admit(conn) {
                return Ok(Some(admitted));
            }
        }
        Ok(None)
    }

    fn accept(&mut self) -> Result<Option<Self::Conn>, DistError> {
        loop {
            match self.inner.accept()? {
                None => return Ok(None),
                Some(conn) => {
                    if let Some(admitted) = self.admit(conn) {
                        return Ok(Some(admitted));
                    }
                }
            }
        }
    }

    fn canceller(&self) -> Canceller {
        self.inner.canceller()
    }
}

/// Hands out chaos-wrapped connections from a connect closure, drawing
/// faults from a schedule by dial order. Clone-free and thread-safe via
/// an internal counter, so several workers can share one connector.
#[derive(Debug)]
pub struct ChaosDialer {
    schedule: FaultSchedule,
    dialled: AtomicUsize,
}

impl ChaosDialer {
    /// A dialer applying `schedule` in dial order.
    pub fn new(schedule: FaultSchedule) -> Arc<ChaosDialer> {
        Arc::new(ChaosDialer {
            schedule,
            dialled: AtomicUsize::new(0),
        })
    }

    /// Wraps the next outbound connection. A `refuse` entry fails the
    /// dial itself, like a connection refused by a coordinator that has
    /// not bound its port yet.
    ///
    /// # Errors
    /// Fails when the schedule refuses this dial.
    pub fn dial<C: Connection>(&self, conn: C) -> Result<ChaosConnection<C>, DistError> {
        let faults = self
            .schedule
            .faults(self.dialled.fetch_add(1, Ordering::SeqCst));
        if faults.refuse {
            return Err(DistError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "chaos: connect refused by fault schedule",
            )));
        }
        Ok(ChaosConnection::new(conn, faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
        assert_ne!(first[0], first[1]);
        let mut c = SplitMix64::new(43);
        assert_ne!(first[0], c.next_u64());
    }

    #[test]
    fn schedules_replay_bit_identically_from_their_seed() {
        let a = FaultSchedule::from_seed(7, 12);
        let b = FaultSchedule::from_seed(7, 12);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::from_seed(8, 12));
        // Past-the-end connections are clean.
        assert_eq!(a.faults(100), ConnectionFaults::clean());
    }

    #[test]
    fn drop_and_duplicate_reorder_nothing_else() {
        let (a, mut b) = loopback_pair();
        let faults = ConnectionFaults {
            drop_sends: vec![1],
            duplicate_sends: vec![2],
            ..ConnectionFaults::clean()
        };
        let mut chaotic = ChaosConnection::new(a, faults);
        for n in 0..4 {
            chaotic.send(&Message::Request { max_cells: n }).unwrap();
        }
        // Send 1 vanished, send 2 arrived twice, order preserved.
        let got: Vec<Message> = (0..4).map(|_| b.recv().unwrap()).collect();
        assert_eq!(
            got,
            vec![
                Message::Request { max_cells: 0 },
                Message::Request { max_cells: 2 },
                Message::Request { max_cells: 2 },
                Message::Request { max_cells: 3 },
            ]
        );
    }

    #[test]
    fn sever_after_sends_cuts_the_link_for_both_sides() {
        let (a, mut b) = loopback_pair();
        let faults = ConnectionFaults {
            sever_after_sends: Some(1),
            ..ConnectionFaults::clean()
        };
        let mut chaotic = ChaosConnection::new(a, faults);
        chaotic.send(&Message::Finished).unwrap();
        assert!(chaotic.send(&Message::Finished).is_err());
        assert!(chaotic.recv().is_err(), "a severed link stays severed");
        assert_eq!(b.recv().unwrap(), Message::Finished);
        assert!(b.recv().is_err(), "the peer observes the cut");
    }

    #[test]
    fn truncate_recv_consumes_the_frame_and_severs() {
        let (mut a, b) = loopback_pair();
        let faults = ConnectionFaults {
            truncate_recv: Some(0),
            ..ConnectionFaults::clean()
        };
        let mut chaotic = ChaosConnection::new(b, faults);
        a.send(&Message::Finished).unwrap();
        assert!(matches!(
            chaotic.recv(),
            Err(DistError::Wire(WireError::Truncated))
        ));
        assert!(a.send(&Message::Finished).is_err());
    }

    #[test]
    fn refused_connections_never_reach_the_accept_loop() {
        let hub = crate::transport::LoopbackHub::new();
        let schedule = FaultSchedule {
            connections: vec![
                ConnectionFaults {
                    refuse: true,
                    ..ConnectionFaults::clean()
                },
                ConnectionFaults::clean(),
            ],
        };
        let mut listener = ChaosListener::new(hub.listener(), schedule);
        let mut refused = hub.connect();
        let mut admitted = hub.connect();
        let mut server = listener
            .accept()
            .unwrap()
            .expect("second connection admitted");
        assert!(refused.recv().is_err(), "refused dialler sees a dead link");
        admitted.send(&Message::Finished).unwrap();
        assert_eq!(server.recv().unwrap(), Message::Finished);
    }

    #[test]
    fn dialer_refuses_by_schedule_and_then_admits() {
        let schedule = FaultSchedule {
            connections: vec![
                ConnectionFaults {
                    refuse: true,
                    ..ConnectionFaults::clean()
                },
                ConnectionFaults::clean(),
            ],
        };
        let dialer = ChaosDialer::new(schedule);
        let (a, _b) = loopback_pair();
        assert!(dialer.dial(a).is_err());
        let (a, mut b) = loopback_pair();
        let mut conn = dialer.dial(a).unwrap();
        conn.send(&Message::Finished).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Finished);
    }
}
