//! Reliable per-peer sessions over any [`Transport`].
//!
//! [`Session`] wraps a (possibly lossy) transport and guarantees that every
//! payload handed to [`Transport::send`] is eventually delivered to
//! its destination exactly once, in per-peer order, without changing the
//! *logical* payload accounting: each payload counts once in
//! `sent_messages`/`sent_payload_bytes` no matter how many times the wire
//! had to carry it, retransmitted copies accumulate only in
//! `retrans_messages`/`retrans_bytes`, and acks only in
//! `control_messages`/`control_bytes`. That keeps the invariant the paper's
//! analysis rests on — wire payload volume equals the analytic
//! communication volume — intact under fault injection.
//!
//! ## State machine
//!
//! Per destination peer the sender keeps a `next_seq` counter and a queue
//! of unacked in-flight payloads; per source peer the receiver keeps
//! `next_expected` and a bounded reorder window:
//!
//! ```text
//!   send(dest, Payload{p})
//!        │ assign seq = next_seq++, queue as unacked
//!        ▼
//!   [in flight] ──(rto elapses)──▶ retransmit, rto = min(2·rto, cap)
//!        │                              │ (loops until acked)
//!        │◀─────────────────────────────┘
//!        │ Ack{upto > seq} arrives
//!        ▼
//!   [acked] — dropped from the queue, AckRtt event recorded
//!
//!   Seq{src, seq, p} arrives
//!        │ seq < next_expected          → duplicate: re-ack, discard
//!        │ seq ≥ next_expected + window → overflow: discard (sender retries)
//!        │ otherwise                    → buffer; deliver the contiguous
//!        ▼                                prefix, advance next_expected
//!   ack(src, next_expected) — cumulative: "everything below arrived"
//! ```
//!
//! Frames are stepped a batch at a time: whatever the inner transport
//! already holds is drained into one [`Session::handle_wire`] call, which
//! sends one ack per source — the last, highest `next_expected` — after the
//! whole batch. Acks are cumulative, so the ones a batch skips carry no
//! information; a batch of one is the per-frame protocol.
//!
//! ## Deadlock freedom
//!
//! The session has no background threads. Retransmission and ack
//! processing run *inside* its one receive: [`Transport::try_recv`] handles
//! whatever the inner transport holds and fires the timers that are due,
//! and [`Transport::next_timer`] tells whoever waits when the next one is —
//! the driver stepping the rank, or [`crate::wait_for`] — so a rank that
//! waits for a message tries again at its retransmission time as well as
//! at every arrival. A rank that stops receiving has either finished
//! (nothing left to deliver to it) or dropped its endpoint, and [`Drop`]
//! waits through [`crate::wait_for`] until its last payload is acked, for
//! at most [`SessionConfig::linger`], receiving all the while so that
//! inbound payloads are still acked and peers' own drains complete.
//!
//! The timers read the session's [`Clock`], and a driver waits for them on
//! its own clock; a session and the job table whose engine steps it must
//! therefore share one.

use crate::clock::{Clock, RealClock};
use crate::msg::{Message, NodeId, Payload};
use crate::transport::{wait_for, StatsCell, Traffic, Transport, TransportStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::{Duration, Instant};

/// Timing and window knobs of a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Initial retransmission timeout: an unacked payload is resent once
    /// this much time passes without a covering ack.
    pub rto: Duration,
    /// Upper bound of the exponential backoff (`rto` doubles per resend of
    /// the same payload up to this cap).
    pub backoff_cap: Duration,
    /// How long [`Drop`] keeps retransmitting unacked payloads before
    /// giving up. Zero disables the teardown drain entirely (and a
    /// poisoned session always skips it) — checker-driven sessions on a
    /// frozen virtual clock must use zero, since their drain deadline
    /// would otherwise never arrive.
    pub linger: Duration,
    /// Receiver reorder window per peer, in sequence numbers. Payloads
    /// beyond `next_expected + window` are discarded and must be
    /// retransmitted once the window catches up.
    pub window: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            rto: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(500),
            linger: Duration::from_secs(2),
            window: 1024,
        }
    }
}

/// What a recorded [`SessionEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEventKind {
    /// A payload was resent; the span runs from the previous transmission
    /// to the retransmission.
    Retransmit,
    /// An ack covered an in-flight payload; the span runs from its last
    /// transmission to the ack's arrival (an RTT estimate).
    AckRtt,
}

/// One timed reliability event, for export into observability traces.
///
/// Times are [`Instant`]s so `sbc-net` needs no dependency on the
/// observability crate; convert with its recorder's epoch when exporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEvent {
    /// What happened.
    pub kind: SessionEventKind,
    /// The peer the payload was addressed to.
    pub peer: NodeId,
    /// Span start (see [`SessionEventKind`]).
    pub start: Instant,
    /// Span end.
    pub end: Instant,
}

/// A payload in flight: sent, not yet covered by a cumulative ack.
///
/// The session retains the *logical* [`Payload`] (the tile), never wire
/// bytes: each (re)transmission re-encodes through the transport, whose
/// pooled send buffers return to their [`crate::BufferPool`] as soon as
/// they are written to the socket — an unacked payload does not pin a frame
/// buffer for its whole round trip.
struct Unacked {
    seq: u64,
    payload: Payload,
    last_sent: Instant,
    rto: Duration,
}

/// Sender-side state toward one peer.
struct PeerSend {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
}

/// Receiver-side state from one peer.
struct PeerRecv {
    next_expected: u64,
    window: BTreeMap<u64, Payload>,
}

struct SessState {
    send: Vec<PeerSend>,
    recv: Vec<PeerRecv>,
    /// Messages ready for the runtime: delivered payloads (in per-peer
    /// order) and pass-through control messages, in processing order.
    pending: VecDeque<Message>,
}

/// A reliability layer over any [`Transport`]; see the module docs for the
/// protocol and its invariants.
///
/// All timer decisions read time through the injected [`Clock`], so the
/// state machine is a pure function of (inputs, clock): production sessions
/// run on [`RealClock`], the `sbc-mc` model checker runs the *same code* on
/// a [`crate::VirtualClock`] it advances explicitly.
pub struct Session<T: Transport> {
    inner: T,
    cfg: SessionConfig,
    clock: Arc<dyn Clock>,
    state: Mutex<SessState>,
    stats: StatsCell,
    events: Mutex<Vec<SessionEvent>>,
    poisoned: AtomicBool,
}

impl<T: Transport> Session<T> {
    /// Wraps `inner` with default timing ([`SessionConfig::default`]).
    pub fn new(inner: T) -> Self {
        Session::with_config(inner, SessionConfig::default())
    }

    /// Wraps `inner` with explicit timing and window knobs, on real time.
    pub fn with_config(inner: T, cfg: SessionConfig) -> Self {
        Session::with_clock(inner, cfg, Arc::new(RealClock))
    }

    /// Wraps `inner` with explicit knobs and an explicit time source; this
    /// is how the model checker runs the production state machine on a
    /// virtual clock.
    pub fn with_clock(inner: T, cfg: SessionConfig, clock: Arc<dyn Clock>) -> Self {
        let n = inner.num_nodes();
        Session {
            inner,
            cfg,
            clock,
            state: Mutex::new(SessState {
                send: (0..n)
                    .map(|_| PeerSend {
                        next_seq: 0,
                        unacked: VecDeque::new(),
                    })
                    .collect(),
                recv: (0..n)
                    .map(|_| PeerRecv {
                        next_expected: 0,
                        window: BTreeMap::new(),
                    })
                    .collect(),
                pending: VecDeque::new(),
            }),
            stats: StatsCell::default(),
            events: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Payloads sent but not yet covered by an ack, across all peers.
    pub fn unacked(&self) -> u64 {
        self.lock()
            .send
            .iter()
            .map(|p| p.unacked.len() as u64)
            .sum()
    }

    /// Drains the recorded retransmit / ack-RTT events.
    pub fn take_events(&self) -> Vec<SessionEvent> {
        std::mem::take(
            &mut self
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push_event(&self, ev: SessionEvent) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
    }

    /// Fires every retransmission due at the current clock time: resends
    /// each in-flight payload whose timer expired, doubling its timeout up
    /// to the backoff cap. Public stepping primitive — [`Transport::try_recv`]
    /// calls it after each batch, the model checker after advancing its
    /// virtual clock to [`Transport::next_timer`].
    pub fn drive_timers(&self) {
        let now = self.clock.now();
        let mut due: Vec<(NodeId, u64, Payload)> = Vec::new();
        {
            let mut st = self.lock();
            for (dest, ps) in st.send.iter_mut().enumerate() {
                for u in ps.unacked.iter_mut() {
                    if now.duration_since(u.last_sent) >= u.rto {
                        self.push_event(SessionEvent {
                            kind: SessionEventKind::Retransmit,
                            peer: dest as NodeId,
                            start: u.last_sent,
                            end: now,
                        });
                        u.last_sent = now;
                        u.rto = (u.rto * 2).min(self.cfg.backoff_cap);
                        self.stats.count_retrans(u.payload.payload_bytes());
                        due.push((dest as NodeId, u.seq, u.payload.clone()));
                    }
                }
            }
        }
        let src = self.rank();
        for (dest, seq, payload) in due {
            self.inner.send(dest, Message::Seq { src, seq, payload });
        }
    }

    /// Feeds one batch of wire-level messages through the session state
    /// machine, in order, then sends one cumulative ack to each source that
    /// sent a `Seq` in the batch — covering everything the batch delivered,
    /// and re-acking a batch of duplicates once. Public stepping primitive:
    /// [`Transport::try_recv`] hands it everything the inner transport holds,
    /// the model checker one in-flight frame or a destination's whole queue, one
    /// interleaving at a time; deliveries surface via
    /// [`pop_ready`](Session::pop_ready).
    pub fn handle_wire(&self, batch: impl IntoIterator<Item = Message>) {
        let mut acks: Vec<(NodeId, u64)> = Vec::new();
        for msg in batch {
            if let Some((src, upto)) = self.process(msg) {
                match acks.iter_mut().find(|(dest, _)| *dest == src) {
                    Some(ack) => ack.1 = ack.1.max(upto),
                    None => acks.push((src, upto)),
                }
            }
        }
        let src = self.rank();
        for (dest, upto) in acks {
            self.inner.send(dest, Message::Ack { src, upto });
        }
    }

    /// Feeds one inner message through the session state machine; the ack
    /// it calls for, if any, is returned so the caller can send it outside
    /// the lock.
    fn process(&self, msg: Message) -> Option<(NodeId, u64)> {
        let now = self.clock.now();
        let mut st = self.lock();
        match msg {
            // `src` comes off the wire. A frame from no rank of this mesh is
            // noise, dropped like one that failed its CRC: it has no peer
            // state to index and nobody to ack
            Message::Seq { src, .. } | Message::Ack { src, .. }
                if src as usize >= st.recv.len() => {}
            Message::Seq { src, seq, payload } => {
                let s = src as usize;
                if seq >= st.recv[s].next_expected + self.cfg.window {
                    // beyond the reorder window: discard, the sender will
                    // retransmit once the window has advanced
                    return None;
                }
                if seq >= st.recv[s].next_expected {
                    st.recv[s].window.entry(seq).or_insert(payload);
                    // deliver the contiguous prefix in sequence order
                    loop {
                        let ne = st.recv[s].next_expected;
                        let Some(p) = st.recv[s].window.remove(&ne) else {
                            break;
                        };
                        st.recv[s].next_expected = ne + 1;
                        self.stats
                            .count_received(Traffic::Payload(p.payload_bytes()), 0);
                        st.pending.push_back(Message::Payload { src, payload: p });
                    }
                }
                // cumulative: re-acks duplicates, confirms new arrivals
                return Some((src, st.recv[s].next_expected));
            }
            Message::Ack { src, upto } => {
                let ps = &mut st.send[src as usize];
                while ps.unacked.front().is_some_and(|u| u.seq < upto) {
                    let u = ps.unacked.pop_front().expect("checked non-empty");
                    self.push_event(SessionEvent {
                        kind: SessionEventKind::AckRtt,
                        peer: src,
                        start: u.last_sent,
                        end: now,
                    });
                }
            }
            Message::Poison => {
                self.poisoned.store(true, Ordering::Relaxed);
                st.pending.push_back(Message::Poison);
            }
            other => st.pending.push_back(other),
        }
        None
    }

    /// Pops the next ready message — a delivered payload (in per-peer
    /// order) or a pass-through control message — without receiving from the
    /// inner transport. Public stepping primitive.
    pub fn pop_ready(&self) -> Option<Message> {
        self.lock().pending.pop_front()
    }

    /// A hashable snapshot of the logical protocol state, with all times
    /// expressed *relative* to the session clock's current instant — two
    /// sessions in the same protocol state probe identically no matter
    /// when they reached it, which is what makes state-space dedup work
    /// under a monotone clock.
    pub fn probe(&self) -> SessionProbe {
        let now = self.clock.now();
        let st = self.lock();
        SessionProbe {
            send: st
                .send
                .iter()
                .map(|ps| PeerSendProbe {
                    next_seq: ps.next_seq,
                    unacked: ps
                        .unacked
                        .iter()
                        .map(|u| UnackedProbe {
                            seq: u.seq,
                            bytes: u.payload.payload_bytes(),
                            due_in_ns: u64::try_from(
                                (u.last_sent + u.rto)
                                    .saturating_duration_since(now)
                                    .as_nanos(),
                            )
                            .unwrap_or(u64::MAX),
                            rto_ns: u64::try_from(u.rto.as_nanos()).unwrap_or(u64::MAX),
                        })
                        .collect(),
                })
                .collect(),
            recv: st
                .recv
                .iter()
                .map(|pr| PeerRecvProbe {
                    next_expected: pr.next_expected,
                    window: pr.window.keys().copied().collect(),
                })
                .collect(),
            pending: st.pending.len(),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }
}

/// One in-flight payload in a [`SessionProbe`], timers relative to `now`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnackedProbe {
    /// Its sequence number toward that peer.
    pub seq: u64,
    /// Logical payload bytes.
    pub bytes: u64,
    /// Nanoseconds until its retransmission timer fires (0 = already due).
    pub due_in_ns: u64,
    /// Its current (possibly backed-off) retransmission timeout.
    pub rto_ns: u64,
}

/// Sender-side state toward one peer in a [`SessionProbe`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeerSendProbe {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// In-flight payloads, oldest first.
    pub unacked: Vec<UnackedProbe>,
}

/// Receiver-side state from one peer in a [`SessionProbe`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeerRecvProbe {
    /// Next sequence number the contiguous prefix is waiting for.
    pub next_expected: u64,
    /// Sequence numbers buffered out of order in the reorder window.
    pub window: Vec<u64>,
}

/// A hashable snapshot of a session's logical protocol state; see
/// [`Session::probe`]. Times are relative to the session clock, so probes
/// canonicalize away absolute time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionProbe {
    /// Per-destination sender state, indexed by rank.
    pub send: Vec<PeerSendProbe>,
    /// Per-source receiver state, indexed by rank.
    pub recv: Vec<PeerRecvProbe>,
    /// Messages delivered but not yet popped by the runtime.
    pub pending: usize,
    /// Whether the session saw or sent poison.
    pub poisoned: bool,
}

impl<T: Transport> Transport for Session<T> {
    fn rank(&self) -> NodeId {
        self.inner.rank()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        let payload = match msg {
            // sessions do not nest: a sequenced send from above is a
            // logical payload like any other
            Message::Payload { payload, .. } | Message::Seq { payload, .. } => payload,
            control => {
                if matches!(control, Message::Poison) {
                    // this rank is aborting: retransmitting its in-flight
                    // payloads at teardown would only delay the shutdown
                    self.poisoned.store(true, Ordering::Relaxed);
                }
                return self.inner.send(dest, control);
            }
        };
        // the logical send is counted exactly once, and accepted, whatever
        // the wire does with any copy of it
        let logical = Traffic::Payload(payload.payload_bytes());
        let bytes = self.stats.count_sent(logical, 0);
        let seq = {
            let mut st = self.lock();
            let ps = &mut st.send[dest as usize];
            let seq = ps.next_seq;
            ps.next_seq += 1;
            ps.unacked.push_back(Unacked {
                seq,
                payload: payload.clone(),
                last_sent: self.clock.now(),
                rto: self.cfg.rto,
            });
            seq
        };
        let src = self.rank();
        self.inner.send(dest, Message::Seq { src, seq, payload });
        Some(bytes)
    }

    fn set_waker(&self, waker: Option<Waker>) {
        self.inner.set_waker(waker);
    }

    /// The earliest instant at which an in-flight payload's retransmission
    /// timer fires, or `None` when nothing is unacked. The model checker
    /// advances its virtual clock exactly here before calling
    /// [`Session::drive_timers`], so timer firings are discrete events
    /// rather than races.
    fn next_timer(&self) -> Option<Instant> {
        self.lock()
            .send
            .iter()
            .flat_map(|ps| ps.unacked.iter())
            .map(|u| u.last_sent + u.rto)
            .min()
    }

    fn try_recv(&self) -> Option<Message> {
        // everything the inner transport holds right now, as one batch
        self.handle_wire(std::iter::from_fn(|| self.inner.try_recv()));
        self.drive_timers();
        self.pop_ready()
    }

    fn stats(&self) -> TransportStats {
        let inner = self.inner.stats();
        let own = self.stats.snapshot();
        TransportStats {
            // logical payload accounting: one count per payload, however
            // many copies the wire carried or dropped
            sent_messages: own.sent_messages,
            sent_payload_bytes: own.sent_payload_bytes,
            recv_messages: own.recv_messages,
            recv_payload_bytes: own.recv_payload_bytes,
            // the wire's own truth for raw volume
            sent_frame_bytes: inner.sent_frame_bytes,
            recv_frame_bytes: inner.recv_frame_bytes,
            retrans_messages: own.retrans_messages + inner.retrans_messages,
            retrans_bytes: own.retrans_bytes + inner.retrans_bytes,
            control_messages: own.control_messages + inner.control_messages,
            control_bytes: own.control_bytes + inner.control_bytes,
        }
    }
}

impl<T: Transport> Drop for Session<T> {
    fn drop(&mut self) {
        // a poisoned session is aborting, and `linger: 0` opts out of the
        // drain entirely — on a frozen virtual clock the deadline below
        // would never arrive, so checker-driven sessions rely on this
        if self.poisoned.load(Ordering::Relaxed) || self.cfg.linger.is_zero() {
            return;
        }
        let until = self.clock.now() + self.cfg.linger;
        // the drain ends on a condition, not on a message: the last ack is
        // consumed inside `try_recv` and never surfaces. Receiving keeps
        // acking inbound payloads so peers' drains finish too
        wait_for(&*self, &*self.clock, Some(until), || {
            while self.try_recv().is_some() {}
            (self.unacked() == 0).then_some(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::faulty::{FaultConfig, Faulty};
    use crate::inproc::inproc_mesh;
    use sbc_kernels::Tile;

    /// The next message `t` delivers within `patience` of real time.
    fn recv_within<T: Transport>(t: &T, patience: Duration) -> Option<Message> {
        wait_for(t, &RealClock, Some(Instant::now() + patience), || {
            t.try_recv()
        })
    }

    /// Receives on `t` until nothing it sent is unacked, for at most
    /// `patience` of real time; whether it got there.
    fn drain_acks<T: Transport>(t: &Session<T>, patience: Duration) -> bool {
        let until = Some(Instant::now() + patience);
        let acked = wait_for(t, &RealClock, until, || {
            while t.try_recv().is_some() {}
            (t.unacked() == 0).then_some(())
        });
        acked.is_some()
    }

    fn payload(k: u32) -> Payload {
        Payload::Data {
            job: 0,
            producer: k,
            tile: Tile::zeros(2),
        }
    }

    fn fast() -> SessionConfig {
        SessionConfig {
            rto: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            linger: Duration::from_secs(5),
            window: 64,
        }
    }

    fn producer_of(m: &Message) -> u32 {
        match m {
            Message::Payload {
                payload: Payload::Data { producer, .. },
                ..
            } => *producer,
            other => panic!("expected a data payload, got {other:?}"),
        }
    }

    #[test]
    fn clean_channel_delivers_in_order_with_logical_counts() {
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(mesh.next().unwrap(), fast());
        let b = Session::with_config(mesh.next().unwrap(), fast());
        for k in 0..5 {
            assert_eq!(a.send_payload(1, payload(k)), Some(32));
        }
        for k in 0..5 {
            let m = recv_within(&b, Duration::from_secs(5)).expect("a message");
            assert_eq!(producer_of(&m), k);
        }
        // receive on a until the acks land
        assert!(
            drain_acks(&a, Duration::from_secs(5)),
            "acks cover everything"
        );
        let s = a.stats();
        assert_eq!((s.sent_messages, s.sent_payload_bytes), (5, 160));
        assert_eq!(s.retrans_messages, 0, "no loss, no retransmits");
        let s = b.stats();
        assert_eq!((s.recv_messages, s.recv_payload_bytes), (5, 160));
        assert!(s.control_messages > 0, "acks were sent");
    }

    #[test]
    fn a_drained_batch_is_acked_once_per_source() {
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(mesh.next().unwrap(), fast());
        let b = Session::with_config(mesh.next().unwrap(), fast());
        for k in 0..8 {
            a.send_payload(1, payload(k));
        }
        // b's first receive drains all eight and covers them with one ack
        assert_eq!(producer_of(&b.recv().unwrap()), 0);
        assert_eq!(b.inner().stats().control_messages, 1);
        for k in 1..8 {
            assert_eq!(producer_of(&b.try_recv().unwrap()), k);
        }
        assert_eq!(b.stats().control_messages, 1, "delivered, not re-acked");
        assert_eq!(recv_within(&a, Duration::from_millis(20)), None);
        assert_eq!(a.unacked(), 0, "the one ack said upto 8");

        // a retransmitted duplicate is re-acked once and not delivered again
        a.inner().send(
            1,
            Message::Seq {
                src: 0,
                seq: 3,
                payload: payload(3),
            },
        );
        assert_eq!(recv_within(&b, Duration::from_millis(20)), None);
        assert_eq!(b.stats().control_messages, 2);
        assert_eq!(b.stats().recv_messages, 8);
        assert_eq!(a.inner().try_recv(), Some(Message::Ack { src: 1, upto: 8 }));
    }

    #[test]
    fn dropped_payloads_are_recovered_by_retransmission() {
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(
            Faulty::new(
                mesh.next().unwrap(),
                FaultConfig {
                    drop_every: 2,
                    max_drops: 4,
                    ..Default::default()
                },
            ),
            fast(),
        );
        let b = Session::with_config(mesh.next().unwrap(), fast());
        for k in 0..8 {
            a.send_payload(1, payload(k));
        }
        let (a, b) = (&a, &b);
        std::thread::scope(|s| {
            // a's receives drive the retransmissions b's receipt depends on
            let acked = s.spawn(move || drain_acks(a, Duration::from_secs(10)));
            for k in 0..8 {
                let m = recv_within(b, Duration::from_secs(10));
                let m = m.unwrap_or_else(|| panic!("payload {k} never recovered"));
                assert_eq!(producer_of(&m), k, "in order despite drops");
            }
            acked.join().unwrap();
        });
        assert_eq!(a.unacked(), 0);
        let dropped = a.inner().dropped();
        assert!(
            (1..=4).contains(&dropped),
            "seeded loss should swallow between 1 and max_drops payloads, got {dropped}"
        );
        let s = a.stats();
        assert_eq!(s.sent_messages, 8, "logical sends count once");
        assert!(
            s.retrans_messages >= dropped,
            "each drop forced at least one retransmit, got {} for {dropped} drops",
            s.retrans_messages
        );
        assert_eq!(b.stats().recv_messages, 8, "exactly-once delivery");
        assert!(
            a.take_events()
                .iter()
                .any(|e| e.kind == SessionEventKind::Retransmit),
            "retransmit events were recorded"
        );
    }

    #[test]
    fn duplicates_are_delivered_exactly_once() {
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(
            Faulty::new(mesh.next().unwrap(), FaultConfig::duplicating(2)),
            fast(),
        );
        let b = Session::with_config(mesh.next().unwrap(), fast());
        for k in 0..6 {
            a.send_payload(1, payload(k));
        }
        for k in 0..6 {
            let m = recv_within(&b, Duration::from_secs(5));
            let m = m.unwrap_or_else(|| panic!("missing payload {k}"));
            assert_eq!(producer_of(&m), k);
        }
        assert_eq!(
            recv_within(&b, Duration::from_millis(20)),
            None,
            "duplicates must not surface twice"
        );
        assert_eq!(b.stats().recv_messages, 6);
        assert_eq!(a.inner().duplicated(), 3);
    }

    #[test]
    fn control_messages_pass_through_unsequenced() {
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(mesh.next().unwrap(), fast());
        let b = Session::with_config(mesh.next().unwrap(), fast());
        let done = Message::Done {
            src: 0,
            stats: crate::msg::PeerStats::default(),
        };
        assert_eq!(a.send(1, done), Some(0));
        a.send_poison(1);
        assert!(matches!(
            recv_within(&b, Duration::from_secs(5)),
            Some(Message::Done { .. })
        ));
        assert_eq!(
            recv_within(&b, Duration::from_secs(5)),
            Some(Message::Poison)
        );
        assert_eq!(a.stats().sent_messages, 0, "control is not payload");
    }

    /// On a virtual clock nothing retransmits until time is *advanced*:
    /// timer firings are data, not races. This is the property the model
    /// checker's exhaustive exploration rests on.
    #[test]
    fn virtual_clock_makes_retransmission_deterministic() {
        let clock = Arc::new(VirtualClock::new());
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_clock(
            Faulty::new(
                mesh.next().unwrap(),
                FaultConfig {
                    drop_every: 1,
                    max_drops: 1,
                    ..Default::default()
                },
            ),
            fast(),
            clock.clone(),
        );
        let b = Session::with_clock(mesh.next().unwrap(), fast(), clock.clone());
        a.send_payload(1, payload(7));
        assert_eq!(a.inner().dropped(), 1, "the original was swallowed");
        let due = a.next_timer().expect("one payload in flight");
        assert_eq!(
            due.saturating_duration_since(clock.now()),
            fast().rto,
            "timer armed exactly one rto out"
        );
        // time stands still: driving timers is a no-op, nothing arrives
        a.drive_timers();
        assert!(b.inner().try_recv().is_none(), "no retransmit before rto");
        assert_eq!(a.probe().send[1].unacked.len(), 1);
        // advance exactly to the deadline: one retransmit, delivered
        clock.advance_to(due);
        a.drive_timers();
        let m = b.inner().try_recv().expect("retransmit crossed the wire");
        b.handle_wire([m]);
        assert_eq!(producer_of(&b.pop_ready().expect("delivered")), 7);
        assert_eq!(a.stats().retrans_messages, 1);
        // the backoff doubled: the next deadline is 2·rto out
        let p = a.probe();
        assert_eq!(
            p.send[1].unacked[0].rto_ns,
            (fast().rto * 2).as_nanos() as u64
        );
        // feed the ack back: the in-flight queue empties
        let ack = a.inner().inner().try_recv().expect("b acked");
        a.handle_wire([ack]);
        assert_eq!(a.unacked(), 0);
        assert_eq!(b.stats().recv_messages, 1);
    }

    /// Probes express timers relative to `now`, so two sessions that are
    /// in the same protocol state at *different* absolute times still
    /// compare (and hash) equal — the canonicalization state-space dedup
    /// depends on.
    #[test]
    fn probes_canonicalize_absolute_time_away() {
        let build = |advance_first: Duration| {
            let clock = Arc::new(VirtualClock::new());
            let mut mesh = inproc_mesh(2).into_iter();
            // linger 0: a frozen clock never reaches a drain deadline
            let cfg = SessionConfig {
                linger: Duration::ZERO,
                ..fast()
            };
            let s = Session::with_clock(mesh.next().unwrap(), cfg, clock.clone());
            let _peer = mesh.next().unwrap();
            clock.advance(advance_first); // shift absolute send time
            s.send_payload(1, payload(0));
            s.probe()
        };
        assert_eq!(
            build(Duration::ZERO),
            build(Duration::from_secs(3600)),
            "same protocol state, different wall positions"
        );
    }

    #[test]
    fn zero_linger_drop_returns_immediately_with_traffic_in_flight() {
        let clock = Arc::new(VirtualClock::new());
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_clock(
            mesh.next().unwrap(),
            SessionConfig {
                linger: Duration::ZERO,
                ..fast()
            },
            clock,
        );
        let _b = mesh.next().unwrap();
        a.send_payload(1, payload(0));
        assert_eq!(a.unacked(), 1);
        drop(a); // frozen clock: a lingering drain would never terminate
    }

    #[test]
    fn drop_drains_unacked_payloads() {
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(
            Faulty::new(
                mesh.next().unwrap(),
                FaultConfig {
                    drop_every: 1,
                    max_drops: 2,
                    ..Default::default()
                },
            ),
            fast(),
        );
        let b = Session::with_config(mesh.next().unwrap(), fast());
        a.send_payload(1, payload(0));
        a.send_payload(1, payload(1));
        assert_eq!(a.inner().dropped(), 2, "both originals were swallowed");
        let (a, b) = (a, &b);
        std::thread::scope(|s| {
            // Drop drains the retransmits
            let h = s.spawn(move || {
                drop(a);
                Instant::now()
            });
            for k in 0..2 {
                let m = recv_within(b, Duration::from_secs(10));
                let m = m.unwrap_or_else(|| panic!("payload {k} lost at teardown"));
                assert_eq!(producer_of(&m), k);
            }
            // b acked both as it received them: the drain ends at that
            // ack, not at the end of its linger
            let held = Instant::now();
            let dropped = h.join().unwrap();
            assert!(
                dropped.saturating_duration_since(held) < Duration::from_secs(1),
                "the drain outlived its last ack by {:?}",
                dropped.saturating_duration_since(held)
            );
        });
        assert_eq!(b.stats().recv_messages, 2);
    }
}
