//! The [`Transport`] trait — what the runtime requires of an interconnect —
//! and the accounting every implementation shares.
//!
//! The trait has one sender, [`Transport::send`], and knows no message
//! variant by name. The counting rule lives here once: `Traffic::of`
//! classifies a message (through [`Message::payload`]) and `StatsCell`'s
//! `count_sent` / `count_received` apply it, for the in-process mesh, the
//! socket mesh and the session's logical counters alike.
//!
//! The trait has one receive, too, and it never waits: [`Transport::try_recv`].
//! Waiting is an endpoint's waker ([`Transport::set_waker`]), its next timer
//! ([`Transport::next_timer`]) and a [`Clock`]. A driver stepping ranks waits
//! on those in its pool; everything that waits outside one — the provided
//! [`Transport::recv`], rank 0's gather, a session's teardown drain — waits
//! through [`wait_for`].

use crate::clock::{Clock, RealClock};
use crate::msg::{Message, NodeId, Payload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

/// Wire-level accounting of one rank's endpoint.
///
/// Payload counts cover only [`Payload`] messages (tile bodies, `dim²·8`
/// bytes each) — the communication volume the runtime's `CommStats` and the
/// analytic model agree on. Frame counts additionally include the framing
/// overhead (tag, length, header fields, CRC) of *every* frame a stream
/// backend writes or reads; for in-process backends they are zero because
/// nothing is serialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Payload messages sent.
    pub sent_messages: u64,
    /// Payload bytes sent (tile bodies only).
    pub sent_payload_bytes: u64,
    /// Payload messages received.
    pub recv_messages: u64,
    /// Payload bytes received (tile bodies only).
    pub recv_payload_bytes: u64,
    /// Total bytes written to the wire, framing included (0 in-process).
    pub sent_frame_bytes: u64,
    /// Total bytes read from the wire, framing included (0 in-process).
    pub recv_frame_bytes: u64,
    /// Retransmitted payload messages (reliability-session resends). Never
    /// folded into `sent_messages` — the analytic model counts each logical
    /// payload once.
    pub retrans_messages: u64,
    /// Retransmitted payload bytes (tile bodies of resent messages).
    pub retrans_bytes: u64,
    /// Control messages sent (acks); free in the analytic model.
    pub control_messages: u64,
    /// Control bytes sent (ack frame bodies; 0 in-process).
    pub control_bytes: u64,
}

/// One rank's endpoint into the interconnect.
///
/// Implementations are shared by every worker thread of a rank (`&self`
/// methods, `Send + Sync`). Sends may block on backpressure but must not
/// deadlock against the receive path; receiving never blocks. Whoever
/// waits for a message registers a waker ([`Transport::set_waker`]),
/// receives with [`Transport::try_recv`], and tries again at
/// [`Transport::next_timer`] — a driver stepping ranks in its pool, anyone
/// else through [`wait_for`].
///
/// There is one sender. Which messages exist is [`Message`]'s business,
/// which of them count as traffic is [`Message::payload`]'s, and how they
/// look on a socket is [`crate::wire::Frame`]'s; a backend only moves what
/// it is handed, so a new message variant touches none of them.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> NodeId;

    /// Number of ranks in the mesh.
    fn num_nodes(&self) -> usize;

    /// Sends `msg` to `dest`, blocking on backpressure.
    ///
    /// Returns the payload bytes accepted for delivery (`0` for a control
    /// message), or `None` if the peer is gone (shutdown race) or the message
    /// was dropped by a fault-injecting wrapper.
    fn send(&self, dest: NodeId, msg: Message) -> Option<u64>;

    /// Sends a counted tile payload from this rank to `dest`.
    fn send_payload(&self, dest: NodeId, payload: Payload) -> Option<u64> {
        let src = self.rank();
        self.send(dest, Message::Payload { src, payload })
    }

    /// Tells `dest` that this rank failed and it should abort.
    fn send_poison(&self, dest: NodeId) {
        self.send(dest, Message::Poison);
    }

    /// Has `waker` woken after every message that reaches this endpoint's
    /// inbox, from then on; `None` stops it. It is woken on the thread that
    /// delivered — a peer's send, a socket reader — so waking may mark the
    /// rank runnable and nothing more: never receive, never send.
    fn set_waker(&self, waker: Option<Waker>);

    /// When this endpoint next needs a [`Transport::try_recv`] although
    /// nothing arrived — a session's earliest retransmission — on the clock
    /// it was built with; `None` while no timer is armed.
    fn next_timer(&self) -> Option<Instant>;

    /// Returns the next message if one is already queued — and, for an
    /// endpoint with timers, fires those that are due.
    fn try_recv(&self) -> Option<Message>;

    /// A snapshot of this endpoint's wire-level accounting.
    fn stats(&self) -> TransportStats;

    /// Waits for the next message, on real time: [`wait_for`] with no
    /// deadline, so it always returns `Some`. It takes the endpoint's waker,
    /// so it must never run on an endpoint a driver is stepping; an endpoint
    /// on a virtual clock is waited on with [`wait_for`] and that clock.
    fn recv(&self) -> Option<Message> {
        wait_for(self, &RealClock, None, || self.try_recv())
    }
}

/// Waits on `net` outside any driver until `poll` returns `Some`, or until
/// `clock` reaches `until` (then `None`; never, for `None`).
///
/// `poll` runs first, then again after every wake-up: a delivery to `net`
/// (through its waker), an advance of `clock` by hand (through
/// [`Clock::wake_on_advance`]), or the earlier of `until` and `net`'s next
/// timer coming due — so a session's retransmission fires on time when
/// `poll` calls [`Transport::try_recv`]. A wake-up cannot be lost: the
/// waker is registered before the first `poll`, and the clock's before
/// each read of [`Clock::now`]; a spurious one only costs a `poll`.
///
/// It takes `net`'s waker for its duration and clears it on return, so it
/// must never run on an endpoint a driver is stepping.
pub fn wait_for<T: Transport + ?Sized, R>(
    net: &T,
    clock: &dyn Clock,
    until: Option<Instant>,
    mut poll: impl FnMut() -> Option<R>,
) -> Option<R> {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    net.set_waker(Some(waker.clone()));
    let out = loop {
        if let Some(r) = poll() {
            break Some(r);
        }
        clock.wake_on_advance(&waker);
        let now = clock.now();
        if until.is_some_and(|until| until <= now) {
            break None;
        }
        match until.into_iter().chain(net.next_timer()).min() {
            Some(due) => std::thread::park_timeout(due.saturating_duration_since(now)),
            None => std::thread::park(),
        }
    };
    net.set_waker(None);
    out
}

/// Wakes the thread parked in [`wait_for`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Shared atomic backing for [`TransportStats`].
#[derive(Default)]
pub(crate) struct StatsCell {
    pub sent_messages: AtomicU64,
    pub sent_payload_bytes: AtomicU64,
    pub recv_messages: AtomicU64,
    pub recv_payload_bytes: AtomicU64,
    pub sent_frame_bytes: AtomicU64,
    pub recv_frame_bytes: AtomicU64,
    pub retrans_messages: AtomicU64,
    pub retrans_bytes: AtomicU64,
    pub control_messages: AtomicU64,
    pub control_bytes: AtomicU64,
}

/// How one message enters the accounting: the single counting rule every
/// backend applies, derived from [`Message::payload`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Traffic {
    /// A counted tile payload of this many bytes (`Payload`, `Seq`).
    Payload(u64),
    /// A session ack: control traffic, never payload volume.
    Ack,
    /// Everything else only adds its framing bytes.
    Free,
}

impl Traffic {
    pub(crate) fn of(msg: &Message) -> Traffic {
        match msg.payload() {
            Some(p) => Traffic::Payload(p.payload_bytes()),
            None if matches!(msg, Message::Ack { .. }) => Traffic::Ack,
            None => Traffic::Free,
        }
    }
}

impl StatsCell {
    /// Counts one send the backend accepted; returns its payload bytes.
    pub(crate) fn count_sent(&self, traffic: Traffic, frame_bytes: u64) -> u64 {
        self.sent_frame_bytes
            .fetch_add(frame_bytes, Ordering::Relaxed);
        match traffic {
            Traffic::Payload(bytes) => {
                self.sent_messages.fetch_add(1, Ordering::Relaxed);
                self.sent_payload_bytes.fetch_add(bytes, Ordering::Relaxed);
                bytes
            }
            Traffic::Ack => {
                self.control_messages.fetch_add(1, Ordering::Relaxed);
                self.control_bytes.fetch_add(frame_bytes, Ordering::Relaxed);
                0
            }
            Traffic::Free => 0,
        }
    }

    /// Counts one message (or ignored frame) that arrived.
    pub(crate) fn count_received(&self, traffic: Traffic, frame_bytes: u64) {
        self.recv_frame_bytes
            .fetch_add(frame_bytes, Ordering::Relaxed);
        if let Traffic::Payload(bytes) = traffic {
            self.recv_messages.fetch_add(1, Ordering::Relaxed);
            self.recv_payload_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_retrans(&self, payload_bytes: u64) {
        self.retrans_messages.fetch_add(1, Ordering::Relaxed);
        self.retrans_bytes
            .fetch_add(payload_bytes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TransportStats {
        TransportStats {
            sent_messages: self.sent_messages.load(Ordering::Relaxed),
            sent_payload_bytes: self.sent_payload_bytes.load(Ordering::Relaxed),
            recv_messages: self.recv_messages.load(Ordering::Relaxed),
            recv_payload_bytes: self.recv_payload_bytes.load(Ordering::Relaxed),
            sent_frame_bytes: self.sent_frame_bytes.load(Ordering::Relaxed),
            recv_frame_bytes: self.recv_frame_bytes.load(Ordering::Relaxed),
            retrans_messages: self.retrans_messages.load(Ordering::Relaxed),
            retrans_bytes: self.retrans_bytes.load(Ordering::Relaxed),
            control_messages: self.control_messages.load(Ordering::Relaxed),
            control_bytes: self.control_bytes.load(Ordering::Relaxed),
        }
    }
}
