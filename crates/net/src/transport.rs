//! The [`Transport`] trait — what the runtime requires of an interconnect —
//! and the accounting every implementation shares.
//!
//! The trait has one sender, [`Transport::send`], and knows no message
//! variant by name. The counting rule lives here once: `Traffic::of`
//! classifies a message (through [`Message::payload`]) and `StatsCell`'s
//! `count_sent` / `count_received` apply it, for the in-process mesh, the
//! socket mesh and the session's logical counters alike.

use crate::msg::{Message, NodeId, Payload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::Waker;
use std::time::{Duration, Instant};

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
/// deadlock against the receive path; `recv` blocks until a message arrives
/// or the endpoint is closed. A driver that steps a rank only when it has
/// something to do never blocks in the inbox: it registers a waker
/// ([`Transport::set_waker`]), receives with [`Transport::try_recv`], and
/// steps the rank again at [`Transport::next_timer`].
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

    /// Blocks for the next message; `None` means the endpoint closed.
    fn recv(&self) -> Option<Message>;

    /// Returns the next message if one is already queued.
    fn try_recv(&self) -> Option<Message>;

    /// Blocks for the next message for at most `timeout`, so a caller that
    /// waits outside any driver — a gather, a session draining at teardown —
    /// can give up or fire its own timers.
    fn recv_timeout(&self, timeout: Duration) -> RecvTimeout;

    /// A snapshot of this endpoint's wire-level accounting.
    fn stats(&self) -> TransportStats;
}

/// Outcome of a bounded wait on a rank's inbox.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvTimeout {
    /// A message arrived within the timeout.
    Msg(Message),
    /// Nothing arrived before the timeout elapsed.
    TimedOut,
    /// The endpoint closed; no further messages will arrive.
    Closed,
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
    pub fn of(msg: &Message) -> Traffic {
        match msg.payload() {
            Some(p) => Traffic::Payload(p.payload_bytes()),
            None if matches!(msg, Message::Ack { .. }) => Traffic::Ack,
            None => Traffic::Free,
        }
    }
}

impl StatsCell {
    /// Counts one send the backend accepted; returns its payload bytes.
    pub fn count_sent(&self, traffic: Traffic, frame_bytes: u64) -> u64 {
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
    pub fn count_received(&self, traffic: Traffic, frame_bytes: u64) {
        self.recv_frame_bytes
            .fetch_add(frame_bytes, Ordering::Relaxed);
        if let Traffic::Payload(bytes) = traffic {
            self.recv_messages.fetch_add(1, Ordering::Relaxed);
            self.recv_payload_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    pub fn count_retrans(&self, payload_bytes: u64) {
        self.retrans_messages.fetch_add(1, Ordering::Relaxed);
        self.retrans_bytes
            .fetch_add(payload_bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> TransportStats {
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
