//! The in-process backend: channels as the interconnect.
//!
//! This is the PR 3 runtime configuration behind the [`Transport`] trait.
//! Channels are unbounded, so sends never block — which is exactly what
//! preserves the scheduler's invariants: a producer can always eagerly push
//! its output and return to the ready heap. Nothing is serialized, so frame
//! byte counts stay zero and payload accounting is the only traffic measure.

use crate::msg::{Message, NodeId};
use crate::transport::{RecvTimeout, StatsCell, Traffic, Transport, TransportStats};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::Waker;
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A rank's inbox: an unbounded channel, and the waker of whoever steps the
/// rank. Both [`InProc`] (peers push directly) and [`crate::StreamTransport`]
/// (socket reader threads push decoded frames) receive through this one
/// type. Being unbounded is what lets a socket reader never block on
/// anything but its socket; a push takes no lock but the waker's, and the
/// waker only marks the rank runnable.
pub(crate) struct Mailbox {
    inlet: Inlet,
    rx: Mutex<Receiver<Message>>,
}

/// A handle that delivers into one [`Mailbox`]: one per sender.
#[derive(Clone)]
pub(crate) struct Inlet {
    tx: Sender<Message>,
    waker: Arc<Mutex<Option<Waker>>>,
}

impl Inlet {
    /// Delivers `msg`, then wakes the mailbox's waker, so whoever it wakes
    /// finds the message in; `false` when the mailbox is gone.
    pub(crate) fn push(&self, msg: Message) -> bool {
        if self.tx.send(msg).is_err() {
            return false;
        }
        if let Some(waker) = &*lock(&self.waker) {
            waker.wake_by_ref();
        }
        true
    }
}

impl Mailbox {
    pub(crate) fn new() -> Mailbox {
        let (tx, rx) = unbounded();
        Mailbox {
            inlet: Inlet {
                tx,
                waker: Arc::default(),
            },
            rx: Mutex::new(rx),
        }
    }

    /// A handle that delivers into this inbox.
    pub(crate) fn inlet(&self) -> Inlet {
        self.inlet.clone()
    }

    pub(crate) fn set_waker(&self, waker: Option<Waker>) {
        *lock(&self.inlet.waker) = waker;
    }

    pub(crate) fn recv(&self) -> Option<Message> {
        lock(&self.rx).recv().ok()
    }

    pub(crate) fn try_recv(&self) -> Option<Message> {
        lock(&self.rx).try_recv().ok()
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(msg) => RecvTimeout::Msg(msg),
            Err(RecvTimeoutError::Timeout) => RecvTimeout::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvTimeout::Closed,
        }
    }
}

/// One rank's endpoint of an in-process channel mesh.
pub struct InProc {
    rank: NodeId,
    peers: Vec<Inlet>,
    inbox: Mailbox,
    stats: StatsCell,
}

/// Builds a fully connected `n`-rank in-process mesh; element `r` is rank
/// `r`'s endpoint.
pub fn inproc_mesh(n: usize) -> Vec<InProc> {
    let inboxes: Vec<Mailbox> = (0..n).map(|_| Mailbox::new()).collect();
    let peers: Vec<Inlet> = inboxes.iter().map(Mailbox::inlet).collect();
    inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| InProc {
            rank: rank as NodeId,
            peers: peers.clone(),
            inbox,
            stats: StatsCell::default(),
        })
        .collect()
}

impl InProc {
    /// Nothing reads an in-process message before its receiver does, so
    /// the receive side is counted as the message is handed over.
    fn counted(&self, msg: Message) -> Message {
        self.stats.count_received(Traffic::of(&msg), 0);
        msg
    }
}

impl Transport for InProc {
    fn rank(&self) -> NodeId {
        self.rank
    }

    fn num_nodes(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        let traffic = Traffic::of(&msg);
        if !self.peers[dest as usize].push(msg) {
            return None;
        }
        Some(self.stats.count_sent(traffic, 0))
    }

    fn set_waker(&self, waker: Option<Waker>) {
        self.inbox.set_waker(waker);
    }

    fn next_timer(&self) -> Option<Instant> {
        None
    }

    fn recv(&self) -> Option<Message> {
        self.inbox.recv().map(|m| self.counted(m))
    }

    fn try_recv(&self) -> Option<Message> {
        self.inbox.try_recv().map(|m| self.counted(m))
    }

    fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
        match self.inbox.recv_timeout(timeout) {
            RecvTimeout::Msg(m) => RecvTimeout::Msg(self.counted(m)),
            other => other,
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // delivery, ordering, waking and the counting rule are checked for
    // every backend at once in `tests/conformance.rs`

    #[test]
    fn try_recv_is_non_blocking() {
        let mesh = inproc_mesh(2);
        assert_eq!(mesh[0].try_recv(), None);
        mesh[1].send_poison(0);
        assert_eq!(mesh[0].try_recv(), Some(Message::Poison));
        assert_eq!(mesh[0].try_recv(), None);
    }
}
