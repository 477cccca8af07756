//! The in-process backend: channels as the interconnect.
//!
//! This is the PR 3 runtime configuration behind the [`Transport`] trait.
//! Channels are unbounded, so sends never block — which is exactly what
//! preserves the scheduler's invariants: a producer can always eagerly push
//! its output and return to the ready heap, and the single parked receiver
//! per node drains in arrival order. Nothing is serialized, so frame byte
//! counts stay zero and payload accounting is the only traffic measure.

use crate::msg::{Message, NodeId};
use crate::transport::{RecvTimeout, StatsCell, Traffic, Transport, TransportStats};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A rank's inbox: an unbounded channel whose receiving half any worker
/// thread of the rank may park on. Both [`InProc`] (peers push directly)
/// and [`crate::StreamTransport`] (socket reader threads push decoded
/// frames) receive through this one type. Being unbounded is what lets a
/// socket reader never block on anything but its socket.
pub(crate) struct Mailbox {
    tx: Sender<Message>,
    rx: Mutex<Receiver<Message>>,
}

impl Mailbox {
    pub fn new() -> Mailbox {
        let (tx, rx) = unbounded();
        Mailbox {
            tx,
            rx: Mutex::new(rx),
        }
    }

    /// A handle that delivers into this inbox.
    pub fn sender(&self) -> Sender<Message> {
        self.tx.clone()
    }

    fn rx(&self) -> MutexGuard<'_, Receiver<Message>> {
        self.rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn wake(&self) {
        let _ = self.tx.send(Message::Wake);
    }

    pub fn recv(&self) -> Option<Message> {
        self.rx().recv().ok()
    }

    pub fn try_recv(&self) -> Option<Message> {
        self.rx().try_recv().ok()
    }

    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
        match self.rx().recv_timeout(timeout) {
            Ok(msg) => RecvTimeout::Msg(msg),
            Err(RecvTimeoutError::Timeout) => RecvTimeout::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvTimeout::Closed,
        }
    }
}

/// One rank's endpoint of an in-process channel mesh.
pub struct InProc {
    rank: NodeId,
    txs: Vec<Sender<Message>>,
    inbox: Mailbox,
    stats: StatsCell,
}

/// Builds a fully connected `n`-rank in-process mesh; element `r` is rank
/// `r`'s endpoint.
pub fn inproc_mesh(n: usize) -> Vec<InProc> {
    let inboxes: Vec<Mailbox> = (0..n).map(|_| Mailbox::new()).collect();
    let txs: Vec<Sender<Message>> = inboxes.iter().map(Mailbox::sender).collect();
    inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| InProc {
            rank: rank as NodeId,
            txs: txs.clone(),
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
        self.txs.len()
    }

    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        let traffic = Traffic::of(&msg);
        self.txs[dest as usize].send(msg).ok()?;
        Some(self.stats.count_sent(traffic, 0))
    }

    fn wake(&self) {
        self.inbox.wake();
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

    // delivery, ordering and the counting rule are checked for every
    // backend at once in `tests/conformance.rs`

    #[test]
    fn try_recv_is_non_blocking() {
        let mesh = inproc_mesh(1);
        assert_eq!(mesh[0].try_recv(), None);
        mesh[0].wake();
        assert_eq!(mesh[0].try_recv(), Some(Message::Wake));
    }
}
