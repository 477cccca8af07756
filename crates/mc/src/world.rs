//! The modeled world: real sessions over an inspectable in-memory network.
//!
//! A [`World`] is one execution state — `peers` real [`Session`] state
//! machines sharing one [`VirtualClock`], wired over [`McNet`], a
//! [`Transport`] whose "wire" is an explicit vector of in-flight frames
//! the checker picks from. Nothing in here is random or time-dependent:
//! a world is a pure function of the scenario and the action sequence
//! applied to it, which is what makes replay (and therefore state-space
//! search) possible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Waker;
use std::time::{Duration, Instant};

use sbc_kernels::Tile;
use sbc_net::{
    Clock, Message, NodeId, Payload, Session, SessionConfig, Transport, TransportStats,
    VirtualClock,
};

use crate::scenario::{LossModel, Scenario};

/// One transition the checker can take from a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Hand in-flight frame `uid` to its destination session.
    Deliver {
        /// Frame id within the current execution.
        uid: u64,
    },
    /// Hand every in-flight frame addressed to `dst`, in wire order, to
    /// its session as one batch — what a drained inbox holds once all of
    /// it has arrived, and the one shape in which acks coalesce.
    DeliverBatch {
        /// Receiving rank.
        dst: NodeId,
    },
    /// Lose in-flight payload frame `uid` (adversarial, budgeted).
    Drop {
        /// Frame id within the current execution.
        uid: u64,
    },
    /// Clone in-flight payload frame `uid` onto the wire (budgeted).
    Duplicate {
        /// Frame id within the current execution.
        uid: u64,
    },
    /// Advance the virtual clock to the earliest armed retransmission
    /// timer and fire every timer due, on all sessions.
    Tick,
}

/// A checked protocol contract that failed, with enough context to read
/// the counterexample without the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A payload surfaced at its destination a second time.
    DuplicateDelivery {
        /// Sending rank.
        src: NodeId,
        /// Receiving rank.
        dst: NodeId,
        /// Script index of the payload.
        producer: u32,
    },
    /// A payload surfaced out of per-channel send order.
    OutOfOrderDelivery {
        /// Sending rank.
        src: NodeId,
        /// Receiving rank.
        dst: NodeId,
        /// Script index that surfaced.
        got: u32,
        /// Script index that should have surfaced next.
        expected: u32,
    },
    /// A payload surfaced that the script never sent on this channel.
    PhantomDelivery {
        /// Sending rank.
        src: NodeId,
        /// Receiving rank.
        dst: NodeId,
        /// Script index of the payload.
        producer: u32,
    },
    /// A transport-statistics ledger stopped balancing.
    AccountingDrift {
        /// Rank whose ledger drifted.
        rank: NodeId,
        /// Which equality failed, with both sides.
        detail: String,
    },
    /// A session probe reported internally inconsistent protocol state.
    ProbeInconsistency {
        /// Rank whose probe is inconsistent.
        rank: NodeId,
        /// What is inconsistent.
        detail: String,
    },
    /// A terminal state (no traffic in flight, no timer armed) was reached
    /// with undelivered scripted payloads.
    LostPayload {
        /// Which channels are incomplete.
        detail: String,
    },
    /// An action path revisited one of its own earlier states: a cycle
    /// with zero progress, reachable forever.
    Livelock {
        /// Number of actions in the cycle.
        cycle_len: usize,
    },
    /// The bounded search completed without truncation, yet no execution
    /// ever reached a terminal state.
    NoTerminalState,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DuplicateDelivery { src, dst, producer } => {
                write!(f, "payload #{producer} delivered twice on r{src}->r{dst}")
            }
            Violation::OutOfOrderDelivery { src, dst, got, expected } => write!(
                f,
                "out-of-order delivery on r{src}->r{dst}: got payload #{got}, expected #{expected}"
            ),
            Violation::PhantomDelivery { src, dst, producer } => {
                write!(f, "phantom payload #{producer} delivered on r{src}->r{dst}")
            }
            Violation::AccountingDrift { rank, detail } => {
                write!(f, "accounting drift at r{rank}: {detail}")
            }
            Violation::ProbeInconsistency { rank, detail } => {
                write!(f, "inconsistent probe at r{rank}: {detail}")
            }
            Violation::LostPayload { detail } => write!(f, "terminal state lost payloads: {detail}"),
            Violation::Livelock { cycle_len } => write!(
                f,
                "livelock: execution revisited its own state ({cycle_len}-action cycle with no progress)"
            ),
            Violation::NoTerminalState => {
                write!(f, "no execution reached a terminal state within bounds")
            }
        }
    }
}

/// One frame on the modeled wire.
struct WireFrame {
    uid: u64,
    src: NodeId,
    dst: NodeId,
    msg: Message,
}

/// The shared network fabric: in-flight frames plus the per-sender
/// counters the deterministic loss gates and the accounting invariants
/// read.
struct NetState {
    inflight: Vec<WireFrame>,
    next_uid: u64,
    loss: LossModel,
    /// Per-sender payload-frame counter (the `k` the gates hash).
    counter: Vec<u64>,
    /// Per-sender frames censored by a deterministic gate.
    gate_drops: Vec<u64>,
    /// Per-sender `Seq` send attempts — the wire-ledger side of
    /// `sent_messages + retrans_messages`.
    seq_attempts: Vec<u64>,
    /// Per-sender acks emitted.
    acks: Vec<u64>,
}

impl NetState {
    fn new(peers: usize, loss: LossModel) -> Self {
        NetState {
            inflight: Vec::new(),
            next_uid: 0,
            loss,
            counter: vec![0; peers],
            gate_drops: vec![0; peers],
            seq_attempts: vec![0; peers],
            acks: vec![0; peers],
        }
    }

    fn enqueue(&mut self, src: NodeId, dst: NodeId, msg: Message) {
        let uid = self.next_uid;
        self.next_uid += 1;
        self.inflight.push(WireFrame { uid, src, dst, msg });
    }

    /// Applies the deterministic loss gate (if any) to one submitted
    /// payload frame and enqueues 0, 1 or 2 wire copies.
    fn submit_seq(&mut self, src: NodeId, dst: NodeId, msg: Message) -> bool {
        let s = src as usize;
        self.seq_attempts[s] += 1;
        self.counter[s] += 1;
        let copies = match self.loss.clone() {
            LossModel::Clean | LossModel::Nondet { .. } => 1,
            LossModel::Periodic { drop_every, phase } => {
                let k = phase + self.counter[s];
                if drop_every != 0 && k.is_multiple_of(drop_every) {
                    0
                } else {
                    1
                }
            }
            LossModel::Seeded(cfg) => {
                let k = cfg.phase.wrapping_add(self.counter[s]);
                match cfg.decide(k, self.gate_drops[s]) {
                    sbc_net::FaultDecision::Drop => 0,
                    sbc_net::FaultDecision::Duplicate => 2,
                    sbc_net::FaultDecision::Deliver => 1,
                }
            }
        };
        if copies == 0 {
            self.gate_drops[s] += 1;
        }
        for _ in 0..copies {
            self.enqueue(src, dst, msg.clone());
        }
        copies > 0
    }
}

/// The checker-controlled transport: sends land on the shared in-flight
/// vector (through the deterministic gate, for `Periodic`/`Seeded`
/// scenarios); receives return nothing, because the checker injects frames
/// directly via [`Session::handle_wire`].
struct McNet {
    rank: NodeId,
    peers: usize,
    net: Arc<Mutex<NetState>>,
    control_sent: AtomicU64,
}

impl McNet {
    fn lock(&self) -> MutexGuard<'_, NetState> {
        self.net
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Transport for McNet {
    fn rank(&self) -> NodeId {
        self.rank
    }

    fn num_nodes(&self) -> usize {
        self.peers
    }

    /// Sequenced payloads meet the scenario's loss gate, acks feed the
    /// control ledgers, and everything lands on the in-flight vector.
    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        let bytes = msg.payload().map_or(0, Payload::payload_bytes);
        let mut net = self.lock();
        match msg {
            Message::Seq { .. } => {
                return net.submit_seq(self.rank, dest, msg).then_some(bytes);
            }
            Message::Ack { .. } => {
                self.control_sent.fetch_add(1, Ordering::Relaxed);
                net.acks[self.rank as usize] += 1;
            }
            _ => {}
        }
        net.enqueue(self.rank, dest, msg);
        Some(bytes)
    }

    fn set_waker(&self, _waker: Option<Waker>) {}

    fn next_timer(&self) -> Option<Instant> {
        None
    }

    fn try_recv(&self) -> Option<Message> {
        None
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            control_messages: self.control_sent.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }
}

/// One fully materialized execution state.
pub(crate) struct World {
    clock: Arc<VirtualClock>,
    net: Arc<Mutex<NetState>>,
    sessions: Vec<Session<McNet>>,
    /// Per channel: producer ids delivered so far, in delivery order.
    delivered: BTreeMap<(NodeId, NodeId), Vec<u32>>,
    drops_used: u32,
    dups_used: u32,
}

impl World {
    /// Builds the initial state: fresh sessions on a fresh virtual clock,
    /// with every scripted payload already sent (and gated). `linger` is
    /// forced to zero — on a frozen virtual clock a lingering `Drop`
    /// drain would never terminate.
    pub(crate) fn new(sc: &Scenario) -> World {
        let clock = Arc::new(VirtualClock::new());
        let net = Arc::new(Mutex::new(NetState::new(sc.peers, sc.loss.clone())));
        let cfg = SessionConfig {
            linger: Duration::ZERO,
            ..sc.session
        };
        let sessions: Vec<Session<McNet>> = (0..sc.peers)
            .map(|r| {
                Session::with_clock(
                    McNet {
                        rank: r as NodeId,
                        peers: sc.peers,
                        net: Arc::clone(&net),
                        control_sent: AtomicU64::new(0),
                    },
                    cfg,
                    clock.clone() as Arc<dyn Clock>,
                )
            })
            .collect();
        for (idx, &(src, dst)) in sc.sends.iter().enumerate() {
            sessions[src as usize].send_payload(
                dst,
                Payload::Data {
                    job: 0,
                    producer: idx as u32,
                    tile: Tile::zeros(sc.tile_dim),
                },
            );
        }
        World {
            clock,
            net,
            sessions,
            delivered: BTreeMap::new(),
            drops_used: 0,
            dups_used: 0,
        }
    }

    fn lock_net(&self) -> MutexGuard<'_, NetState> {
        self.net
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enumerates every action enabled in this state, in a deterministic
    /// order (deliveries first, so breadth-first search prefers progress
    /// and counterexamples stay short).
    pub(crate) fn enabled(&self, sc: &Scenario) -> Vec<Action> {
        let net = self.lock_net();
        let mut out = Vec::new();
        if sc.loss.reorder() {
            for f in &net.inflight {
                out.push(Action::Deliver { uid: f.uid });
            }
        } else {
            // FIFO per channel: only the oldest frame of each (src, dst)
            // pair is deliverable.
            let mut heads: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            for f in &net.inflight {
                heads.entry((f.src, f.dst)).or_insert(f.uid);
            }
            out.extend(heads.into_values().map(|uid| Action::Deliver { uid }));
        }
        // a batch of one is a Deliver
        let mut queued: BTreeMap<NodeId, usize> = BTreeMap::new();
        for f in &net.inflight {
            *queued.entry(f.dst).or_default() += 1;
        }
        out.extend(
            queued
                .into_iter()
                .filter(|&(_, frames)| frames > 1)
                .map(|(dst, _)| Action::DeliverBatch { dst }),
        );
        // Progress-guided timer reduction: a timer firing is only
        // *necessary* when some unacked payload has neither a wire copy
        // nor a covering ack in flight — anything the sender could learn
        // of is still on its way. Spurious timeouts (an RTO racing an ack)
        // only manufacture duplicates the adversary already injects
        // explicitly via `Drop`/`Duplicate`, so pruning them loses no
        // distinct protocol behavior while keeping clean state spaces
        // finite.
        if self.tick_needed(&net) {
            out.push(Action::Tick);
        }
        if let LossModel::Nondet {
            max_drops,
            max_dups,
            ..
        } = sc.loss
        {
            if self.drops_used < max_drops {
                // both payload frames and acks are fair game for loss —
                // a lost ack is what forces a retransmission into an
                // already-delivered window
                out.extend(
                    net.inflight
                        .iter()
                        .filter(|f| matches!(f.msg, Message::Seq { .. } | Message::Ack { .. }))
                        .map(|f| Action::Drop { uid: f.uid }),
                );
            }
            if self.dups_used < max_dups {
                out.extend(
                    net.inflight
                        .iter()
                        .filter(|f| matches!(f.msg, Message::Seq { .. }))
                        .map(|f| Action::Duplicate { uid: f.uid }),
                );
            }
        }
        out
    }

    /// Whether any armed retransmission timer could fire a *necessary*
    /// retransmit (see the comment at the call site).
    fn tick_needed(&self, net: &NetState) -> bool {
        for (r, session) in self.sessions.iter().enumerate() {
            let src = r as NodeId;
            let probe = session.probe();
            for (peer, ps) in probe.send.iter().enumerate() {
                let dst = peer as NodeId;
                for u in &ps.unacked {
                    let wire_copy = net.inflight.iter().any(|f| {
                        f.dst == dst
                            && matches!(&f.msg, Message::Seq { src: s, seq, .. }
                                if *s == src && *seq == u.seq)
                    });
                    let covering_ack = net.inflight.iter().any(|f| {
                        f.dst == src
                            && matches!(&f.msg, Message::Ack { src: s, upto }
                                if *s == dst && *upto > u.seq)
                    });
                    if !wire_copy && !covering_ack {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Applies one action, returning a human-readable description of what
    /// happened, or the violation it directly caused. Panics if the action
    /// references a frame that is not in flight — that means the caller's
    /// trace diverged from the world, which is a checker bug, not a
    /// protocol one.
    pub(crate) fn apply(&mut self, action: &Action, sc: &Scenario) -> Result<String, Violation> {
        match *action {
            Action::Deliver { uid } => {
                let frame = self.take_frame(uid);
                let desc = describe_frame("deliver", &frame);
                self.hand_over(frame.dst, [frame.msg], sc)?;
                Ok(desc)
            }
            Action::DeliverBatch { dst } => {
                let batch: Vec<WireFrame> = {
                    let mut net = self.lock_net();
                    let (batch, rest) = std::mem::take(&mut net.inflight)
                        .into_iter()
                        .partition(|f| f.dst == dst);
                    net.inflight = rest;
                    batch
                };
                let desc = batch
                    .iter()
                    .map(|f| describe_frame("", f))
                    .collect::<Vec<_>>()
                    .join(";");
                self.hand_over(dst, batch.into_iter().map(|f| f.msg), sc)?;
                Ok(format!("deliver batch to r{dst}:{desc}"))
            }
            Action::Drop { uid } => {
                let frame = self.take_frame(uid);
                self.drops_used += 1;
                Ok(describe_frame("drop", &frame))
            }
            Action::Duplicate { uid } => {
                let mut net = self.lock_net();
                let pos = net
                    .inflight
                    .iter()
                    .position(|f| f.uid == uid)
                    .expect("duplicated frame must be in flight");
                let (src, dst, msg) = (
                    net.inflight[pos].src,
                    net.inflight[pos].dst,
                    net.inflight[pos].msg.clone(),
                );
                let uid2 = net.next_uid;
                net.next_uid += 1;
                // the copy travels right behind the original
                net.inflight.insert(
                    pos + 1,
                    WireFrame {
                        uid: uid2,
                        src,
                        dst,
                        msg,
                    },
                );
                let desc = describe_frame("duplicate", &net.inflight[pos]);
                drop(net);
                self.dups_used += 1;
                Ok(desc)
            }
            Action::Tick => {
                let due = self
                    .sessions
                    .iter()
                    .filter_map(|s| s.next_timer())
                    .min()
                    .expect("Tick is only enabled with an armed timer");
                let step = due.saturating_duration_since(self.clock.now());
                self.clock.advance_to(due);
                for s in &self.sessions {
                    s.drive_timers();
                }
                Ok(format!(
                    "tick: advance virtual clock {step:?} to next timer; fire retransmits"
                ))
            }
        }
    }

    /// Feeds `batch` to `dst`'s session as one drained batch and checks
    /// every payload that surfaces.
    fn hand_over(
        &mut self,
        dst: NodeId,
        batch: impl IntoIterator<Item = Message>,
        sc: &Scenario,
    ) -> Result<(), Violation> {
        let d = dst as usize;
        self.sessions[d].handle_wire(batch);
        while let Some(m) = self.sessions[d].pop_ready() {
            if let Message::Payload {
                src,
                payload: Payload::Data { producer, .. },
            } = m
            {
                self.record_delivery(src, dst, producer, sc)?;
            }
        }
        Ok(())
    }

    fn take_frame(&mut self, uid: u64) -> WireFrame {
        let mut net = self.lock_net();
        let pos = net
            .inflight
            .iter()
            .position(|f| f.uid == uid)
            .expect("acted-on frame must be in flight");
        net.inflight.remove(pos)
    }

    /// Validates one surfaced payload against the script: each channel
    /// must deliver exactly its scripted producer ids, in order.
    fn record_delivery(
        &mut self,
        src: NodeId,
        dst: NodeId,
        producer: u32,
        sc: &Scenario,
    ) -> Result<(), Violation> {
        let expected: Vec<u32> = sc
            .sends
            .iter()
            .enumerate()
            .filter(|&(_, &(s, d))| s == src && d == dst)
            .map(|(i, _)| i as u32)
            .collect();
        let got = self.delivered.entry((src, dst)).or_default();
        if got.contains(&producer) {
            return Err(Violation::DuplicateDelivery { src, dst, producer });
        }
        match expected.get(got.len()) {
            Some(&e) if e == producer => {
                got.push(producer);
                Ok(())
            }
            Some(&e) if expected.contains(&producer) => Err(Violation::OutOfOrderDelivery {
                src,
                dst,
                got: producer,
                expected: e,
            }),
            _ => Err(Violation::PhantomDelivery { src, dst, producer }),
        }
    }

    /// Re-checks every ledger and structural invariant. Called after each
    /// action; `None` means all contracts hold.
    pub(crate) fn check_invariants(&self, sc: &Scenario) -> Option<Violation> {
        let net = self.lock_net();
        for (r, session) in self.sessions.iter().enumerate() {
            let rank = r as NodeId;
            let st = session.stats();
            let drift = |detail: String| Violation::AccountingDrift { rank, detail };
            if st.sent_messages != sc.sends_from(rank) {
                return Some(drift(format!(
                    "sent_messages={} but the script sends {} payloads from this rank",
                    st.sent_messages,
                    sc.sends_from(rank)
                )));
            }
            if st.sent_payload_bytes != st.sent_messages * sc.payload_bytes() {
                return Some(drift(format!(
                    "sent_payload_bytes={} != sent_messages({}) * payload_bytes({})",
                    st.sent_payload_bytes,
                    st.sent_messages,
                    sc.payload_bytes()
                )));
            }
            if net.seq_attempts[r] != st.sent_messages + st.retrans_messages {
                return Some(drift(format!(
                    "wire ledger: {} seq-frame send attempts != sent_messages({}) + retrans_messages({})",
                    net.seq_attempts[r], st.sent_messages, st.retrans_messages
                )));
            }
            // the ack ledger crosses two counters: the session's folded
            // stats against the network fabric's own tally
            if st.control_messages != net.acks[r] {
                return Some(drift(format!(
                    "control_messages={} but the fabric saw {} acks from this rank",
                    st.control_messages, net.acks[r]
                )));
            }
            let recvd: u64 = self
                .delivered
                .iter()
                .filter(|&(&(_, d), _)| d == rank)
                .map(|(_, v)| v.len() as u64)
                .sum();
            if st.recv_messages != recvd {
                return Some(drift(format!(
                    "recv_messages={} but {} payloads surfaced at this rank",
                    st.recv_messages, recvd
                )));
            }
            let probe = session.probe();
            if probe.pending != 0 {
                return Some(Violation::ProbeInconsistency {
                    rank,
                    detail: format!("{} deliveries left undrained", probe.pending),
                });
            }
            for (peer, ps) in probe.send.iter().enumerate() {
                let mut prev = None;
                for u in &ps.unacked {
                    if u.seq >= ps.next_seq {
                        return Some(Violation::ProbeInconsistency {
                            rank,
                            detail: format!(
                                "unacked seq {} >= next_seq {} toward r{peer}",
                                u.seq, ps.next_seq
                            ),
                        });
                    }
                    if prev.is_some_and(|p| u.seq <= p) {
                        return Some(Violation::ProbeInconsistency {
                            rank,
                            detail: format!("unacked seqs not increasing toward r{peer}"),
                        });
                    }
                    prev = Some(u.seq);
                }
            }
            for (peer, pr) in probe.recv.iter().enumerate() {
                for &w in &pr.window {
                    if w < pr.next_expected || w >= pr.next_expected + sc.session.window {
                        return Some(Violation::ProbeInconsistency {
                            rank,
                            detail: format!(
                                "window seq {} outside [{}, {}) from r{peer}",
                                w,
                                pr.next_expected,
                                pr.next_expected + sc.session.window
                            ),
                        });
                    }
                }
            }
        }
        None
    }

    /// A state is terminal when the wire is empty and nothing is unacked
    /// (hence no retransmission timer armed): no action except the ones
    /// already taken can ever occur.
    pub(crate) fn is_terminal(&self) -> bool {
        self.lock_net().inflight.is_empty() && self.sessions.iter().all(|s| s.unacked() == 0)
    }

    /// The liveness contract at a terminal state: every scripted payload
    /// must have been delivered.
    pub(crate) fn check_terminal(&self, sc: &Scenario) -> Option<Violation> {
        let mut missing = Vec::new();
        for (idx, &(src, dst)) in sc.sends.iter().enumerate() {
            let done = self
                .delivered
                .get(&(src, dst))
                .is_some_and(|v| v.contains(&(idx as u32)));
            if !done {
                missing.push(format!("payload #{idx} (r{src}->r{dst})"));
            }
        }
        if missing.is_empty() {
            None
        } else {
            Some(Violation::LostPayload {
                detail: missing.join(", "),
            })
        }
    }

    /// Hashes a canonical encoding of the protocol state: time-relative
    /// session probes, per-channel in-flight frame sequences (sorted
    /// within a channel when delivery order is adversarial, since order
    /// then carries no information), fault budgets, and the loss gate's
    /// residual state (`counter mod period` for the periodic gate — its
    /// future is periodic — but the raw counter for the seeded gate, whose
    /// future depends on it entirely).
    pub(crate) fn digest(&self, sc: &Scenario) -> u128 {
        let mut buf: Vec<u8> = Vec::new();
        let push = |buf: &mut Vec<u8>, x: u64| buf.extend_from_slice(&x.to_le_bytes());
        for s in &self.sessions {
            let p = s.probe();
            push(&mut buf, p.send.len() as u64);
            for ps in &p.send {
                push(&mut buf, ps.next_seq);
                push(&mut buf, ps.unacked.len() as u64);
                for u in &ps.unacked {
                    push(&mut buf, u.seq);
                    push(&mut buf, u.bytes);
                    push(&mut buf, u.due_in_ns);
                    push(&mut buf, u.rto_ns);
                }
            }
            for pr in &p.recv {
                push(&mut buf, pr.next_expected);
                push(&mut buf, pr.window.len() as u64);
                for &w in &pr.window {
                    push(&mut buf, w);
                }
            }
            push(&mut buf, p.pending as u64);
            push(&mut buf, u64::from(p.poisoned));
        }
        {
            let net = self.lock_net();
            let mut channels: BTreeMap<(NodeId, NodeId), Vec<[u64; 4]>> = BTreeMap::new();
            for f in &net.inflight {
                channels
                    .entry((f.src, f.dst))
                    .or_default()
                    .push(encode_frame(&f.msg));
            }
            push(&mut buf, channels.len() as u64);
            for ((src, dst), mut frames) in channels {
                if sc.loss.reorder() {
                    frames.sort_unstable();
                }
                push(&mut buf, u64::from(src));
                push(&mut buf, u64::from(dst));
                push(&mut buf, frames.len() as u64);
                for f in frames {
                    for x in f {
                        push(&mut buf, x);
                    }
                }
            }
            match sc.loss {
                LossModel::Clean | LossModel::Nondet { .. } => {}
                LossModel::Periodic { drop_every, .. } => {
                    for &c in &net.counter {
                        push(&mut buf, if drop_every == 0 { 0 } else { c % drop_every });
                    }
                }
                LossModel::Seeded(_) => {
                    for (&c, &d) in net.counter.iter().zip(&net.gate_drops) {
                        push(&mut buf, c);
                        push(&mut buf, d);
                    }
                }
            }
        }
        push(&mut buf, u64::from(self.drops_used));
        push(&mut buf, u64::from(self.dups_used));
        for (&(src, dst), v) in &self.delivered {
            push(&mut buf, u64::from(src));
            push(&mut buf, u64::from(dst));
            push(&mut buf, v.len() as u64);
        }
        let lo = fnv1a64(&buf, 0xcbf2_9ce4_8422_2325);
        let hi = fnv1a64(&buf, 0x6c62_272e_07bb_0142);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

fn encode_frame(msg: &Message) -> [u64; 4] {
    match msg {
        Message::Seq { src, seq, payload } => {
            let producer = match payload {
                Payload::Data { producer, .. } => u64::from(*producer),
                Payload::Orig { .. } => u64::MAX,
            };
            [0, u64::from(*src), *seq, producer]
        }
        Message::Ack { src, upto } => [1, u64::from(*src), *upto, 0],
        _ => [2, 0, 0, 0],
    }
}

fn describe_frame(verb: &str, f: &WireFrame) -> String {
    match &f.msg {
        Message::Seq {
            seq,
            payload: Payload::Data { producer, .. },
            ..
        } => {
            format!(
                "{verb} r{}->r{} seq={} (payload #{})",
                f.src, f.dst, seq, producer
            )
        }
        Message::Seq { seq, .. } => format!("{verb} r{}->r{} seq={}", f.src, f.dst, seq),
        Message::Ack { upto, .. } => format!("{verb} r{}->r{} ack upto={}", f.src, f.dst, upto),
        other => format!(
            "{verb} r{}->r{} {:?}",
            f.src,
            f.dst,
            std::mem::discriminant(other)
        ),
    }
}

fn fnv1a64(bytes: &[u8], offset: u64) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
