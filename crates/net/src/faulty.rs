//! Fault injection for transport-level testing.
//!
//! [`Faulty`] wraps any [`Transport`] and perturbs its *payload* traffic:
//! seeded drops, periodic duplicates, and a fixed delay per send. Control
//! messages (poison, ack, result, done) always pass through untouched —
//! injecting faults there would break shutdown and gather protocols rather
//! than exercise the runtime's data-path robustness.
//!
//! Drops are **fair-lossy**, not strictly periodic: each send's fate is a
//! hash of the seeded send counter, dropping 1-in-`drop_every` on average.
//! A strictly periodic filter is an unfair adversary — when a blocked mesh
//! has only retransmissions left to send, a fixed retransmit batch consumes
//! a fixed number of counter slots per round, and whenever that batch size
//! is a multiple of the drop period the same payload lands on the dropped
//! residue every round, forever. No ARQ protocol is live under an adversary
//! that censors every copy of one message; hashing the counter restores the
//! fair-loss assumption (a message sent infinitely often is eventually
//! delivered) while staying a pure, reproducible function of the seed.
//!
//! Stats discipline: a dropped payload is *not* counted as sent (the wire
//! never saw it); a duplicated payload is counted twice, because two copies
//! really crossed the wire. The rank engine deduplicates on the receive side,
//! so its `applied` count stays at the analytic value while the transport's
//! message count measures the injected excess.

use crate::msg::{Message, NodeId};
use crate::transport::{Transport, TransportStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::Waker;
use std::time::{Duration, Instant};

/// What [`Faulty`] injects. A period of 0 disables that fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Drop 1-in-`drop_every` payload sends (1 = drop all), fair-lossy:
    /// the victims are a seeded hash of the send counter, never a strict
    /// period (see the module docs for why periodicity can censor a
    /// message forever).
    pub drop_every: u64,
    /// Duplicate every `dup_every`-th payload send.
    pub dup_every: u64,
    /// Sleep this long before every payload send.
    pub delay: Option<Duration>,
    /// Stop dropping after this many drops (0 = drop forever). Lets
    /// recovery tests exercise `drop_every: 1` without making the channel
    /// permanently lossy.
    pub max_drops: u64,
    /// Offset added to the send counter before the periodic gates, so
    /// seeded chaos schedules hit different sends on different ranks.
    pub phase: u64,
}

impl FaultConfig {
    /// Only drops, 1-in-`n` payloads (seeded fair loss).
    pub fn dropping(n: u64) -> Self {
        FaultConfig {
            drop_every: n,
            ..Default::default()
        }
    }

    /// The pure fault-gate decision for the `k`-th phased payload send
    /// (`k` already includes [`FaultConfig::phase`]), given how many drops
    /// the gate has committed so far. This is the *entire* randomness of
    /// the fault plan as a referentially transparent function — [`Faulty`]
    /// calls it on the live counter, and the `sbc-mc` model checker calls
    /// it on replayed counters, so the checker explores exactly the gate
    /// the chaos suite injects. Drop decisions hash the counter (fair
    /// loss); duplicate decisions stay periodic, since a duplicate can
    /// never censor anything.
    pub fn decide(&self, k: u64, drops_so_far: u64) -> FaultDecision {
        if self.drop_every != 0
            && splitmix(k).is_multiple_of(self.drop_every)
            && (self.max_drops == 0 || drops_so_far < self.max_drops)
        {
            return FaultDecision::Drop;
        }
        if self.dup_every != 0 && k.is_multiple_of(self.dup_every) {
            return FaultDecision::Duplicate;
        }
        FaultDecision::Deliver
    }

    /// Parses a CLI fault spec: comma-separated `drop:N`, `dup:N`,
    /// `delay:MS` clauses, e.g. `"drop:7,dup:5,delay:2"`. Unknown keys or
    /// malformed numbers are an `Err` naming the offending clause.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` is not key:value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault clause `{clause}` has a malformed number"))?;
            match key.trim() {
                "drop" => cfg.drop_every = n,
                "dup" => cfg.dup_every = n,
                "delay" => cfg.delay = (n > 0).then(|| Duration::from_millis(n)),
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// A [`Transport`] wrapper injecting drops, duplicates and delays into
/// payload sends.
pub struct Faulty<T: Transport> {
    inner: T,
    cfg: FaultConfig,
    sends: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
}

impl<T: Transport> Faulty<T> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: T, cfg: FaultConfig) -> Self {
        Faulty {
            inner,
            cfg,
            sends: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        }
    }

    /// Payload messages swallowed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Extra payload copies injected so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// The fault gate: one decision per payload-carrying send, so a session
    /// under test sees the same schedule the raw rank engine would. The
    /// decision itself is the pure [`FaultConfig::decide`]; this wrapper
    /// owns the live counters and the delay side effect.
    fn gate(&self) -> FaultDecision {
        if let Some(d) = self.cfg.delay {
            std::thread::sleep(d);
        }
        let k = self
            .cfg
            .phase
            .wrapping_add(self.sends.fetch_add(1, Ordering::Relaxed) + 1);
        let decision = self.cfg.decide(k, self.dropped.load(Ordering::Relaxed));
        match decision {
            FaultDecision::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::Duplicate => {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::Deliver => {}
        }
        decision
    }
}

/// What the fault gate decided for one payload send; see
/// [`FaultConfig::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The payload is swallowed — the wire never sees it.
    Drop,
    /// Two copies cross the wire.
    Duplicate,
    /// One copy crosses the wire, untouched.
    Deliver,
}

/// splitmix64: decorrelates the drop gate from the raw counter arithmetic
/// so retransmission batches cannot phase-lock with the drop schedule.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<T: Transport> Transport for Faulty<T> {
    fn rank(&self) -> NodeId {
        self.inner.rank()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// Faults target the counted data path only — whatever carries a
    /// [`Message::payload`], plain or sequenced, meets the same gate; acks,
    /// poison and the gather pass untouched, since perturbing the recovery
    /// and shutdown machinery would test nothing the runtime promises.
    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        if msg.payload().is_none() {
            return self.inner.send(dest, msg);
        }
        match self.gate() {
            FaultDecision::Drop => None,
            FaultDecision::Duplicate => {
                self.inner.send(dest, msg.clone());
                self.inner.send(dest, msg)
            }
            FaultDecision::Deliver => self.inner.send(dest, msg),
        }
    }

    fn set_waker(&self, waker: Option<Waker>) {
        self.inner.set_waker(waker);
    }

    fn next_timer(&self) -> Option<Instant> {
        self.inner.next_timer()
    }

    fn try_recv(&self) -> Option<Message> {
        self.inner.try_recv()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::inproc_mesh;
    use crate::msg::{Payload, PeerStats};
    use sbc_kernels::Tile;

    impl FaultConfig {
        /// Only duplicates, every `n`-th payload.
        pub(crate) fn duplicating(n: u64) -> Self {
            FaultConfig {
                dup_every: n,
                ..Default::default()
            }
        }
    }

    impl<T: Transport> Faulty<T> {
        /// The wrapped transport.
        pub(crate) fn inner(&self) -> &T {
            &self.inner
        }
    }

    fn payload(k: u32) -> Payload {
        Payload::Data {
            job: 0,
            producer: k,
            tile: Tile::zeros(2),
        }
    }

    #[test]
    fn drops_swallow_a_seeded_subset_of_payloads() {
        let mesh = inproc_mesh(2);
        let mut mesh = mesh.into_iter();
        let a = Faulty::new(mesh.next().unwrap(), FaultConfig::dropping(3));
        let b = mesh.next().unwrap();
        let mut delivered = 0;
        for k in 0..30 {
            if a.send_payload(1, payload(k)).is_some() {
                delivered += 1;
            }
        }
        // fair loss, not a strict period: the victims are seeded, so the
        // exact count is reproducible but only the rate is configured
        assert!(a.dropped() > 0, "a 1-in-3 plan dropped nothing in 30 sends");
        assert_eq!(a.dropped() + delivered, 30);
        let mut seen = 0;
        while b.try_recv().is_some() {
            seen += 1;
        }
        assert_eq!(seen, delivered);
        assert_eq!(
            a.stats().sent_messages,
            delivered,
            "drops never hit the wire"
        );
    }

    #[test]
    fn duplicates_send_two_copies() {
        let mesh = inproc_mesh(2);
        let mut mesh = mesh.into_iter();
        let a = Faulty::new(mesh.next().unwrap(), FaultConfig::duplicating(2));
        let b = mesh.next().unwrap();
        for k in 0..4 {
            a.send_payload(1, payload(k));
        }
        assert_eq!(a.duplicated(), 2);
        let mut seen = 0;
        while b.try_recv().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 6, "4 sends + 2 duplicates");
        assert_eq!(a.stats().sent_messages, 6, "duplicates are real traffic");
    }

    #[test]
    fn control_messages_pass_untouched() {
        let mesh = inproc_mesh(2);
        let mut mesh = mesh.into_iter();
        let a = Faulty::new(mesh.next().unwrap(), FaultConfig::dropping(1));
        let b = mesh.next().unwrap();
        a.send_poison(1);
        let done = Message::Done {
            src: 0,
            stats: PeerStats::default(),
        };
        assert_eq!(a.send(1, done), Some(0));
        assert!(matches!(b.recv(), Some(Message::Poison)));
        assert!(matches!(b.recv(), Some(Message::Done { .. })));
        assert_eq!(a.send_payload(1, payload(0)), None, "all payloads dropped");
    }

    /// The latent-hang case: `dropping(1)` used to strand any receiver
    /// forever, because a swallowed payload was simply gone. Under a
    /// [`Session`] the same schedule *recovers* — every original is
    /// dropped, every delivery happens by retransmission, and the logical
    /// accounting still counts each payload exactly once.
    #[test]
    fn dropping_every_payload_recovers_under_a_session() {
        use crate::clock::RealClock;
        use crate::session::{Session, SessionConfig};
        use crate::transport::wait_for;
        use std::time::{Duration, Instant};

        let cfg = SessionConfig {
            rto: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            ..Default::default()
        };
        let mut mesh = inproc_mesh(2).into_iter();
        let a = Session::with_config(
            Faulty::new(
                mesh.next().unwrap(),
                FaultConfig {
                    drop_every: 1,
                    max_drops: 10,
                    ..Default::default()
                },
            ),
            cfg,
        );
        let b = Session::with_config(mesh.next().unwrap(), cfg);
        let n = 10u32;
        for k in 0..n {
            assert_eq!(a.send_payload(1, payload(k)), Some(32), "logical accept");
        }
        assert_eq!(a.inner().dropped(), 10, "every original was swallowed");
        let (a, b) = (&a, &b);
        std::thread::scope(|s| {
            // a's receives fire the retransmissions and take the acks
            let acked = s.spawn(move || {
                let until = Some(Instant::now() + Duration::from_secs(10));
                wait_for(a, &RealClock, until, || {
                    while a.try_recv().is_some() {}
                    (a.unacked() == 0).then_some(())
                })
            });
            for k in 0..n {
                let until = Some(Instant::now() + Duration::from_secs(10));
                match wait_for(b, &RealClock, until, || b.try_recv()) {
                    Some(Message::Payload {
                        payload: Payload::Data { producer, .. },
                        ..
                    }) => assert_eq!(producer, k, "recovered in order"),
                    other => panic!("payload {k} never recovered: {other:?}"),
                }
            }
            acked.join().unwrap();
        });
        assert_eq!(a.unacked(), 0, "recovery completed");
        let s = a.stats();
        assert_eq!(s.sent_messages, u64::from(n), "each payload counted once");
        assert!(
            s.retrans_messages >= u64::from(n),
            "every delivery was a retransmission: {}",
            s.retrans_messages
        );
        assert_eq!(b.stats().recv_messages, u64::from(n));
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            FaultConfig::parse("drop:7,dup:5,delay:2").unwrap(),
            FaultConfig {
                drop_every: 7,
                dup_every: 5,
                delay: Some(Duration::from_millis(2)),
                ..Default::default()
            }
        );
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
        assert_eq!(
            FaultConfig::parse("delay:0").unwrap(),
            FaultConfig::default(),
            "zero delay disables the fault"
        );
        assert!(FaultConfig::parse("drop").is_err(), "missing value");
        assert!(FaultConfig::parse("warp:3").is_err(), "unknown kind");
        assert!(FaultConfig::parse("drop:x").is_err(), "malformed number");
    }
}
