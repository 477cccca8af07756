//! Property tests for the session protocol's configuration edge cases:
//! zero linger, a one-slot reorder window, and retransmission backoff
//! saturation — each driven deterministically on a virtual clock across
//! randomized workloads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sbc_net::{
    inproc_mesh, Clock, FaultConfig, Faulty, Payload, Session, SessionConfig, Transport,
    VirtualClock,
};

fn cfg(rto_ms: u64, cap_ms: u64, window: u64) -> SessionConfig {
    SessionConfig {
        rto: Duration::from_millis(rto_ms),
        backoff_cap: Duration::from_millis(cap_ms),
        linger: Duration::ZERO,
        window,
    }
}

fn payload(producer: u32) -> Payload {
    Payload::Data {
        job: 0,
        producer,
        tile: sbc_kernels::Tile::zeros(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `linger = 0` means drop never blocks: whatever is unacked when the
    /// session goes away — including on a frozen virtual clock where no
    /// drain could ever make progress — teardown returns immediately.
    #[test]
    fn zero_linger_drop_is_immediate_whatever_is_inflight(n in 0usize..8) {
        let mesh = inproc_mesh(2);
        let mut ends = mesh.into_iter();
        let a = ends.next().unwrap();
        let _b = ends.next().unwrap();
        let clock = Arc::new(VirtualClock::new());
        // every frame is lost, so nothing is ever acked
        let session = Session::with_clock(
            Faulty::new(a, FaultConfig::dropping(1)),
            cfg(10, 40, 4),
            clock.clone() as Arc<dyn Clock>,
        );
        for i in 0..n {
            session.send_payload(1, payload(i as u32));
        }
        prop_assert_eq!(session.unacked(), n as u64);
        let start = Instant::now();
        drop(session);
        prop_assert!(
            start.elapsed() < Duration::from_secs(1),
            "zero-linger drop stalled for {:?} with {} unacked",
            start.elapsed(),
            n
        );
    }

    /// A one-slot reorder window forces strictly sequential acceptance:
    /// the receiver discards everything but the next expected sequence
    /// number and the sender's retransmissions fill the gaps — yet every
    /// payload surfaces exactly once, in order, with exact accounting,
    /// even when the wire also duplicates frames.
    #[test]
    fn window_of_one_delivers_exactly_once_in_order(
        n in 1usize..7,
        dup_every in 0u64..4,
    ) {
        let mesh = inproc_mesh(2);
        let mut ends = mesh.into_iter();
        let a = ends.next().unwrap();
        let b = ends.next().unwrap();
        let clock = Arc::new(VirtualClock::new());
        let fault = FaultConfig { dup_every, ..FaultConfig::default() };
        let sender = Session::with_clock(
            Faulty::new(a, fault),
            cfg(10, 40, 1),
            clock.clone() as Arc<dyn Clock>,
        );
        let receiver =
            Session::with_clock(b, cfg(10, 40, 1), clock.clone() as Arc<dyn Clock>);
        for i in 0..n {
            sender.send_payload(1, payload(i as u32));
        }
        let mut got = Vec::new();
        for _ in 0..10_000 {
            while let Some(m) = receiver.try_recv() {
                if let sbc_net::Message::Payload {
                    payload: Payload::Data { producer, .. }, ..
                } = m
                {
                    got.push(producer);
                }
            }
            // lets the sender process returning acks and rearm timers
            prop_assert!(sender.try_recv().is_none());
            if got.len() == n && sender.unacked() == 0 {
                break;
            }
            // next retransmission becomes due; fired on the next try_recv
            clock.advance(Duration::from_millis(40));
        }
        let want: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(&got, &want, "deliveries out of order or missing");
        prop_assert_eq!(sender.unacked(), 0);
        let st = sender.stats();
        prop_assert_eq!(st.sent_messages, n as u64);
        prop_assert_eq!(receiver.stats().recv_messages, n as u64);
    }

    /// Retransmission backoff doubles per firing and then saturates at
    /// `backoff_cap`, never overshooting it, for any (rto, cap) pair.
    #[test]
    fn backoff_saturates_exactly_at_the_cap(
        rto_ms in 1u64..50,
        factor in 1u64..10,
    ) {
        let cap_ms = rto_ms * factor;
        let mesh = inproc_mesh(2);
        let mut ends = mesh.into_iter();
        let a = ends.next().unwrap();
        let _b = ends.next().unwrap();
        let clock = Arc::new(VirtualClock::new());
        let session = Session::with_clock(
            Faulty::new(a, FaultConfig::dropping(1)),
            cfg(rto_ms, cap_ms, 4),
            clock.clone() as Arc<dyn Clock>,
        );
        session.send_payload(1, payload(0));
        let cap = Duration::from_millis(cap_ms);
        let mut expected = Duration::from_millis(rto_ms);
        for round in 0u32..12 {
            let probe = session.probe();
            let u = &probe.send[1].unacked[0];
            prop_assert_eq!(
                u.rto_ns,
                expected.as_nanos() as u64,
                "round {}: rto should be min(rto * 2^k, cap)",
                round
            );
            prop_assert!(u.rto_ns <= cap.as_nanos() as u64);
            let due = session.next_timer().expect("timer armed");
            clock.advance_to(due);
            session.drive_timers();
            expected = (expected * 2).min(cap);
        }
        // well past saturation: pinned to the cap exactly
        prop_assert_eq!(
            session.probe().send[1].unacked[0].rto_ns,
            cap.as_nanos() as u64
        );
        prop_assert_eq!(session.stats().retrans_messages, 12);
    }
}
