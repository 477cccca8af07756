//! One contract, every transport: what `Transport::send` delivers and what
//! it counts, checked by the same function over the in-process mesh, real
//! sockets of both families, the fault wrapper with nothing to inject and
//! the reliability session. This is the one place all five meet; a backend
//! or wrapper that drifts from the counting rule fails here by name.

use sbc_kernels::Tile;
use sbc_net::{
    inproc_mesh, local_mesh, wait_for, Backend, FaultConfig, Faulty, Message, NodeId, Payload,
    PeerStats, RealClock, Session, Transport, TransportStats,
};
use sbc_taskgraph::TileRef;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// A waker that counts its wake-ups.
#[derive(Default)]
struct Wakes(AtomicUsize);

impl Wake for Wakes {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The next message `t` delivers within `patience` of real time.
fn recv_within<T: Transport>(t: &T, patience: Duration) -> Option<Message> {
    wait_for(t, &RealClock, Some(Instant::now() + patience), || {
        t.try_recv()
    })
}

fn tile(dim: usize) -> Tile {
    Tile::from_fn(dim, |i, j| (i * dim + j) as f64 - 1.5)
}

fn data(src: NodeId, producer: u32, dim: usize) -> Message {
    Message::Payload {
        src,
        payload: Payload::Data {
            job: 1,
            producer,
            tile: tile(dim),
        },
    }
}

/// The counters a send may move, as one comparable tuple.
fn moved(before: &TransportStats, after: &TransportStats) -> (u64, u64, u64) {
    (
        after.sent_messages - before.sent_messages,
        after.sent_payload_bytes - before.sent_payload_bytes,
        after.control_messages - before.control_messages,
    )
}

/// Sends `msg` and checks the sender's counters moved by exactly what the
/// message's kind allows.
fn send_checked<T: Transport>(from: &T, dest: NodeId, msg: Message) {
    let bytes = msg.payload().map(Payload::payload_bytes);
    let expect = match (&msg, bytes) {
        (_, Some(b)) => (1, b, 0),
        (Message::Ack { .. }, None) => (0, 0, 1),
        _ => (0, 0, 0),
    };
    let before = from.stats();
    let label = format!("{msg:?}");
    assert_eq!(from.send(dest, msg), Some(bytes.unwrap_or(0)), "{label}");
    let after = from.stats();
    assert_eq!(moved(&before, &after), expect, "sender counters: {label}");
    assert_eq!(
        (after.recv_messages, after.recv_payload_bytes),
        (before.recv_messages, before.recv_payload_bytes),
        "a send never moves the sender's receive counters: {label}"
    );
}

/// `mesh` is a fresh 3-rank mesh. `session` says the endpoints are
/// reliability sessions, which change what *arrives* (never what is
/// counted): a sequenced send is a logical payload and surfaces as one, and
/// an ack is consumed by the receiving session.
fn conformance<T: Transport>(mesh: Vec<T>, session: bool) {
    assert_eq!(mesh.len(), 3);
    for (r, t) in mesh.iter().enumerate() {
        assert_eq!((t.rank() as usize, t.num_nodes()), (r, 3));
        assert_eq!(t.stats(), TransportStats::default(), "a fresh endpoint");
    }

    // rank 2's waker is woken once per message that reaches its inbox
    let wakes = Arc::new(Wakes::default());
    mesh[2].set_waker(Some(Waker::from(Arc::clone(&wakes))));
    assert_eq!(mesh[2].next_timer(), None, "nothing in flight");

    // every variant from rank 0 to rank 2, with rank 1's payloads to the
    // same inbox interleaved
    let orig = Payload::Orig {
        job: 0,
        tile_ref: TileRef::A {
            phase: 0,
            slice: 1,
            i: 4,
            j: 2,
        },
        tile: tile(2),
    };
    let from_zero = vec![
        Message::Result {
            tile_ref: TileRef::B { i: 3 },
            tile: tile(5),
        },
        Message::Done {
            src: 0,
            stats: PeerStats {
                sent: 1,
                sent_bytes: 72,
                applied: 0,
            },
        },
        data(0, 11, 3),
        Message::Payload {
            src: 0,
            payload: orig,
        },
        Message::Seq {
            src: 0,
            seq: 0,
            payload: Payload::Data {
                job: 3,
                producer: 77,
                tile: tile(4),
            },
        },
        Message::Ack { src: 0, upto: 0 },
        Message::Poison,
    ];
    let from_one = vec![data(1, 20, 1), data(1, 21, 1)];
    let mut ones = from_one.iter().cloned();
    for (k, msg) in from_zero.iter().cloned().enumerate() {
        send_checked(&mesh[0], 2, msg);
        if k % 3 == 1 {
            send_checked(&mesh[1], 2, ones.next().expect("two of them"));
        }
    }
    assert!(ones.next().is_none());
    // only a session keeps what it sent, until acked, on a timer
    assert_eq!(mesh[0].next_timer().is_some(), session);

    // what must surface at rank 2, per sender, in order
    let expect_zero: Vec<Message> = from_zero
        .into_iter()
        .filter_map(|m| match m {
            Message::Seq { src, payload, .. } if session => Some(Message::Payload { src, payload }),
            Message::Ack { .. } if session => None,
            m => Some(m),
        })
        .collect();
    // received by polling: a wait would register a waker of its own in
    // place of the one this counts
    let (mut got_zero, mut got_one) = (Vec::new(), Vec::new());
    let patience = Instant::now();
    while got_zero.len() + got_one.len() < expect_zero.len() + from_one.len() {
        match mesh[2].try_recv() {
            Some(m @ Message::Payload { src: 1, .. }) => got_one.push(m),
            Some(m) => got_zero.push(m),
            None if patience.elapsed() < Duration::from_secs(10) => std::thread::yield_now(),
            None => panic!(
                "rank 2 stopped after {} + {} messages",
                got_zero.len(),
                got_one.len()
            ),
        }
    }
    assert_eq!(
        got_zero, expect_zero,
        "rank 0's messages, equal and in order"
    );
    assert_eq!(got_one, from_one, "rank 1's messages, equal and in order");
    assert_eq!(mesh[2].try_recv(), None, "nothing arrives twice");
    // a reader thread wakes just after its push, so the count may lag the
    // last receive a little; an ack a session consumed was delivered too
    let delivered = expect_zero.len() + from_one.len() + usize::from(session);
    let patience = Instant::now();
    while wakes.0.load(Ordering::SeqCst) < delivered && patience.elapsed().as_secs() < 5 {
        std::thread::yield_now();
    }
    assert_eq!(
        wakes.0.load(Ordering::SeqCst),
        delivered,
        "one wake per delivery"
    );
    mesh[2].set_waker(None);

    // totals: three payload-bearing sends from rank 0 (3², 2², 4² words),
    // two one-word tiles from rank 1, all of it received once by rank 2
    let (s0, s1, s2) = (mesh[0].stats(), mesh[1].stats(), mesh[2].stats());
    assert_eq!((s0.sent_messages, s0.sent_payload_bytes), (3, 232));
    assert_eq!((s1.sent_messages, s1.sent_payload_bytes), (2, 16));
    assert_eq!((s2.recv_messages, s2.recv_payload_bytes), (5, 248));
    assert_eq!((s2.sent_messages, s2.sent_payload_bytes), (0, 0));
    assert_eq!((s0.control_messages, s1.control_messages), (1, 0));
    if !session {
        // a session acks what it receives; a bare endpoint sends nothing
        assert_eq!(s2.control_messages, 0);
    }
    for s in [s0, s1, s2] {
        // framing is either absent (in-process) or strictly on top
        assert!(s.sent_frame_bytes == 0 || s.sent_frame_bytes > s.sent_payload_bytes);
        assert!(s.recv_frame_bytes == 0 || s.recv_frame_bytes > s.recv_payload_bytes);
        assert!(s.control_bytes <= s.sent_frame_bytes);
    }
}

#[test]
fn inproc_conforms() {
    conformance(inproc_mesh(3), false);
}

#[test]
fn uds_sockets_conform() {
    conformance(local_mesh(Backend::Uds, 3).expect("uds mesh"), false);
}

#[test]
fn tcp_sockets_conform() {
    conformance(local_mesh(Backend::Tcp, 3).expect("tcp mesh"), false);
}

#[test]
fn faulty_with_an_empty_plan_conforms() {
    let mesh: Vec<_> = inproc_mesh(3)
        .into_iter()
        .map(|t| Faulty::new(t, FaultConfig::default()))
        .collect();
    conformance(mesh, false);
}

#[test]
fn sessions_conform() {
    conformance(inproc_mesh(3).into_iter().map(Session::new).collect(), true);
}

#[test]
fn sessions_over_sockets_conform() {
    let mesh = local_mesh(Backend::Uds, 3).expect("uds mesh");
    conformance(mesh.into_iter().map(Session::new).collect(), true);
}

/// `mesh` is a fresh 2-rank mesh of bare endpoints; rank 0 becomes a
/// session. The `src` of a `Seq` or an `Ack` is wire data: one that names no
/// rank of the mesh used to index the session's per-peer state out of
/// bounds. It is dropped — no delivery, no ack to a rank that does not
/// exist — and the session keeps serving its real peer.
fn session_drops_frames_from_outside_the_mesh<T: Transport>(mut mesh: Vec<T>) {
    let raw = mesh.pop().expect("rank 1");
    let session = Session::new(mesh.pop().expect("rank 0"));
    let payload = |producer| Payload::Data {
        job: 1,
        producer,
        tile: tile(2),
    };
    let seq = |src, payload| Message::Seq {
        src,
        seq: 0,
        payload,
    };
    raw.send(0, Message::Ack { src: 9, upto: 1 });
    raw.send(0, seq(2, payload(5)));
    // a real frame behind the strays: it surfaces, they do not
    let (src, real) = (1, payload(6));
    raw.send(0, seq(src, real.clone()));
    assert_eq!(
        recv_within(&session, Duration::from_secs(10)),
        Some(Message::Payload { src, payload: real })
    );
    assert_eq!(recv_within(&session, Duration::from_millis(50)), None);
    // one ack, for the one real payload, to the one real peer
    assert_eq!(
        recv_within(&raw, Duration::from_secs(10)),
        Some(Message::Ack { src: 0, upto: 1 })
    );
    assert_eq!(raw.try_recv(), None);
    assert_eq!(session.stats().control_messages, 1);
    assert_eq!(session.stats().recv_messages, 1);
}

#[test]
fn a_session_drops_frames_whose_source_is_not_a_peer() {
    session_drops_frames_from_outside_the_mesh(inproc_mesh(2));
    session_drops_frames_from_outside_the_mesh(local_mesh(Backend::Uds, 2).expect("uds mesh"));
}
