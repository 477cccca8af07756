//! The socket backends: TCP and Unix-domain streams speaking [`crate::wire`].
//!
//! A mesh of `n` ranks uses per-direction connections: every rank dials an
//! *outbound* stream to each peer (announcing itself with a `Hello` frame)
//! and accepts `n − 1` *inbound* streams on its listener. Outbound streams
//! are write-only, inbound streams read-only, so no stream is ever shared
//! between a reader and a writer.
//!
//! A frame is written by the thread that sends it: [`Transport::send`]
//! encodes into a pooled buffer outside any lock, then `write_all`s it to
//! the peer's outbound stream under that peer's mutex, on the caller's
//! thread. The socket buffer is the backpressure window — a sender to a
//! slow peer blocks in the write — and a peer that hung up fails the write,
//! so `send` returns `None` from then on. One reader thread per inbound
//! connection decodes frames into the rank's shared inbox; a decode failure
//! (bad CRC, truncation mid-frame) poisons the rank, while a clean EOF just
//! ends that connection — peers that finish early close their sockets
//! without aborting anyone. A mesh of `n` ranks therefore runs `n(n − 1)`
//! threads, one per connection.
//!
//! **Invariant: a thread that reads a socket never writes one.** That is
//! why a blocked write cannot deadlock, however full every socket buffer
//! is and whoever is writing to whom: the bytes it waits to hand over are
//! taken by the destination's reader thread for that connection, which
//! only reads, pushes into the rank's unbounded inbox and wakes the inbox's
//! waker — which marks the rank runnable under a lock no sender holds
//! across a send. It never waits on a send or the rank itself. So every
//! write completes while the peer's process lives, and fails when it does
//! not.

use crate::inproc::{Inlet, Mailbox};
use crate::msg::{Message, NodeId};
use crate::pool::{BufferPool, PoolStats};
use crate::sock::{connect_retry, Backend, Conn, Listener};
use crate::transport::{RecvTimeout, StatsCell, Traffic, Transport, TransportStats};
use crate::wire::{self, Frame};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::{Duration, Instant};

/// How long a mesh dial retries an unreachable peer before giving up,
/// unless overridden by [`ENV_CONNECT_TIMEOUT_MS`].
pub(crate) const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

/// Environment override for the mesh connect deadline, in milliseconds
/// (e.g. `SBC_NET_CONNECT_TIMEOUT_MS=500`). Useful for CI jobs that want a
/// fast, typed failure instead of a 20-second hang when a rank never comes
/// up. Malformed or zero values fall back to [`DEFAULT_CONNECT_TIMEOUT`].
pub(crate) const ENV_CONNECT_TIMEOUT_MS: &str = "SBC_NET_CONNECT_TIMEOUT_MS";

/// Resolves the effective connect deadline: the env override when set and
/// sane, the default otherwise. Factored over the raw env string so the
/// parsing rules are unit-testable without mutating process environment.
fn connect_timeout_from(env: Option<&str>) -> Duration {
    env.and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_CONNECT_TIMEOUT)
}

pub(crate) fn default_connect_timeout() -> Duration {
    connect_timeout_from(std::env::var(ENV_CONNECT_TIMEOUT_MS).ok().as_deref())
}

/// Half-built mesh endpoint: bound, address known, not yet connected.
pub(crate) struct MeshBuilder {
    rank: NodeId,
    n: usize,
    listener: Listener,
    connect_timeout: Duration,
}

impl MeshBuilder {
    /// Binds rank `rank` of an `n`-rank mesh to an ephemeral address.
    pub(crate) fn bind(backend: Backend, rank: NodeId, n: usize) -> io::Result<MeshBuilder> {
        assert!(
            (rank as usize) < n,
            "rank {rank} out of range for {n} nodes"
        );
        Ok(MeshBuilder {
            rank,
            n,
            listener: Listener::bind_ephemeral(backend)?,
            connect_timeout: default_connect_timeout(),
        })
    }

    /// The address peers should dial to reach this rank.
    pub(crate) fn addr(&self) -> &str {
        self.listener.addr()
    }

    /// Connects the full mesh: dials every peer (with `Hello`), then
    /// accepts `n − 1` inbound connections. `addrs[rank]` must be each
    /// rank's listener address; every rank must call this concurrently.
    pub(crate) fn connect(self, addrs: &[String]) -> io::Result<StreamTransport> {
        assert_eq!(addrs.len(), self.n, "address table size mismatch");
        let inbox = Mailbox::new();
        let stats = Arc::new(StatsCell::default());
        let mut peers: Vec<Mutex<Option<Conn>>> = (0..self.n).map(|_| Mutex::new(None)).collect();

        for (dest, addr) in addrs.iter().enumerate() {
            if dest == self.rank as usize {
                continue;
            }
            let mut stream = connect_retry(addr, self.connect_timeout)?;
            wire::write_frame(&mut stream, &Frame::Hello { src: self.rank })?;
            peers[dest] = Mutex::new(Some(stream));
        }

        for _ in 1..self.n {
            let mut stream = self.listener.accept()?;
            match wire::read_frame(&mut stream) {
                Ok(Some((Frame::Hello { .. }, _))) => {}
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "peer did not introduce itself with a Hello frame",
                    ));
                }
            }
            let inbox = inbox.inlet();
            let stats = Arc::clone(&stats);
            // detached: exits on clean EOF when the peer closes its end
            std::thread::spawn(move || reader_loop(stream, &inbox, &stats));
        }

        // the listener (and any UDS socket file) is no longer needed
        Ok(StreamTransport {
            rank: self.rank,
            n: self.n,
            peers,
            inbox,
            stats,
            pool: BufferPool::default(),
        })
    }
}

fn reader_loop(mut stream: Conn, inbox: &Inlet, stats: &StatsCell) {
    // one scratch buffer per connection: every frame on this stream decodes
    // through the same allocation (grown once to the high-water frame size)
    let mut scratch = Vec::new();
    loop {
        match wire::read_frame_into(&mut stream, &mut scratch) {
            // a frame that is not mesh traffic (setup, or the job protocol
            // of a dedicated client connection) costs its bytes and is
            // otherwise ignored
            Ok(Some((frame, frame_bytes))) => match frame.into_message() {
                Some(msg) => {
                    stats.count_received(Traffic::of(&msg), frame_bytes);
                    // the endpoint may be gone already; so is its inbox
                    inbox.push(msg);
                }
                None => stats.count_received(Traffic::Free, frame_bytes),
            },
            // clean close: the peer finished and dropped its endpoint
            Ok(None) => return,
            // corruption or a mid-frame death: abort this rank
            Err(_) => {
                inbox.push(Message::Poison);
                return;
            }
        }
    }
}

/// One rank's endpoint of a socket mesh ([`Backend::Tcp`] or
/// [`Backend::Uds`]). Built by `MeshBuilder::connect` or [`local_mesh`].
/// Dropping it closes its outbound streams, which ends the peers' reader
/// threads for those connections.
pub struct StreamTransport {
    rank: NodeId,
    n: usize,
    /// The outbound stream to each peer: `None` for this rank itself and
    /// for a peer whose write failed (a half-written frame must never be
    /// followed by another).
    peers: Vec<Mutex<Option<Conn>>>,
    inbox: Mailbox,
    stats: Arc<StatsCell>,
    pool: BufferPool,
}

impl StreamTransport {
    /// Checkout accounting of the send-buffer pool. A buffer returns right
    /// after its write, so `outstanding` counts sends in progress; steady
    /// state shows `misses` flat while `hits` grow: sends are not
    /// allocating.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl Transport for StreamTransport {
    fn rank(&self) -> NodeId {
        self.rank
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        let traffic = Traffic::of(&msg);
        let frame = Frame::from_message(msg);
        // encode in place into a buffer checked out of this transport's
        // pool, before taking the peer's lock
        let mut buf = self.pool.checkout();
        let frame_bytes = wire::encode_into(&frame, &mut buf) as u64;
        let mut peer = self.peers[dest as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if peer.as_mut()?.write_all(&buf).is_err() {
            // the peer hung up: close our end too
            *peer = None;
            return None;
        }
        drop(peer);
        Some(self.stats.count_sent(traffic, frame_bytes))
    }

    fn set_waker(&self, waker: Option<Waker>) {
        self.inbox.set_waker(waker);
    }

    fn next_timer(&self) -> Option<Instant> {
        None
    }

    fn recv(&self) -> Option<Message> {
        self.inbox.recv()
    }

    fn try_recv(&self) -> Option<Message> {
        self.inbox.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
        self.inbox.recv_timeout(timeout)
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }
}

/// Builds a fully connected `n`-rank socket mesh inside one process (each
/// rank still talks through real sockets) — the loopback configuration the
/// transport tests use.
pub fn local_mesh(backend: Backend, n: usize) -> io::Result<Vec<StreamTransport>> {
    let builders: Vec<MeshBuilder> = (0..n)
        .map(|r| MeshBuilder::bind(backend, r as NodeId, n))
        .collect::<io::Result<_>>()?;
    let addrs: Vec<String> = builders.iter().map(|b| b.addr().to_string()).collect();
    let transports: Vec<io::Result<StreamTransport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = builders
            .into_iter()
            .map(|b| {
                let addrs = &addrs;
                scope.spawn(move || b.connect(addrs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh connect thread panicked"))
            .collect()
    });
    transports.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use crate::ConnectTimeout;
    use sbc_kernels::Tile;

    #[test]
    fn uds_socket_files_are_cleaned_up() {
        let before: usize = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("sbc-net-")
            })
            .count();
        drop(local_mesh(Backend::Uds, 2).unwrap());
        let after: usize = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("sbc-net-")
            })
            .count();
        assert!(after <= before, "socket files leaked: {before} -> {after}");
    }

    fn data(producer: u32, dim: usize) -> Payload {
        Payload::Data {
            job: 0,
            producer,
            tile: Tile::zeros(dim),
        }
    }

    #[test]
    fn steady_state_sends_allocate_nothing() {
        // a send's buffer is back in the pool when `send` returns, so each
        // further payload send must be a pool *hit* — i.e. encode into a
        // recycled buffer with zero fresh heap allocation. The miss counter
        // is the proof: it plateaus after warm-up while hits keep growing.
        let mesh = local_mesh(Backend::Tcp, 2).unwrap();
        let tile = Tile::from_fn(16, |i, j| (i * 16 + j) as f64);
        let send_and_deliver = |k: u32| {
            mesh[0]
                .send_payload(
                    1,
                    Payload::Data {
                        job: 0,
                        producer: k,
                        tile: tile.clone(),
                    },
                )
                .unwrap();
            assert_eq!(mesh[0].pool_stats().outstanding, 0, "written, returned");
            mesh[1].recv().unwrap();
        };

        // warm-up: the pool starts empty, so the first send must miss
        send_and_deliver(0);
        let warm = mesh[0].pool_stats();
        assert!(warm.misses >= 1);

        let n_msgs = 100u32;
        for k in 1..=n_msgs {
            send_and_deliver(k);
        }
        let end = mesh[0].pool_stats();
        assert_eq!(
            end.misses, warm.misses,
            "a steady-state payload send allocated a fresh buffer"
        );
        assert!(
            end.hits >= warm.hits + u64::from(n_msgs),
            "expected {n_msgs} more hits: {warm:?} -> {end:?}"
        );
    }

    /// Every rank of `mesh` sends `frames` frames of b = 64 (200 are 6.5 MB,
    /// far more than a socket buffer) to the next rank of a ring, all ranks
    /// at once and before anyone receives, so the writers block on full
    /// sockets that only the readers drain. Returns what each rank
    /// received, in order, with its source.
    fn ring_flood(mesh: &[StreamTransport], frames: u32) -> Vec<Vec<(NodeId, u32)>> {
        let n = mesh.len();
        std::thread::scope(|s| {
            for (r, t) in mesh.iter().enumerate() {
                s.spawn(move || {
                    for k in 0..frames {
                        let dest = ((r + 1) % n) as NodeId;
                        assert!(t.send_payload(dest, data(k, 64)).is_some());
                    }
                });
            }
        });
        mesh.iter()
            .map(|t| {
                (0..frames)
                    .map(|_| match t.recv().unwrap() {
                        Message::Payload {
                            src,
                            payload: Payload::Data { producer, .. },
                        } => (src, producer),
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn writes_on_the_senders_thread_cannot_deadlock() {
        // a 2-rank mesh sending both ways, and a 3-rank ring 0 → 1 → 2 → 0
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for backend in [Backend::Tcp, Backend::Uds] {
                for n in [2, 3] {
                    let mesh = local_mesh(backend, n).unwrap();
                    let frames = 200;
                    for (r, got) in ring_flood(&mesh, frames).into_iter().enumerate() {
                        let src = ((r + n - 1) % n) as NodeId;
                        let want: Vec<_> = (0..frames).map(|k| (src, k)).collect();
                        assert_eq!(got, want, "{backend:?} n={n}: rank {r}, in per-peer order");
                        assert_eq!(mesh[r].stats().sent_messages, u64::from(frames));
                    }
                }
            }
            done.send(()).unwrap();
        });
        match finished.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("deadlock: the flood did not finish in 30 s")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                panic!("the flood failed (see its panic above)")
            }
        }
    }

    #[test]
    fn a_send_to_a_hung_up_peer_is_refused_and_not_counted() {
        for backend in [Backend::Uds, Backend::Tcp] {
            // this thread plays rank 1 of a 2-rank mesh by hand
            let rank0 = MeshBuilder::bind(backend, 0, 2).unwrap();
            let rank1 = Listener::bind_ephemeral(backend).unwrap();
            let addrs = vec![rank0.addr().to_string(), rank1.addr().to_string()];
            let (t, inbound, _outbound) = std::thread::scope(|s| {
                let t = s.spawn(|| rank0.connect(&addrs).unwrap());
                let mut inbound = rank1.accept().unwrap();
                assert!(matches!(
                    wire::read_frame(&mut inbound),
                    Ok(Some((Frame::Hello { src: 0 }, _)))
                ));
                let mut outbound = connect_retry(&addrs[0], Duration::from_secs(5)).unwrap();
                wire::write_frame(&mut outbound, &Frame::Hello { src: 1 }).unwrap();
                (t.join().unwrap(), inbound, outbound)
            });
            // rank 1 hangs up the stream rank 0 writes to
            drop(inbound);
            let first = t.send_payload(1, data(0, 4));
            // over TCP the first frame may land before the peer's reset
            // comes back; give the reset time to arrive
            std::thread::sleep(Duration::from_millis(50));
            let rest: Vec<_> = (1..8).map(|k| t.send_payload(1, data(k, 4))).collect();
            if backend == Backend::Uds {
                assert_eq!(first, None, "a closed Unix socket refuses at once");
            }
            assert_eq!(rest, vec![None; 7], "{backend:?}: sends after the hang-up");
            assert_eq!(
                t.stats().sent_messages,
                u64::from(first.is_some()),
                "{backend:?}: a refused send is not counted"
            );
        }
    }

    #[test]
    fn mesh_builder_connect_surfaces_the_typed_timeout() {
        // bind-then-drop: nothing listens on a port that was just ours
        let vacant = Listener::bind("127.0.0.1:0").unwrap().addr().to_owned();
        let mut b = MeshBuilder::bind(Backend::Tcp, 0, 2).unwrap();
        b.connect_timeout = Duration::from_millis(50);
        let addrs = vec![b.addr().to_string(), vacant];
        let err = match b.connect(&addrs) {
            Ok(_) => panic!("peer 1 never comes up: connect must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            err.get_ref().is_some_and(|e| e.is::<ConnectTimeout>()),
            "expected a ConnectTimeout source, got {err:?}"
        );
    }

    #[test]
    fn connect_timeout_env_parsing_rules() {
        assert_eq!(connect_timeout_from(None), DEFAULT_CONNECT_TIMEOUT);
        assert_eq!(
            connect_timeout_from(Some("250")),
            Duration::from_millis(250)
        );
        assert_eq!(
            connect_timeout_from(Some(" 250 ")),
            Duration::from_millis(250),
            "whitespace is tolerated"
        );
        for bad in ["0", "-5", "1.5s", "fast", ""] {
            assert_eq!(
                connect_timeout_from(Some(bad)),
                DEFAULT_CONNECT_TIMEOUT,
                "malformed override {bad:?} falls back to the default"
            );
        }
    }
}
