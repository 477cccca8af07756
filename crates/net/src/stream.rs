//! The socket backends: TCP and Unix-domain streams speaking [`crate::wire`].
//!
//! A mesh of `n` ranks uses per-direction connections: every rank dials an
//! *outbound* stream to each peer (announcing itself with a `Hello` frame)
//! and accepts `n − 1` *inbound* streams on its listener. Outbound streams
//! are write-only, inbound streams read-only, so no stream is ever shared
//! between a reader and a writer.
//!
//! Sends are queued per peer into a **bounded** queue drained by one writer
//! thread per connection — when a peer's queue is full, the sending worker
//! blocks until the writer catches up (blocking backpressure, unlike the
//! unbounded in-process channels). One reader thread per inbound connection
//! decodes frames into the rank's shared inbox; a decode failure (bad CRC,
//! truncation mid-frame) poisons the rank, while a clean EOF just ends that
//! connection — peers that finish early close their sockets without
//! aborting anyone.

use crate::inproc::Mailbox;
use crate::msg::{Message, NodeId};
use crate::pool::{BufferPool, PoolStats, PooledBuf};
use crate::sock::{connect_retry, Backend, Conn, Listener};
use crate::transport::{RecvTimeout, StatsCell, Traffic, Transport, TransportStats};
use crate::wire::{self, Frame};
use crossbeam::channel::Sender;
use std::io::{self, Write};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Frames queued per peer before a sender blocks (the backpressure window).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// How long a mesh dial retries an unreachable peer before giving up,
/// unless overridden by [`MeshBuilder::connect_timeout`] or
/// [`ENV_CONNECT_TIMEOUT_MS`].
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

/// Environment override for the mesh connect deadline, in milliseconds
/// (e.g. `SBC_NET_CONNECT_TIMEOUT_MS=500`). Useful for CI jobs that want a
/// fast, typed failure instead of a 20-second hang when a rank never comes
/// up. Malformed or zero values fall back to [`DEFAULT_CONNECT_TIMEOUT`].
pub const ENV_CONNECT_TIMEOUT_MS: &str = "SBC_NET_CONNECT_TIMEOUT_MS";

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
pub struct MeshBuilder {
    rank: NodeId,
    n: usize,
    listener: Listener,
    queue_depth: usize,
    connect_timeout: Duration,
}

impl MeshBuilder {
    /// Binds rank `rank` of an `n`-rank mesh to an ephemeral address.
    pub fn bind(backend: Backend, rank: NodeId, n: usize) -> io::Result<MeshBuilder> {
        assert!(
            (rank as usize) < n,
            "rank {rank} out of range for {n} nodes"
        );
        Ok(MeshBuilder {
            rank,
            n,
            listener: Listener::bind_ephemeral(backend)?,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            connect_timeout: default_connect_timeout(),
        })
    }

    /// The address peers should dial to reach this rank.
    pub fn addr(&self) -> &str {
        self.listener.addr()
    }

    /// Overrides the per-peer send-queue depth (the backpressure window).
    pub fn queue_depth(mut self, depth: usize) -> MeshBuilder {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides how long [`connect`](MeshBuilder::connect) retries each
    /// unreachable peer before failing with a typed [`crate::ConnectTimeout`].
    /// Defaults to [`ENV_CONNECT_TIMEOUT_MS`] when set, else
    /// [`DEFAULT_CONNECT_TIMEOUT`].
    pub fn connect_timeout(mut self, timeout: Duration) -> MeshBuilder {
        self.connect_timeout = timeout;
        self
    }

    /// Connects the full mesh: dials every peer (with `Hello`), then
    /// accepts `n − 1` inbound connections. `addrs[rank]` must be each
    /// rank's listener address; every rank must call this concurrently.
    pub fn connect(self, addrs: &[String]) -> io::Result<StreamTransport> {
        assert_eq!(addrs.len(), self.n, "address table size mismatch");
        let inbox = Mailbox::new();
        let stats = Arc::new(StatsCell::default());
        let pool = BufferPool::default();
        let mut peers: Vec<Option<SyncSender<PooledBuf>>> = (0..self.n).map(|_| None).collect();
        let mut writers = Vec::with_capacity(self.n.saturating_sub(1));

        for (dest, addr) in addrs.iter().enumerate() {
            if dest == self.rank as usize {
                continue;
            }
            let mut stream = connect_retry(addr, self.connect_timeout)?;
            wire::write_frame(&mut stream, &Frame::Hello { src: self.rank })?;
            let (tx, rx) = sync_channel::<PooledBuf>(self.queue_depth);
            writers.push(std::thread::spawn(move || {
                // each received buffer drops at the end of its iteration,
                // returning to the transport's pool for the next send
                while let Ok(buf) = rx.recv() {
                    if stream.write_all(&buf).is_err() {
                        // peer is gone; drain the queue so senders unblock
                        while rx.recv().is_ok() {}
                        return;
                    }
                }
                let _ = stream.flush();
            }));
            peers[dest] = Some(tx);
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
            let inbox = inbox.sender();
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
            pool,
            writers,
        })
    }
}

fn reader_loop(mut stream: Conn, inbox: &Sender<Message>, stats: &StatsCell) {
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
                    let _ = inbox.send(msg);
                }
                None => stats.count_received(Traffic::Free, frame_bytes),
            },
            // clean close: the peer finished and dropped its endpoint
            Ok(None) => return,
            // corruption or a mid-frame death: abort this rank
            Err(_) => {
                let _ = inbox.send(Message::Poison);
                return;
            }
        }
    }
}

/// One rank's endpoint of a socket mesh ([`Backend::Tcp`] or
/// [`Backend::Uds`]). Built by [`MeshBuilder::connect`] or [`local_mesh`].
pub struct StreamTransport {
    rank: NodeId,
    n: usize,
    peers: Vec<Option<SyncSender<PooledBuf>>>,
    inbox: Mailbox,
    stats: Arc<StatsCell>,
    pool: BufferPool,
    writers: Vec<JoinHandle<()>>,
}

impl StreamTransport {
    /// Checkout accounting of the send-buffer pool. Steady state shows
    /// `misses` flat while `hits` grow: sends are not allocating.
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
        let frame = Frame::from_message(msg)?;
        // encode in place into a buffer checked out of this transport's pool
        let mut buf = self.pool.checkout();
        let frame_bytes = wire::encode_into(&frame, &mut buf) as u64;
        self.peers[dest as usize].as_ref()?.send(buf).ok()?;
        Some(self.stats.count_sent(traffic, frame_bytes))
    }

    fn wake(&self) {
        self.inbox.wake();
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

impl Drop for StreamTransport {
    fn drop(&mut self) {
        // dropping the queue senders ends the writer threads after they
        // flush; readers exit on their own at peer EOF and are detached
        self.peers.clear();
        for w in self.writers.drain(..) {
            let _ = w.join();
        }
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
    use std::time::Instant;

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

    #[test]
    fn steady_state_sends_allocate_nothing() {
        // once every queued buffer has returned to the pool, each further
        // payload send must be a pool *hit* — i.e. encode into a recycled
        // buffer with zero fresh heap allocation. The miss counter is the
        // proof: it plateaus after warm-up while hits keep growing.
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
            mesh[1].recv().unwrap();
        };
        let wait_drained = || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while mesh[0].pool_stats().outstanding != 0 {
                assert!(Instant::now() < deadline, "send buffer never returned");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // warm-up: the pool starts empty, so the first send must miss
        send_and_deliver(0);
        wait_drained();
        let warm = mesh[0].pool_stats();
        assert!(warm.misses >= 1);

        let n_msgs = 100u32;
        for k in 1..=n_msgs {
            send_and_deliver(k);
            wait_drained();
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

    #[test]
    fn bounded_queue_applies_backpressure_without_deadlock() {
        // queue depth 1: the second send must wait for the writer, but the
        // peer's reader keeps draining so everything still goes through
        let builders: Vec<MeshBuilder> = (0..2)
            .map(|r| {
                MeshBuilder::bind(Backend::Tcp, r, 2)
                    .unwrap()
                    .queue_depth(1)
            })
            .collect();
        let addrs: Vec<String> = builders.iter().map(|b| b.addr().to_string()).collect();
        let mesh: Vec<StreamTransport> = std::thread::scope(|scope| {
            builders
                .into_iter()
                .map(|b| {
                    let addrs = &addrs;
                    scope.spawn(move || b.connect(addrs).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let n_msgs = 200u32;
        for k in 0..n_msgs {
            mesh[0]
                .send_payload(
                    1,
                    Payload::Data {
                        job: 0,
                        producer: k,
                        tile: Tile::zeros(8),
                    },
                )
                .unwrap();
        }
        for k in 0..n_msgs {
            match mesh[1].recv().unwrap() {
                Message::Payload {
                    payload: Payload::Data { producer, .. },
                    ..
                } => assert_eq!(producer, k, "frames arrive in order"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(mesh[0].stats().sent_messages, u64::from(n_msgs));
    }

    #[test]
    fn mesh_builder_connect_surfaces_the_typed_timeout() {
        // bind-then-drop: nothing listens on a port that was just ours
        let vacant = Listener::bind("127.0.0.1:0").unwrap().addr().to_owned();
        let b = MeshBuilder::bind(Backend::Tcp, 0, 2)
            .unwrap()
            .connect_timeout(Duration::from_millis(50));
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
