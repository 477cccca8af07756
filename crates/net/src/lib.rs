//! # sbc-net — the runtime's pluggable transport layer
//!
//! The paper's experiments ship tiles between nodes over MPI; this crate is
//! the substrate that turns the runtime's "network" into a swappable
//! backend behind one object-safe [`Transport`] trait:
//!
//! * [`InProc`] — the historical configuration: every node is a thread in
//!   one address space and messages travel over unbounded in-process
//!   channels. [`inproc_mesh`] builds a fully connected mesh.
//! * [`StreamTransport`] — real sockets ([`Backend::Tcp`] over
//!   `std::net`, [`Backend::Uds`] over `std::os::unix::net`) speaking the
//!   length-prefixed little-endian wire protocol of [`wire`]: tagged
//!   frames, tile payloads as raw `f64` words, CRC32 integrity check, and
//!   bounded per-peer send queues with blocking backpressure. Send buffers
//!   come from a per-transport [`BufferPool`] and frames are laid down in
//!   place with [`wire::encode_into`], so a steady-state payload send
//!   performs zero fresh heap allocations (see [`PoolStats`]).
//! * [`Faulty`] — a wrapper injecting drops, duplicates and delays into
//!   payload traffic for the failure-injection tests.
//! * [`Session`] — a reliability layer over any of the above: per-peer
//!   sequence numbers, cumulative acks, retransmission with capped
//!   exponential backoff and a receiver-side reorder/dedup window, keeping
//!   logical payload accounting exact while retransmits and acks land in
//!   separate `retrans_*`/`control_*` counters.
//!
//! [`launch`] turns a single binary into a multi-process run: the parent
//! becomes rank 0, spawns one OS process per remaining rank, and all ranks
//! rendezvous over a localhost socket to exchange listener addresses before
//! building the full mesh.
//!
//! Byte accounting is exact by construction: [`TransportStats`] counts
//! payload bytes (the tile body, `dim²·8`) separately from framing
//! overhead, so the wire-level payload total of a run equals the runtime's
//! analytic `CommStats.bytes` — the quantity the paper reasons about —
//! while `sent_frame_bytes` exposes what actually crossed the socket.

#![warn(missing_docs)]

mod clock;
mod crc;
mod faulty;
mod inproc;
mod launch;
mod msg;
mod pool;
mod session;
mod stream;
mod transport;
pub mod wire;

pub use clock::{Clock, RealClock, VirtualClock};
pub use faulty::{FaultConfig, FaultDecision, Faulty};
pub use inproc::{inproc_mesh, InProc};
pub use launch::{launch, wait_children, Role, ENV_BACKEND, ENV_NODES, ENV_RANK, ENV_ROOT};
pub use msg::{Message, NodeId, Payload, PeerStats};
pub use pool::{BufferPool, PoolStats, PooledBuf, DEFAULT_RETAIN};
pub use session::{
    PeerRecvProbe, PeerSendProbe, Session, SessionConfig, SessionEvent, SessionEventKind,
    SessionProbe, UnackedProbe,
};
pub use stream::{
    local_mesh, Backend, ConnectTimeout, MeshBuilder, StreamTransport, DEFAULT_CONNECT_TIMEOUT,
    ENV_CONNECT_TIMEOUT_MS,
};
pub use transport::{RecvTimeout, Transport, TransportStats};
