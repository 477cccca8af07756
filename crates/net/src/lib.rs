//! # sbc-net — the runtime's pluggable transport layer
//!
//! The paper's experiments ship tiles between nodes over MPI; this crate is
//! the substrate that turns the runtime's "network" into a swappable
//! backend behind one object-safe [`Transport`] trait with **one sender**,
//! [`Transport::send`]`(dest, `[`Message`]`)`. Three decisions have one owner
//! each: which messages exist ([`Message`]), which of them are traffic
//! ([`Message::payload`] — every backend's accounting, the fault gate and
//! the model checker's ledgers read that one accessor), and what a message
//! looks like on a socket (`wire::Frame::from_message` /
//! `wire::Frame::into_message`). A backend only moves what it is handed.
//!
//! * [`InProc`] — the historical configuration: every node is a thread in
//!   one address space and messages travel over unbounded in-process
//!   channels. [`inproc_mesh`] builds a fully connected mesh.
//! * [`StreamTransport`] — real sockets ([`Backend::Tcp`] over
//!   `std::net`, [`Backend::Uds`] over `std::os::unix::net`) speaking the
//!   length-prefixed little-endian wire protocol of [`wire`]: tagged
//!   frames, tile payloads as raw `f64` words, CRC32 integrity check. A
//!   frame is written to the peer's socket by the thread that sends it, so
//!   the socket buffer is the backpressure window and a send to a peer that
//!   hung up returns `None`. A frame's fixed bytes are laid out in a
//!   buffer from a per-transport [`BufferPool`] and written beside the
//!   tile's own words, so a steady-state payload send performs zero fresh
//!   heap allocations (see [`PoolStats`]) and copies no tile word. One
//!   reader thread per inbound connection reads each tile's words straight
//!   into its tile and feeds the same channel inbox `InProc` receives
//!   through.
//! * [`Faulty`] — a wrapper injecting drops, duplicates and delays into
//!   payload-carrying sends for the failure-injection tests.
//! * [`Session`] — a reliability layer over any of the above: per-peer
//!   sequence numbers, cumulative acks, retransmission with capped
//!   exponential backoff and a receiver-side reorder/dedup window, keeping
//!   logical payload accounting exact while retransmits and acks land in
//!   separate `retrans_*`/`control_*` counters.
//!
//! [`Listener`], [`connect_retry`] and [`Conn`] are the workspace's only
//! socket code — the mesh, the launcher and `sbc-serve`'s client front all
//! bind, accept and dial through them (an address with a `:` is TCP,
//! anything else a socket path; every TCP stream is `TCP_NODELAY`).
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
mod sock;
mod stream;
mod transport;
pub mod wire;

pub use clock::{Clock, RealClock, VirtualClock};
pub use faulty::{FaultConfig, FaultDecision, Faulty};
pub use inproc::{inproc_mesh, InProc};
pub use launch::{launch, wait_children, Role};
pub use msg::{Message, NodeId, Payload, PeerStats};
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use session::{
    PeerRecvProbe, PeerSendProbe, Session, SessionConfig, SessionEvent, SessionEventKind,
    SessionProbe, UnackedProbe,
};
pub use sock::{connect_retry, Backend, Conn, ConnectTimeout, Listener, StreamIo};
pub use stream::{local_mesh, StreamTransport};
pub use transport::{wait_for, Transport, TransportStats};
