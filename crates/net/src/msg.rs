//! The message vocabulary every transport backend speaks.
//!
//! The split between [`Payload`] and the control variants of [`Message`] is
//! deliberate: payload messages carry tiles and are *counted* (they are the
//! communication volume the paper analyzes), control messages coordinate
//! shutdown, result gathering and session recovery and are free. The split
//! is enforced in exactly one place: [`Message::payload`] says which
//! variants carry a counted [`Payload`], and every reader of that question —
//! the backends' accounting, the fault gate, the model checker's ledgers —
//! asks it there. A [`Message::Result`] carries a tile too, but no
//! `Payload`, so the gather can never be mistaken for traffic.
//!
//! This file and [`crate::wire`] (the `Frame` form of each variant) are the
//! only two that change when the vocabulary does.

use sbc_kernels::Tile;
use sbc_taskgraph::{TaskId, TileRef};

/// A node (rank) index within a mesh.
pub type NodeId = u32;

/// A counted tile-carrying message: the only traffic that contributes to
/// communication statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Output tile of a remote producer task.
    Data {
        /// The job this tile belongs to (0 for single-job runs). A resident
        /// service multiplexes many factorizations over one mesh; the job id
        /// namespaces the receiver's tile stores so concurrent jobs never
        /// clobber each other.
        job: u32,
        /// The producing task (the receiver keys its cache by it).
        producer: TaskId,
        /// The produced tile.
        tile: Tile,
    },
    /// Original input tile fetched from its home node.
    Orig {
        /// The job this tile belongs to (0 for single-job runs).
        job: u32,
        /// Which logical tile this is.
        tile_ref: TileRef,
        /// The tile contents.
        tile: Tile,
    },
}

impl Payload {
    /// The job this payload belongs to.
    pub fn job(&self) -> u32 {
        match self {
            Payload::Data { job, .. } | Payload::Orig { job, .. } => *job,
        }
    }

    /// The tile being carried.
    pub fn tile(&self) -> &Tile {
        match self {
            Payload::Data { tile, .. } | Payload::Orig { tile, .. } => tile,
        }
    }

    /// Payload size in bytes: the raw `f64` body of the tile (`dim²·8`),
    /// excluding any framing. This is the quantity that must match the
    /// analytic communication volume.
    pub fn payload_bytes(&self) -> u64 {
        let d = self.tile().dim() as u64;
        d * d * 8
    }

    /// `true` for an original-tile fetch, `false` for a producer output.
    pub fn is_orig(&self) -> bool {
        matches!(self, Payload::Orig { .. })
    }
}

/// Per-rank totals a worker process reports to rank 0 when it finishes, so
/// the root can assemble global communication statistics without another
/// round trip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Payload messages this rank sent.
    pub sent: u64,
    /// Payload bytes this rank sent.
    pub sent_bytes: u64,
    /// Payload messages this rank received *and applied* (duplicates
    /// injected by a faulty transport are received but not applied).
    pub applied: u64,
}

/// Everything that can arrive at a rank's inbox.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A counted tile payload from `src`.
    Payload {
        /// Sending rank.
        src: NodeId,
        /// The tile payload.
        payload: Payload,
    },
    /// Another rank failed; abort cleanly.
    Poison,
    /// A result tile shipped to rank 0 during the final gather.
    Result {
        /// Which logical tile.
        tile_ref: TileRef,
        /// Its final contents.
        tile: Tile,
    },
    /// A worker rank finished and reports its totals (gather protocol).
    Done {
        /// Reporting rank.
        src: NodeId,
        /// Its payload-traffic totals.
        stats: PeerStats,
    },
    /// A sequenced tile payload from `src`, sent by a reliability session.
    ///
    /// Counted exactly like [`Message::Payload`] on the wire; the receiving
    /// session deduplicates and reorders by `seq` before handing the inner
    /// payload to the runtime as a plain `Payload`.
    Seq {
        /// Sending rank.
        src: NodeId,
        /// Per-(src, dest) sequence number, starting at 0.
        seq: u64,
        /// The tile payload.
        payload: Payload,
    },
    /// Cumulative acknowledgement from `src`: every sequenced payload with
    /// `seq < upto` has been received. Control traffic, never counted as
    /// payload volume.
    Ack {
        /// Acknowledging rank.
        src: NodeId,
        /// One past the highest contiguously received sequence number.
        upto: u64,
    },
}

impl Message {
    /// The counted tile payload this message carries, if any — the one
    /// definition of "traffic". `Some` for [`Message::Payload`] and
    /// [`Message::Seq`] (a sequenced copy costs what the plain one does),
    /// `None` for every control variant.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            Message::Payload { payload, .. } | Message::Seq { payload, .. } => Some(payload),
            Message::Poison
            | Message::Result { .. }
            | Message::Done { .. }
            | Message::Ack { .. } => None,
        }
    }
}
