//! The length-prefixed little-endian wire protocol of the stream backends.
//!
//! Every frame is laid out as
//!
//! ```text
//! | tag: u8 | body_len: u32 LE | body: body_len bytes | crc32: u32 LE |
//! ```
//!
//! where the CRC-32 (IEEE polynomial, the zlib/PNG checksum) covers the tag
//! byte, the length field and the body. Integers are little-endian; tiles
//! travel as a `u32` dimension followed by the raw column-major `f64` words
//! of [`Tile::as_slice`] (bit-exact — what arrives is what was sent, so
//! multi-process factors stay bit-identical to sequential ones).
//!
//! Every tile that crosses a socket is checksummed twice (sender, reader
//! thread), so [`crc32`] sets the codec's speed; how it is computed —
//! slicing-by-16 everywhere, carry-less-multiply folding where the CPU has
//! it — is in its module. Tile bodies are copied in bulk, so encode and
//! decode run at about the CRC's speed (`net.{crc32,encode,decode}_mb_s` in
//! `perf/`). The algorithm may change again; the *value* may not: the
//! trailer stays CRC-32/ISO-HDLC as zlib computes it, and the bytes of a
//! frame are pinned by a golden test.
//!
//! | tag | frame | body |
//! |-----|-------|------|
//! | 1 | `Data` | `src u32, job u32, producer u32, tile` |
//! | 2 | `Orig` | `src u32, job u32, tile_ref, tile` |
//! | 3 | `Poison` | empty |
//! | 4 | `Result` | `tile_ref, tile` |
//! | 5 | `Done` | `src u32, sent u64, sent_bytes u64, applied u64` |
//! | 6 | `Hello` | `src u32` (first frame on every mesh connection) |
//! | 7 | `Addr` | `src u32, addr string` (rendezvous: worker → root) |
//! | 8 | `Table` | `count u32, addr strings` (rendezvous: root → worker) |
//! | 9 | `Seq`/`Data` | `src u32, seq u64, job u32, producer u32, tile` |
//! | 10 | `Seq`/`Orig` | `src u32, seq u64, job u32, tile_ref, tile` |
//! | 11 | `Ack` | `src u32, upto u64` (cumulative session ack) |
//! | 12 | `JobSubmit` | `req u32, op u8, prio u8, batch u32, nt u32, b u32, seed u64, seed_rhs u64` |
//! | 13 | `JobStatus` | `req u32, state u8, info string` |
//! | 14 | `JobResult` | `req u32, messages u64, bytes u64, elapsed_ns u64, plan_cached u8, count u32, (tile_ref, tile)*` |
//! | 15 | `Shutdown` | empty (client asks the service to drain and exit) |
//! | 16 | `StatsRequest` | empty (client asks for a metrics scrape) |
//! | 17 | `StatsReply` | `text string` (rendered metrics exposition) |
//! | 18 | `EventsRequest` | `max u32` (newest `max` lifecycle events) |
//! | 19 | `EventsReply` | `count u32, (seq u64, t u64 f64-bits, severity u8, kind u8, job u32, detail string)*` |
//!
//! A `tile_ref` is `kind u8, phase u8, slice u8, i u32, j u32` (kind 0 =
//! matrix tile `A`, 1 = 2.5D buffer, 2 = RHS row). Strings are
//! `len u32 + UTF-8 bytes`. Tags 12–19 form the client↔service protocol
//! spoken on `paper serve` connections; they share the framing and CRC
//! trailer with the mesh tags, so a corrupt submission is caught exactly
//! like a corrupt tile. Tags 16–19 are the telemetry plane: the service
//! answers them from atomically-taken snapshots, never touching the locks
//! its engines use. In an [`EventRecord`] a `job` of `u32::MAX` means "no
//! job" and severity/kind codes are the stable `sbc-obs` codes (this crate
//! deliberately does not depend on `sbc-obs`; the codes are the contract).

pub use crate::crc::crc32;
use crate::msg::{Message, NodeId, Payload, PeerStats};
use sbc_kernels::Tile;
use sbc_taskgraph::{TaskId, TileRef};
use std::io::Read;

/// Upper bound on a frame body; anything larger is rejected before
/// allocation (a corrupt length field must not OOM the receiver).
pub const MAX_BODY: u32 = 1 << 28;

const TAG_DATA: u8 = 1;
const TAG_ORIG: u8 = 2;
const TAG_POISON: u8 = 3;
const TAG_RESULT: u8 = 4;
const TAG_DONE: u8 = 5;
const TAG_HELLO: u8 = 6;
const TAG_ADDR: u8 = 7;
const TAG_TABLE: u8 = 8;
const TAG_SEQ_DATA: u8 = 9;
const TAG_SEQ_ORIG: u8 = 10;
const TAG_ACK: u8 = 11;
const TAG_JOB_SUBMIT: u8 = 12;
const TAG_JOB_STATUS: u8 = 13;
const TAG_JOB_RESULT: u8 = 14;
const TAG_SHUTDOWN: u8 = 15;
const TAG_STATS_REQUEST: u8 = 16;
const TAG_STATS_REPLY: u8 = 17;
const TAG_EVENTS_REQUEST: u8 = 18;
const TAG_EVENTS_REPLY: u8 = 19;

/// One structured lifecycle event as it travels in an
/// [`Frame::EventsReply`]. The wire-level twin of `sbc-obs`'s `ObsEvent`
/// (net does not depend on obs; the `severity`/`kind` codes are the stable
/// contract between them).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotone per-log sequence number.
    pub seq: u64,
    /// Seconds since the service's event log was created.
    pub t: f64,
    /// Severity code (`0` info, `1` warn, `2` error).
    pub severity: u8,
    /// Event-kind code (`0` admitted, `1` rejected, `2` started, `3` done,
    /// `4` failed, `5` stalled).
    pub kind: u8,
    /// The job concerned, or `u32::MAX` for "no job".
    pub job: u32,
    /// Free-form detail.
    pub detail: String,
}

/// Everything that can travel over a stream connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Identifies the connecting rank; first frame on every connection.
    Hello {
        /// Connecting rank.
        src: NodeId,
    },
    /// A counted tile payload.
    Payload {
        /// Sending rank.
        src: NodeId,
        /// The tile payload.
        payload: Payload,
    },
    /// Sender failed; receiver should abort.
    Poison,
    /// A gathered result tile (worker → rank 0).
    Result {
        /// Which logical tile.
        tile_ref: TileRef,
        /// Its final contents.
        tile: Tile,
    },
    /// End-of-run report (worker → rank 0).
    Done {
        /// Reporting rank.
        src: NodeId,
        /// Its payload-traffic totals.
        stats: PeerStats,
    },
    /// Rendezvous: a worker rank announces its listener address to root.
    Addr {
        /// Announcing rank.
        src: NodeId,
        /// Its listener address (`host:port` or a socket path).
        addr: String,
    },
    /// Rendezvous: root broadcasts the full address table, indexed by rank.
    Table {
        /// `addrs[rank]` is that rank's listener address.
        addrs: Vec<String>,
    },
    /// A counted tile payload carrying a session sequence number.
    Seq {
        /// Sending rank.
        src: NodeId,
        /// Per-(src, dest) sequence number.
        seq: u64,
        /// The tile payload.
        payload: Payload,
    },
    /// Cumulative session ack: every `seq < upto` arrived. Control traffic.
    Ack {
        /// Acknowledging rank.
        src: NodeId,
        /// One past the highest contiguously received sequence number.
        upto: u64,
    },
    /// Client → service: submit a factorization job.
    JobSubmit {
        /// Client-chosen request id, echoed in every response about this job.
        req: u32,
        /// Operation code (`0` POTRF, `1` POSV, `2` TRTRI, `3` LAUUM,
        /// `4` POTRI, `5` LU — planner-stable order).
        op: u8,
        /// Job priority; higher preempts in the shared ready heap.
        prio: u8,
        /// Number of same-shape jobs in this submission (seed increments per
        /// job); `0` is treated as `1`.
        batch: u32,
        /// Tile count per side.
        nt: u32,
        /// Tile (block) size.
        b: u32,
        /// SPD input seed of the first job in the batch.
        seed: u64,
        /// Right-hand-side seed of the first job in the batch.
        seed_rhs: u64,
    },
    /// Service → client: job lifecycle update (also the rejection channel).
    JobStatus {
        /// Echo of the submission's request id.
        req: u32,
        /// Lifecycle state (`0` queued, `1` running, `2` done, `3` rejected
        /// at admission, `4` failed, `5` the whole request refused — its one
        /// answer, whatever its batch).
        state: u8,
        /// Human-readable detail; rejection and failure reasons live here.
        info: String,
    },
    /// Service → client: one finished job's exact stats and factor tiles.
    JobResult {
        /// Echo of the submission's request id (batch jobs answer with one
        /// `JobResult` per job, in seed order).
        req: u32,
        /// Payload messages the job moved across the mesh.
        messages: u64,
        /// Payload bytes the job moved across the mesh.
        bytes: u64,
        /// Wall-clock from admission to factor gather, in nanoseconds.
        elapsed_ns: u64,
        /// `1` when the plan came from the warm plan cache.
        plan_cached: u8,
        /// Gathered factor tiles (lower triangle, bit-exact).
        tiles: Vec<(TileRef, Tile)>,
    },
    /// Client → service: drain in-flight jobs and exit the accept loop.
    Shutdown,
    /// Client → service: scrape the current metrics.
    StatsRequest,
    /// Service → client: the metrics registry rendered as exposition text
    /// (parse it with `sbc-obs`'s `expo::parse`).
    StatsReply {
        /// The rendered scrape text.
        text: String,
    },
    /// Client → service: the newest `max` lifecycle events.
    EventsRequest {
        /// Upper bound on returned events.
        max: u32,
    },
    /// Service → client: the requested event tail, oldest first.
    EventsReply {
        /// The events, oldest first.
        events: Vec<EventRecord>,
    },
}

impl Frame {
    /// The wire form of a mesh message — with [`Frame::into_message`], the
    /// only place the two vocabularies meet.
    pub(crate) fn from_message(msg: Message) -> Frame {
        match msg {
            Message::Payload { src, payload } => Frame::Payload { src, payload },
            Message::Seq { src, seq, payload } => Frame::Seq { src, seq, payload },
            Message::Ack { src, upto } => Frame::Ack { src, upto },
            Message::Poison => Frame::Poison,
            Message::Result { tile_ref, tile } => Frame::Result { tile_ref, tile },
            Message::Done { src, stats } => Frame::Done { src, stats },
        }
    }

    /// Body length of a [`Frame::JobResult`] carrying `tiles` tiles of
    /// dimension `dim`; `None` when it overflows. A service compares this
    /// with [`MAX_BODY`] *before* admitting a job whose answer it could
    /// never send.
    pub fn job_result_body_len(tiles: u64, dim: u64) -> Option<u64> {
        // req, messages, bytes, elapsed_ns, plan_cached, count; then per
        // tile an 11-byte tile_ref, a u32 dimension and the words
        let per_tile = dim.checked_mul(dim)?.checked_mul(8)?.checked_add(11 + 4)?;
        tiles.checked_mul(per_tile)?.checked_add(4 + 3 * 8 + 1 + 4)
    }

    /// The mesh message a frame carries. `None` for frames that are not
    /// mesh traffic: the setup handshake (`Hello`, `Addr`, `Table`) and the
    /// client↔service protocol (tags 12–19), which is spoken on dedicated
    /// connections.
    pub(crate) fn into_message(self) -> Option<Message> {
        Some(match self {
            Frame::Payload { src, payload } => Message::Payload { src, payload },
            Frame::Seq { src, seq, payload } => Message::Seq { src, seq, payload },
            Frame::Ack { src, upto } => Message::Ack { src, upto },
            Frame::Poison => Message::Poison,
            Frame::Result { tile_ref, tile } => Message::Result { tile_ref, tile },
            Frame::Done { src, stats } => Message::Done { src, stats },
            Frame::Hello { .. }
            | Frame::Addr { .. }
            | Frame::Table { .. }
            | Frame::JobSubmit { .. }
            | Frame::JobStatus { .. }
            | Frame::JobResult { .. }
            | Frame::Shutdown
            | Frame::StatsRequest
            | Frame::StatsReply { .. }
            | Frame::EventsRequest { .. }
            | Frame::EventsReply { .. } => return None,
        })
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::ErrorKind),
    /// The stream ended mid-frame.
    Truncated,
    /// The checksum did not match: the frame was corrupted in transit.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC stored in the frame trailer.
        stored: u32,
    },
    /// An unknown frame tag.
    BadTag(u8),
    /// A length field exceeding [`MAX_BODY`].
    BadLength(u32),
    /// The body did not parse under its tag's layout.
    BadBody(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(kind) => write!(f, "stream error: {kind:?}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:#010x}, frame says {stored:#010x}"
                )
            }
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::BadLength(l) => write!(f, "frame length {l} exceeds the {MAX_BODY} cap"),
            FrameError::BadBody(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A little-endian writer appending a frame body to a caller-owned buffer.
///
/// This is the single serialization surface of the protocol: every field
/// kind the wire knows (integers, strings, tile refs, raw tile words) goes
/// through one of these methods, and [`encode_into`] drives it directly
/// over the output buffer — the body is laid down in place after the
/// header, with no intermediate body `Vec`.
struct FrameWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl FrameWriter<'_> {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn tile(&mut self, t: &Tile) {
        self.u32(t.dim() as u32);
        // an exact-size iterator: one reserve, then a copy the compiler
        // turns into a memcpy on little-endian targets (`to_le_bytes` keeps
        // every bit, NaN payloads included)
        self.out
            .extend(t.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    }

    fn tile_ref(&mut self, r: TileRef) {
        let (kind, phase, slice, i, j) = match r {
            TileRef::A { phase, slice, i, j } => (0u8, phase, slice, i, j),
            TileRef::Buf { slice, i, j } => (1, 0, slice, i, j),
            TileRef::B { i } => (2, 0, 0, i, 0),
        };
        self.u8(kind);
        self.u8(phase);
        self.u8(slice);
        self.u32(i);
        self.u32(j);
    }
}

/// A bounds-checked little-endian reader over a frame body.
struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::BadBody("body shorter than its layout"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadBody("non-UTF-8 string"))
    }

    fn tile(&mut self) -> Result<Tile, FrameError> {
        let dim = self.u32()? as usize;
        // `dim` is untrusted: `dim² · 8` must neither overflow nor exceed
        // the body before anything is sized by it
        let len = dim
            .checked_mul(dim)
            .and_then(|words| words.checked_mul(8))
            .ok_or(FrameError::BadBody("tile dimension overflows its body"))?;
        let raw = self.take(len)?;
        // exact-size iterator again: the tile's one allocation and a
        // memcpy-speed copy into it
        let words = raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
        Ok(Tile::from_column_major(dim, words))
    }

    fn tile_ref(&mut self) -> Result<TileRef, FrameError> {
        let kind = self.u8()?;
        let phase = self.u8()?;
        let slice = self.u8()?;
        let i = self.u32()?;
        let j = self.u32()?;
        match kind {
            0 => Ok(TileRef::A { phase, slice, i, j }),
            1 => Ok(TileRef::Buf { slice, i, j }),
            2 => Ok(TileRef::B { i }),
            _ => Err(FrameError::BadBody("unknown tile-ref kind")),
        }
    }

    fn done(&mut self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::BadBody("trailing bytes after the body layout"))
        }
    }
}

/// Serializes a frame into `out`, reusing its capacity: the buffer is
/// cleared, the tag and a length placeholder go down first, the body is
/// written in place, the length is patched at
/// `out[1..5]` and the CRC trailer appended. Returns the encoded size.
///
/// This is the hot-path entry point — paired with a pooled buffer
/// ([`crate::BufferPool`]) a steady-state send allocates nothing.
pub fn encode_into(f: &Frame, out: &mut Vec<u8>) -> usize {
    out.clear();
    out.push(0); // tag, patched below
    out.extend_from_slice(&[0u8; 4]); // body length, patched below
    let mut w = FrameWriter { out };
    let tag = match f {
        Frame::Hello { src } => {
            w.u32(*src);
            TAG_HELLO
        }
        Frame::Payload {
            src,
            payload:
                Payload::Data {
                    job,
                    producer,
                    tile,
                },
        } => {
            w.u32(*src);
            w.u32(*job);
            w.u32(*producer);
            w.tile(tile);
            TAG_DATA
        }
        Frame::Payload {
            src,
            payload:
                Payload::Orig {
                    job,
                    tile_ref,
                    tile,
                },
        } => {
            w.u32(*src);
            w.u32(*job);
            w.tile_ref(*tile_ref);
            w.tile(tile);
            TAG_ORIG
        }
        Frame::Poison => TAG_POISON,
        Frame::Result { tile_ref, tile } => {
            w.tile_ref(*tile_ref);
            w.tile(tile);
            TAG_RESULT
        }
        Frame::Done { src, stats } => {
            w.u32(*src);
            w.u64(stats.sent);
            w.u64(stats.sent_bytes);
            w.u64(stats.applied);
            TAG_DONE
        }
        Frame::Addr { src, addr } => {
            w.u32(*src);
            w.str(addr);
            TAG_ADDR
        }
        Frame::Table { addrs } => {
            w.u32(addrs.len() as u32);
            for a in addrs {
                w.str(a);
            }
            TAG_TABLE
        }
        Frame::Seq {
            src,
            seq,
            payload:
                Payload::Data {
                    job,
                    producer,
                    tile,
                },
        } => {
            w.u32(*src);
            w.u64(*seq);
            w.u32(*job);
            w.u32(*producer);
            w.tile(tile);
            TAG_SEQ_DATA
        }
        Frame::Seq {
            src,
            seq,
            payload:
                Payload::Orig {
                    job,
                    tile_ref,
                    tile,
                },
        } => {
            w.u32(*src);
            w.u64(*seq);
            w.u32(*job);
            w.tile_ref(*tile_ref);
            w.tile(tile);
            TAG_SEQ_ORIG
        }
        Frame::Ack { src, upto } => {
            w.u32(*src);
            w.u64(*upto);
            TAG_ACK
        }
        Frame::JobSubmit {
            req,
            op,
            prio,
            batch,
            nt,
            b,
            seed,
            seed_rhs,
        } => {
            w.u32(*req);
            w.u8(*op);
            w.u8(*prio);
            w.u32(*batch);
            w.u32(*nt);
            w.u32(*b);
            w.u64(*seed);
            w.u64(*seed_rhs);
            TAG_JOB_SUBMIT
        }
        Frame::JobStatus { req, state, info } => {
            w.u32(*req);
            w.u8(*state);
            w.str(info);
            TAG_JOB_STATUS
        }
        Frame::JobResult {
            req,
            messages,
            bytes,
            elapsed_ns,
            plan_cached,
            tiles,
        } => {
            w.u32(*req);
            w.u64(*messages);
            w.u64(*bytes);
            w.u64(*elapsed_ns);
            w.u8(*plan_cached);
            w.u32(tiles.len() as u32);
            for (r, t) in tiles {
                w.tile_ref(*r);
                w.tile(t);
            }
            TAG_JOB_RESULT
        }
        Frame::Shutdown => TAG_SHUTDOWN,
        Frame::StatsRequest => TAG_STATS_REQUEST,
        Frame::StatsReply { text } => {
            w.str(text);
            TAG_STATS_REPLY
        }
        Frame::EventsRequest { max } => {
            w.u32(*max);
            TAG_EVENTS_REQUEST
        }
        Frame::EventsReply { events } => {
            w.u32(events.len() as u32);
            for e in events {
                w.u64(e.seq);
                w.u64(e.t.to_bits());
                w.u8(e.severity);
                w.u8(e.kind);
                w.u32(e.job);
                w.str(&e.detail);
            }
            TAG_EVENTS_REPLY
        }
    };
    let body_len = (out.len() - 5) as u32;
    out[0] = tag;
    out[1..5].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.len()
}

/// Serializes a frame into a fresh buffer. Convenience wrapper over
/// [`encode_into`] for cold paths (setup, tests); hot paths reuse a pooled
/// buffer instead.
pub fn encode(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(f, &mut out);
    out
}

fn parse_body(tag: u8, body: &[u8]) -> Result<Frame, FrameError> {
    let mut b = Body { buf: body, pos: 0 };
    let frame = match tag {
        TAG_HELLO => Frame::Hello { src: b.u32()? },
        TAG_DATA => {
            let src = b.u32()?;
            let job = b.u32()?;
            let producer: TaskId = b.u32()?;
            let tile = b.tile()?;
            Frame::Payload {
                src,
                payload: Payload::Data {
                    job,
                    producer,
                    tile,
                },
            }
        }
        TAG_ORIG => {
            let src = b.u32()?;
            let job = b.u32()?;
            let tile_ref = b.tile_ref()?;
            let tile = b.tile()?;
            Frame::Payload {
                src,
                payload: Payload::Orig {
                    job,
                    tile_ref,
                    tile,
                },
            }
        }
        TAG_POISON => Frame::Poison,
        TAG_RESULT => {
            let tile_ref = b.tile_ref()?;
            let tile = b.tile()?;
            Frame::Result { tile_ref, tile }
        }
        TAG_DONE => {
            let src = b.u32()?;
            let stats = PeerStats {
                sent: b.u64()?,
                sent_bytes: b.u64()?,
                applied: b.u64()?,
            };
            Frame::Done { src, stats }
        }
        TAG_ADDR => {
            let src = b.u32()?;
            let addr = b.string()?;
            Frame::Addr { src, addr }
        }
        TAG_TABLE => {
            let count = b.u32()? as usize;
            if count > MAX_BODY as usize / 4 {
                return Err(FrameError::BadBody(
                    "address table count overflows its body",
                ));
            }
            let mut addrs = Vec::with_capacity(count);
            for _ in 0..count {
                addrs.push(b.string()?);
            }
            Frame::Table { addrs }
        }
        TAG_SEQ_DATA => {
            let src = b.u32()?;
            let seq = b.u64()?;
            let job = b.u32()?;
            let producer: TaskId = b.u32()?;
            let tile = b.tile()?;
            Frame::Seq {
                src,
                seq,
                payload: Payload::Data {
                    job,
                    producer,
                    tile,
                },
            }
        }
        TAG_SEQ_ORIG => {
            let src = b.u32()?;
            let seq = b.u64()?;
            let job = b.u32()?;
            let tile_ref = b.tile_ref()?;
            let tile = b.tile()?;
            Frame::Seq {
                src,
                seq,
                payload: Payload::Orig {
                    job,
                    tile_ref,
                    tile,
                },
            }
        }
        TAG_ACK => {
            let src = b.u32()?;
            let upto = b.u64()?;
            Frame::Ack { src, upto }
        }
        TAG_JOB_SUBMIT => {
            let req = b.u32()?;
            let op = b.u8()?;
            let prio = b.u8()?;
            let batch = b.u32()?;
            let nt = b.u32()?;
            let block = b.u32()?;
            let seed = b.u64()?;
            let seed_rhs = b.u64()?;
            Frame::JobSubmit {
                req,
                op,
                prio,
                batch,
                nt,
                b: block,
                seed,
                seed_rhs,
            }
        }
        TAG_JOB_STATUS => {
            let req = b.u32()?;
            let state = b.u8()?;
            let info = b.string()?;
            Frame::JobStatus { req, state, info }
        }
        TAG_JOB_RESULT => {
            let req = b.u32()?;
            let messages = b.u64()?;
            let bytes = b.u64()?;
            let elapsed_ns = b.u64()?;
            let plan_cached = b.u8()?;
            let count = b.u32()? as usize;
            if count > MAX_BODY as usize / 16 {
                return Err(FrameError::BadBody("result tile count overflows its body"));
            }
            let mut tiles = Vec::with_capacity(count);
            for _ in 0..count {
                let r = b.tile_ref()?;
                let t = b.tile()?;
                tiles.push((r, t));
            }
            Frame::JobResult {
                req,
                messages,
                bytes,
                elapsed_ns,
                plan_cached,
                tiles,
            }
        }
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_STATS_REQUEST => Frame::StatsRequest,
        TAG_STATS_REPLY => Frame::StatsReply { text: b.string()? },
        TAG_EVENTS_REQUEST => Frame::EventsRequest { max: b.u32()? },
        TAG_EVENTS_REPLY => {
            let count = b.u32()? as usize;
            // a record is at least 26 bytes; a bigger count cannot fit the
            // body and must be rejected before the Vec is reserved
            if count > MAX_BODY as usize / 26 {
                return Err(FrameError::BadBody("event count overflows its body"));
            }
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(EventRecord {
                    seq: b.u64()?,
                    t: f64::from_bits(b.u64()?),
                    severity: b.u8()?,
                    kind: b.u8()?,
                    job: b.u32()?,
                    detail: b.string()?,
                });
            }
            Frame::EventsReply { events }
        }
        other => return Err(FrameError::BadTag(other)),
    };
    b.done()?;
    Ok(frame)
}

/// Decodes one frame from the front of `buf`, returning it and the number
/// of bytes consumed. Fails with [`FrameError::Truncated`] when `buf` holds
/// less than one whole frame.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < 5 {
        return Err(FrameError::Truncated);
    }
    let tag = buf[0];
    let len = u32::from_le_bytes(buf[1..5].try_into().unwrap());
    if len > MAX_BODY {
        return Err(FrameError::BadLength(len));
    }
    let total = 5 + len as usize + 4;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let computed = crc32(&buf[..5 + len as usize]);
    let stored = u32::from_le_bytes(buf[5 + len as usize..total].try_into().unwrap());
    if computed != stored {
        return Err(FrameError::BadCrc { computed, stored });
    }
    let frame = parse_body(tag, &buf[5..5 + len as usize])?;
    Ok((frame, total))
}

/// Reads one frame from a stream into a caller-owned scratch buffer, so a
/// long-lived reader (one per connection) reuses the same allocation for
/// every frame up to its high-water size. The scratch only ever grows — its
/// length is the largest frame seen so far and whatever lies past the
/// current frame is stale and never looked at — so a steady-state read
/// neither allocates nor zero-fills. `Ok(None)` is a clean end-of-stream
/// (EOF exactly at a frame boundary); mid-frame EOF is
/// [`FrameError::Truncated`]. On success also returns the total frame size
/// read from the wire.
pub fn read_frame_into(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(Frame, u64)>, FrameError> {
    if scratch.len() < 5 {
        scratch.resize(5, 0);
    }
    let mut got = 0;
    while got < 5 {
        match r.read(&mut scratch[got..5]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    let len = u32::from_le_bytes(scratch[1..5].try_into().unwrap());
    if len > MAX_BODY {
        return Err(FrameError::BadLength(len));
    }
    let total = 5 + len as usize + 4;
    if scratch.len() < total {
        scratch.resize(total, 0);
    }
    r.read_exact(&mut scratch[5..total])
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            kind => FrameError::Io(kind),
        })?;
    let (frame, used) = decode(&scratch[..total])?;
    debug_assert_eq!(used, total);
    Ok(Some((frame, total as u64)))
}

/// Reads one frame from a stream with a throwaway scratch buffer. Cold-path
/// convenience over [`read_frame_into`]; per-connection reader loops pass
/// their own scratch instead.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Frame, u64)>, FrameError> {
    read_frame_into(r, &mut Vec::new())
}

/// Encodes `f` into `scratch` and writes it to a stream, returning the
/// bytes written. The scratch buffer's capacity is reused across calls.
pub(crate) fn write_frame_with(
    w: &mut impl std::io::Write,
    f: &Frame,
    scratch: &mut Vec<u8>,
) -> std::io::Result<u64> {
    let n = encode_into(f, scratch);
    w.write_all(scratch)?;
    Ok(n as u64)
}

/// Writes one encoded frame to a stream, returning the bytes written.
pub fn write_frame(w: &mut impl std::io::Write, f: &Frame) -> std::io::Result<u64> {
    write_frame_with(w, f, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tile_of(dim: usize, seed: u64) -> Tile {
        Tile::from_fn(dim, |i, j| {
            let x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i * 31 + j) as u64);
            (x % 1000) as f64 / 7.0 - 60.0
        })
    }

    /// A frame with a hand-written body under a valid header and CRC —
    /// what a hostile but checksum-literate peer can send.
    fn sealed(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = vec![tag];
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// One frame per wire tag 1–19, its variable parts drawn from `seed`.
    fn frame_of_tag(tag: u8, seed: u64) -> Frame {
        let small = (seed % 5) as usize;
        let word = seed as u32;
        let text = format!("detail {seed:#x}");
        let tile_ref = TileRef::A {
            phase: 1,
            slice: 2,
            i: word % 50,
            j: word % 7,
        };
        let data = Payload::Data {
            job: word,
            producer: !word,
            tile: tile_of(small, seed),
        };
        let orig = Payload::Orig {
            job: word,
            tile_ref,
            tile: tile_of(small, seed),
        };
        match tag {
            TAG_DATA => Frame::Payload {
                src: 3,
                payload: data,
            },
            TAG_ORIG => Frame::Payload {
                src: 3,
                payload: orig,
            },
            TAG_POISON => Frame::Poison,
            TAG_RESULT => Frame::Result {
                tile_ref,
                tile: tile_of(small, seed),
            },
            TAG_DONE => Frame::Done {
                src: 2,
                stats: PeerStats {
                    sent: seed,
                    sent_bytes: !seed,
                    applied: seed >> 7,
                },
            },
            TAG_HELLO => Frame::Hello { src: word },
            TAG_ADDR => Frame::Addr { src: 1, addr: text },
            TAG_TABLE => Frame::Table {
                addrs: (0..small).map(|k| format!("{text}/{k}")).collect(),
            },
            TAG_SEQ_DATA => Frame::Seq {
                src: 4,
                seq: seed,
                payload: data,
            },
            TAG_SEQ_ORIG => Frame::Seq {
                src: 4,
                seq: seed,
                payload: orig,
            },
            TAG_ACK => Frame::Ack { src: 5, upto: seed },
            TAG_JOB_SUBMIT => Frame::JobSubmit {
                req: word,
                op: 0,
                prio: small as u8,
                batch: 2,
                nt: 12,
                b: 32,
                seed,
                seed_rhs: !seed,
            },
            TAG_JOB_STATUS => Frame::JobStatus {
                req: word,
                state: small as u8,
                info: text,
            },
            TAG_JOB_RESULT => Frame::JobResult {
                req: word,
                messages: seed >> 3,
                bytes: seed >> 1,
                elapsed_ns: seed,
                plan_cached: 1,
                tiles: (0..small)
                    .map(|k| (TileRef::B { i: k as u32 }, tile_of(k, seed)))
                    .collect(),
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_STATS_REQUEST => Frame::StatsRequest,
            TAG_STATS_REPLY => Frame::StatsReply { text },
            TAG_EVENTS_REQUEST => Frame::EventsRequest { max: word },
            TAG_EVENTS_REPLY => Frame::EventsReply {
                events: (0..small)
                    .map(|k| EventRecord {
                        seq: seed.wrapping_add(k as u64),
                        t: k as f64 * 0.25,
                        severity: 1,
                        kind: k as u8,
                        job: word,
                        detail: text.clone(),
                    })
                    .collect(),
            },
            other => panic!("no frame travels under tag {other}"),
        }
    }

    fn roundtrip(f: &Frame) {
        let buf = encode(f);
        let (back, used) = decode(&buf).expect("decode");
        assert_eq!(&back, f);
        assert_eq!(used, buf.len());
        // the stream path agrees with the slice path
        let mut cursor = std::io::Cursor::new(buf.clone());
        let (streamed, n) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(&streamed, f);
        assert_eq!(n, buf.len() as u64);
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(&Frame::Hello { src: 7 });
        roundtrip(&Frame::Poison);
        roundtrip(&Frame::Done {
            src: 3,
            stats: PeerStats {
                sent: u64::MAX,
                sent_bytes: 1,
                applied: 0,
            },
        });
        roundtrip(&Frame::Addr {
            src: 2,
            addr: "127.0.0.1:45233".into(),
        });
        roundtrip(&Frame::Table { addrs: vec![] });
        roundtrip(&Frame::Table {
            addrs: vec!["a".into(), String::new(), "/tmp/sock".into()],
        });
    }

    #[test]
    fn session_frames_roundtrip() {
        roundtrip(&Frame::Ack { src: 5, upto: 0 });
        roundtrip(&Frame::Ack {
            src: 0,
            upto: u64::MAX,
        });
        roundtrip(&Frame::Seq {
            src: 3,
            seq: 17,
            payload: Payload::Data {
                job: 5,
                producer: 9,
                tile: tile_of(4, 11),
            },
        });
        roundtrip(&Frame::Seq {
            src: 1,
            seq: u64::MAX,
            payload: Payload::Orig {
                job: u32::MAX,
                tile_ref: TileRef::Buf {
                    slice: 2,
                    i: 5,
                    j: 6,
                },
                tile: tile_of(0, 0),
            },
        });
    }

    /// Every mesh message has exactly one frame and comes back from it
    /// unchanged; and walking every tag the other way,
    /// exactly the mesh tags (1–5, 9–11) carry a message.
    #[test]
    fn messages_and_frames_convert_both_ways() {
        let data = Payload::Data {
            job: 2,
            producer: 9,
            tile: tile_of(3, 1),
        };
        let orig = Payload::Orig {
            job: 0,
            tile_ref: TileRef::B { i: 4 },
            tile: tile_of(2, 5),
        };
        let messages = [
            Message::Payload {
                src: 1,
                payload: data.clone(),
            },
            Message::Payload {
                src: 2,
                payload: orig.clone(),
            },
            Message::Seq {
                src: 3,
                seq: 17,
                payload: data,
            },
            Message::Seq {
                src: 4,
                seq: u64::MAX,
                payload: orig,
            },
            Message::Ack { src: 5, upto: 8 },
            Message::Poison,
            Message::Result {
                tile_ref: TileRef::B { i: 1 },
                tile: tile_of(2, 3),
            },
            Message::Done {
                src: 6,
                stats: PeerStats {
                    sent: 1,
                    sent_bytes: 2,
                    applied: 3,
                },
            },
        ];
        for m in messages {
            let frame = Frame::from_message(m.clone());
            roundtrip(&frame);
            assert_eq!(frame.into_message(), Some(m));
        }
        for tag in 1..=19u8 {
            let mesh = matches!(tag, 1..=5 | 9..=11);
            assert_eq!(
                frame_of_tag(tag, 7).into_message().is_some(),
                mesh,
                "tag {tag}"
            );
        }
    }

    #[test]
    fn job_result_body_len_is_the_encoded_length() {
        for (tiles, dim) in [(0usize, 5usize), (1, 0), (3, 4), (10, 1)] {
            let frame = Frame::JobResult {
                req: 1,
                messages: 2,
                bytes: 3,
                elapsed_ns: 4,
                plan_cached: 1,
                tiles: (0..tiles)
                    .map(|i| (TileRef::B { i: i as u32 }, tile_of(dim, i as u64)))
                    .collect(),
            };
            assert_eq!(
                Frame::job_result_body_len(tiles as u64, dim as u64),
                Some(encode(&frame).len() as u64 - 9),
                "{tiles} tiles of dimension {dim}"
            );
        }
        assert_eq!(Frame::job_result_body_len(1, u64::from(u32::MAX)), None);
        assert_eq!(Frame::job_result_body_len(u64::MAX, 1), None);
    }

    #[test]
    fn job_frames_roundtrip() {
        roundtrip(&Frame::JobSubmit {
            req: 42,
            op: 0,
            prio: 7,
            batch: 4,
            nt: 16,
            b: 8,
            seed: u64::MAX,
            seed_rhs: 1,
        });
        roundtrip(&Frame::JobStatus {
            req: 42,
            state: 3,
            info: "queue full: 8 jobs in flight".into(),
        });
        roundtrip(&Frame::JobStatus {
            req: 0,
            state: 0,
            info: String::new(),
        });
        roundtrip(&Frame::JobResult {
            req: 42,
            messages: 96,
            bytes: 49152,
            elapsed_ns: 1_000_000,
            plan_cached: 1,
            tiles: vec![
                (
                    TileRef::A {
                        phase: 0,
                        slice: 0,
                        i: 1,
                        j: 0,
                    },
                    tile_of(4, 9),
                ),
                (TileRef::B { i: 2 }, tile_of(0, 0)),
            ],
        });
        roundtrip(&Frame::JobResult {
            req: 1,
            messages: 0,
            bytes: 0,
            elapsed_ns: 0,
            plan_cached: 0,
            tiles: vec![],
        });
        roundtrip(&Frame::Shutdown);
    }

    #[test]
    fn telemetry_frames_roundtrip() {
        roundtrip(&Frame::StatsRequest);
        roundtrip(&Frame::StatsReply {
            text: String::new(),
        });
        roundtrip(&Frame::StatsReply {
            text: "# TYPE serve.jobs.done counter\nserve.jobs.done 42\n".into(),
        });
        roundtrip(&Frame::EventsRequest { max: 0 });
        roundtrip(&Frame::EventsRequest { max: u32::MAX });
        roundtrip(&Frame::EventsReply { events: vec![] });
        roundtrip(&Frame::EventsReply {
            events: vec![
                EventRecord {
                    seq: 0,
                    t: 0.0,
                    severity: 0,
                    kind: 0,
                    job: 0,
                    detail: String::new(),
                },
                EventRecord {
                    seq: u64::MAX,
                    t: 1234.5678,
                    severity: 2,
                    kind: 5,
                    job: u32::MAX,
                    detail: "rank 3 watchdog: no progress for 10s".into(),
                },
                EventRecord {
                    seq: 7,
                    t: f64::INFINITY,
                    severity: 1,
                    kind: 3,
                    job: 9,
                    detail: "comm drift: measured 97 msgs, planned 96".into(),
                },
            ],
        });
    }

    #[test]
    fn events_reply_count_is_bounded() {
        let buf = encode(&Frame::EventsReply { events: vec![] });
        let mut bad = buf.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bad.len();
        let crc = crc32(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bad), Err(FrameError::BadBody(_))));
    }

    #[test]
    fn job_result_tile_count_is_bounded() {
        let buf = encode(&Frame::JobResult {
            req: 1,
            messages: 0,
            bytes: 0,
            elapsed_ns: 0,
            plan_cached: 0,
            tiles: vec![],
        });
        // Patch the tile count to an absurd value and re-seal the CRC: the
        // parser must reject it before reserving memory for the tiles.
        let mut bad = buf.clone();
        let count_at = 5 + 4 + 8 + 8 + 8 + 1;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bad.len();
        let crc = crc32(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bad), Err(FrameError::BadBody(_))));
    }

    #[test]
    fn zero_dim_tile_roundtrips() {
        roundtrip(&Frame::Payload {
            src: 0,
            payload: Payload::Data {
                job: 0,
                producer: 0,
                tile: Tile::zeros(0),
            },
        });
        roundtrip(&Frame::Result {
            tile_ref: TileRef::B { i: 0 },
            tile: Tile::zeros(0),
        });
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let buf = encode(&Frame::Payload {
            src: 1,
            payload: Payload::Data {
                job: 1,
                producer: 9,
                tile: tile_of(4, 1),
            },
        });
        for cut in 0..buf.len() {
            assert_eq!(
                decode(&buf[..cut]).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
            if cut > 0 {
                // a stream that dies mid-frame is Truncated, not clean EOF
                let mut cursor = std::io::Cursor::new(buf[..cut].to_vec());
                assert_eq!(read_frame(&mut cursor).unwrap_err(), FrameError::Truncated);
            }
        }
        // EOF exactly on a frame boundary is a clean close
        let mut empty = std::io::Cursor::new(Vec::new());
        assert_eq!(read_frame(&mut empty).unwrap(), None);
    }

    #[test]
    fn corrupted_frames_fail_the_crc() {
        let buf = encode(&Frame::Payload {
            src: 1,
            payload: Payload::Orig {
                job: 0,
                tile_ref: TileRef::A {
                    phase: 1,
                    slice: 2,
                    i: 3,
                    j: 1,
                },
                tile: tile_of(3, 5),
            },
        });
        for flip in [0, 2, 7, buf.len() - 5] {
            let mut bad = buf.clone();
            bad[flip] ^= 0x40;
            match decode(&bad) {
                // flipping the tag or a length byte may fail earlier; any
                // corruption must be *some* error, body flips must be BadCrc
                Err(_) => {}
                Ok(_) => panic!("corruption at {flip} went undetected"),
            }
        }
        let mut body_flip = buf.clone();
        body_flip[9] ^= 0x01;
        assert!(matches!(decode(&body_flip), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = encode(&Frame::Poison);
        buf[1..5].copy_from_slice(&(MAX_BODY + 1).to_le_bytes());
        assert_eq!(
            decode(&buf).unwrap_err(),
            FrameError::BadLength(MAX_BODY + 1)
        );
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err(),
            FrameError::BadLength(MAX_BODY + 1)
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(
            decode(&sealed(99, &[])).unwrap_err(),
            FrameError::BadTag(99)
        );
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_capacity() {
        let frames = [
            Frame::Hello { src: 3 },
            Frame::Payload {
                src: 1,
                payload: Payload::Data {
                    job: 7,
                    producer: 12,
                    tile: tile_of(6, 99),
                },
            },
            Frame::StatsReply {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Frame::Poison,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            let n = encode_into(f, &mut buf);
            assert_eq!(n, buf.len());
            assert_eq!(buf, encode(f), "encode_into and encode must agree");
        }
        // a warmed buffer keeps its capacity when a smaller frame follows
        encode_into(&frames[1], &mut buf);
        let cap = buf.capacity();
        let p = buf.as_ptr();
        encode_into(&Frame::Poison, &mut buf);
        assert_eq!(buf.capacity(), cap, "capacity must survive reuse");
        assert_eq!(buf.as_ptr(), p, "no reallocation on the reuse path");
    }

    #[test]
    fn read_frame_into_reuses_one_scratch_across_a_stream() {
        let frames = [
            Frame::Payload {
                src: 0,
                payload: Payload::Data {
                    job: 1,
                    producer: 2,
                    tile: tile_of(8, 5),
                },
            },
            Frame::Ack { src: 1, upto: 9 },
            Frame::Payload {
                src: 0,
                payload: Payload::Data {
                    job: 1,
                    producer: 3,
                    tile: tile_of(8, 6),
                },
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut cursor = std::io::Cursor::new(stream);
        let mut scratch = Vec::new();
        let mut p = std::ptr::null();
        for (k, f) in frames.iter().enumerate() {
            let (got, _) = read_frame_into(&mut cursor, &mut scratch).unwrap().unwrap();
            assert_eq!(&got, f);
            if k == 1 {
                p = scratch.as_ptr();
            } else if k > 1 {
                // same-or-smaller frames after warm-up reuse the allocation
                assert_eq!(scratch.as_ptr(), p, "scratch must not reallocate");
            }
        }
        assert_eq!(read_frame_into(&mut cursor, &mut scratch).unwrap(), None);
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Written by the encoder as it was before the sliced CRC and the
        // bulk tile copy (commit 7025c85): a Seq/Data frame whose 3×3 tile
        // holds the words a lossy copy would change. If this test fails the
        // wire format changed and old and new ranks can no longer talk.
        const GOLDEN: &str = "\
            0960000000\
            04030201\
            1817161514131211\
            24232221\
            34333231\
            03000000\
            0000000000000080\
            0100000000000000\
            ffffffffffffef7f\
            efbeadde0000f47f\
            010000000000f8ff\
            000000000000f03f\
            182d4454fb2109c0\
            0000000000001000\
            efcdab8967452301\
            a5a2afe7";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|k| u8::from_str_radix(&GOLDEN[k..k + 2], 16).unwrap())
            .collect();
        let words: [u64; 9] = [
            0x8000_0000_0000_0000, // -0.0
            0x0000_0000_0000_0001, // the smallest subnormal
            0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
            0x7FF4_0000_DEAD_BEEF, // a signalling NaN with a payload
            0xFFF8_0000_0000_0001, // a negative quiet NaN with a payload
            0x3FF0_0000_0000_0000, // 1.0
            0xC009_21FB_5444_2D18, // -π
            0x0010_0000_0000_0000, // f64::MIN_POSITIVE
            0x0123_4567_89AB_CDEF,
        ];
        let tile = Tile::from_column_major(3, words.iter().map(|&w| f64::from_bits(w)));
        let frame = Frame::Seq {
            src: 0x0102_0304,
            seq: 0x1112_1314_1516_1718,
            payload: Payload::Data {
                job: 0x2122_2324,
                producer: 0x3132_3334,
                tile,
            },
        };
        assert_eq!(encode(&frame), golden);
        // NaN != NaN, so the way back is compared as re-encoded bytes
        let (back, used) = decode(&golden).expect("golden frame decodes");
        assert_eq!(used, golden.len());
        assert_eq!(encode(&back), golden);
    }

    #[test]
    fn tile_dimension_overflow_is_a_typed_error() {
        // dim² · 8 overflows usize from dim = 2³¹ on; with a valid CRC the
        // frame reaches the body parser, which must answer BadBody and not
        // panic (debug) or wrap around to an empty tile (release)
        for dim in [1u32 << 31, u32::MAX] {
            let mut result = vec![0u8; 11]; // tile_ref A{0,0,0,0}
            result.extend_from_slice(&dim.to_le_bytes());
            assert!(
                matches!(
                    decode(&sealed(TAG_RESULT, &result)),
                    Err(FrameError::BadBody(_))
                ),
                "Result frame, dim {dim}"
            );

            let mut job_result = vec![0u8; 4 + 8 + 8 + 8 + 1];
            job_result.extend_from_slice(&1u32.to_le_bytes()); // one tile
            job_result.extend_from_slice(&result);
            let frame = sealed(TAG_JOB_RESULT, &job_result);
            assert!(
                matches!(decode(&frame), Err(FrameError::BadBody(_))),
                "JobResult frame, dim {dim}"
            );
            // the stream path a serve handler or a Client takes
            let mut cursor = std::io::Cursor::new(frame);
            assert!(matches!(
                read_frame_into(&mut cursor, &mut Vec::new()),
                Err(FrameError::BadBody(_))
            ));
        }
    }

    #[test]
    fn read_frame_into_rejects_a_bad_length_before_growing_the_scratch() {
        let mut scratch = Vec::new();
        let mut warm = std::io::Cursor::new(encode(&Frame::Ack { src: 1, upto: 2 }));
        read_frame_into(&mut warm, &mut scratch).unwrap().unwrap();
        let (len, cap) = (scratch.len(), scratch.capacity());

        let mut header = vec![TAG_DATA];
        header.extend_from_slice(&(MAX_BODY + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(header);
        assert_eq!(
            read_frame_into(&mut cursor, &mut scratch).unwrap_err(),
            FrameError::BadLength(MAX_BODY + 1)
        );
        assert_eq!((scratch.len(), scratch.capacity()), (len, cap));
    }

    #[test]
    fn read_frame_into_reports_truncation_over_stale_bytes() {
        // the worst stale content there is: the scratch still holds the
        // whole frame the dying stream only delivers a prefix of
        let buf = encode(&Frame::Result {
            tile_ref: TileRef::B { i: 1 },
            tile: tile_of(6, 3),
        });
        let mut scratch = Vec::new();
        let mut whole = std::io::Cursor::new(buf.clone());
        read_frame_into(&mut whole, &mut scratch).unwrap().unwrap();
        assert_eq!(scratch, buf);
        for cut in [1, 4, 5, 6, buf.len() / 2, buf.len() - 1] {
            let mut cursor = std::io::Cursor::new(buf[..cut].to_vec());
            assert_eq!(
                read_frame_into(&mut cursor, &mut scratch).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
        // and a shorter frame after a longer one decodes as itself
        let ack = Frame::Ack { src: 0, upto: 7 };
        let mut cursor = std::io::Cursor::new(encode(&ack));
        let (got, n) = read_frame_into(&mut cursor, &mut scratch).unwrap().unwrap();
        assert_eq!((got, n), (ack, 21));
    }

    proptest! {
        #[test]
        fn payload_frames_roundtrip(
            src in 0u32..64,
            job in any::<u32>(),
            producer in any::<u32>(),
            dim in 0usize..12,
            seed in any::<u64>(),
            orig in any::<bool>(),
            phase in 0u8..3,
            i in 0u32..1000,
        ) {
            let j = i.rotate_left(7) % 1000;
            let tile = tile_of(dim, seed);
            let payload = if orig {
                Payload::Orig {
                    job,
                    tile_ref: TileRef::A { phase, slice: phase ^ 1, i, j },
                    tile,
                }
            } else {
                Payload::Data { job, producer, tile }
            };
            let f = Frame::Payload { src, payload };
            let buf = encode(&f);
            let (back, used) = decode(&buf).unwrap();
            prop_assert_eq!(&back, &f);
            prop_assert_eq!(used, buf.len());
            // framing overhead: header (5) + src (4) + job (4) + key + dim (4)
            // + CRC (4)
            let body_words = dim * dim * 8;
            let key = if orig { 11 } else { 4 };
            prop_assert_eq!(buf.len(), 5 + 4 + 4 + key + 4 + body_words + 4);
        }

        #[test]
        fn result_frames_roundtrip_all_tile_ref_kinds(
            kind in 0u8..3,
            slice in 0u8..4,
            i in 0u32..500,
            j in 0u32..500,
            dim in 0usize..10,
            seed in any::<u64>(),
        ) {
            let tile_ref = match kind {
                0 => TileRef::A { phase: 2, slice, i, j },
                1 => TileRef::Buf { slice, i, j },
                _ => TileRef::B { i },
            };
            roundtrip(&Frame::Result { tile_ref, tile: tile_of(dim, seed) });
        }

        #[test]
        fn truncation_never_decodes(
            tag in 1u8..=19,
            seed in any::<u64>(),
            cut_frac in 0.0f64..1.0,
        ) {
            let buf = encode(&frame_of_tag(tag, seed));
            prop_assert_eq!(buf[0], tag);
            let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
            prop_assert_eq!(decode(&buf[..cut]).unwrap_err(), FrameError::Truncated);
        }

        #[test]
        fn a_single_bit_flip_never_decodes(
            tag in 1u8..=19,
            seed in any::<u64>(),
            bit_frac in 0.0f64..1.0,
        ) {
            let frame = frame_of_tag(tag, seed);
            let mut buf = encode(&frame);
            prop_assert_eq!(&decode(&buf).unwrap().0, &frame);
            let bit = ((buf.len() * 8) as f64 * bit_frac) as usize;
            buf[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode(&buf).is_err(), "tag {} bit {} went undetected", tag, bit);
        }
    }
}
