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
//! There is one writer and one reader. The writer lays a frame's fixed
//! bytes (header, fields, tile names and dimensions, trailer) out in a
//! caller-owned buffer and writes them with each tile's own words, viewed
//! as little-endian bytes, in one `write_vectored` loop
//! ([`write_frame_with`]); the reader reads the fixed bytes into a scratch
//! buffer and each tile's words straight into a (recycled) tile buffer
//! ([`read_frame_into`]). So no tile word is copied in user space on its
//! way through a socket. [`encode_into`] and [`decode`] are the same writer
//! into a `Vec` and the same reader over a slice: one serializer, one
//! parser. A big-endian CPU takes a per-word byte swap inside them.
//!
//! Every tile that crosses a socket is checksummed twice (sender, reader
//! thread), chained over the fixed bytes and the words where they lie, so
//! [`crc32`] sets the codec's speed; how it is computed — slicing-by-16
//! everywhere, carry-less-multiply folding where the CPU has it — is in its
//! module. Encode and decode are one CRC pass and one memcpy
//! (`net.{crc32,encode,decode}_mb_s` in `perf/`). The algorithm may change
//! again; the *value* may not: the trailer stays CRC-32/ISO-HDLC as zlib
//! computes it, and the bytes of a frame are pinned by a golden test.
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
//! | 20 | `JobTiles` | `req u32, count u32, (tile_ref, tile)*` |
//!
//! A `tile_ref` is `kind u8, phase u8, slice u8, i u32, j u32` (kind 0 =
//! matrix tile `A`, 1 = 2.5D buffer, 2 = RHS row). Strings are
//! `len u32 + UTF-8 bytes`. Tags 12–20 form the client↔service protocol
//! spoken on `paper serve` connections; they share the framing and CRC
//! trailer with the mesh tags, so a corrupt submission is caught exactly
//! like a corrupt tile. Tags 16–19 are the telemetry plane: the service
//! answers them from atomically-taken snapshots, never touching the locks
//! its engines use. A served job answers with zero or more `JobTiles`
//! (factor tiles final while it still ran) and then one `JobResult` (the
//! rest and the stats) or one `JobStatus`; the `JobStatus` states are 3 =
//! rejected at admission, 4 = failed, 5 = the whole request refused.
//! In an [`EventRecord`] a `job` of `u32::MAX` means "no
//! job" and severity/kind codes are the stable `sbc-obs` codes (this crate
//! deliberately does not depend on `sbc-obs`; the codes are the contract).

pub use crate::crc::crc32;
use crate::crc::Crc32;
use crate::msg::{Message, NodeId, Payload, PeerStats};
use sbc_kernels::Tile;
use sbc_taskgraph::{TaskId, TileRef};
use std::io::{IoSlice, IoSliceMut, Read};

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
const TAG_JOB_TILES: u8 = 20;

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
        /// Terminal state: `3` rejected at admission, `4` failed (admitted,
        /// but the mesh failed it; tiles already streamed for it are void),
        /// `5` the whole request refused — its one answer, whatever its
        /// batch. No other state is sent.
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
        /// Factor tiles (lower triangle, bit-exact) not already sent in a
        /// [`Frame::JobTiles`] for this job.
        tiles: Vec<(TileRef, Tile)>,
    },
    /// Service → client: factor tiles of the job the next terminal answer
    /// of request `req` concerns, sent as soon as they are final, while the
    /// job still runs; the `JobResult` carries only the rest.
    JobTiles {
        /// Echo of the submission's request id.
        req: u32,
        /// Final factor tiles, named as in `JobResult`.
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
    /// client↔service protocol (tags 12–20), which is spoken on dedicated
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
            | Frame::JobTiles { .. }
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

/// The bytes of `words` as the wire carries them, little-endian — which is
/// how a little-endian CPU holds them, so the view is the words themselves.
#[cfg(target_endian = "little")]
fn le_bytes(words: &[f64]) -> &[u8] {
    // SAFETY: an `f64` is eight initialized bytes with no padding, `u8` has
    // alignment 1, and the view borrows `words` for as long as it lives.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), size_of_val(words)) }
}

/// The bytes of `words`, for a read to overwrite with a tile's wire bytes
/// ([`words_from_le`] then puts each word in the CPU's byte order).
fn bytes_mut(words: &mut [f64]) -> &mut [u8] {
    // SAFETY: as for `le_bytes`, and every pattern of eight bytes is a valid
    // `f64`, so whatever is written through the view leaves valid values.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), size_of_val(words)) }
}

/// Turns words whose bytes came off the wire into values: nothing to do on
/// a little-endian CPU, a byte swap per word on a big-endian one.
fn words_from_le(words: &mut [f64]) {
    #[cfg(target_endian = "big")]
    for w in words.iter_mut() {
        *w = f64::from_bits(u64::from_le(w.to_bits()));
    }
    #[cfg(target_endian = "little")]
    let _ = words;
}

/// Where [`lay_out`] puts a frame body: its fixed bytes (fields, names,
/// dimensions) and, apart from them, each tile's words.
///
/// This is the single serialization surface of the protocol: every field
/// kind the wire knows goes through one of these methods, and every way a
/// frame leaves this crate — [`encode_into`]'s buffer, or a socket through
/// [`write_frame_with`] — is a sink of one [`lay_out`].
trait Sink<'f> {
    /// Fixed bytes, in wire order.
    fn fixed(&mut self, bytes: &[u8]);

    /// A tile's words, which travel little-endian.
    fn words(&mut self, words: &'f [f64]);

    fn u8(&mut self, v: u8) {
        self.fixed(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.fixed(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.fixed(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.fixed(s.as_bytes());
    }

    fn tile(&mut self, t: &'f Tile) {
        self.u32(t.dim() as u32);
        self.words(t.as_slice());
    }

    fn tiles(&mut self, tiles: &'f [(TileRef, Tile)]) {
        self.u32(tiles.len() as u32);
        for (r, t) in tiles {
            self.tile_ref(*r);
            self.tile(t);
        }
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

/// Lays the body of `f` down into `s`, returning the frame's tag.
fn lay_out<'f>(f: &'f Frame, s: &mut impl Sink<'f>) -> u8 {
    match f {
        Frame::Hello { src } => {
            s.u32(*src);
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
            s.u32(*src);
            s.u32(*job);
            s.u32(*producer);
            s.tile(tile);
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
            s.u32(*src);
            s.u32(*job);
            s.tile_ref(*tile_ref);
            s.tile(tile);
            TAG_ORIG
        }
        Frame::Poison => TAG_POISON,
        Frame::Result { tile_ref, tile } => {
            s.tile_ref(*tile_ref);
            s.tile(tile);
            TAG_RESULT
        }
        Frame::Done { src, stats } => {
            s.u32(*src);
            s.u64(stats.sent);
            s.u64(stats.sent_bytes);
            s.u64(stats.applied);
            TAG_DONE
        }
        Frame::Addr { src, addr } => {
            s.u32(*src);
            s.str(addr);
            TAG_ADDR
        }
        Frame::Table { addrs } => {
            s.u32(addrs.len() as u32);
            for a in addrs {
                s.str(a);
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
            s.u32(*src);
            s.u64(*seq);
            s.u32(*job);
            s.u32(*producer);
            s.tile(tile);
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
            s.u32(*src);
            s.u64(*seq);
            s.u32(*job);
            s.tile_ref(*tile_ref);
            s.tile(tile);
            TAG_SEQ_ORIG
        }
        Frame::Ack { src, upto } => {
            s.u32(*src);
            s.u64(*upto);
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
            s.u32(*req);
            s.u8(*op);
            s.u8(*prio);
            s.u32(*batch);
            s.u32(*nt);
            s.u32(*b);
            s.u64(*seed);
            s.u64(*seed_rhs);
            TAG_JOB_SUBMIT
        }
        Frame::JobStatus { req, state, info } => {
            s.u32(*req);
            s.u8(*state);
            s.str(info);
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
            s.u32(*req);
            s.u64(*messages);
            s.u64(*bytes);
            s.u64(*elapsed_ns);
            s.u8(*plan_cached);
            s.tiles(tiles);
            TAG_JOB_RESULT
        }
        Frame::JobTiles { req, tiles } => {
            s.u32(*req);
            s.tiles(tiles);
            TAG_JOB_TILES
        }
        Frame::Shutdown => TAG_SHUTDOWN,
        Frame::StatsRequest => TAG_STATS_REQUEST,
        Frame::StatsReply { text } => {
            s.str(text);
            TAG_STATS_REPLY
        }
        Frame::EventsRequest { max } => {
            s.u32(*max);
            TAG_EVENTS_REQUEST
        }
        Frame::EventsReply { events } => {
            s.u32(events.len() as u32);
            for e in events {
                s.u64(e.seq);
                s.u64(e.t.to_bits());
                s.u8(e.severity);
                s.u8(e.kind);
                s.u32(e.job);
                s.str(&e.detail);
            }
            TAG_EVENTS_REPLY
        }
    }
}

/// Counts a body's bytes.
struct Count(usize);

impl Sink<'_> for Count {
    fn fixed(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn words(&mut self, words: &[f64]) {
        self.0 += size_of_val(words);
    }
}

/// Appends a frame's fixed bytes to a buffer, and its words too when
/// `inline` (or on a big-endian CPU, whose words are not wire bytes), and
/// chains the CRC over all of them in wire order.
struct Fixed<'b> {
    buf: &'b mut Vec<u8>,
    inline: bool,
    crc: Crc32,
    /// How much of `buf` the CRC has taken.
    taken: usize,
}

impl Sink<'_> for Fixed<'_> {
    fn fixed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn words(&mut self, words: &[f64]) {
        #[cfg(target_endian = "little")]
        if self.inline {
            self.buf.extend_from_slice(le_bytes(words));
        } else {
            self.crc.update(&self.buf[self.taken..]);
            self.taken = self.buf.len();
            self.crc.update(le_bytes(words));
        }
        #[cfg(target_endian = "big")]
        for w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Lays `f` out into `buf`, reusing its capacity — header, fixed bytes and
/// CRC trailer, and the tiles' words too when `inline` — and returns the
/// frame's size on the wire.
fn prepare(f: &Frame, buf: &mut Vec<u8>, inline: bool) -> usize {
    let mut count = Count(0);
    let tag = lay_out(f, &mut count);
    buf.clear();
    buf.push(tag);
    buf.extend_from_slice(&(count.0 as u32).to_le_bytes());
    let mut fixed = Fixed {
        buf,
        inline,
        crc: Crc32::new(),
        taken: 0,
    };
    lay_out(f, &mut fixed);
    let Fixed {
        buf,
        mut crc,
        taken,
        ..
    } = fixed;
    crc.update(&buf[taken..]);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    5 + count.0 + 4
}

/// Serializes a frame into `out`, reusing its capacity: the frame's fixed
/// bytes and its tiles' words, copied in bulk, in wire order, and the CRC
/// trailer. Returns the encoded size. The same layout as a frame written to
/// a socket by [`write_frame_with`], byte for byte.
pub fn encode_into(f: &Frame, out: &mut Vec<u8>) -> usize {
    prepare(f, out, true)
}

/// Serializes a frame into a fresh buffer. Convenience wrapper over
/// [`encode_into`] for cold paths (setup, tests).
pub fn encode(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(f, &mut out);
    out
}

/// Pieces one `write_vectored` call takes at most.
const PIECES: usize = 64;

/// Writes a prepared frame: the runs of its fixed bytes between its tiles,
/// and each tile's own words, queued as pieces and written with
/// `write_vectored` until all are out.
struct Pieces<'f, 'w, W: ?Sized> {
    w: &'w mut W,
    /// The frame's fixed bytes and trailer, as [`prepare`] laid them.
    fixed: &'f [u8],
    /// End of the fixed bytes the layout has passed.
    at: usize,
    /// End of the fixed bytes queued.
    queued_to: usize,
    queue: [IoSlice<'f>; PIECES],
    queued: usize,
    result: std::io::Result<()>,
}

impl<'f, W: std::io::Write + ?Sized> Pieces<'f, '_, W> {
    fn push(&mut self, piece: &'f [u8]) {
        if piece.is_empty() {
            return;
        }
        if self.queued == PIECES {
            self.flush();
        }
        self.queue[self.queued] = IoSlice::new(piece);
        self.queued += 1;
    }

    /// Queues the fixed bytes up to where the layout is.
    fn push_fixed(&mut self) {
        let fixed = self.fixed;
        self.push(&fixed[self.queued_to..self.at]);
        self.queued_to = self.at;
    }

    fn flush(&mut self) {
        let mut queue = &mut self.queue[..self.queued];
        self.queued = 0;
        while self.result.is_ok() && !queue.is_empty() {
            match self.w.write_vectored(queue) {
                Ok(0) => self.result = Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut queue, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => self.result = Err(e),
            }
        }
    }
}

impl<'f, W: std::io::Write + ?Sized> Sink<'f> for Pieces<'f, '_, W> {
    fn fixed(&mut self, bytes: &[u8]) {
        self.at += bytes.len();
    }

    fn words(&mut self, words: &'f [f64]) {
        #[cfg(target_endian = "little")]
        {
            self.push_fixed();
            self.push(le_bytes(words));
        }
        // the fixed bytes hold the words already, in wire order
        #[cfg(target_endian = "big")]
        {
            self.at += size_of_val(words);
        }
    }
}

/// A frame laid out for a stream: its fixed bytes and CRC trailer in a
/// caller-owned (pooled) buffer, its tiles' words left in the tiles.
pub(crate) struct Outgoing<'f> {
    frame: &'f Frame,
    fixed: &'f [u8],
    len: usize,
}

/// Lays `f` out into `buf` for [`Outgoing::write_to`]: everything that
/// takes time but the write, so a caller can do it before it takes the
/// stream's lock.
pub(crate) fn prepare_write<'f>(f: &'f Frame, buf: &'f mut Vec<u8>) -> Outgoing<'f> {
    let len = prepare(f, buf, false);
    Outgoing {
        frame: f,
        fixed: buf,
        len,
    }
}

impl Outgoing<'_> {
    /// The frame's size on the wire.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Writes the frame: one `write_vectored` loop over its fixed bytes and
    /// its tiles' words, which are not copied.
    pub(crate) fn write_to(&self, w: &mut (impl std::io::Write + ?Sized)) -> std::io::Result<()> {
        let mut out = Pieces {
            w,
            fixed: self.fixed,
            at: 5,
            queued_to: 0,
            queue: [IoSlice::new(&[]); PIECES],
            queued: 0,
            result: Ok(()),
        };
        lay_out(self.frame, &mut out);
        out.at = self.fixed.len();
        out.push_fixed();
        out.flush();
        out.result
    }
}

/// Frame bytes a read takes when it should take all that is left.
const ALL: usize = usize::MAX;

/// Fixed bytes a frame reader takes in one read before it grows its
/// scratch only as fast as bytes arrive.
const READ_CHUNK: usize = 64 << 10;

/// How the fixed bytes of a frame sit around its tiles' words, which tells
/// the reader how much to ask for before the first tile.
enum Layout {
    /// No tile: the whole body is fixed bytes.
    Flat,
    /// One tile, after `head` fixed bytes (its dimension last) and before
    /// none: the frame's length says the tile's dimension.
    One { head: usize },
    /// A `count u32, (tile_ref, tile)*` list after the other fields, `head`
    /// fixed bytes up to and including the first tile's dimension.
    List { head: usize },
}

/// Bytes of a `tile_ref` and a tile's dimension.
const TILE_NAME: usize = 11 + 4;

fn layout(tag: u8) -> Layout {
    match tag {
        TAG_DATA => Layout::One { head: 3 * 4 + 4 },
        TAG_ORIG => Layout::One {
            head: 2 * 4 + TILE_NAME,
        },
        TAG_RESULT => Layout::One { head: TILE_NAME },
        TAG_SEQ_DATA => Layout::One {
            head: 4 + 8 + 2 * 4 + 4,
        },
        TAG_SEQ_ORIG => Layout::One {
            head: 4 + 8 + 4 + TILE_NAME,
        },
        TAG_JOB_TILES => Layout::List {
            head: 2 * 4 + TILE_NAME,
        },
        TAG_JOB_RESULT => Layout::List {
            head: 4 + 3 * 8 + 1 + 4 + TILE_NAME,
        },
        _ => Layout::Flat,
    }
}

/// Reads a frame body off a stream: its fixed bytes into the caller's
/// scratch, each tile's words straight into the tile's buffer, and the
/// CRC chained over both in wire order.
///
/// The parser asks for fields one by one; the reads come in runs — the
/// fixed bytes up to the next tile's words, then those words and the fixed
/// bytes after them in one `read_vectored` — and each run ends at the
/// frame's end, so nothing past the frame is ever read. A tile's dimension
/// is checked against the bytes the frame has left before a buffer is
/// taken for it, and a run that reaches the frame's end checks the CRC
/// before the parser sees a field of it.
struct Body<'a, R: ?Sized> {
    r: &'a mut R,
    /// The header, then the fixed body bytes read so far, then the trailer
    /// once read (at `end`).
    buf: &'a mut Vec<u8>,
    /// Parse position in `buf`.
    pos: usize,
    /// End of the body bytes in `buf`.
    end: usize,
    /// Body bytes not yet read.
    unread: usize,
    crc: Crc32,
    /// Set once the trailer is read: whether the CRC matched.
    checked: Option<Result<(), FrameError>>,
    /// Set when the stream failed: every later read fails the same way.
    broken: Option<FrameError>,
    /// A one-tile frame's tile, read with the frame's fixed bytes.
    ready: Option<Tile>,
}

impl<'a, R: Read + ?Sized> Body<'a, R> {
    /// A body of `len` bytes after the header in `buf[..5]`.
    fn new(r: &'a mut R, buf: &'a mut Vec<u8>, len: usize) -> Self {
        let mut crc = Crc32::new();
        crc.update(&buf[..5]);
        Body {
            r,
            buf,
            pos: 5,
            end: 5,
            unread: len,
            crc,
            checked: None,
            broken: None,
            ready: None,
        }
    }

    /// Reads the frame's next bytes: `pre` fixed bytes, the bytes of
    /// `words`, then `post` fixed bytes, each run cut at the body's end —
    /// and the trailer, when the read reaches that end, whose CRC it then
    /// checks. Once the trailer is read there is nothing left to read.
    ///
    /// Fixed bytes beyond [`READ_CHUNK`] come in reads of at most as many
    /// as the scratch already holds, so the scratch grows with the bytes
    /// that arrive, not with what a (possibly corrupt) length announces.
    fn read(&mut self, pre: usize, words: &mut [u8], post: usize) -> Result<(), FrameError> {
        let chunk = |body: &Self| READ_CHUNK.max(body.end);
        let mut pre = pre.min(self.unread);
        while pre > chunk(self) {
            let step = chunk(self);
            self.read_once(step, &mut [], 0)?;
            pre -= step;
        }
        let mut post = post.min(self.unread.saturating_sub(pre + words.len()));
        let first = post.min(chunk(self));
        self.read_once(pre, words, first)?;
        post -= first;
        while post > 0 {
            let step = post.min(chunk(self));
            self.read_once(0, &mut [], step)?;
            post -= step;
        }
        Ok(())
    }

    /// One `read_parts` of [`Body::read`].
    fn read_once(&mut self, pre: usize, words: &mut [u8], post: usize) -> Result<(), FrameError> {
        if let Some(e) = &self.broken {
            return Err(e.clone());
        }
        if self.checked.is_some() {
            return Ok(());
        }
        let pre = pre.min(self.unread);
        assert!(
            words.len() <= self.unread - pre,
            "tile words past the body's end"
        );
        let post = post.min(self.unread - pre - words.len());
        let ends = pre + words.len() + post == self.unread;
        let trailer = if ends { 4 } else { 0 };
        let (start, mid) = (self.end, self.end + pre);
        let need = mid + post + trailer;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        let (head, tail) = self.buf.split_at_mut(mid);
        let mut parts = [
            IoSliceMut::new(&mut head[start..]),
            IoSliceMut::new(words),
            IoSliceMut::new(&mut tail[..post + trailer]),
        ];
        if let Err(e) = read_parts(self.r, &mut parts) {
            self.broken = Some(e.clone());
            return Err(e);
        }
        self.crc.update(&self.buf[start..mid]);
        self.crc.update(words);
        self.crc.update(&self.buf[mid..mid + post]);
        self.end = mid + post;
        self.unread -= pre + words.len() + post;
        if ends {
            let stored = u32::from_le_bytes(self.buf[self.end..need].try_into().unwrap());
            let computed = self.crc.finish();
            let checked = if computed == stored {
                Ok(())
            } else {
                Err(FrameError::BadCrc { computed, stored })
            };
            self.checked = Some(checked.clone());
            checked?;
        }
        Ok(())
    }

    /// The first run: everything when the frame holds no tile; else the
    /// fixed bytes up to the first tile's words — and, when the frame's
    /// length says a one-tile frame's dimension, the tile and the trailer
    /// too.
    fn start(&mut self, tag: u8) -> Result<(), FrameError> {
        let head = match layout(tag) {
            Layout::Flat => ALL,
            Layout::List { head } => head,
            Layout::One { head } => {
                let dim = self.unread.checked_sub(head).and_then(|bytes| {
                    let dim = (bytes / 8).isqrt();
                    (dim * dim * 8 == bytes).then_some(dim)
                });
                let Some(dim) = dim else {
                    // no tile fits: the parser finds where the body breaks
                    return self.read(head, &mut [], 0);
                };
                let tile = Tile::try_from_fill(dim, |words| {
                    self.read(head, bytes_mut(words), ALL)?;
                    words_from_le(words);
                    Ok(())
                })?;
                self.ready = Some(tile);
                return Ok(());
            }
        };
        self.read(head, &mut [], 0)
    }

    /// Reads whatever of the frame is left, for a parse that is over.
    fn finish(&mut self) -> Result<(), FrameError> {
        if self.checked.is_none() {
            self.read(ALL, &mut [], 0)?;
        }
        self.checked.clone().unwrap_or(Ok(()))
    }

    fn take(&mut self, n: usize) -> Result<&[u8], FrameError> {
        if self.end - self.pos < n {
            self.read(ALL, &mut [], 0)?;
        }
        if self.end - self.pos < n {
            return Err(FrameError::BadBody("body shorter than its layout"));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
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

    /// A tile, then `post` more fixed bytes read with its words.
    fn tile(&mut self, post: usize) -> Result<Tile, FrameError> {
        let dim = self.u32()? as usize;
        if let Some(tile) = self.ready.take() {
            if tile.dim() != dim {
                return Err(FrameError::BadBody(
                    "tile dimension disagrees with the frame length",
                ));
            }
            return Ok(tile);
        }
        // `dim` is untrusted: `dim² · 8` must neither overflow nor exceed
        // the body before anything is sized by it
        let len = dim
            .checked_mul(dim)
            .and_then(|words| words.checked_mul(8))
            .filter(|&len| len <= self.end - self.pos + self.unread)
            .ok_or(FrameError::BadBody("tile dimension overflows its body"))?;
        // bytes a run already read past the fixed fields (only a malformed
        // frame's) are the tile's first
        let held = len.min(self.end - self.pos);
        Tile::try_from_fill(dim, |words| {
            let bytes = bytes_mut(words);
            bytes[..held].copy_from_slice(&self.buf[self.pos..self.pos + held]);
            self.pos += held;
            self.read(0, &mut bytes[held..], post)?;
            words_from_le(words);
            Ok(())
        })
    }

    /// A `count u32, (tile_ref, tile)*` list, its count checked against
    /// the body before anything is reserved for it.
    fn tiles(&mut self) -> Result<Vec<(TileRef, Tile)>, FrameError> {
        let count = self.u32()? as usize;
        if count > MAX_BODY as usize / 16 {
            return Err(FrameError::BadBody("result tile count overflows its body"));
        }
        let left = self.end - self.pos + self.unread;
        let mut tiles = Vec::with_capacity(count.min(left / TILE_NAME));
        for k in 0..count {
            let r = self.tile_ref()?;
            // the next tile's name comes with this tile's words
            let t = self.tile(if k + 1 < count { TILE_NAME } else { ALL })?;
            tiles.push((r, t));
        }
        Ok(tiles)
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
        if self.pos == self.end && self.unread == 0 {
            Ok(())
        } else {
            Err(FrameError::BadBody("trailing bytes after the body layout"))
        }
    }
}

/// `read_exact` over several buffers: `read_vectored` until all are full.
fn read_parts(
    r: &mut (impl Read + ?Sized),
    mut parts: &mut [IoSliceMut<'_>],
) -> Result<(), FrameError> {
    IoSliceMut::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match r.read_vectored(parts) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => IoSliceMut::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(FrameError::Truncated)
            }
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

fn parse_body<R: Read + ?Sized>(tag: u8, b: &mut Body<'_, R>) -> Result<Frame, FrameError> {
    let frame = match tag {
        TAG_HELLO => Frame::Hello { src: b.u32()? },
        TAG_DATA => {
            let src = b.u32()?;
            let job = b.u32()?;
            let producer: TaskId = b.u32()?;
            let tile = b.tile(ALL)?;
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
            let tile = b.tile(ALL)?;
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
            let tile = b.tile(ALL)?;
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
            let tile = b.tile(ALL)?;
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
            let tile = b.tile(ALL)?;
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
            let tiles = b.tiles()?;
            Frame::JobResult {
                req,
                messages,
                bytes,
                elapsed_ns,
                plan_cached,
                tiles,
            }
        }
        TAG_JOB_TILES => {
            let req = b.u32()?;
            let tiles = b.tiles()?;
            Frame::JobTiles { req, tiles }
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
/// of bytes consumed: the stream reader of [`read_frame_into`] over the
/// slice. Fails with [`FrameError::Truncated`] when `buf` holds less than
/// one whole frame.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let mut rest = buf;
    match read_frame_into(&mut rest, &mut Vec::with_capacity(64))? {
        Some((frame, total)) => Ok((frame, total as usize)),
        None => Err(FrameError::Truncated),
    }
}

/// Reads one frame from a stream, its fixed bytes into a caller-owned
/// scratch buffer and each tile's words straight into the tile's buffer (a
/// recycled one when the tile free list has it), so a long-lived reader
/// (one per connection) reuses the same scratch for every frame and copies
/// no tile word itself. The scratch only ever grows — to the most fixed
/// bytes a frame has had — and whatever lies past the current frame's is
/// stale and never looked at. A frame that is not a tile list takes two
/// read calls when its bytes are already buffered — its header, then the
/// rest — and a tile list at most one more per tile.
///
/// `Ok(None)` is a clean end-of-stream (EOF exactly at a frame boundary);
/// mid-frame EOF is [`FrameError::Truncated`]. A frame is read to its end
/// before it is answered for, so the errors rank as in one whole buffer:
/// truncation first, then the CRC, then the body's layout. On success also
/// returns the total frame size read from the wire.
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
    let tag = scratch[0];
    let len = u32::from_le_bytes(scratch[1..5].try_into().unwrap());
    if len > MAX_BODY {
        return Err(FrameError::BadLength(len));
    }
    let mut body = Body::new(r, scratch, len as usize);
    let parsed = body.start(tag).and_then(|()| parse_body(tag, &mut body));
    body.finish()?;
    Ok(Some((parsed?, 5 + u64::from(len) + 4)))
}

/// Reads one frame from a stream with a throwaway scratch buffer. Cold-path
/// convenience over [`read_frame_into`]; per-connection reader loops pass
/// their own scratch instead.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Frame, u64)>, FrameError> {
    read_frame_into(r, &mut Vec::new())
}

/// Writes one frame to a stream, returning the bytes written: its fixed
/// bytes laid out in `scratch` (whose capacity is reused across calls) and
/// its tiles' words from the tiles themselves, in one `write_vectored`
/// loop — no tile word is copied on the way to the stream.
pub fn write_frame_with(
    w: &mut (impl std::io::Write + ?Sized),
    f: &Frame,
    scratch: &mut Vec<u8>,
) -> std::io::Result<u64> {
    let out = prepare_write(f, scratch);
    out.write_to(w)?;
    Ok(out.len() as u64)
}

/// Writes one frame to a stream, returning the bytes written.
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

    /// One frame per wire tag 1–20, its variable parts drawn from `seed`.
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
            TAG_JOB_TILES => Frame::JobTiles {
                req: word,
                tiles: (0..small)
                    .map(|k| (tile_ref, tile_of(k, seed ^ k as u64)))
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
        for tag in 1..=20u8 {
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
    fn job_tiles_tile_count_is_bounded() {
        let buf = encode(&Frame::JobTiles {
            req: 1,
            tiles: vec![],
        });
        // as for `JobResult`: an absurd count under a valid CRC is refused
        // before anything is reserved for it
        let mut bad = buf.clone();
        let count_at = 5 + 4;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bad.len();
        let crc = crc32(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bad), Err(FrameError::BadBody(_))));
        // one past the largest count the body could hold is refused too
        let over = MAX_BODY / 16 + 1;
        bad[count_at..count_at + 4].copy_from_slice(&over.to_le_bytes());
        let crc = crc32(&bad[..n - 4]);
        bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bad), Err(FrameError::BadBody(_))));
    }

    /// The bytes of a `JobTiles` frame, written out by hand from the layout
    /// in the module table — `req`, the count, then per tile its 11-byte
    /// name, its dimension and its words — with the trailer zlib's `crc32`
    /// gives for them.
    #[test]
    fn job_tiles_bytes_are_pinned() {
        const GOLDEN: &str = "\
            142e000000\
            04030201\
            02000000\
            0000000200000001000000\
            01000000\
            0000000000000080\
            0200000700000000000000\
            00000000\
            2680549e";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|k| u8::from_str_radix(&GOLDEN[k..k + 2], 16).unwrap())
            .collect();
        let frame = Frame::JobTiles {
            req: 0x0102_0304,
            tiles: vec![
                (
                    TileRef::A {
                        phase: 0,
                        slice: 0,
                        i: 2,
                        j: 1,
                    },
                    Tile::from_column_major(1, [-0.0]),
                ),
                (TileRef::B { i: 7 }, Tile::zeros(0)),
            ],
        };
        assert_eq!(encode(&frame), golden);
        let (back, used) = decode(&golden).expect("golden frame decodes");
        assert_eq!(used, golden.len());
        assert_eq!(encode(&back), golden);
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
        assert_eq!(
            scratch,
            [&buf[..5 + 11 + 4], &buf[buf.len() - 4..]].concat()
        );
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

    /// A `Write` that takes at most `k` bytes per call, through
    /// `write_vectored` across pieces, or only from the first piece (what
    /// `Write`'s default `write_vectored` does).
    struct Trickle {
        out: Vec<u8>,
        k: usize,
        vectored: bool,
    }

    impl std::io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.k);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if !self.vectored {
                let first = bufs.iter().find(|b| !b.is_empty());
                return self.write(first.map_or(&[][..], |b| b));
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.k - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that gives at most `k` bytes per call, across the buffers
    /// of a `read_vectored`, and counts its calls.
    struct Drip<'a> {
        data: &'a [u8],
        k: usize,
        calls: usize,
    }

    impl<'a> Drip<'a> {
        fn new(data: &'a [u8], k: usize) -> Self {
            Drip { data, k, calls: 0 }
        }
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.k - n).min(self.data.len());
                b[..take].copy_from_slice(&self.data[..take]);
                self.data = &self.data[take..];
                n += take;
            }
            Ok(n)
        }
    }

    /// The frames of the two golden-bytes tests: a `Seq`/`Data` frame whose
    /// words a lossy copy would change, and a `JobTiles` frame.
    fn golden_frames() -> [Frame; 2] {
        let words: [u64; 9] = [
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x7FEF_FFFF_FFFF_FFFF,
            0x7FF4_0000_DEAD_BEEF,
            0xFFF8_0000_0000_0001,
            0x3FF0_0000_0000_0000,
            0xC009_21FB_5444_2D18,
            0x0010_0000_0000_0000,
            0x0123_4567_89AB_CDEF,
        ];
        [
            Frame::Seq {
                src: 0x0102_0304,
                seq: 0x1112_1314_1516_1718,
                payload: Payload::Data {
                    job: 0x2122_2324,
                    producer: 0x3132_3334,
                    tile: Tile::from_column_major(3, words.iter().map(|&w| f64::from_bits(w))),
                },
            },
            Frame::JobTiles {
                req: 0x0102_0304,
                tiles: vec![
                    (
                        TileRef::A {
                            phase: 0,
                            slice: 0,
                            i: 2,
                            j: 1,
                        },
                        Tile::from_column_major(1, [-0.0]),
                    ),
                    (TileRef::B { i: 7 }, Tile::zeros(0)),
                ],
            },
        ]
    }

    /// Every frame the codec tests walk: each tag's from a few seeds, both
    /// golden frames, and the two tile lists with 0, 1 and 5 tiles.
    fn samples() -> Vec<Frame> {
        let mut frames: Vec<Frame> = (1..=20u8)
            .flat_map(|tag| [0, 3, 7, 0xDEAD_BEEF].map(|seed| frame_of_tag(tag, seed)))
            .collect();
        frames.extend(golden_frames());
        for count in [0usize, 1, 5] {
            let tiles: Vec<(TileRef, Tile)> = (0..count)
                .map(|k| (TileRef::B { i: k as u32 }, tile_of(3 + k % 2, k as u64)))
                .collect();
            frames.push(Frame::JobTiles {
                req: 9,
                tiles: tiles.clone(),
            });
            frames.push(Frame::JobResult {
                req: 9,
                messages: 1,
                bytes: 2,
                elapsed_ns: 3,
                plan_cached: 0,
                tiles,
            });
        }
        frames
    }

    /// The stream writer, over a stream that takes a few bytes at a time,
    /// writes exactly the bytes `encode` gives.
    #[test]
    fn the_stream_writer_writes_what_encode_encodes() {
        for f in samples() {
            let want = encode(&f);
            for k in [1, 7, 4096] {
                for vectored in [true, false] {
                    let mut w = Trickle {
                        out: Vec::new(),
                        k,
                        vectored,
                    };
                    let n = write_frame_with(&mut w, &f, &mut Vec::new()).unwrap();
                    assert_eq!(n, want.len() as u64);
                    assert_eq!(w.out, want, "{f:?}, {k} bytes a call");
                }
            }
        }
        // and into a `Vec`, which takes every piece in one call
        for f in golden_frames() {
            let mut out = Vec::new();
            write_frame(&mut out, &f).unwrap();
            assert_eq!(out, encode(&f));
        }
    }

    /// The stream reader, over a stream that gives a few bytes at a time,
    /// reads what `decode` decodes and not a byte past it, and fails the
    /// same way at every cut and on every flipped bit.
    #[test]
    fn the_stream_reader_reads_what_decode_decodes() {
        for f in samples() {
            let buf = encode(&f);
            let (want, used) = decode(&buf).unwrap();
            assert_eq!(used, buf.len());
            let next = encode(&Frame::Ack { src: 1, upto: 2 });
            let stream = [&buf[..], &next].concat();
            for k in [1, 7, 4096] {
                let mut r = Drip::new(&stream, k);
                let (got, n) = read_frame_into(&mut r, &mut Vec::new()).unwrap().unwrap();
                // NaN != NaN: compared as re-encoded bytes
                assert_eq!(encode(&got), encode(&want));
                assert_eq!((n, r.data), (buf.len() as u64, &next[..]));
            }
            for cut in 0..buf.len() {
                let mut r = Drip::new(&buf[..cut], 7);
                let got = read_frame_into(&mut r, &mut Vec::new());
                match cut {
                    0 => assert_eq!(got, Ok(None)),
                    _ => assert_eq!(got.unwrap_err(), FrameError::Truncated, "cut at {cut}"),
                }
            }
            if buf.len() > 600 {
                continue;
            }
            for bit in 0..buf.len() * 8 {
                let mut bad = buf.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let mut r = Drip::new(&bad, 7);
                let got = read_frame_into(&mut r, &mut Vec::new()).unwrap_err();
                assert!(matches!(
                    got,
                    FrameError::BadCrc { .. } | FrameError::BadLength(_) | FrameError::Truncated
                ));
                assert_eq!(got, decode(&bad).unwrap_err(), "bit {bit}");
            }
        }
    }

    /// A tile whose dimension overruns what its frame's length leaves is a
    /// `BadBody` before a buffer is taken for it: every byte after the
    /// dimension is read into the scratch, none into a tile. A one-tile
    /// frame's length names its tile's dimension, and a dimension field
    /// that says otherwise is refused too.
    #[test]
    fn a_dimension_the_length_disagrees_with_is_refused() {
        // a list: the tile claims 3 x 3 words, the body holds 2 x 2
        let mut list = 7u32.to_le_bytes().to_vec(); // req
        list.extend_from_slice(&1u32.to_le_bytes()); // one tile
        list.extend_from_slice(&[2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]); // B { i: 1 }
        list.extend_from_slice(&3u32.to_le_bytes());
        list.extend(
            tile_of(2, 1)
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes()),
        );
        // a one-tile frame: 2 x 2 words under a dimension of 3, and 3
        // words, which no dimension fills
        let mut result = vec![2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
        result.extend_from_slice(&3u32.to_le_bytes());
        let four_words: Vec<u8> = tile_of(2, 1)
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let four = [&result[..], &four_words].concat();
        let three = four[..four.len() - 8].to_vec();
        // whether the frame's bytes all end in the scratch: the one-tile
        // frame whose length names a dimension read its words into a tile
        // of that dimension before its field disagreed
        let cases = [
            (TAG_JOB_TILES, list, true),
            (TAG_RESULT, four, false),
            (TAG_RESULT, three, true),
        ];
        for (tag, body, all_scratch) in cases {
            let frame = sealed(tag, &body);
            for k in [1, 4096] {
                let mut scratch = Vec::new();
                let got = read_frame_into(&mut Drip::new(&frame, k), &mut scratch);
                assert!(
                    matches!(got, Err(FrameError::BadBody(_))),
                    "tag {tag}: {got:?}"
                );
                assert_eq!(decode(&frame).unwrap_err(), got.unwrap_err());
                if all_scratch {
                    assert_eq!(&scratch[..frame.len()], &frame[..], "tag {tag}");
                }
            }
        }
    }

    /// A frame that is not a tile list takes two read calls when its bytes
    /// are all there: the header, then the rest. A tile list takes at most
    /// one more per tile: the fixed bytes up to the first tile's words come
    /// first, then each tile's words with the next tile's name.
    #[test]
    fn a_buffered_frame_takes_two_reads() {
        for f in samples() {
            let buf = encode(&f);
            let mut r = Drip::new(&buf, usize::MAX);
            read_frame_into(&mut r, &mut Vec::new()).unwrap().unwrap();
            match &f {
                Frame::JobTiles { tiles, .. } | Frame::JobResult { tiles, .. } => {
                    assert!(r.calls <= 2 + tiles.len(), "{f:?}: {} reads", r.calls);
                }
                _ => assert_eq!(r.calls, 2, "{f:?}"),
            }
        }
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
            tag in 1u8..=20,
            seed in any::<u64>(),
            cut_frac in 0.0f64..1.0,
            chunk in 1usize..200,
        ) {
            let buf = encode(&frame_of_tag(tag, seed));
            prop_assert_eq!(buf[0], tag);
            let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
            prop_assert_eq!(decode(&buf[..cut]).unwrap_err(), FrameError::Truncated);
            // and through the stream reader, in pieces of any size
            let mut stream = Drip::new(&buf[..cut], chunk);
            match read_frame_into(&mut stream, &mut Vec::new()) {
                Ok(None) => prop_assert_eq!(cut, 0),
                other => prop_assert_eq!(other.unwrap_err(), FrameError::Truncated),
            }
        }

        #[test]
        fn a_single_bit_flip_never_decodes(
            tag in 1u8..=20,
            seed in any::<u64>(),
            bit_frac in 0.0f64..1.0,
            chunk in 1usize..200,
        ) {
            let frame = frame_of_tag(tag, seed);
            let mut buf = encode(&frame);
            prop_assert_eq!(&decode(&buf).unwrap().0, &frame);
            let bit = ((buf.len() * 8) as f64 * bit_frac) as usize;
            buf[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode(&buf).is_err(), "tag {} bit {} went undetected", tag, bit);
            // the stream reader, in pieces of any size, fails the same way
            let mut stream = Drip::new(&buf, chunk);
            prop_assert_eq!(
                read_frame_into(&mut stream, &mut Vec::new()).unwrap_err(),
                decode(&buf).unwrap_err()
            );
        }
    }
}
