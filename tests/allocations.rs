//! A tile is allocated once: `Tile` shares its buffer, so reading an operand,
//! sending a tile inside the process, retaining it for retransmission and
//! gathering it are reference counts, not copies. And a tile buffer outlives
//! its tile: the last handle on a page-sized buffer puts it on the process's
//! free list, where the next tile of that size takes it. This binary has its
//! own counting allocator and pins the counts, cold (an empty free list)
//! and warm:
//!
//! * a POTRF of `nt (nt + 1) / 2` tiles makes exactly that many tile-sized
//!   allocations — one per input tile, generated in place. Any copy-on-write
//!   inside the engine (a task writing a tile that is still shared) or any
//!   staging copy would add to it;
//! * decoding a payload frame makes one: the tile's own buffer;
//! * a payload through `Session<InProc>` — encode-free, but retained by the
//!   sender until acked — makes none;
//! * once the first factor is dropped, a second POTRF of the same shape makes
//!   none, and once the decoded frame is dropped, a second decode makes none:
//!   every tile takes a recycled buffer;
//! * the engine allocates nothing per task: a warm POTRF makes fewer
//!   allocations of any size than half its task count. A task's operands, and
//!   the replicas its completion frees, sit in fixed pairs, its priority comes
//!   from the ranks its graph keeps, and what is left is per message and per
//!   job.
//!
//! One `#[test]` only: the counter and the free list are process-wide, and
//! tests of one binary run on parallel threads.

use sbc::dist::SbcExtended;
use sbc::kernels::Tile;
use sbc::net::wire::{decode, encode, Frame};
use sbc::net::{inproc_mesh, Message, Payload, Session, Transport};
use sbc::runtime::Run;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting requests of at least [`THRESHOLD`] bytes.
struct Counting;

static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's; the
// counting touches two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work`, returning how many allocations of `bytes` or more it made
/// (on any thread) beside its result.
fn large_allocations<T>(bytes: usize, work: impl FnOnce() -> T) -> (usize, T) {
    LARGE.store(0, Ordering::Relaxed);
    THRESHOLD.store(bytes, Ordering::Relaxed);
    let out = work();
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    (LARGE.load(Ordering::Relaxed), out)
}

#[test]
fn a_tile_is_allocated_once() {
    const B: usize = 128;
    const TILE_BYTES: usize = B * B * 8;

    // the benchmark's `potrf-compute` shape on one worker per rank
    let nt = 12;
    let run = Run::potrf(&SbcExtended::new(4), nt).block(B).workers(1);
    let (count, out) = large_allocations(TILE_BYTES, || run.execute());
    let out = out.expect("the seeded matrix factors");
    assert!(out.stats.messages > 0, "tiles crossed ranks");
    let first_stats = out.stats.clone();
    assert_eq!(
        count,
        nt * (nt + 1) / 2,
        "one buffer per tile of the matrix, nothing else tile-sized"
    );

    let tile = Tile::from_fn(B, |i, j| (i * B + j) as f64);
    let payload = || Payload::Data {
        job: 1,
        producer: 2,
        tile: tile.clone(),
    };
    let bytes = encode(&Frame::Payload {
        src: 0,
        payload: payload(),
    });
    let (count, frame) = large_allocations(TILE_BYTES, || decode(&bytes));
    assert_eq!(count, 1, "a decoded tile is built in its own buffer");
    let (frame, _) = frame.expect("own frame decodes");
    assert!(matches!(
        &frame,
        Frame::Payload { payload: Payload::Data { tile: got, .. }, .. } if *got == tile
    ));

    let (count, again) = large_allocations(TILE_BYTES, || {
        drop(frame);
        decode(&bytes)
    });
    assert_eq!(count, 0, "a warm decode fills a recycled buffer");
    assert!(matches!(
        again.expect("own frame decodes").0,
        Frame::Payload { payload: Payload::Data { tile: got, .. }, .. } if got == tile
    ));

    let mut mesh = inproc_mesh(2).into_iter().map(Session::new);
    let (near, far) = (mesh.next().unwrap(), mesh.next().unwrap());
    let (count, got) = large_allocations(TILE_BYTES, || {
        near.send_payload(1, payload());
        far.recv()
    });
    assert_eq!(count, 0, "send, retain and receive share one buffer");
    match got {
        Some(Message::Payload {
            payload: Payload::Data { tile: got, .. },
            ..
        }) => assert_eq!(got.as_slice().as_ptr(), tile.as_slice().as_ptr()),
        other => panic!("expected the payload, got {other:?}"),
    }

    drop(out);
    let (count, again) = large_allocations(TILE_BYTES, || run.execute());
    let again = again.expect("the seeded matrix factors");
    assert_eq!(again.stats, first_stats, "the warm run is the same run");
    assert_eq!(count, 0, "a warm POTRF takes every tile from the free list");

    // 2 600 tasks, at a b whose tiles recycle
    let run = Run::potrf(&SbcExtended::new(4), 24).block(24).workers(1);
    let tasks = run.task_graph().len();
    assert_eq!(tasks, 2600);
    drop(run.execute().expect("the seeded matrix factors"));
    let (count, out) = large_allocations(0, || run.execute());
    out.expect("the seeded matrix factors");
    assert!(
        count < tasks / 2,
        "{count} allocations for {tasks} tasks: the engine allocates per task"
    );
}
