//! The wire front of a [`Service`]: an accept loop speaking the job
//! protocol (`JobSubmit` / `JobTiles` / `JobResult` / `JobStatus` /
//! `Shutdown`) over UDS or TCP, one handler thread per client connection.

use crate::service::{Service, Submitted};
use sbc_kernels::Tile;
use sbc_net::wire::{read_frame_into, write_frame_with, EventRecord, Frame, MAX_BODY};
use sbc_net::{connect_retry, Conn, Listener};
use sbc_planner::Op;
use sbc_runtime::JobUpdate;
use sbc_taskgraph::TileRef;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Binds `addr` (a `host:port` or a socket path) and runs [`serve_on`].
pub fn serve(service: Arc<Service>, addr: &str) -> std::io::Result<()> {
    serve_on(service, Listener::bind(addr)?)
}

/// Runs the accept loop of `service` on an already-bound listener (whose
/// [`Listener::addr`] tells a caller that bound port 0 where to dial) until
/// a client sends [`Frame::Shutdown`], then drains in-flight jobs, stops the
/// resident mesh and returns. Engine failures surface as an error after the
/// drain.
///
/// The loop waits in [`Listener::accept`], so nothing polls: the handler
/// that receives the shutdown sets the stop flag and then dials the
/// listener once, and the accept that connection ends sees the flag.
pub fn serve_on(service: Arc<Service>, listener: Listener) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr: Arc<str> = listener.addr().into();
    let mut handlers = Vec::new();
    loop {
        let conn = listener.accept()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (service, stop, addr) = (Arc::clone(&service), Arc::clone(&stop), Arc::clone(&addr));
        handlers.push(std::thread::spawn(move || {
            handle(conn, &service, &stop, &addr)
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
    // stop being dialable (a socket file goes with it) before the drain
    drop(listener);
    service
        .shutdown()
        .map_err(|e| std::io::Error::other(format!("resident mesh failed: {e}")))
}

/// Writes `f`, its fixed bytes laid out in a buffer checked out of the
/// service's reply pool and its tiles' words from the tiles themselves —
/// every reply on every client connection reuses the pool's recycled
/// capacity instead of allocating (visible as `net.pool.hit`), and no
/// factor word is copied on its way to the socket.
fn write_reply(conn: &mut Conn, service: &Service, f: &Frame) -> std::io::Result<()> {
    write_frame_with(conn, f, &mut service.reply_pool().checkout())?;
    Ok(())
}

/// One client connection: submissions stream in, per-job answers stream
/// out in submission order. `addr` is the listener's own address, dialed
/// once to wake the accept loop after a shutdown.
fn handle(mut conn: Conn, service: &Service, stop: &AtomicBool, addr: &str) {
    // one scratch per connection, as in the mesh reader loop
    let mut scratch = Vec::new();
    loop {
        let frame = match read_frame_into(&mut conn, &mut scratch) {
            Ok(Some((f, _))) => f,
            Ok(None) | Err(_) => return,
        };
        match frame {
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
                if handle_submit(
                    &mut conn, service, req, op, prio, batch, nt, b, seed, seed_rhs,
                )
                .is_err()
                {
                    return; // client went away mid-answer
                }
            }
            // scrapes answer from atomically-taken snapshots; they never
            // touch the job table's state lock or the ready heaps, so a
            // monitor polling here costs the job path nothing
            Frame::StatsRequest => {
                let text = service.stats_text();
                if write_reply(&mut conn, service, &Frame::StatsReply { text }).is_err()
                    || conn.flush().is_err()
                {
                    return;
                }
            }
            Frame::EventsRequest { max } => {
                let events = service
                    .events_tail(max as usize)
                    .into_iter()
                    .map(|e| EventRecord {
                        seq: e.seq,
                        t: e.t,
                        severity: e.severity.code(),
                        kind: e.kind.code(),
                        job: e.job.unwrap_or(u32::MAX),
                        detail: e.detail,
                    })
                    .collect();
                if write_reply(&mut conn, service, &Frame::EventsReply { events }).is_err()
                    || conn.flush().is_err()
                {
                    return;
                }
            }
            Frame::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                // the accept loop is waiting for a connection: this one
                // wakes it to see the flag (a failed dial means it is
                // already gone)
                let _ = connect_retry(addr, Duration::from_secs(1));
                return;
            }
            // anything else on a job connection is a protocol error;
            // drop the client rather than the service
            _ => return,
        }
    }
}

/// Most tasks one served job's graph may hold. A POTRF of `nt` tiles has
/// `nt (nt + 1) (nt + 2) / 6` of them, so a shape whose factor fits the reply
/// frame can still be cubic in `nt` when `b` is tiny; this admits `nt <= 115`
/// (the largest `b = 128` shape the frame allows is `nt = 63`).
const MAX_TASKS: u64 = 1 << 18;

/// The [`Frame::JobStatus`] state of a whole-request refusal: one answer for
/// the request however large its `batch`, unlike the per-job admission
/// rejection (state 3).
pub(crate) const REFUSED: u8 = 5;

/// Why a request cannot be served at all, if it cannot. Everything here
/// comes off the wire, so it is checked (in checked arithmetic) before
/// planning, which allocates by it: the whole factor must fit the one
/// `JobResult` frame that answers a job, the graph must stay under
/// [`MAX_TASKS`], and the batch must be one admission could ever hold.
fn refusal(op: u8, nt: u32, b: u32, batch: u32, max_inflight: usize) -> Option<String> {
    if Op::ALL.get(op as usize) != Some(&Op::Potrf) {
        return Some(format!(
            "op {op} is not served over the wire (only 0 = POTRF)"
        ));
    }
    if nt == 0 || b == 0 {
        return Some(format!("degenerate shape nt={nt} b={b}"));
    }
    if batch as usize > max_inflight {
        return Some(format!(
            "batch {batch} exceeds the {max_inflight} jobs the service admits at once"
        ));
    }
    let nt64 = u64::from(nt);
    let tasks = nt64
        .checked_mul(nt64 + 1)
        .and_then(|t| t.checked_mul(nt64 + 2));
    if tasks.is_none_or(|t| t / 6 > MAX_TASKS) {
        return Some(format!(
            "shape nt={nt} is too large: its graph exceeds {MAX_TASKS} tasks"
        ));
    }
    let tiles = nt64 * (nt64 + 1) / 2;
    match Frame::job_result_body_len(tiles, u64::from(b)) {
        Some(len) if len <= u64::from(MAX_BODY) => None,
        _ => Some(format!(
            "shape nt={nt} b={b} is too large: its factor exceeds the {MAX_BODY}-byte reply frame"
        )),
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    conn: &mut Conn,
    service: &Service,
    req: u32,
    op: u8,
    prio: u8,
    batch: u32,
    nt: u32,
    b: u32,
    seed: u64,
    seed_rhs: u64,
) -> std::io::Result<()> {
    if let Some(info) = refusal(op, nt, b, batch, service.table.max_inflight()) {
        let state = REFUSED;
        write_reply(conn, service, &Frame::JobStatus { req, state, info })?;
        return conn.flush();
    }
    let (nt, b) = (nt as usize, b as usize);

    // admit the whole batch first (same shape → one graph, one plan),
    // answering a rejection at once, then answer the admitted jobs in seed
    // order. The first failed write stops admitting and writing, but every
    // job already admitted is still waited for: the table keeps a finished
    // job's tiles until somebody does.
    let mut admitted = Vec::new();
    let mut written = Ok(());
    for k in 0..u64::from(batch.max(1)) {
        let (seed, seed_rhs) = (seed.wrapping_add(k), seed_rhs.wrapping_add(k));
        match service.submit(Op::Potrf, nt, b, seed, seed_rhs, prio) {
            Ok(sub) => admitted.push(sub),
            Err(rej) => {
                let info = rej.to_string();
                let rejected = Frame::JobStatus {
                    req,
                    state: 3,
                    info,
                };
                written = write_reply(conn, service, &rejected);
                if written.is_err() {
                    break;
                }
            }
        }
    }
    written = written.and_then(|()| conn.flush());

    for sub in admitted {
        if written.is_err() {
            let _ = service.wait(sub.id);
            continue;
        }
        written = answer(conn, service, req, nt, b, sub);
    }
    written
}

/// The name a factor tile travels under, whatever slice computed it.
fn wire_name(i: u32, j: u32) -> TileRef {
    TileRef::A {
        phase: 0,
        slice: 0,
        i,
        j,
    }
}

/// Answers one admitted job: at each wake a `JobTiles` frame of the factor
/// tiles that became final since the last, while the job runs, then a
/// `JobResult` with the tiles not yet sent and the stats — or a `JobStatus`
/// of state 4, which voids what was streamed. Waits for the job's end even
/// after a failed write.
fn answer(
    conn: &mut Conn,
    service: &Service,
    req: u32,
    nt: usize,
    b: usize,
    sub: Submitted,
) -> std::io::Result<()> {
    // sent[i (i + 1) / 2 + j]: tile (i, j) went out in a `JobTiles`
    let mut sent = vec![false; nt * (nt + 1) / 2];
    let mut written = Ok(());
    let outcome = loop {
        let tiles = match service.wait_next(sub.id) {
            JobUpdate::Tiles(tiles) => tiles,
            JobUpdate::Done(outcome) => break outcome,
        };
        if written.is_err() {
            continue;
        }
        let tiles: Vec<(TileRef, Tile)> = tiles
            .into_iter()
            .map(|(r, tile)| {
                let TileRef::A { i, j, .. } = r else {
                    unreachable!("a POTRF result tile is a matrix tile, not {r:?}");
                };
                sent[(i as usize) * (i as usize + 1) / 2 + j as usize] = true;
                (wire_name(i, j), tile)
            })
            .collect();
        service.reply_streamed.add(tiles.len() as u64);
        written =
            write_reply(conn, service, &Frame::JobTiles { req, tiles }).and_then(|()| conn.flush());
    };
    written?;
    let answer = match outcome {
        Ok(out) => match service.gather_potrf(nt, b, &out) {
            Ok(factor) => {
                let tiles: Vec<(TileRef, Tile)> = factor
                    .tile_coords()
                    .zip(&sent)
                    .filter(|&(_, &sent)| !sent)
                    .map(|((i, j), _)| (wire_name(i as u32, j as u32), factor.tile(i, j).clone()))
                    .collect();
                service.reply_tail.add(tiles.len() as u64);
                Frame::JobResult {
                    req,
                    messages: out.stats.messages,
                    bytes: out.stats.bytes,
                    elapsed_ns: out.elapsed.as_nanos() as u64,
                    plan_cached: u8::from(sub.plan_cached),
                    tiles,
                }
            }
            Err(e) => Frame::JobStatus {
                req,
                state: 4,
                info: format!("gather failed: {e}"),
            },
        },
        Err(e) => Frame::JobStatus {
            req,
            state: 4,
            info: e.to_string(),
        },
    };
    write_reply(conn, service, &answer).and_then(|()| conn.flush())
}
