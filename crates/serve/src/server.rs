//! The wire front of a [`Service`]: an accept loop speaking the job
//! protocol (`JobSubmit` / `JobStatus` / `JobResult` / `Shutdown`) over
//! UDS or TCP, one handler thread per client connection.

use crate::service::Service;
use crate::sock::{is_tcp, Conn};
use sbc_net::wire::{encode_into, read_frame_into, EventRecord, Frame};
use sbc_planner::Op;
use sbc_taskgraph::TileRef;
use std::io::Write;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

enum ListenerKind {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl ListenerKind {
    fn bind(addr: &str) -> std::io::Result<ListenerKind> {
        if is_tcp(addr) {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Ok(ListenerKind::Tcp(l))
        } else {
            // a stale socket file from a previous run blocks the bind
            let _ = std::fs::remove_file(addr);
            let l = UnixListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Ok(ListenerKind::Uds(l))
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(false);
                Conn::Tcp(s)
            }),
            ListenerKind::Uds(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(false);
                Conn::Uds(s)
            }),
        }
    }
}

/// Runs the accept loop of `service` on `addr` (a `host:port` or a socket
/// path) until a client sends [`Frame::Shutdown`], then drains in-flight
/// jobs, stops the resident mesh and returns. Engine failures surface as
/// an error after the drain.
pub fn serve(service: Arc<Service>, addr: &str) -> std::io::Result<()> {
    let listener = ListenerKind::bind(addr)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handlers = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || handle(conn, &service, &stop)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    if !is_tcp(addr) {
        let _ = std::fs::remove_file(addr);
    }
    service
        .shutdown()
        .map_err(|e| std::io::Error::other(format!("resident mesh failed: {e}")))
}

/// Encodes `f` into a buffer checked out of the service's reply pool and
/// writes it — every reply on every client connection reuses the pool's
/// recycled capacity instead of allocating (visible as `net.pool.hit`).
fn write_reply(conn: &mut Conn, service: &Service, f: &Frame) -> std::io::Result<()> {
    let mut buf = service.reply_pool().checkout();
    encode_into(f, &mut buf);
    conn.write_all(&buf)
}

/// One client connection: submissions stream in, per-job answers stream
/// out in submission order.
fn handle(mut conn: Conn, service: &Service, stop: &AtomicBool) {
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
                return;
            }
            // anything else on a job connection is a protocol error;
            // drop the client rather than the service
            _ => return,
        }
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
    let (nt, b) = (nt as usize, b as usize);
    if Op::ALL.get(op as usize) != Some(&Op::Potrf) {
        write_reply(
            conn,
            service,
            &Frame::JobStatus {
                req,
                state: 3,
                info: format!("op {op} is not served over the wire (only 0 = POTRF)"),
            },
        )?;
        return conn.flush();
    }
    if nt == 0 || b == 0 {
        write_reply(
            conn,
            service,
            &Frame::JobStatus {
                req,
                state: 3,
                info: format!("degenerate shape nt={nt} b={b}"),
            },
        )?;
        return conn.flush();
    }

    // admit the whole batch first (same shape → one graph, one plan),
    // then answer in seed order
    let mut admitted = Vec::new();
    for k in 0..u64::from(batch.max(1)) {
        match service.submit(Op::Potrf, nt, b, seed + k, seed_rhs + k, prio) {
            Ok(sub) => {
                write_reply(
                    conn,
                    service,
                    &Frame::JobStatus {
                        req,
                        state: 0,
                        info: format!(
                            "job {} queued ({})",
                            sub.id,
                            if sub.plan_cached {
                                "plan cached"
                            } else {
                                "planned"
                            }
                        ),
                    },
                )?;
                admitted.push(sub);
            }
            Err(rej) => {
                write_reply(
                    conn,
                    service,
                    &Frame::JobStatus {
                        req,
                        state: 3,
                        info: rej.to_string(),
                    },
                )?;
            }
        }
    }
    conn.flush()?;

    for sub in admitted {
        let answer = match service.wait(sub.id) {
            Ok(out) => match service.gather_potrf(nt, b, &out) {
                Ok(factor) => {
                    let mut tiles = Vec::with_capacity(nt * (nt + 1) / 2);
                    for i in 0..nt {
                        for j in 0..=i {
                            tiles.push((
                                TileRef::A {
                                    phase: 0,
                                    slice: 0,
                                    i: i as u32,
                                    j: j as u32,
                                },
                                factor.tile(i, j).clone(),
                            ));
                        }
                    }
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
        write_reply(conn, service, &answer)?;
        conn.flush()?;
    }
    Ok(())
}
