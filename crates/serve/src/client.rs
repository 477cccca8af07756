//! The blocking client of a [`crate::Service`]'s wire front, plus the
//! bit-exact validation helpers every caller should run on the factors it
//! gets back.

use sbc_kernels::Tile;
use sbc_matrix::{generate::random_spd, potrf_tiled, SymmetricTiledMatrix};
use sbc_net::wire::{read_frame_into, write_frame, EventRecord, Frame, FrameError};
use sbc_net::Conn;
use sbc_obs::{expo, MetricsSnapshot};
use sbc_taskgraph::TileRef;
use std::collections::HashMap;
use std::io::Write;
use std::time::Duration;

use crate::server::REFUSED;

/// One submission: `batch` same-shape POTRF jobs whose seeds count up
/// (wrapping) from `seed` / `seed_rhs`.
#[derive(Debug, Clone, Copy)]
pub struct JobRequest {
    /// Tile count per side.
    pub nt: usize,
    /// Tile (block) size.
    pub b: usize,
    /// SPD input seed of the first job.
    pub seed: u64,
    /// Right-hand-side seed of the first job.
    pub seed_rhs: u64,
    /// Job priority (higher jumps the service's shared ready heap).
    pub prio: u8,
    /// Jobs in the batch; `0` is treated as `1`.
    pub batch: u32,
}

impl JobRequest {
    /// A single POTRF job of the given shape and seed.
    pub fn potrf(nt: usize, b: usize, seed: u64) -> JobRequest {
        JobRequest {
            nt,
            b,
            seed,
            seed_rhs: seed ^ 0x5EED,
            prio: 0,
            batch: 1,
        }
    }
}

/// The service's answer for one job of a submission.
#[derive(Debug, Clone)]
pub enum JobReply {
    /// The job ran; stats are exact, tiles are the lower-triangular factor.
    Done {
        /// Payload messages the job moved across the mesh.
        messages: u64,
        /// Payload bytes the job moved across the mesh.
        bytes: u64,
        /// Wall-clock from admission to completion.
        elapsed: Duration,
        /// Whether the plan came from the warm cache.
        plan_cached: bool,
        /// Factor tiles, `TileRef::A { phase: 0, slice: 0, i, j }` with
        /// `j <= i`.
        tiles: Vec<(TileRef, Tile)>,
    },
    /// Admission control refused the job — or the service refused the whole
    /// request (an unserved op, a shape or batch it cannot hold), in which
    /// case this is the request's only reply. The reason is verbatim.
    Rejected(String),
    /// The job was admitted but the mesh failed it.
    Failed(String),
}

/// A client-side failure (transport or protocol).
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// A frame could not be decoded.
    Frame(FrameError),
    /// The server answered out of protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame: {e:?}"),
            ClientError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking connection to a running service. One client drives one
/// connection; submissions answer in order.
pub struct Client {
    conn: Conn,
    next_req: u32,
    /// Every reply on this connection decodes through this one buffer; it
    /// grows once to the largest `JobResult` seen and is then reused.
    scratch: Vec<u8>,
}

impl Client {
    /// Connects to `addr` (a `host:port` or a socket path), retrying for
    /// up to five seconds while the server is still starting.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Self::connect_with_budget(addr, Duration::from_secs(5))
    }

    /// [`Client::connect`] with an explicit retry budget.
    pub(crate) fn connect_with_budget(addr: &str, budget: Duration) -> std::io::Result<Client> {
        Ok(Client {
            conn: sbc_net::connect_retry(addr, budget)?,
            next_req: 0,
            scratch: Vec::new(),
        })
    }

    /// Submits one request and blocks until every job of the batch has a
    /// terminal answer, returned in seed order — or until the service
    /// refuses the request as a whole, which is a single reply. A shape the
    /// wire cannot carry (`nt` or `b` above `u32::MAX`) is an
    /// [`std::io::ErrorKind::InvalidInput`] error, and nothing is sent.
    pub fn submit(&mut self, req: &JobRequest) -> Result<Vec<JobReply>, ClientError> {
        let (Ok(nt), Ok(b)) = (u32::try_from(req.nt), u32::try_from(req.b)) else {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("shape nt={} b={} does not fit the wire", req.nt, req.b),
            )));
        };
        let id = self.next_req;
        self.next_req += 1;
        write_frame(
            &mut self.conn,
            &Frame::JobSubmit {
                req: id,
                op: 0,
                prio: req.prio,
                batch: req.batch,
                nt,
                b,
                seed: req.seed,
                seed_rhs: req.seed_rhs,
            },
        )?;
        self.conn.flush()?;

        let expect = req.batch.max(1) as usize;
        let mut replies = Vec::with_capacity(expect);
        while replies.len() < expect {
            let frame = match read_frame_into(&mut self.conn, &mut self.scratch)? {
                Some((f, _)) => f,
                None => {
                    return Err(ClientError::Protocol(format!(
                        "server closed after {} of {expect} answers",
                        replies.len()
                    )))
                }
            };
            match frame {
                Frame::JobStatus { req: r, .. } if r != id => {
                    return Err(ClientError::Protocol(format!(
                        "status for request {r}, expected {id}"
                    )))
                }
                Frame::JobStatus { state: 0, .. } | Frame::JobStatus { state: 1, .. } => {
                    // queued/running updates are informational
                }
                Frame::JobStatus { state: 3, info, .. } => replies.push(JobReply::Rejected(info)),
                Frame::JobStatus {
                    state: REFUSED,
                    info,
                    ..
                } => return Ok(vec![JobReply::Rejected(info)]),
                Frame::JobStatus { state: 4, info, .. } => replies.push(JobReply::Failed(info)),
                Frame::JobStatus { state, .. } => {
                    return Err(ClientError::Protocol(format!("unknown job state {state}")))
                }
                Frame::JobResult {
                    req: r,
                    messages,
                    bytes,
                    elapsed_ns,
                    plan_cached,
                    tiles,
                } => {
                    if r != id {
                        return Err(ClientError::Protocol(format!(
                            "result for request {r}, expected {id}"
                        )));
                    }
                    replies.push(JobReply::Done {
                        messages,
                        bytes,
                        elapsed: Duration::from_nanos(elapsed_ns),
                        plan_cached: plan_cached != 0,
                        tiles,
                    });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame {other:?} while waiting for answers"
                    )))
                }
            }
        }
        Ok(replies)
    }

    /// Scrapes the service's metrics as raw exposition text. The server
    /// answers from an atomically-taken snapshot; a monitor polling this
    /// does not contend with the job path.
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        write_frame(&mut self.conn, &Frame::StatsRequest)?;
        self.conn.flush()?;
        match self.read_reply()? {
            Frame::StatsReply { text } => Ok(text),
            other => Err(ClientError::Protocol(format!(
                "unexpected frame {other:?} while waiting for stats"
            ))),
        }
    }

    /// [`Client::stats_text`] parsed back into a structured snapshot.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let text = self.stats_text()?;
        expo::parse(&text)
            .map_err(|e| ClientError::Protocol(format!("stats exposition did not parse: {e}")))
    }

    /// The newest `max` lifecycle events, oldest first. `job` is
    /// `u32::MAX` when the event is not about a specific job; `severity`
    /// and `kind` decode via [`sbc_obs::Severity::from_code`] and
    /// [`sbc_obs::EventKind::from_code`].
    pub fn events(&mut self, max: u32) -> Result<Vec<EventRecord>, ClientError> {
        write_frame(&mut self.conn, &Frame::EventsRequest { max })?;
        self.conn.flush()?;
        match self.read_reply()? {
            Frame::EventsReply { events } => Ok(events),
            other => Err(ClientError::Protocol(format!(
                "unexpected frame {other:?} while waiting for events"
            ))),
        }
    }

    fn read_reply(&mut self) -> Result<Frame, ClientError> {
        match read_frame_into(&mut self.conn, &mut self.scratch)? {
            Some((f, _)) => Ok(f),
            None => Err(ClientError::Protocol(
                "server closed before answering".into(),
            )),
        }
    }

    /// Asks the service to drain and exit, then closes the connection.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        write_frame(&mut self.conn, &Frame::Shutdown)?;
        self.conn.flush()
    }
}

/// The sequential reference factor for a seeded SPD input — what every
/// served POTRF job must reproduce bit-for-bit.
pub fn potrf_reference(nt: usize, b: usize, seed: u64) -> SymmetricTiledMatrix {
    let mut m = random_spd(seed, nt, b);
    potrf_tiled(&mut m).expect("seeded SPD input factors");
    m
}

/// Checks a [`JobReply::Done`] tile set bit-for-bit against the sequential
/// reference for `seed`.
pub fn factor_matches(tiles: &[(TileRef, Tile)], nt: usize, b: usize, seed: u64) -> bool {
    if tiles.len() != nt * (nt + 1) / 2 {
        return false;
    }
    let map: HashMap<TileRef, &Tile> = tiles.iter().map(|(r, t)| (*r, t)).collect();
    let expect = potrf_reference(nt, b, seed);
    for i in 0..nt {
        for j in 0..=i {
            let r = TileRef::A {
                phase: 0,
                slice: 0,
                i: i as u32,
                j: j as u32,
            };
            match map.get(&r) {
                Some(t) if t.as_slice() == expect.tile(i, j).as_slice() => {}
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_net::wire::read_frame;
    use std::os::unix::net::UnixStream;

    #[test]
    fn replies_decode_through_one_scratch_without_reallocating() {
        let (near, mut far) = UnixStream::pair().unwrap();
        let mut client = Client {
            conn: Box::new(near),
            next_req: 0,
            scratch: Vec::new(),
        };
        // a large reply, a smaller one, then the large size again
        let dims = [24usize, 8, 24];
        let server = std::thread::spawn(move || {
            for (req, dim) in dims.into_iter().enumerate() {
                match read_frame(&mut far) {
                    Ok(Some((Frame::JobSubmit { .. }, _))) => {}
                    other => panic!("expected a submission, got {other:?}"),
                }
                let reply = Frame::JobResult {
                    req: req as u32,
                    messages: 1,
                    bytes: 8,
                    elapsed_ns: 1,
                    plan_cached: 0,
                    tiles: vec![(
                        TileRef::B { i: 0 },
                        Tile::from_fn(dim, |i, j| (i * dim + j) as f64),
                    )],
                };
                write_frame(&mut far, &reply).unwrap();
            }
        });
        let mut warm = None;
        for dim in dims {
            match client
                .submit(&JobRequest::potrf(1, dim, 0))
                .unwrap()
                .as_slice()
            {
                [JobReply::Done { tiles, .. }] => {
                    assert_eq!(tiles[0].1.dim(), dim);
                    assert_eq!(tiles[0].1.get(dim - 1, 1), ((dim - 1) * dim + 1) as f64);
                }
                other => panic!("expected one finished job, got {other:?}"),
            }
            let now = (client.scratch.as_ptr(), client.scratch.capacity());
            // same-or-smaller replies after the first reuse its allocation
            assert_eq!(*warm.get_or_insert(now), now, "scratch reallocated");
        }
        server.join().unwrap();
    }
}
