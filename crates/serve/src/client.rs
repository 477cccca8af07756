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
        /// `j <= i`, each once, in the order they arrived: those streamed
        /// while the job ran, then the rest.
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
    /// refuses the request as a whole, which is a single reply. A finished
    /// job's tiles are those its `JobTiles` frames streamed while it ran
    /// followed by those of its `JobResult`. A shape the
    /// wire cannot carry (`nt` or `b` above `u32::MAX`) is an
    /// [`std::io::ErrorKind::InvalidInput`] error, and nothing is sent.
    pub fn submit(&mut self, req: &JobRequest) -> Result<Vec<JobReply>, ClientError> {
        let (Ok(nt), Ok(b)) = (u32::try_from(req.nt), u32::try_from(req.b)) else {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("shape nt={} b={} does not fit the wire", req.nt, req.b),
            )));
        };
        // the server only echoes ids, so a long-lived client wraps around
        let id = self.next_req;
        self.next_req = id.wrapping_add(1);
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
        // tiles streamed for the job the next terminal answer concerns
        let mut streamed: Vec<(TileRef, Tile)> = Vec::new();
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
                Frame::JobTiles { req: r, tiles } => {
                    if r != id {
                        return Err(ClientError::Protocol(format!(
                            "tiles for request {r}, expected {id}"
                        )));
                    }
                    streamed.extend(tiles);
                }
                Frame::JobStatus { req: r, .. } if r != id => {
                    return Err(ClientError::Protocol(format!(
                        "status for request {r}, expected {id}"
                    )))
                }
                Frame::JobStatus {
                    state: REFUSED,
                    info,
                    ..
                } => return Ok(vec![JobReply::Rejected(info)]),
                Frame::JobStatus {
                    state: state @ (3 | 4),
                    info,
                    ..
                } => {
                    // what was streamed for a job that did not finish is void
                    streamed.clear();
                    replies.push(match state {
                        3 => JobReply::Rejected(info),
                        _ => JobReply::Failed(info),
                    });
                }
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
                    let mut all = std::mem::take(&mut streamed);
                    all.extend(tiles);
                    replies.push(JobReply::Done {
                        messages,
                        bytes,
                        elapsed: Duration::from_nanos(elapsed_ns),
                        plan_cached: plan_cached != 0,
                        tiles: all,
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

    /// A client over one end of a socket pair, its next request `next_req`;
    /// `serve` plays the server on the other end.
    fn faked(
        next_req: u32,
        serve: impl FnOnce(&mut UnixStream) + Send + 'static,
    ) -> (Client, std::thread::JoinHandle<()>) {
        let (near, mut far) = UnixStream::pair().unwrap();
        let client = Client {
            conn: Box::new(near),
            next_req,
            scratch: Vec::new(),
        };
        (client, std::thread::spawn(move || serve(&mut far)))
    }

    /// Reads one submission, returning its request id and batch.
    fn submission(far: &mut UnixStream) -> (u32, u32) {
        match read_frame(far) {
            Ok(Some((Frame::JobSubmit { req, batch, .. }, _))) => (req, batch),
            other => panic!("expected a submission, got {other:?}"),
        }
    }

    /// Factor tile `(i, 0)` of dimension 2 holding `i` everywhere.
    fn tile(i: u32) -> (TileRef, Tile) {
        let name = TileRef::A {
            phase: 0,
            slice: 0,
            i,
            j: 0,
        };
        (name, Tile::from_fn(2, |_, _| f64::from(i)))
    }

    fn result(req: u32, tiles: Vec<(TileRef, Tile)>) -> Frame {
        Frame::JobResult {
            req,
            messages: 0,
            bytes: 0,
            elapsed_ns: 0,
            plan_cached: 0,
            tiles,
        }
    }

    fn names(reply: &JobReply) -> Vec<u32> {
        match reply {
            JobReply::Done { tiles, .. } => tiles
                .iter()
                .map(|(r, t)| match *r {
                    TileRef::A { i, .. } if t.get(1, 1) == f64::from(i) => i,
                    other => panic!("tile {other:?} is not the one sent"),
                })
                .collect(),
            other => panic!("expected a finished job, got {other:?}"),
        }
    }

    /// The server only echoes request ids, so the one after `u32::MAX` is 0.
    #[test]
    fn the_request_id_wraps_around() {
        let (mut client, server) = faked(u32::MAX, |far| {
            for want in [u32::MAX, 0] {
                let (req, _) = submission(far);
                assert_eq!(req, want);
                write_frame(far, &result(req, vec![tile(1)])).unwrap();
            }
        });
        for _ in 0..2 {
            let replies = client.submit(&JobRequest::potrf(2, 2, 0)).unwrap();
            assert_eq!(names(&replies[0]), [1]);
        }
        assert_eq!(client.next_req, 1);
        server.join().unwrap();
    }

    /// Tiles streamed under another request's id break the protocol.
    #[test]
    fn tiles_for_another_request_are_a_protocol_error() {
        let (mut client, server) = faked(7, |far| {
            let (req, _) = submission(far);
            let tiles = vec![tile(0)];
            write_frame(
                far,
                &Frame::JobTiles {
                    req: req + 1,
                    tiles,
                },
            )
            .unwrap();
        });
        match client.submit(&JobRequest::potrf(2, 2, 0)) {
            Err(ClientError::Protocol(why)) => {
                assert!(why.contains("tiles for request 8"), "{why}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        server.join().unwrap();
    }

    /// A batch's answers split the stream: each `JobResult` takes the tiles
    /// streamed since the previous answer, and a failure voids them.
    #[test]
    fn a_batch_splits_its_tiles_at_each_answer() {
        let (mut client, server) = faked(0, |far| {
            let (req, batch) = submission(far);
            assert_eq!(batch, 3);
            let tiles = |ids: &[u32]| Frame::JobTiles {
                req,
                tiles: ids.iter().map(|&i| tile(i)).collect(),
            };
            for frame in [
                tiles(&[0, 1]),
                result(req, vec![tile(2)]),
                tiles(&[3]),
                Frame::JobStatus {
                    req,
                    state: 4,
                    info: "mesh failed".into(),
                },
                tiles(&[4]),
                tiles(&[5, 6]),
                result(req, vec![tile(7)]),
            ] {
                write_frame(far, &frame).unwrap();
            }
        });
        let batch = JobRequest {
            batch: 3,
            ..JobRequest::potrf(2, 2, 0)
        };
        match client.submit(&batch).unwrap().as_slice() {
            [first, JobReply::Failed(why), last] => {
                assert_eq!(names(first), [0, 1, 2]);
                assert_eq!(why, "mesh failed");
                assert_eq!(names(last), [4, 5, 6, 7], "the failed job's tile leaked");
            }
            other => panic!("expected done, failed, done; got {other:?}"),
        }
        server.join().unwrap();
    }

    /// The states a server sends are 3, 4 and 5; the queued (0) and running
    /// (1) updates are gone from the protocol, so they are no longer skipped.
    #[test]
    fn a_status_of_no_known_state_is_a_protocol_error() {
        let (mut client, server) = faked(0, |far| {
            let (req, _) = submission(far);
            let info = "job 0 queued".to_string();
            write_frame(
                far,
                &Frame::JobStatus {
                    req,
                    state: 0,
                    info,
                },
            )
            .unwrap();
        });
        match client.submit(&JobRequest::potrf(2, 2, 0)) {
            Err(ClientError::Protocol(why)) => {
                assert!(why.contains("unknown job state 0"), "{why}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        server.join().unwrap();
    }

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
