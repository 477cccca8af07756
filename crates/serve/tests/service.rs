//! End-to-end tests of the resident service: plan-cache reuse across
//! jobs, wire-protocol round trips with bit-exact factors and exact
//! analytic accounting, and admission/protocol rejections.

use sbc_dist::comm::messages_to_bytes;
use sbc_net::wire::{read_frame, write_frame, Frame};
use sbc_obs::{EventKind, Severity};
use sbc_planner::{Op, Planner, PlannerConfig};
use sbc_serve::{
    factor_matches, potrf_reference, serve, serve_on, Client, JobReply, JobRequest, ServeConfig,
    Service,
};
use sbc_simgrid::Platform;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

const B: usize = 8;

fn sock_path(tag: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("sbc-serve-test-{tag}-{}.sock", std::process::id()));
    path.to_string_lossy().into_owned()
}

#[test]
fn second_job_of_a_shape_hits_the_plan_cache() {
    let service = Service::start(ServeConfig {
        nodes: 6,
        ..ServeConfig::default()
    });
    let first = service.submit(Op::Potrf, 10, B, 41, 1, 0).unwrap();
    let second = service.submit(Op::Potrf, 10, B, 42, 2, 0).unwrap();
    assert!(!first.plan_cached, "cold cache must plan");
    assert!(second.plan_cached, "same shape must reuse the cached plan");
    service.wait(first.id).unwrap();
    service.wait(second.id).unwrap();

    let snap = service.metrics().snapshot();
    assert_eq!(snap.counter("planner.cache.hit"), Some(1));
    assert_eq!(snap.counter("planner.cache.miss"), Some(1));
    assert_eq!(snap.counter("serve.jobs.submitted"), Some(2));
    assert_eq!(snap.counter("serve.jobs.done"), Some(2));
    assert_eq!(snap.counter("serve.jobs.failed"), Some(0));
    assert!(service.jobs_per_sec() > 0.0, "throughput metric must move");
    assert!(
        service.chrome_trace().contains("job 0"),
        "per-job trace must name the first job"
    );
    service.shutdown().unwrap();
}

#[test]
fn served_factors_are_bit_exact_and_analytically_accounted() {
    let nodes = 6;
    let addr = sock_path("roundtrip");
    let service = Service::start(ServeConfig {
        nodes,
        ..ServeConfig::default()
    });
    let server = {
        let service = Arc::clone(&service);
        let addr = addr.clone();
        std::thread::spawn(move || serve(service, &addr))
    };

    // an independent planner over the same platform predicts the traffic
    // the service must measure, per job shape
    let oracle = Planner::new(Platform::bora(nodes));

    let shapes = [(10usize, 7u64), (12, 8), (10, 9)];
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr)?;
            let mut checked = 0;
            for (nt, seed) in shapes {
                for reply in client.submit(&JobRequest::potrf(nt, B, seed))? {
                    match reply {
                        JobReply::Done { tiles, .. } => {
                            assert!(factor_matches(&tiles, nt, B, seed));
                            checked += 1;
                        }
                        other => panic!("job refused: {other:?}"),
                    }
                }
            }
            Ok::<usize, sbc_serve::ClientError>(checked)
        })
    };

    let mut client = Client::connect(&addr).unwrap();
    let batch = JobRequest {
        batch: 3,
        ..JobRequest::potrf(10, B, 100)
    };
    let replies = client.submit(&batch).unwrap();
    assert_eq!(replies.len(), 3, "one answer per batched job");
    let expect_messages = oracle.plan(Op::Potrf, 10, B).cost.messages;
    for (k, reply) in replies.iter().enumerate() {
        let JobReply::Done {
            messages,
            bytes,
            tiles,
            ..
        } = reply
        else {
            panic!("batched job {k} refused: {reply:?}");
        };
        assert!(factor_matches(tiles, 10, B, 100 + k as u64));
        assert_eq!(*messages, expect_messages, "per-job messages must be exact");
        assert_eq!(
            *bytes,
            messages_to_bytes(expect_messages, B),
            "per-job bytes must be exact"
        );
    }
    assert_eq!(worker.join().unwrap().unwrap(), shapes.len());

    assert!(service.completed() >= 6);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let snap = service.metrics().snapshot();
    assert_eq!(snap.counter("serve.jobs.done"), Some(6));
    assert!(
        snap.counter("planner.cache.hit").unwrap_or(0) > 0,
        "repeated shapes must hit the plan cache"
    );
}

#[test]
fn wire_scrapes_parse_mid_run_and_show_zero_drift() {
    let addr = sock_path("scrape");
    let service = Service::start(ServeConfig {
        nodes: 4,
        ..ServeConfig::default()
    });
    let server = {
        let service = Arc::clone(&service);
        let addr = addr.clone();
        std::thread::spawn(move || serve(service, &addr))
    };

    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr)?;
            let replies = client.submit(&JobRequest {
                batch: 4,
                ..JobRequest::potrf(10, B, 500)
            })?;
            Ok::<usize, sbc_serve::ClientError>(
                replies
                    .iter()
                    .filter(|r| matches!(r, JobReply::Done { .. }))
                    .count(),
            )
        })
    };

    // a second connection scrapes while the batch runs: whatever instant a
    // scrape lands on, the exposition must parse back to a snapshot
    let mut monitor = Client::connect(&addr).unwrap();
    let mut scrapes = 0;
    let done = loop {
        let snap = monitor.stats().expect("every mid-run scrape parses");
        scrapes += 1;
        if snap.counter("serve.jobs.done") == Some(4) {
            break snap;
        }
        assert!(scrapes < 4000, "batch never completed under the monitor");
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(worker.join().unwrap().unwrap(), 4);

    // a clean run drift-checks clean: every completion matched the plan
    assert_eq!(done.counter("obs.drift.ok"), Some(4));
    assert_eq!(done.counter("obs.drift.messages"), Some(0));
    assert_eq!(done.counter("obs.drift.bytes"), Some(0));
    assert_eq!(
        done.histogram("serve.job.latency").map(|h| h.count),
        Some(4),
        "latency is recorded at completion, not at wait"
    );
    let (_, rate, _) = done
        .gauges
        .iter()
        .find(|(n, _, _)| n == "serve.jobs_per_sec")
        .expect("throughput gauge registers eagerly");
    assert!(*rate > 0.0, "a scrape refreshes the sliding-window rate");

    // the reply pool's checkout plane rides the same exposition: every
    // wire reply above went through the pool, so by now the first
    // checkout has missed (cold pool) and later replies were hits
    let snap = monitor.stats().unwrap();
    let hits = snap
        .counter("net.pool.hit")
        .expect("pool hit counter registers eagerly");
    let misses = snap
        .counter("net.pool.miss")
        .expect("pool miss counter registers eagerly");
    assert!(misses >= 1, "the cold pool's first checkout is a miss");
    assert!(hits >= 1, "steady-state replies reuse returned buffers");
    assert!(
        snap.gauges
            .iter()
            .any(|(n, _, _)| n == "net.pool.outstanding"),
        "outstanding gauge registers eagerly"
    );

    // the event tail decodes: admissions and completions, all about jobs
    let events = monitor.events(64).unwrap();
    assert!(!events.is_empty());
    let mut kinds = std::collections::HashMap::new();
    for e in &events {
        Severity::from_code(e.severity).expect("severity codes are stable");
        let kind = EventKind::from_code(e.kind).expect("kind codes are stable");
        assert_ne!(e.job, u32::MAX, "lifecycle events name their job");
        *kinds.entry(kind).or_insert(0u32) += 1;
    }
    assert_eq!(kinds.get(&EventKind::Admitted), Some(&4));
    assert_eq!(kinds.get(&EventKind::Done), Some(&4));
    assert_eq!(kinds.get(&EventKind::Failed), None);

    monitor.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn wire_rejects_unknown_ops_and_degenerate_shapes() {
    let addr = sock_path("reject");
    let service = Service::start(ServeConfig {
        nodes: 4,
        ..ServeConfig::default()
    });
    let server = {
        let service = Arc::clone(&service);
        let addr = addr.clone();
        std::thread::spawn(move || serve(service, &addr))
    };

    // raw frames, bypassing the Client's always-valid submissions
    let mut conn = loop {
        match UnixStream::connect(&addr) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    let submit = |op: u8, nt: u32, b: u32, batch: u32| Frame::JobSubmit {
        req: 9,
        op,
        prio: 0,
        batch,
        nt,
        b,
        seed: 1,
        seed_rhs: 2,
    };
    // an unserved op, an empty matrix, then three shapes whose factor could
    // never be answered in one `JobResult` frame: two that overflow any
    // arithmetic done on them unchecked, and one just over the frame cap
    // (2080 tiles of 128 KiB; nt = 63 would still fit); a shape whose factor
    // fits the frame but whose graph is cubic in nt (~1.8e10 tasks); and a
    // batch no admission could ever hold. Each must be refused — the whole
    // request, with one answer — before anything is planned, allocated or
    // looped over by it.
    let b = B as u32;
    for (op, nt, b, batch) in [
        (5u8, 8u32, b, 1u32),
        (0, 0, b, 1),
        (0, u32::MAX, 1, 1),
        (0, 1, u32::MAX, 1),
        (0, 64, 128, 1),
        (0, 4800, 1, 1),
        (0, 8, b, u32::MAX),
    ] {
        write_frame(&mut conn, &submit(op, nt, b, batch)).unwrap();
        conn.flush().unwrap();
        let (frame, _) = read_frame(&mut conn).unwrap().expect("an answer");
        match frame {
            Frame::JobStatus { state: 5, info, .. } => {
                assert!(!info.is_empty(), "rejections must carry a reason")
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    // through the client: a refused request is answered once whatever its
    // batch, so `submit` returns instead of waiting for two more answers
    let mut client = Client::connect(&addr).unwrap();
    let refused = JobRequest {
        batch: 3,
        ..JobRequest::potrf(64, 128, 1)
    };
    match client.submit(&refused).unwrap().as_slice() {
        [JobReply::Rejected(why)] => assert!(why.contains("too large"), "{why}"),
        other => panic!("expected the request's single refusal, got {other:?}"),
    }
    // seeds count up wrapping: both jobs of a batch starting at u64::MAX run
    let wrapping = JobRequest {
        seed: u64::MAX,
        seed_rhs: u64::MAX,
        batch: 2,
        ..JobRequest::potrf(6, B, 0)
    };
    let replies = client.submit(&wrapping).unwrap();
    assert_eq!(replies.len(), 2, "one answer per batched job");
    for (k, reply) in replies.iter().enumerate() {
        let JobReply::Done { tiles, .. } = reply else {
            panic!("batched job {k} refused: {reply:?}");
        };
        assert!(factor_matches(tiles, 6, B, u64::MAX.wrapping_add(k as u64)));
    }
    drop(client);

    write_frame(&mut conn, &Frame::Shutdown).unwrap();
    conn.flush().unwrap();
    drop(conn);
    server.join().unwrap().unwrap();
    assert_eq!(
        service.metrics().snapshot().counter("serve.jobs.rejected"),
        Some(0),
        "wire-level rejections never reach admission"
    );
}

/// The service over TCP, end to end — every other test here dials a socket
/// path. The listener is bound first (port 0) so the test learns the port.
#[test]
fn serves_over_tcp() {
    let listener = sbc_net::Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.addr().to_owned();
    let service = Service::start(ServeConfig {
        nodes: 4,
        ..ServeConfig::default()
    });
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_on(service, listener))
    };

    let mut client = Client::connect(&addr).unwrap();
    let (nt, seed) = (9, 31);
    match client
        .submit(&JobRequest::potrf(nt, B, seed))
        .unwrap()
        .as_slice()
    {
        [JobReply::Done { tiles, .. }] => assert!(factor_matches(tiles, nt, B, seed)),
        other => panic!("expected one finished job, got {other:?}"),
    }
    let scrape = client.stats().unwrap();
    assert_eq!(scrape.counter("serve.jobs.done"), Some(1));
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A long-lived service sees an open-ended stream of shapes; the planner's
/// cache, which holds each shape's plan, stays within its capacity, and a
/// job whose shape was evicted while it ran — or whose shape comes back
/// later — is still exact.
#[test]
fn graph_cache_is_bounded_and_evicted_shapes_stay_exact() {
    let capacity = 2;
    let service = Service::start(ServeConfig {
        nodes: 4,
        planner: PlannerConfig {
            cache_capacity: capacity,
        },
        ..ServeConfig::default()
    });
    let check = |nt: usize, seed: u64, id| {
        let out = service.wait(id).unwrap();
        let factor = service.gather_potrf(nt, B, &out).unwrap();
        let expect = potrf_reference(nt, B, seed);
        for (i, j) in expect.tile_coords() {
            assert_eq!(
                factor.tile(i, j).as_slice(),
                expect.tile(i, j).as_slice(),
                "nt={nt} tile ({i},{j})"
            );
        }
    };
    // all admitted before any is gathered: the first three plans are
    // evicted while their jobs are still in flight
    let shapes: Vec<usize> = (4..4 + capacity + 3).collect();
    let ids: Vec<_> = shapes
        .iter()
        .map(|&nt| {
            service
                .submit(Op::Potrf, nt, B, nt as u64, 0, 0)
                .unwrap()
                .id
        })
        .collect();
    let cached = || service.planner().cache().len();
    assert!(cached() <= capacity);
    for (&nt, id) in shapes.iter().zip(ids) {
        check(nt, nt as u64, id);
    }
    assert!(cached() <= capacity);
    let again = service.submit(Op::Potrf, shapes[0], B, 99, 0, 0).unwrap();
    assert!(!again.plan_cached, "an evicted shape is planned again");
    check(shapes[0], 99, again.id);
    assert!(cached() <= capacity);
    service.shutdown().unwrap();
}

/// A shape the wire's `u32` fields cannot carry is refused by the client
/// before anything is written, instead of being truncated into another job.
#[test]
fn client_refuses_a_shape_the_wire_cannot_carry() {
    let addr = sock_path("wide");
    let service = Service::start(ServeConfig {
        nodes: 4,
        ..ServeConfig::default()
    });
    let server = {
        let service = Arc::clone(&service);
        let addr = addr.clone();
        std::thread::spawn(move || serve(service, &addr))
    };
    let mut client = Client::connect(&addr).unwrap();
    for req in [
        JobRequest::potrf((1 << 32) + 4, B, 1),
        JobRequest::potrf(4, (1 << 32) + B, 1),
    ] {
        match client.submit(&req) {
            Err(sbc_serve::ClientError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput)
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    let scrape = client.stats().unwrap();
    assert_eq!(scrape.counter("serve.jobs.submitted"), Some(0));
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A job starts when it is admitted, not at some poll tick: admission marks
/// every rank runnable, so idle ranks pick a submission up, run it, and
/// leave on shutdown, with no tick left to wait for. (With polling alone
/// every job of a closed-loop client started a fixed fraction of the tick
/// late, a different one in each run.)
#[test]
fn a_submission_does_not_wait_for_the_poll_tick() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let service = Service::start(ServeConfig::default());
        // every rank is idle by now, its pool threads parked
        std::thread::sleep(Duration::from_millis(50));
        for seed in 0..3 {
            let job = service.submit(Op::Potrf, 6, B, seed, 0, 0).unwrap();
            let out = service.wait(job.id).unwrap();
            let factor = service.gather_potrf(6, B, &out).unwrap();
            let expect = potrf_reference(6, B, seed);
            for (i, j) in expect.tile_coords() {
                assert_eq!(factor.tile(i, j).as_slice(), expect.tile(i, j).as_slice());
            }
        }
        service.shutdown().unwrap();
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a served job or the shutdown waited for the poll tick");
}

/// A client that hangs up in the middle of a batch strands none of its
/// jobs: the handler stops writing at the first failed write, but it still
/// waits for every job it admitted, so none keeps its finished tiles in the
/// table for good. (It used to return at that write.)
#[test]
fn a_client_that_hangs_up_mid_batch_strands_no_job() {
    let addr = sock_path("hangup");
    let service = Service::start(ServeConfig::default());
    let server = {
        let service = Arc::clone(&service);
        let addr = addr.clone();
        std::thread::spawn(move || serve(service, &addr))
    };
    let connect = || loop {
        match UnixStream::connect(&addr) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut conn = connect();
    let submit = Frame::JobSubmit {
        req: 1,
        op: 0,
        prio: 0,
        batch: 3,
        nt: 6,
        b: B as u32,
        seed: 1,
        seed_rhs: 2,
    };
    write_frame(&mut conn, &submit).unwrap();
    conn.flush().unwrap();
    drop(conn);

    // `Service::wait` records the job's span
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !service.chrome_trace().contains("job 0") {
        assert!(
            std::time::Instant::now() < deadline,
            "nobody waited for the hung-up client's first job"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut conn = connect();
    write_frame(&mut conn, &Frame::Shutdown).unwrap();
    conn.flush().unwrap();
    drop(conn);
    server.join().unwrap().unwrap();
}

/// Each factor tile reaches the client once: streamed in a `JobTiles`
/// frame while its job ran, or in the job's `JobResult` — never both, never
/// neither — and `serve.reply.{streamed,tail}` count exactly what was sent.
#[test]
fn every_factor_tile_is_sent_once_streamed_or_in_the_tail() {
    let addr = sock_path("stream");
    let service = Service::start(ServeConfig::default());
    let server = {
        let service = Arc::clone(&service);
        let addr = addr.clone();
        std::thread::spawn(move || serve(service, &addr))
    };
    let mut conn = loop {
        match UnixStream::connect(&addr) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let (nt, batch, seed) = (12usize, 3u32, 40u64);
    let submit = Frame::JobSubmit {
        req: 3,
        op: 0,
        prio: 0,
        batch,
        nt: nt as u32,
        b: B as u32,
        seed,
        seed_rhs: seed ^ 0x5EED,
    };
    write_frame(&mut conn, &submit).unwrap();
    conn.flush().unwrap();
    let (mut streamed, mut tail) = (0u64, 0u64);
    let mut job = Vec::new();
    for k in 0..u64::from(batch) {
        let tiles = loop {
            match read_frame(&mut conn).unwrap().expect("an answer").0 {
                Frame::JobTiles { req: 3, tiles } => {
                    streamed += tiles.len() as u64;
                    job.extend(tiles);
                }
                Frame::JobResult { req: 3, tiles, .. } => {
                    tail += tiles.len() as u64;
                    break tiles;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        };
        job.extend(tiles);
        assert!(factor_matches(&job, nt, B, seed + k), "job {k}");
        job.clear();
    }
    assert_eq!(
        streamed + tail,
        u64::from(batch) * (nt * (nt + 1) / 2) as u64
    );
    let snap = service.metrics().snapshot();
    assert_eq!(snap.counter("serve.reply.streamed"), Some(streamed));
    assert_eq!(snap.counter("serve.reply.tail"), Some(tail));

    write_frame(&mut conn, &Frame::Shutdown).unwrap();
    conn.flush().unwrap();
    drop(conn);
    server.join().unwrap().unwrap();
}
