//! Chaos suite: deterministic fault schedules over lossy transports.
//!
//! Every test here runs the same distributed Cholesky the acceptance tests
//! run, but over a transport that drops, duplicates or delays payload
//! traffic under a seeded, reproducible schedule, with a reliability
//! [`Session`] recovering on top. The acceptance bar does not move an inch:
//!
//! * the gathered factor is **bit-identical** to the sequential one;
//! * the logical payload accounting equals the analytic
//!   `sbc::dist::comm` counts **exactly** — retransmissions and acks live
//!   only in the separate `retrans_*` / `control_*` counters;
//! * recovery overhead is bounded (no retransmission storms).
//!
//! Every assertion message carries the seed and the failing combination so
//! a red run is reproducible by pasting the seed back into `SEED`.
//!
//! The watchdog regression at the bottom covers the opposite contract: a
//! transport that drops *everything* and has no session must fail with
//! [`ExecError::Stalled`] naming the stuck rank — never hang.

use sbc::dist::{comm, Distribution, SbcExtended, TwoDBlockCyclic};
use sbc::matrix::{potrf_tiled, random_spd, SymmetricTiledMatrix};
use sbc::net::{
    inproc_mesh, local_mesh, Backend, FaultConfig, Faulty, Session, Transport, TransportStats,
};
use sbc::runtime::{ExecError, Run, RunOutput};
use std::time::{Duration, Instant};

const B: usize = 8;
const SEED: u64 = 2022;

/// splitmix64: one u64 in, one well-mixed u64 out — the whole suite's
/// randomness derives from `SEED` through this, so every schedule is a pure
/// function of the seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which failure mode a chaos run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Drop,
    Dup,
    Delay,
}

/// The seeded fault plan for one rank of one combination: the kind picks
/// the knob, the hash picks its value and the per-rank phase.
fn fault_plan(kind: FaultKind, combo: u64, rank: u64) -> FaultConfig {
    let h = splitmix(SEED ^ combo.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ rank);
    let phase = h >> 32;
    match kind {
        FaultKind::Drop => FaultConfig {
            drop_every: 2 + h % 3, // every 2nd..4th payload send vanishes
            phase,
            ..Default::default()
        },
        FaultKind::Dup => FaultConfig {
            dup_every: 2 + h % 4,
            phase,
            ..Default::default()
        },
        FaultKind::Delay => FaultConfig {
            delay: Some(Duration::from_micros(100 + h % 400)),
            phase,
            ..Default::default()
        },
    }
}

fn sequential_factor(nt: usize) -> SymmetricTiledMatrix {
    let mut seq = random_spd(SEED, nt, B);
    potrf_tiled(&mut seq).expect("sequential factorization failed");
    seq
}

/// Everything one chaos run produced: rank 0's gathered output, each
/// session's composed accounting, and the lossy layer's injected totals.
struct ChaosRun {
    out: RunOutput,
    per_rank: Vec<TransportStats>,
    dropped: u64,
    duplicated: u64,
}

/// Runs one rank per thread over a session-per-rank reliable mesh built on
/// lossy endpoints, returning rank 0's gathered output plus each session's
/// composed accounting and each lossy layer's injected-fault counts.
///
/// Each thread *owns* its session and drops it when its rank finishes —
/// exactly like the one-process-per-rank deployment. The drop matters: the
/// session is passive (retransmission runs inside its receive calls, which
/// a finished rank no longer makes), so a rank that finished with a
/// dropped tail payload still in flight recovers it in the session's
/// drain-on-drop, while the peer that needs it is still stepped at each
/// arrival.
fn run_reliable<T: Transport, D: Distribution>(
    dist: &D,
    nt: usize,
    mesh: Vec<Session<Faulty<T>>>,
    label: &str,
) -> ChaosRun {
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|net| {
                scope.spawn(move || {
                    let out = Run::potrf(&dist, nt)
                        .block(B)
                        .seed(SEED)
                        .workers(2)
                        .deadline(Duration::from_secs(10))
                        .execute_rank(&net);
                    // snapshot before the session drops (and drains)
                    let stats = net.stats();
                    let dropped = net.inner().dropped();
                    let duplicated = net.inner().duplicated();
                    (out, stats, dropped, duplicated)
                })
            })
            .collect::<Vec<_>>();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut out = None;
    let mut stats = Vec::new();
    let mut dropped = 0;
    let mut duplicated = 0;
    let mut errors = Vec::new();
    for (rank, (o, s, d, dup)) in results.into_iter().enumerate() {
        match o {
            Ok(Some(o)) => out = Some(o),
            Ok(None) => {}
            Err(e) => errors.push(format!("rank {rank}: {e}")),
        }
        stats.push(s);
        dropped += d;
        duplicated += dup;
    }
    assert!(
        errors.is_empty(),
        "{label}: rank execution failed:\n  {}",
        errors.join("\n  ")
    );
    let out = out.unwrap_or_else(|| panic!("{label}: rank 0 gathered no output"));
    ChaosRun {
        out,
        per_rank: stats,
        dropped,
        duplicated,
    }
}

/// Asserts the full acceptance bar for one chaos combination.
fn assert_chaos_outcome<D: Distribution>(
    dist: &D,
    nt: usize,
    kind: FaultKind,
    run: &ChaosRun,
    label: &str,
) {
    // bit-identical factor
    let seq = sequential_factor(nt);
    for (i, j) in seq.tile_coords() {
        assert_eq!(
            run.out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
            0.0,
            "{label}: tile ({i},{j}) differs from sequential"
        );
    }

    // exact analytic accounting — faults never leak into the payload counts
    let messages = comm::potrf_messages(dist, nt);
    let bytes = comm::messages_to_bytes(messages, B);
    assert_eq!(run.out.stats.messages, messages, "{label}: message count");
    assert_eq!(run.out.stats.bytes, bytes, "{label}: byte count");
    let sent: u64 = run.per_rank.iter().map(|s| s.sent_payload_bytes).sum();
    assert_eq!(sent, bytes, "{label}: logical payload bytes sent");
    let recv: u64 = run.per_rank.iter().map(|s| s.recv_payload_bytes).sum();
    assert_eq!(recv, bytes, "{label}: logical payload bytes received");

    // recovery happened where it had to, and stayed bounded
    let retrans_msgs: u64 = run.per_rank.iter().map(|s| s.retrans_messages).sum();
    let retrans_bytes: u64 = run.per_rank.iter().map(|s| s.retrans_bytes).sum();
    match kind {
        FaultKind::Drop => {
            assert!(run.dropped > 0, "{label}: the fault plan dropped nothing");
            assert!(
                retrans_msgs > 0,
                "{label}: drops were injected but nothing was retransmitted"
            );
        }
        FaultKind::Dup => {
            assert!(
                run.duplicated > 0,
                "{label}: the fault plan duplicated nothing"
            );
        }
        FaultKind::Delay => {}
    }
    assert!(
        retrans_bytes <= bytes.saturating_mul(8),
        "{label}: retransmission storm — {retrans_bytes} retransmitted bytes \
         for {bytes} payload bytes"
    );
}

/// The chaos matrix: {drop, dup, delay} × {SBC, 2DBC} × {inproc, uds}.
/// Twelve seeded fault schedules, one acceptance bar.
#[test]
fn seeded_fault_schedules_recover_bit_identically() {
    let nt = 8;
    let dists: Vec<(&str, Box<dyn Distribution + Sync>)> = vec![
        ("SBC r=4", Box::new(SbcExtended::new(4))), // 6 nodes
        ("2DBC 2x3", Box::new(TwoDBlockCyclic::new(2, 3))),
    ];
    let mut combo = 0u64;
    for kind in [FaultKind::Drop, FaultKind::Dup, FaultKind::Delay] {
        for (dname, dist) in &dists {
            let dist = dist.as_ref();
            let n = dist.num_nodes();
            for backend in ["inproc", "uds"] {
                combo += 1;
                let label =
                    format!("seed={SEED} combo={combo} ({kind:?} over {dname} via {backend})");
                eprintln!("chaos: {label}");
                let plans: Vec<FaultConfig> =
                    (0..n as u64).map(|r| fault_plan(kind, combo, r)).collect();
                let run = match backend {
                    "inproc" => {
                        let mesh: Vec<_> = inproc_mesh(n)
                            .into_iter()
                            .zip(&plans)
                            .map(|(t, cfg)| Session::new(Faulty::new(t, *cfg)))
                            .collect();
                        run_reliable(&dist, nt, mesh, &label)
                    }
                    _ => {
                        let mesh: Vec<_> = local_mesh(Backend::Uds, n)
                            .expect("uds mesh")
                            .into_iter()
                            .zip(&plans)
                            .map(|(t, cfg)| Session::new(Faulty::new(t, *cfg)))
                            .collect();
                        run_reliable(&dist, nt, mesh, &label)
                    }
                };
                assert_chaos_outcome(&dist, nt, kind, &run, &label);
            }
        }
    }
}

/// A compound schedule — drops *and* duplicates *and* delays at once, over
/// real sockets — still lands on the exact same bar.
#[test]
fn compound_fault_schedule_over_uds_recovers() {
    let nt = 8;
    let dist = SbcExtended::new(4);
    let n = dist.num_nodes();
    let label = format!("seed={SEED} compound drop+dup+delay over SBC r=4 via uds");
    let mesh: Vec<_> = local_mesh(Backend::Uds, n)
        .expect("uds mesh")
        .into_iter()
        .enumerate()
        .map(|(r, t)| {
            let h = splitmix(SEED ^ r as u64);
            let cfg = FaultConfig {
                drop_every: 3 + h % 3,
                dup_every: 4 + (h >> 8) % 3,
                delay: Some(Duration::from_micros(50 + (h >> 16) % 200)),
                phase: h >> 32,
                ..Default::default()
            };
            Session::new(Faulty::new(t, cfg))
        })
        .collect();
    let run = run_reliable(&dist, nt, mesh, &label);
    assert!(
        run.dropped > 0 && run.duplicated > 0,
        "{label}: plan injected nothing"
    );
    assert_chaos_outcome(&dist, nt, FaultKind::Drop, &run, &label);
}

/// Two concurrent jobs share ONE faulty UDS mesh through the resident
/// multi-job engine: a seeded drop+dup schedule per rank, a reliability
/// session per endpoint, job-id-namespaced tile traffic. Both factors must
/// come out bit-identical to their sequential references, and each job's
/// payload accounting must stay exactly analytic — faults and the *other*
/// job never leak into a job's counts.
#[test]
fn two_jobs_share_one_faulty_uds_mesh_bit_identically() {
    use sbc::runtime::{gather, run_jobs, JobEngineConfig, JobTable, RunResult};
    use sbc::taskgraph::build_potrf;
    use std::sync::Arc;

    let nt = 8;
    let dist = SbcExtended::new(4); // 6 nodes
    let n = dist.num_nodes();
    let label = format!("seed={SEED} two jobs over drop+dup SBC r=4 via uds");
    let graph = Arc::new(build_potrf(&dist, nt));
    let table = JobTable::new(n, 4);
    let cfg = JobEngineConfig {
        workers: 2,
        deadline: Some(Duration::from_secs(10)),
        ..Default::default()
    };
    let mesh: Vec<_> = local_mesh(Backend::Uds, n)
        .expect("uds mesh")
        .into_iter()
        .enumerate()
        .map(|(r, t)| {
            let h = splitmix(SEED ^ 0xB0B ^ r as u64);
            let plan = FaultConfig {
                drop_every: 3 + h % 3,
                dup_every: 4 + (h >> 8) % 3,
                phase: h >> 32,
                ..Default::default()
            };
            Session::new(Faulty::new(t, plan))
        })
        .collect();

    let seed_b = SEED ^ 77;
    let outcomes = std::thread::scope(|scope| {
        let table = &table;
        // the table tells one driver of its admissions: the mesh this
        // process holds is one pool
        let engines = scope.spawn(|| run_jobs(&mesh, table, cfg));
        let driver = scope.spawn(move || {
            let a = table
                .submit(Arc::clone(&graph), B, SEED, SEED ^ 1, 0)
                .expect("job A admitted");
            let b = table
                .submit(graph, B, seed_b, seed_b ^ 1, 1)
                .expect("job B admitted");
            let outs = (table.wait(a), table.wait(b));
            table.shutdown();
            outs
        });
        let outcomes = driver.join().expect("driver panicked");
        let engines = engines.join().expect("engine thread panicked");
        engines.unwrap_or_else(|e| panic!("{label}: a rank failed: {e}"));
        outcomes
    });
    let faults: (u64, u64) = mesh.iter().fold((0, 0), |(d, dup), net| {
        (d + net.inner().dropped(), dup + net.inner().duplicated())
    });
    assert!(
        faults.0 > 0 && faults.1 > 0,
        "{label}: the fault plan injected nothing (dropped={}, duplicated={})",
        faults.0,
        faults.1
    );

    let messages = comm::potrf_messages(&dist, nt);
    let bytes = comm::messages_to_bytes(messages, B);
    for (out, seed, name) in [
        (outcomes.0.expect("job A finished"), SEED, "job A"),
        (outcomes.1.expect("job B finished"), seed_b, "job B"),
    ] {
        let mut seq = random_spd(seed, nt, B);
        potrf_tiled(&mut seq).expect("sequential factorization failed");
        let RunResult::Factor(factor) = gather(out.graph(), &out.tiles, B)
            .unwrap_or_else(|e| panic!("{label}: {name} gather failed: {e}"))
        else {
            panic!("{label}: {name} did not gather a symmetric factor");
        };
        for (i, j) in seq.tile_coords() {
            assert_eq!(
                factor.tile(i, j).max_abs_diff(seq.tile(i, j)),
                0.0,
                "{label}: {name} tile ({i},{j}) differs from sequential"
            );
        }
        assert_eq!(out.stats.messages, messages, "{label}: {name} messages");
        assert_eq!(out.stats.bytes, bytes, "{label}: {name} bytes");
        let applied: u64 = out.stats.recv_per_node.iter().sum();
        assert_eq!(
            applied, messages,
            "{label}: {name} applied payloads (duplicates must be filtered)"
        );
    }
}

/// Watchdog regression: a transport that drops every payload and has no
/// reliability session cannot make progress — under both ready
/// orders the run must end with [`ExecError::Stalled`] naming the stuck
/// rank within the deadline, not hang.
#[test]
fn all_drop_transport_stalls_instead_of_hanging() {
    let nt = 6;
    let dist = TwoDBlockCyclic::new(2, 2);
    let n = dist.num_nodes();
    let deadline = Duration::from_millis(300);
    use sbc::topo::{CriticalPath, Scheduler, SubmissionOrder};
    let scheds: [std::sync::Arc<dyn Scheduler + Send + Sync>; 2] = [
        std::sync::Arc::new(CriticalPath),
        std::sync::Arc::new(SubmissionOrder),
    ];
    for sched in scheds {
        let label = format!("seed={SEED} all-drop watchdog under {}", sched.name());
        let cfg = FaultConfig {
            drop_every: 1, // every payload vanishes, forever
            ..Default::default()
        };
        let mesh: Vec<_> = inproc_mesh(n)
            .into_iter()
            .map(|t| Faulty::new(t, cfg))
            .collect();
        let started = Instant::now();
        let errors: Vec<(u32, ExecError)> = std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| {
                    let label = &label;
                    let dist = &dist;
                    let sched = std::sync::Arc::clone(&sched);
                    scope.spawn(move || {
                        Run::potrf(dist, nt)
                            .block(B)
                            .seed(SEED)
                            .workers(2)
                            .scheduler(sched)
                            .deadline(deadline)
                            .execute_rank(net)
                            .expect_err(&format!("{label}: an all-drop run cannot succeed"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(r, h)| (r as u32, h.join().expect("rank thread panicked")))
                .collect()
        });
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "{label}: took {elapsed:?} — the watchdog did not bound the hang"
        );
        let mut stalled = 0;
        for (rank, err) in &errors {
            match err {
                ExecError::Stalled {
                    rank: reported,
                    waiting_on,
                } => {
                    stalled += 1;
                    assert_eq!(reported, rank, "{label}: stall blamed on the wrong rank");
                    assert!(
                        !waiting_on.is_empty(),
                        "{label}: stall carries no diagnosis"
                    );
                }
                // ranks woken by a stalled peer's poison report Remote
                ExecError::Remote => {}
                other => panic!("{label}: rank {rank} failed with {other:?}"),
            }
        }
        assert!(
            stalled > 0,
            "{label}: no rank reported Stalled (errors: {errors:?})"
        );
    }
}

/// The watchdog is a pure function of the injected clock: on a
/// [`VirtualClock`] ticked ~10000× faster than the wall, an all-drop run
/// trips a *three-virtual-minute* deadline within real-time milliseconds —
/// stall detection reads virtual time, and every advance wakes the pool
/// that waits for the deadline.
#[test]
fn watchdog_reads_the_injected_clock_not_the_wall() {
    use sbc::net::VirtualClock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let nt = 6;
    let dist = TwoDBlockCyclic::new(2, 2);
    let n = dist.num_nodes();
    let clock = Arc::new(VirtualClock::new());
    // three virtual minutes; no real watchdog deadline is anywhere close
    let deadline = Duration::from_secs(180);
    let cfg = FaultConfig {
        drop_every: 1,
        ..Default::default()
    };
    let mesh: Vec<_> = inproc_mesh(n)
        .into_iter()
        .map(|t| Faulty::new(t, cfg))
        .collect();
    let started = Instant::now();
    let done = AtomicBool::new(false);
    let errors: Vec<ExecError> = std::thread::scope(|scope| {
        {
            // time accelerator: 10 virtual seconds per real millisecond
            let clock = Arc::clone(&clock);
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    clock.advance(Duration::from_secs(10));
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let handles: Vec<_> = mesh
            .iter()
            .map(|net| {
                let dist = &dist;
                let clock = Arc::clone(&clock) as Arc<dyn sbc::net::Clock>;
                scope.spawn(move || {
                    Run::potrf(dist, nt)
                        .block(B)
                        .seed(SEED)
                        .workers(2)
                        .deadline(deadline)
                        .clock(clock)
                        .execute_rank(net)
                        .expect_err("an all-drop run cannot succeed")
                })
            })
            .collect();
        let errors = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        errors
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a 180-virtual-second deadline must not take 180 real seconds"
    );
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ExecError::Stalled { .. })),
        "no rank reported Stalled: {errors:?}"
    );
}
