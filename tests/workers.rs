//! Worker-pool invariants: adding workers per node must change *nothing*
//! observable except wall-clock time. For any distribution and matrix
//! size, the factor stays bit-identical to the sequential ground truth and
//! the full [`sbc::runtime::CommStats`] — messages, bytes, per-node splits
//! — is identical at every worker count, equal to the analytic counters.

use proptest::prelude::*;
use sbc::dist::{comm, Distribution, SbcBasic, SbcExtended, TwoDBlockCyclic};
use sbc::runtime::{CommStats, Run};
use sbc::topo::{CriticalPath, Scheduler, SubmissionOrder};
use std::sync::Arc;

/// A debuggable descriptor of a small distribution of varied family.
#[derive(Debug, Clone)]
enum DistSpec {
    Bc(usize, usize),
    Basic(usize),
    Ext(usize),
}

impl DistSpec {
    fn build(&self) -> Box<dyn Distribution> {
        match *self {
            DistSpec::Bc(p, q) => Box::new(TwoDBlockCyclic::new(p, q)),
            DistSpec::Basic(r) => Box::new(SbcBasic::new(r)),
            DistSpec::Ext(r) => Box::new(SbcExtended::new(r)),
        }
    }
}

fn arb_dist() -> impl Strategy<Value = DistSpec> {
    prop_oneof![
        (1usize..4, 1usize..4).prop_map(|(p, q)| DistSpec::Bc(p, q)),
        (2usize..4).prop_map(|h| DistSpec::Basic(2 * h)),
        (3usize..7).prop_map(DistSpec::Ext),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: scheduling is invisible. Factors are
    /// bit-identical to the sequential algorithm and traffic is identical
    /// across worker counts and equal to the analytic model.
    #[test]
    fn results_and_traffic_are_worker_count_invariant(
        spec in arb_dist(),
        seed in any::<u64>(),
        nt in 2usize..9,
    ) {
        let d = spec.build();
        let b = 4;
        let mut seq = sbc::matrix::random_spd(seed, nt, b);
        sbc::matrix::potrf_tiled(&mut seq).unwrap();

        let mut base: Option<CommStats> = None;
        for workers in [1usize, 2, 4] {
            let out = Run::potrf(&d.as_ref(), nt)
                .block(b)
                .seed(seed)
                .workers(workers)
                .execute()
                .unwrap();
            for (i, j) in seq.tile_coords() {
                prop_assert!(
                    out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)) == 0.0,
                    "{} workers={workers} tile ({i},{j})",
                    d.name()
                );
            }
            prop_assert_eq!(
                out.stats.messages,
                comm::potrf_messages(&d.as_ref(), nt),
                "{} workers={}",
                d.name(),
                workers
            );
            match &base {
                None => base = Some(out.stats),
                Some(first) => prop_assert_eq!(
                    first,
                    &out.stats,
                    "{} workers={} changed CommStats",
                    d.name(),
                    workers
                ),
            }
        }
    }

    /// Both ready orders produce the same bits and the same traffic
    /// (the ready-heap order only permutes independent tasks).
    #[test]
    fn policy_is_invisible_too(seed in any::<u64>(), r in 3usize..6, nt in 2usize..8) {
        let d = SbcExtended::new(r);
        let b = 4;
        let run = |s: Arc<dyn Scheduler + Send + Sync>| {
            Run::potrf(&d, nt)
                .block(b)
                .seed(seed)
                .workers(2)
                .scheduler(s)
                .execute()
                .unwrap()
        };
        let cp = run(Arc::new(CriticalPath));
        let sub = run(Arc::new(SubmissionOrder));
        prop_assert_eq!(&cp.stats, &sub.stats);
        for (i, j) in cp.factor().tile_coords() {
            prop_assert!(
                cp.factor().tile(i, j).max_abs_diff(sub.factor().tile(i, j)) == 0.0
            );
        }
    }
}

/// No lost wake-up. The engine signals its condvar only when a worker is
/// parked on it, so a signal skipped at the wrong moment leaves a worker
/// asleep next to a ready task — with several workers per rank that is a
/// run that never ends, not a wrong answer. Many short runs at worker counts
/// above the host's cores, every one held to the sequential factor and the
/// analytic traffic, under a deadline because the failure is a hang.
#[test]
fn multi_worker_runs_lose_no_wake_up() {
    let (nt, b, seed) = (24, 4, 11);
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let d = SbcExtended::new(4);
        let mut seq = sbc::matrix::random_spd(seed, nt, b);
        sbc::matrix::potrf_tiled(&mut seq).unwrap();
        let messages = comm::potrf_messages(&d, nt);
        for workers in [3, 4] {
            for rep in 0..200 {
                let run = Run::potrf(&d, nt).block(b).seed(seed).workers(workers);
                let out = run.execute().unwrap();
                for (i, j) in seq.tile_coords() {
                    assert_eq!(
                        out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
                        0.0,
                        "workers={workers} rep={rep} tile ({i},{j})"
                    );
                }
                assert_eq!(out.stats.messages, messages, "workers={workers} rep={rep}");
                assert_eq!(out.stats.bytes, comm::messages_to_bytes(messages, b));
                assert_eq!(out.stats.recv_per_node.iter().sum::<u64>(), messages);
            }
        }
        tx.send(()).expect("the test is still waiting");
    });
    let verdict = rx.recv_timeout(std::time::Duration::from_secs(60));
    assert_ne!(
        verdict,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "400 multi-worker runs neither finished nor failed: a worker sleeps on"
    );
    runner.join().expect("a run failed; its assertion is above");
}

/// No lost wake-up on a socket mesh. Every rank of a 6-rank UDS mesh runs
/// `execute_rank` on a thread of its own, on a pool of `workers` lanes,
/// behind a reliability session. Nothing blocks in an inbox, so a rank runs
/// only when a socket reader's push, the table or one of its timers marks
/// it runnable. One payload of every run is dropped, so only the pool's
/// timer — the session's `next_timer` — can fire its retransmission while
/// the sender still runs: a mark or a timer lost is a run that never ends.
/// Every run is held to the sequential factor and the analytic traffic,
/// under a deadline.
#[test]
fn socket_runs_lose_no_wake_up() {
    use sbc::net::{local_mesh, Backend, FaultConfig, Faulty, Session, SessionConfig};
    use std::time::Duration;

    const REPS: usize = 200;
    let (nt, b, seed) = (12, 4, 11);
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let d = SbcExtended::new(4); // 6 ranks
        let g = Arc::new(sbc::taskgraph::build_potrf(&d, nt));
        let mut seq = sbc::matrix::random_spd(seed, nt, b);
        sbc::matrix::potrf_tiled(&mut seq).unwrap();
        let messages = comm::potrf_messages(&d, nt);
        let fast = SessionConfig {
            rto: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            tick: Duration::from_millis(1),
            ..Default::default()
        };
        for workers in [1, 2] {
            for rep in 0..REPS {
                let context = format!("workers={workers} rep={rep}");
                // one rank, a different one each run, loses one payload
                let lossy = FaultConfig {
                    drop_every: 3,
                    max_drops: 1,
                    phase: rep as u64,
                    ..Default::default()
                };
                let mesh = local_mesh(Backend::Uds, 6).expect("uds mesh");
                let mesh = mesh.into_iter().enumerate().map(|(r, t)| {
                    let plan = if r == rep % 6 {
                        lossy
                    } else {
                        FaultConfig::default()
                    };
                    Session::with_config(Faulty::new(t, plan), fast)
                });
                let run = Run::graph(Arc::clone(&g))
                    .block(b)
                    .seed(seed)
                    .workers(workers);
                let run = &run;
                // each thread owns its session: a finished rank's drops it,
                // and a tail payload still unacked is retransmitted there
                let ranks: Vec<_> = std::thread::scope(|scope| {
                    let ranks: Vec<_> = mesh
                        .map(|net| {
                            scope.spawn(move || (run.execute_rank(&net), net.inner().dropped()))
                        })
                        .collect();
                    ranks
                        .into_iter()
                        .map(|h| h.join().expect("rank thread panicked"))
                        .collect()
                });
                let mut gathered = None;
                let mut dropped = 0;
                for (rank, (out, lost)) in ranks.into_iter().enumerate() {
                    dropped += lost;
                    let out = out.unwrap_or_else(|e| panic!("{context}: rank {rank} failed: {e}"));
                    gathered = gathered.or(out);
                }
                assert_eq!(dropped, 1, "{context}: one payload dropped");
                let out = gathered.expect("rank 0 gathered the factor");
                for (i, j) in seq.tile_coords() {
                    assert_eq!(
                        out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
                        0.0,
                        "{context} tile ({i},{j})"
                    );
                }
                assert_eq!(out.stats.messages, messages, "{context}");
                assert_eq!(out.stats.bytes, comm::messages_to_bytes(messages, b));
                assert_eq!(out.stats.recv_per_node.iter().sum::<u64>(), messages);
            }
        }
        tx.send(()).expect("the test is still waiting");
    });
    let verdict = rx.recv_timeout(Duration::from_secs(60));
    assert_ne!(
        verdict,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "socket runs neither finished nor failed: a rank was left idle with work"
    );
    runner.join().expect("a run failed; its assertion is above");
}
