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

/// The same loop through the threaded driver, which `Run::execute` no longer
/// reaches: every rank of an in-process mesh on `workers` threads of its own
/// (`run_jobs_rank`), one receiver blocked in the inbox and the others parked
/// on the driver's condvar. A wake-up lost there is a run that never ends.
#[test]
fn threaded_runs_lose_no_wake_up() {
    use sbc::net::inproc_mesh;
    use sbc::runtime::{gather, run_jobs_rank, JobEngineConfig, JobTable, RunResult};

    let (nt, b, seed) = (24, 4, 11);
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let d = SbcExtended::new(4);
        let graph = Arc::new(sbc::taskgraph::build_potrf(&d, nt));
        let n = graph.num_nodes();
        let mut seq = sbc::matrix::random_spd(seed, nt, b);
        sbc::matrix::potrf_tiled(&mut seq).unwrap();
        let messages = comm::potrf_messages(&d, nt);
        for workers in [3, 4] {
            let cfg = JobEngineConfig {
                workers,
                ..Default::default()
            };
            for rep in 0..200 {
                let table = JobTable::new(n, 1);
                let id = table.submit(Arc::clone(&graph), b, seed, seed, 0).unwrap();
                table.shutdown();
                std::thread::scope(|scope| {
                    for net in inproc_mesh(n) {
                        let table = &table;
                        scope.spawn(move || run_jobs_rank(&net, table, cfg).unwrap());
                    }
                });
                let out = table.wait(id).unwrap();
                let RunResult::Factor(factor) = gather(out.graph(), &out.tiles, b).unwrap() else {
                    panic!("a POTRF gathered no factor");
                };
                for (i, j) in seq.tile_coords() {
                    assert_eq!(
                        factor.tile(i, j).max_abs_diff(seq.tile(i, j)),
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
        "400 threaded multi-worker runs neither finished nor failed: a worker sleeps on"
    );
    runner.join().expect("a run failed; its assertion is above");
}
