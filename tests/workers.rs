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
