//! Planner acceptance: the automatic choice reproduces the paper's
//! headline selections (Table I, Figs 9-12), property-checked against the
//! default 2DBC shapes, with the plan cache hammered from 8 threads.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sbc_dist::table1;
use sbc_planner::{CostModel, DistChoice, Op, Plan, Planner, PlannerConfig};
use sbc_simgrid::Platform;

const NT: usize = 200; // n = 100 000 at the paper's b = 500
const B: usize = 500;

fn is_sbc_family(c: DistChoice) -> bool {
    matches!(
        c,
        DistChoice::SbcBasic { .. }
            | DistChoice::SbcExtended { .. }
            | DistChoice::TwoFiveDSbc { .. }
    )
}

/// Theorem 1 / Fig 9: at the paper's node counts the planner prefers SBC
/// for POTRF, and the matched extended SBC scores strictly better than
/// *every* 2DBC pair — including Table I's over-budget comparison grids.
#[test]
fn potrf_prefers_extended_sbc_over_every_2dbc_at_paper_node_counts() {
    for (p_nodes, r) in [(15, 6), (21, 7), (28, 8), (36, 9)] {
        let planner = Planner::new(Platform::bora(p_nodes));
        let plan = planner.plan(Op::Potrf, NT, B);
        assert!(
            is_sbc_family(plan.choice),
            "P={p_nodes}: planner chose {}",
            plan.choice.describe()
        );

        let model = CostModel::new(Platform::bora(p_nodes));
        let sbc = model.score(DistChoice::SbcExtended { r }, Op::Potrf, NT, B);
        // every enumerated 2DBC pair loses to the matched extended SBC
        for (choice, cost) in planner.scored_candidates(Op::Potrf, NT, B) {
            if let DistChoice::TwoDbc { .. } = choice {
                assert!(
                    sbc.total_seconds < cost.total_seconds,
                    "P={p_nodes}: SBC r={r} ({:.3}s) vs {} ({:.3}s)",
                    sbc.total_seconds,
                    choice.describe(),
                    cost.total_seconds
                );
            }
        }
        // ... and so do Table I's comparison grids, even those with MORE
        // nodes than the SBC configuration (the paper's headline claim),
        // each priced on a platform of its own node count.
        for (p, q, n) in table1::comparison_grids(p_nodes) {
            let model = CostModel::new(Platform::bora(n));
            let grid = model.score(DistChoice::TwoDbc { p, q }, Op::Potrf, NT, B);
            assert!(
                sbc.total_seconds < grid.total_seconds,
                "P={p_nodes}: SBC r={r} vs Table I grid {p}x{q}"
            );
        }
    }
}

/// Section V-F.2: TRTRI reverses the verdict — a 2DBC grid sends
/// `S (p + q - 2)` messages where SBC needs `S (2r - 2)`, so the planner
/// must pick 2DBC.
#[test]
fn trtri_selects_2dbc() {
    for p_nodes in [15, 21, 28, 36] {
        let planner = Planner::new(Platform::bora(p_nodes));
        let plan = planner.plan(Op::Trtri, NT, B);
        assert!(
            matches!(plan.choice, DistChoice::TwoDbc { .. }),
            "P={p_nodes}: planner chose {}",
            plan.choice.describe()
        );
    }
}

/// The analytic message ordering behind the two tests above, checked
/// directly on the counters: SBC sends fewer POTRF messages, more TRTRI
/// messages, than the matched grid.
#[test]
fn message_ordering_flips_between_potrf_and_trtri() {
    let sbc = DistChoice::SbcExtended { r: 8 };
    let grid = DistChoice::TwoDbc { p: 7, q: 4 };
    assert!(sbc.messages(Op::Potrf, NT) < grid.messages(Op::Potrf, NT));
    assert!(sbc.messages(Op::Trtri, NT) > grid.messages(Op::Trtri, NT));
}

/// Acceptance: the analytic plan, simulated, is at least as fast as every
/// hand-picked baseline at the paper's r=8 / P=28 / n=100 000 point.
#[test]
fn analytic_plan_simulates_no_slower_than_hand_picked_baselines_at_p28() {
    let planner = Planner::new(Platform::bora(28));
    let plan = planner.plan(Op::Potrf, NT, B);
    let planned = planner.simulate(plan.choice, Op::Potrf, NT, B).makespan;

    // The distributions a careful human would hand-pick for 28 nodes:
    // Table I's pairing (SBC r=8 vs 7x4) plus the squarest grid.
    for baseline in [
        DistChoice::SbcExtended { r: 8 },
        DistChoice::TwoDbc { p: 7, q: 4 },
        DistChoice::TwoDbc { p: 4, q: 7 },
    ] {
        let makespan = planner.simulate(baseline, Op::Potrf, NT, B).makespan;
        assert!(
            planned <= makespan * (1.0 + 1e-9),
            "plan {} ({planned:.3}s) slower than hand-picked {} ({makespan:.3}s)",
            plan.choice.describe(),
            baseline.describe()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random budgets and sizes the plan never scores worse than
    /// either default 2DBC shape (the squarest factorization of P, both
    /// orientations) — the planner can only improve on the default.
    #[test]
    fn plan_never_worse_than_default_grids(p_nodes in 4usize..=64, nt in 5usize..=40) {
        let b = 256;
        let planner = Planner::new(Platform::bora(p_nodes));
        let plan = planner.plan(Op::Potrf, nt, b);
        let model = CostModel::new(Platform::bora(p_nodes));
        let (p, q) = table1::best_grid(p_nodes);
        for grid in [DistChoice::TwoDbc { p, q }, DistChoice::TwoDbc { p: q, q: p }] {
            let score = model.score(grid, Op::Potrf, nt, b);
            prop_assert!(
                plan.cost.total_seconds <= score.total_seconds * (1.0 + 1e-12),
                "P={} nt={}: plan {} ({:.5}s) worse than default {} ({:.5}s)",
                p_nodes, nt, plan.choice.describe(), plan.cost.total_seconds,
                grid.describe(), score.total_seconds
            );
        }
    }
}

/// The cache-hit path must be at least 100x faster than the cold search
/// it memoizes (`perf/`'s `planner.plan_hit_ns` and `planner.plan_cold_s`
/// measure the real margin, ~1000x+ in release; this guards the invariant
/// in CI).
#[test]
fn cache_hit_at_least_100x_faster_than_cold_search() {
    let planner = Planner::new(Platform::bora(28));
    let (nt, b) = (40, 500);
    planner.plan(Op::Potrf, nt, b); // warm

    let hits = 2000u32;
    let start = std::time::Instant::now();
    for _ in 0..hits {
        assert!(planner.plan(Op::Potrf, nt, b).cached);
    }
    let hit = start.elapsed() / hits;

    let colds = 3u32;
    let start = std::time::Instant::now();
    for _ in 0..colds {
        planner.plan_uncached(Op::Potrf, nt, b);
    }
    let cold = start.elapsed() / colds;

    assert!(
        cold >= hit * 100,
        "cache hit {hit:?} not 100x faster than cold search {cold:?}"
    );
}

/// 8 threads ask for the same cold shape and its graph at once: the shape
/// is planned once and its graph built once, and every thread shares it.
#[test]
fn a_cold_shape_is_planned_and_built_once_under_8_threads() {
    const THREADS: usize = 8;
    let planner = Planner::new(Platform::bora(6));
    let start = std::sync::Barrier::new(THREADS);
    let graphs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    planner.plan_with_graph(Op::Potrf, 16, 8).1
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(planner.cache_misses(), 1);
    assert_eq!(planner.cache_hits(), THREADS as u64 - 1);
    assert!(graphs.iter().all(|g| std::sync::Arc::ptr_eq(g, &graphs[0])));
}

/// 8 threads hammer one planner over a working set larger than the cache:
/// every thread must observe the identical plan for a given key, and the
/// cache must never exceed its configured capacity.
#[test]
fn cache_survives_8_thread_hammering() {
    const THREADS: usize = 8;
    const CAPACITY: usize = 16;
    const SHAPES: usize = 40; // > CAPACITY: forces eviction under load
    const ROUNDS: usize = 30;

    let planner = Planner::with_config(
        Platform::bora(12),
        PlannerConfig {
            cache_capacity: CAPACITY,
        },
    );
    let hits = AtomicUsize::new(0);

    // Reference answers, computed single-threaded without the cache.
    let reference: Vec<Plan> = (0..SHAPES)
        .map(|i| planner.plan_uncached(Op::Potrf, 5 + i, 64))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let planner = &planner;
            let reference = &reference;
            let hits = &hits;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..SHAPES {
                        // stagger each thread's walk so inserts and
                        // evictions interleave with hits
                        let i = (i + t * 5) % SHAPES;
                        let plan = planner.plan(Op::Potrf, 5 + i, 64);
                        assert_eq!(plan.choice, reference[i].choice, "shape {i}");
                        assert_eq!(plan.cost.messages, reference[i].cost.messages);
                        if plan.cached {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        assert!(
                            planner.cache().len() <= CAPACITY,
                            "round {round}: cache grew past capacity"
                        );
                    }
                }
            });
        }
    });

    assert!(planner.cache().len() <= CAPACITY);
    assert!(planner.cache().capacity() == CAPACITY);
    assert!(
        hits.load(Ordering::Relaxed) > 0,
        "working set never hit the cache"
    );
}
