//! End-to-end integration: the three independent implementations of the
//! paper's communication model (analytic counting, graph derivation,
//! threaded execution) and the two execution engines (simulator, runtime)
//! must agree with the sequential ground truth and with each other.

use sbc::dist::comm;
use sbc::dist::{Distribution, RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc::matrix::{
    cholesky_residual, inverse_residual, lauum_tiled, potrf_tiled, random_panel, random_spd,
    solve_residual, trtri_tiled,
};
use sbc::runtime::Run;
use sbc::simgrid::{Platform, SimConfig, Simulator};
use sbc::taskgraph::{build_potrf, build_potrf_25d, Workload};

const B: usize = 8;
const SEED: u64 = 0xC0FFEE;

/// Every distribution exercised at once: numerics, analytic counts, graph
/// counts, runtime-measured counts and simulator-measured counts all line
/// up for POTRF.
#[test]
fn potrf_five_way_agreement() {
    let nt = 18;
    let dists: Vec<Box<dyn Distribution>> = vec![
        Box::new(TwoDBlockCyclic::new(1, 1)),
        Box::new(TwoDBlockCyclic::new(3, 2)),
        Box::new(TwoDBlockCyclic::new(4, 4)),
        Box::new(SbcBasic::new(4)),
        Box::new(SbcBasic::new(6)),
        Box::new(SbcExtended::new(4)),
        Box::new(SbcExtended::new(5)),
        Box::new(SbcExtended::new(6)),
        Box::new(SbcExtended::new(7)),
    ];
    let a0 = random_spd(SEED, nt, B);
    let mut seq = a0.clone();
    potrf_tiled(&mut seq).unwrap();

    for d in &dists {
        let analytic = comm::potrf_messages(&d.as_ref(), nt);
        let graph = build_potrf(&d.as_ref(), nt);
        assert_eq!(graph.count_messages(), analytic, "{} graph", d.name());

        let out = Run::potrf(&d.as_ref(), nt)
            .block(B)
            .seed(SEED)
            .execute()
            .unwrap();
        assert_eq!(out.stats.messages, analytic, "{} runtime", d.name());
        for (i, j) in seq.tile_coords() {
            assert!(
                out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)) == 0.0,
                "{} tile ({i},{j})",
                d.name()
            );
        }
        assert!(cholesky_residual(&a0, out.factor()) < 1e-12);

        let platform = Platform::bora(d.num_nodes());
        let sim = Simulator::new(&graph, &platform, SimConfig::chameleon(B)).run();
        assert_eq!(sim.messages, analytic, "{} simulator", d.name());
        assert_eq!(sim.tasks_executed as usize, graph.len());
    }
}

#[test]
fn posv_end_to_end() {
    let nt = 15;
    let dist = SbcExtended::new(6);
    let rhs_dist = RowCyclic::new(dist.num_nodes());
    let out = Run::posv(&dist, &rhs_dist, nt)
        .block(B)
        .seed(SEED)
        .execute()
        .unwrap();
    let a0 = random_spd(SEED, nt, B);
    let rhs = random_panel(SEED ^ 0x05EE_D0FB, nt, B);
    assert!(solve_residual(&a0, out.solution(), &rhs) < 1e-10);
    // the run sends exactly what the merged task stream counts, more than
    // the factorization alone
    let exact = Workload::Posv(&dist, &rhs_dist).traffic(nt).total();
    assert_eq!(out.stats.messages, exact);
    assert!(out.stats.messages > comm::potrf_messages(&dist, nt));
}

#[test]
fn potrf_25d_end_to_end() {
    for (r, c) in [(4, 2), (4, 3), (6, 2)] {
        let d25 = TwoPointFiveD::new(SbcBasic::new(r), c);
        let nt = 14;
        let out = Run::potrf_25d(&d25, nt)
            .block(B)
            .seed(SEED)
            .execute()
            .unwrap();
        let a0 = random_spd(SEED, nt, B);
        assert!(cholesky_residual(&a0, out.factor()) < 1e-12, "r={r} c={c}");
        let analytic = comm::potrf_25d_messages(&d25, nt);
        assert_eq!(out.stats.messages, analytic.total(), "r={r} c={c}");

        let graph = build_potrf_25d(&d25, nt);
        let platform = Platform::bora(d25.num_nodes());
        let sim = Simulator::new(&graph, &platform, SimConfig::chameleon(B)).run();
        assert_eq!(sim.messages, analytic.total());
    }
}

#[test]
fn potri_and_remap_end_to_end() {
    let nt = 10;
    let sym = SbcExtended::new(5);
    let bc = TwoDBlockCyclic::new(5, 2);

    let a0 = random_spd(SEED, nt, B);
    let plain = Run::potri(&sym, nt).block(B).seed(SEED).execute().unwrap();
    let remap = Run::potri_remap(&sym, &bc, nt)
        .block(B)
        .seed(SEED)
        .execute()
        .unwrap();
    assert!(inverse_residual(&a0, plain.factor()) < 1e-9);
    assert!(inverse_residual(&a0, remap.factor()) < 1e-9);
    // identical kernel sequences per tile => identical results
    for (i, j) in plain.factor().tile_coords() {
        assert!(
            plain
                .factor()
                .tile(i, j)
                .max_abs_diff(remap.factor().tile(i, j))
                == 0.0
        );
    }
}

#[test]
fn trtri_lauum_sequential_agreement() {
    let nt = 12;
    let dist = SbcExtended::new(5);
    // TRTRI on the lower triangle of the generated matrix
    let w = Run::trtri(&dist, nt).block(B).seed(SEED).execute().unwrap();
    let mut seq = random_spd(SEED, nt, B);
    trtri_tiled(&mut seq).unwrap();
    for (i, j) in seq.tile_coords() {
        assert!(w.factor().tile(i, j).max_abs_diff(seq.tile(i, j)) == 0.0);
    }
    assert_eq!(w.stats.messages, comm::trtri_messages(&dist, nt));

    let l = Run::lauum(&dist, nt).block(B).seed(SEED).execute().unwrap();
    let mut seq2 = random_spd(SEED, nt, B);
    lauum_tiled(&mut seq2);
    for (i, j) in seq2.tile_coords() {
        assert!(l.factor().tile(i, j).max_abs_diff(seq2.tile(i, j)) == 0.0);
    }
    assert_eq!(l.stats.messages, comm::lauum_messages(&dist, nt));
}

/// Changing the tile size at fixed n changes blocking but not the math.
#[test]
fn tile_size_invariance_distributed() {
    let dist = SbcExtended::new(4);
    let n = 48;
    for (nt, b) in [(6, 8), (12, 4), (24, 2)] {
        assert_eq!(nt * b, n);
        let out = Run::potrf(&dist, nt).block(b).seed(SEED).execute().unwrap();
        let a0 = random_spd(SEED, nt, b);
        assert!(
            cholesky_residual(&a0, out.factor()) < 1e-12,
            "nt={nt} b={b}"
        );
    }
}
