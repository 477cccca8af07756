//! Simulator-level integration tests: the performance-shaped claims of
//! Section V, checked on the modelled `bora` platform.

use sbc::dist::{Distribution, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc::simgrid::{Platform, ScheduleMode, SimConfig, Simulator};
use sbc::taskgraph::{build_posv, build_potrf, build_potrf_25d};

fn run_async<D: Distribution>(
    dist: &D,
    nt: usize,
    b: usize,
    nodes: usize,
) -> sbc::simgrid::SimReport {
    let g = build_potrf(dist, nt);
    let p = Platform::bora(nodes);
    Simulator::new(&g, &p, SimConfig::chameleon(b)).run()
}

/// Fig 9/10's headline: in the intermediate-size band, SBC beats both 2DBC
/// grids on simulated GFlop/s per node.
#[test]
fn sbc_beats_2dbc_in_mid_band() {
    let b = 500;
    let nt = 100; // n = 50 000
    let sbc = run_async(&SbcExtended::new(8), nt, b, 28);
    let bc74 = run_async(&TwoDBlockCyclic::new(7, 4), nt, b, 28);
    let flops = sbc::kernels::flops_cholesky_total(nt * b);
    let g_sbc = sbc.gflops_per_node(Some(flops));
    let g_bc = bc74.gflops_per_node(Some(flops));
    assert!(
        g_sbc > g_bc * 1.03,
        "SBC {g_sbc:.0} GF/node vs 2DBC {g_bc:.0}"
    );
}

/// At very large n the curves converge (computation dominates) — the gap
/// shrinks below the mid-band gap.
#[test]
fn gap_narrows_at_large_n() {
    let b = 500;
    let flops = |nt: usize| sbc::kernels::flops_cholesky_total(nt * b);
    let gap = |nt: usize| {
        let s = run_async(&SbcExtended::new(8), nt, b, 28).gflops_per_node(Some(flops(nt)));
        let d = run_async(&TwoDBlockCyclic::new(7, 4), nt, b, 28).gflops_per_node(Some(flops(nt)));
        s / d
    };
    let mid = gap(100);
    let large = gap(200);
    assert!(
        mid > large,
        "mid gap {mid:.3} should exceed large-n gap {large:.3}"
    );
    assert!(large < 1.06);
}

/// The bulk-synchronous (COnfCHOX-like) schedule is slower than the
/// asynchronous task-based one at equal distribution — the paper's
/// explanation for Chameleon outperforming COnfCHOX (Section V-E).
#[test]
fn async_beats_bulk_synchronous() {
    let b = 500;
    let nt = 64;
    let dist = TwoDBlockCyclic::new(4, 4);
    let g = build_potrf(&dist, nt);
    let p = Platform::bora(16);
    let a = Simulator::new(&g, &p, SimConfig::chameleon(b)).run();
    let s = Simulator::new(
        &g,
        &p,
        SimConfig {
            tile_b: b,
            mode: ScheduleMode::BulkSynchronous,
            priority_comms: false,
        },
    )
    .run();
    assert!(
        s.makespan > a.makespan * 1.1,
        "sync {:.2}s vs async {:.2}s",
        s.makespan,
        a.makespan
    );
}

/// 2.5D SBC improves on 2D SBC in the communication-bound band
/// (Section V-E: "the 2.5D SBC distribution yields even better performance
/// than all other schemes").
#[test]
fn two_five_d_sbc_helps_in_comm_bound_band() {
    let b = 500;
    let nt = 96;
    let flops = sbc::kernels::flops_cholesky_total(nt * b);
    // 24 nodes: 2D basic SBC r=4 replicated over c=3 slices of 8
    let d2 = SbcBasic::new(4);
    let d25 = TwoPointFiveD::new(d2.clone(), 3);
    let g2 = build_potrf(&d2, nt);
    let g25 = build_potrf_25d(&d25, nt);
    let p8 = Platform::bora(8);
    let p24 = Platform::bora(24);
    let r2 = Simulator::new(&g2, &p8, SimConfig::chameleon(b)).run();
    let r25 = Simulator::new(&g25, &p24, SimConfig::chameleon(b)).run();
    // per-node throughput: the 2.5D run must actually use its 3x nodes to
    // good effect: total time strictly better
    assert!(r25.makespan < r2.makespan);
    let _ = flops;
}

/// Strong scaling (Fig 11): at fixed n, SBC's makespan improves with more
/// nodes, and SBC at P=36 at least matches 2DBC at P=36 throughput-wise.
#[test]
fn strong_scaling_fig11_shape() {
    let b = 500;
    let nt = 120;
    let m15 = run_async(&SbcExtended::new(6), nt, b, 15).makespan;
    let m28 = run_async(&SbcExtended::new(8), nt, b, 28).makespan;
    let m36 = run_async(&SbcExtended::new(9), nt, b, 36).makespan;
    assert!(m28 < m15, "P=28 {m28:.2}s vs P=15 {m15:.2}s");
    assert!(m36 < m15, "P=36 {m36:.2}s vs P=15 {m15:.2}s");

    let d36 = run_async(&TwoDBlockCyclic::new(6, 6), nt, b, 36).makespan;
    assert!(m36 < d36 * 1.05, "SBC P=36 {m36:.2}s vs 2DBC 6x6 {d36:.2}s");
}

/// POSV keeps an SBC advantage, but a smaller one than POTRF (Fig 13).
#[test]
fn posv_advantage_smaller_than_potrf() {
    let b = 500;
    let nt = 100;
    let sbc = SbcExtended::new(8);
    let bc = TwoDBlockCyclic::new(7, 4);
    let rhs = sbc::dist::RowCyclic::new(28);
    let p = Platform::bora(28);

    let potrf_gain = {
        let gs = build_potrf(&sbc, nt);
        let gd = build_potrf(&bc, nt);
        let ms = Simulator::new(&gs, &p, SimConfig::chameleon(b))
            .run()
            .makespan;
        let md = Simulator::new(&gd, &p, SimConfig::chameleon(b))
            .run()
            .makespan;
        md / ms
    };
    let posv_gain = {
        let gs = build_posv(&sbc, &rhs, nt);
        let gd = build_posv(&bc, &rhs, nt);
        let ms = Simulator::new(&gs, &p, SimConfig::chameleon(b))
            .run()
            .makespan;
        let md = Simulator::new(&gd, &p, SimConfig::chameleon(b))
            .run()
            .makespan;
        md / ms
    };
    assert!(potrf_gain > 1.0, "potrf gain {potrf_gain:.3}");
    // POSV adds distribution-independent work, diluting the gain
    assert!(
        posv_gain < potrf_gain + 0.02,
        "posv gain {posv_gain:.3} vs potrf gain {potrf_gain:.3}"
    );
}

/// Single-node Fig 7 shape: throughput rises with tile size and saturates
/// around b = 500.
#[test]
fn fig7_tile_size_shape() {
    let n = 24000;
    let d = TwoDBlockCyclic::new(1, 1);
    let p = Platform::bora(1);
    let mut perf = Vec::new();
    for b in [100, 200, 300, 500, 750, 1000] {
        let nt = n / b;
        let g = build_potrf(&d, nt);
        let r = Simulator::new(&g, &p, SimConfig::chameleon(b)).run();
        perf.push(r.gflops_per_node(Some(sbc::kernels::flops_cholesky_total(nt * b))));
    }
    // rising through 500
    assert!(perf[1] > perf[0]);
    assert!(perf[2] > perf[1]);
    assert!(perf[3] > perf[2]);
    // "almost maximum performance is reached as soon as tile size is at
    // least 500": b=500 within a few % of the curve's maximum
    let max = perf.iter().cloned().fold(0.0f64, f64::max);
    assert!(perf[3] > 0.97 * max, "{perf:?}");
    // mild decline at b=1000 (load-balance loss from too few tiles)
    assert!(perf[5] < perf[4], "{perf:?}");
}
