//! The paper's quantitative claims, checked against this implementation.

use sbc::dist::comm::{
    self, matrix_tiles, optimal_c_bc, optimal_c_sbc, potrf_25d_messages, potrf_messages,
    theorem1_basic, theorem1_extended, trtri_messages,
};
use sbc::dist::table1::{best_grid, table1};
use sbc::dist::{SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc::taskgraph::Workload;

/// Theorem 1: with the SBC distribution each tile is communicated to
/// `r - 1` (basic) / `r - 2` (extended) nodes; the total volume converges
/// to `S (r - 1)` / `S (r - 2)` from below as N grows.
#[test]
fn theorem_1() {
    for r in [4, 6, 8] {
        let basic = SbcBasic::new(r);
        let ext = SbcExtended::new(r);
        let mut prev_ratio_basic = 0.0;
        let mut prev_ratio_ext = 0.0;
        for mult in [4, 8, 16] {
            let nt = r * mult;
            let eb = potrf_messages(&basic, nt);
            let ee = potrf_messages(&ext, nt);
            assert!(eb <= theorem1_basic(nt, r));
            assert!(ee <= theorem1_extended(nt, r));
            let rb = eb as f64 / theorem1_basic(nt, r) as f64;
            let re = ee as f64 / theorem1_extended(nt, r) as f64;
            assert!(rb > prev_ratio_basic, "basic not converging r={r}");
            assert!(re > prev_ratio_ext, "extended not converging r={r}");
            prev_ratio_basic = rb;
            prev_ratio_ext = re;
        }
        assert!(prev_ratio_basic > 0.9, "r={r}: {prev_ratio_basic}");
        assert!(prev_ratio_ext > 0.9, "r={r}: {prev_ratio_ext}");
    }
}

/// Section III-D: at equal node counts, SBC's POTRF volume is ~sqrt(2)
/// lower than square 2DBC's (asymptotically in P).
#[test]
fn sqrt2_improvement_over_square_2dbc() {
    // large-P closed-form ratio
    for r in [20usize, 40, 80] {
        let p = r * (r - 1) / 2;
        let side = (p as f64).sqrt();
        let ratio = (2.0 * side - 2.0) / (r as f64 - 2.0);
        assert!(
            (ratio - std::f64::consts::SQRT_2).abs() < 0.08,
            "r={r}: {ratio}"
        );
    }
    // exact counts at the paper's experimental scale (r = 7, P = 21 vs 21)
    let nt = 70;
    let sbc = SbcExtended::new(7);
    let dbc = TwoDBlockCyclic::new(7, 3);
    let gain = potrf_messages(&dbc, nt) as f64 / potrf_messages(&sbc, nt) as f64;
    assert!(gain > 1.3, "measured gain {gain}");
}

/// Fig 8's regime: SBC (P=21) moves less data than both 2DBC grids
/// (P=20 and P=21), for every matrix size.
#[test]
fn fig8_volume_ordering() {
    let sbc = SbcExtended::new(7);
    let bc54 = TwoDBlockCyclic::new(5, 4);
    let bc73 = TwoDBlockCyclic::new(7, 3);
    for nt in [10, 25, 50, 100] {
        let s = potrf_messages(&sbc, nt);
        assert!(s < potrf_messages(&bc54, nt), "nt={nt}");
        assert!(s < potrf_messages(&bc73, nt), "nt={nt}");
    }
}

/// Section IV-A: the 2.5D SBC volume splits into broadcasts ~S(r-1) and
/// reductions ~S(c-1); one slice degenerates to the 2D case.
#[test]
fn two_five_d_volume_split() {
    let r = 4;
    for c in [1, 2, 3, 4] {
        let d25 = TwoPointFiveD::new(SbcBasic::new(r), c);
        let nt = 12 * r;
        let m = potrf_25d_messages(&d25, nt);
        if c == 1 {
            assert_eq!(m.reductions, 0);
        } else {
            let closed = matrix_tiles(nt) * (c as u64 - 1);
            assert!(m.reductions <= closed);
            assert!(m.reductions as f64 / closed as f64 > 0.9);
        }
        assert!(m.broadcasts <= theorem1_basic(nt, r));
    }
}

/// Section IV-B: optimal slice counts; SBC's optimum uses less memory.
#[test]
fn optimal_slice_counts() {
    // P = 4 r^3 / ... for SBC r = 2c: P = r^2 c / 2 = 2c^3.
    for c in [2usize, 3, 4] {
        let p = 2 * c * c * c;
        assert_eq!(optimal_c_sbc(p), c, "P={p}");
    }
    for c in [2usize, 3, 5] {
        let p = c * c * c;
        assert_eq!(optimal_c_bc(p), c);
    }
    // cbrt(2) total-volume gain at the optimum (closed form)
    let p = 1024.0_f64;
    let sbc_opt = 3.0 * (0.5_f64).cbrt() * p.cbrt();
    let bc_opt = 3.0 * p.cbrt();
    assert!((bc_opt / sbc_opt - 2.0_f64.cbrt()).abs() < 1e-12);
}

/// Section V-F.2: TRTRI favours 2DBC; the remap strategy's volume sits
/// between all-SBC and all-2DBC... specifically the paper's leading terms.
#[test]
fn potri_orderings() {
    let sbc = SbcExtended::new(8); // P = 28
    let bc = TwoDBlockCyclic::new(7, 4); // P = 28
    let nt = 64;
    // TRTRI alone: 2DBC wins
    assert!(trtri_messages(&bc, nt) < trtri_messages(&sbc, nt));
    // full POTRI, exact counts of the merged graphs: remap beats all-2DBC
    // (paper: ratio 27/23 at leading order)
    let all_bc = Workload::Potri(&bc).traffic(nt).total();
    let remap = Workload::PotriRemap(&sbc, &bc).traffic(nt).total();
    assert!(remap < all_bc, "remap {remap} vs all-2DBC {all_bc}");
    // and also beats naive all-SBC POTRI
    let all_sbc = Workload::Potri(&sbc).traffic(nt).total();
    assert!(remap < all_sbc, "remap {remap} vs all-SBC {all_sbc}");
}

/// Table I is regenerated exactly.
#[test]
fn table_1_contents() {
    let t = table1();
    let rows: Vec<(usize, usize)> = t.iter().map(|r| (r.r, r.p_sbc)).collect();
    assert_eq!(rows, vec![(6, 15), (7, 21), (8, 28), (9, 36)]);
    assert_eq!(best_grid(28), (7, 4));
}

/// Section III-E: arithmetic-intensity ladder. SBC restores for Cholesky
/// the (2/3) sqrt(M) intensity that 2DBC only reaches for LU.
#[test]
fn arithmetic_intensity_ladder() {
    let m = 4096.0;
    let sbc = comm::intensity_cholesky_sbc(m);
    let dbc = comm::intensity_cholesky_2dbc(m);
    assert!((sbc / dbc - std::f64::consts::SQRT_2).abs() < 1e-12);
    assert!((sbc - (2.0 / 3.0) * m.sqrt()).abs() < 1e-12);
}

/// Load balance: SBC matches 2DBC's tile balance (the property that made
/// 2DBC the default in the first place).
#[test]
fn sbc_load_balance_matches_2dbc() {
    use sbc::dist::balance::tile_balance;
    for r in [6, 7, 8, 9] {
        let sbc = SbcExtended::new(r);
        let npat = sbc.diagonal_patterns().len();
        let nt = r * npat * 2;
        let s = tile_balance(&sbc, nt);
        assert!(s.imbalance() < 1.1, "r={r}: {}", s.imbalance());
    }
}
