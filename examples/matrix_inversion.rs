//! Domain scenario: explicit inversion of an SPD matrix (POTRI) — needed
//! e.g. for dense covariance-matrix inversion in statistics or variance
//! estimation in least squares (Section V-F.2 of the paper).
//!
//! Demonstrates the paper's mixed strategy: POTRF and LAUUM run under SBC
//! (symmetric access pattern → fewer communications), while the TRTRI step
//! — whose accesses are *not* symmetric — runs under 2D block-cyclic, with
//! asynchronous data redistributions in between ("SBC remap 2DBC").
//!
//! Run with: `cargo run --release --example matrix_inversion`

use sbc::dist::comm::{lauum_messages, potrf_messages, trtri_messages};
use sbc::dist::{Distribution, SbcExtended, TwoDBlockCyclic};
use sbc::matrix::{inverse_residual, random_spd};
use sbc::planner::{DistChoice, Op};
use sbc::runtime::Run;

fn main() {
    let nt = 16;
    let b = 16;
    let seed = 99;

    // Fig 14's setup scaled down: SBC r = 8 needs P = 28; use r = 6 / 5x3.
    let sym = SbcExtended::new(6);
    let bc = TwoDBlockCyclic::new(5, 3);
    println!(
        "inverting an SPD matrix of {} x {} tiles on P = {}",
        nt,
        nt,
        sym.num_nodes()
    );

    // Strategy 1: everything under 2DBC.
    let out_bc = Run::potri(&bc, nt).block(b).seed(seed).execute().unwrap();
    // Strategy 2: the paper's SBC-remap-2DBC workflow.
    let out_remap = Run::potri_remap(&sym, &bc, nt)
        .block(b)
        .seed(seed)
        .execute()
        .unwrap();
    let (inv_bc, stats_bc) = (out_bc.factor(), &out_bc.stats);
    let (inv_remap, stats_remap) = (out_remap.factor(), &out_remap.stats);

    let a0 = random_spd(seed, nt, b);
    let r1 = inverse_residual(&a0, inv_bc);
    let r2 = inverse_residual(&a0, inv_remap);
    println!("residual all-2DBC   : {r1:.2e}");
    println!("residual SBC-remap  : {r2:.2e}");
    assert!(r1 < 1e-9 && r2 < 1e-9);
    // both strategies compute the same inverse (identical kernel sequences)
    for (i, j) in inv_bc.tile_coords() {
        assert!(inv_bc.tile(i, j).max_abs_diff(inv_remap.tile(i, j)) < 1e-12);
    }

    // communication accounting per step (paper-style, each step as if it
    // ran alone); a redistribution moves each tile whose owner changes
    let moves = |from: &dyn Distribution, to: &dyn Distribution| {
        let tiles = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j)));
        tiles
            .filter(|&(i, j)| from.owner(i, j) != to.owner(i, j))
            .count() as u64
    };
    let steps_bc = [
        potrf_messages(&bc, nt),
        trtri_messages(&bc, nt),
        lauum_messages(&bc, nt),
    ];
    let steps_remap = [
        potrf_messages(&sym, nt),
        moves(&sym, &bc),
        trtri_messages(&bc, nt),
        moves(&bc, &sym),
        lauum_messages(&sym, nt),
    ];
    println!("\nper-step analytic tile counts:");
    let [f, t, l] = steps_bc;
    println!(
        "  all-2DBC : potrf {f} + trtri {t} + lauum {l} = {}",
        f + t + l
    );
    let [f, m1, t, m2, l] = steps_remap;
    println!(
        "  remapped : potrf {f} + move {m1} + trtri {t} + move {m2} + lauum {l} = {}",
        f + m1 + t + m2 + l
    );

    // the merged graph reuses a tile version across steps: its exact count
    // is the planner's, and each run sends exactly that
    let exact_bc = DistChoice::TwoDbc { p: 5, q: 3 }.messages(Op::Potri, nt);
    let exact_remap = DistChoice::PotriRemap { r: 6, p: 5, q: 3 }.messages(Op::Potri, nt);
    println!(
        "\nmeasured (with cross-step caching): all-2DBC {} vs SBC-remap {}",
        stats_bc.messages, stats_remap.messages
    );
    assert_eq!(stats_bc.messages, exact_bc);
    assert_eq!(stats_remap.messages, exact_remap);
    println!("OK");
}
