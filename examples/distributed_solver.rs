//! Domain scenario: solving a dense SPD linear system (POSV) distributedly —
//! the workload of Section V-F.1 of the paper (e.g. a kernel/covariance
//! system from a Gaussian-process regression or a boundary-element method).
//!
//! Factorizes with the SBC distribution, keeps the one-tile-wide right-hand
//! side on a 1D row-cyclic layout, solves, validates, and reports the
//! communication split between factorization and solve traffic.
//!
//! Run with: `cargo run --release --example distributed_solver`

use sbc::dist::comm::potrf_messages;
use sbc::dist::{Distribution, RowCyclic, SbcExtended, TwoDBlockCyclic};
use sbc::matrix::{random_panel, random_spd, solve_residual};
use sbc::planner::{DistChoice, Op};
use sbc::runtime::Run;

fn main() {
    let nt = 20;
    let b = 24;
    let seed = 7;

    // P = 15 nodes (r = 6) with the RHS row-cyclic over the same nodes.
    let sbc = SbcExtended::new(6);
    let rhs_dist = RowCyclic::new(sbc.num_nodes());
    println!("solving A x = B with {} + {}", sbc.name(), rhs_dist.name());
    println!(
        "n = {} unknowns, one tile-column of right-hand sides",
        nt * b
    );

    let out = Run::posv(&sbc, &rhs_dist, nt)
        .block(b)
        .seed(seed)
        .execute()
        .unwrap();
    let (x, stats) = (out.solution(), &out.stats);

    // validate: the runtime derives its RHS seed from `seed` (RHS uses
    // seed ^ 0x05EED0FB unless `seed_rhs` overrides it)
    let a0 = random_spd(seed, nt, b);
    let rhs = random_panel(seed ^ 0x05EE_D0FB, nt, b);
    let res = solve_residual(&a0, x, &rhs);
    println!("solve residual: {res:.2e}");
    assert!(res < 1e-10);

    // communication breakdown: the exact count of the merged graph (the
    // planner's), of which the factorization alone sends `fact`
    let fact = potrf_messages(&sbc, nt);
    let total_sbc = DistChoice::SbcExtended { r: 6 }.messages(Op::Posv, nt);
    println!("factorization traffic (analytic): {fact} tiles");
    println!("the solve sweeps add (exact): {} tiles", total_sbc - fact);
    println!("measured total: {} tiles", stats.messages);
    assert_eq!(stats.messages, total_sbc);

    // the paper's observation: the solve adds distribution-independent
    // traffic, so SBC's relative edge shrinks on POSV vs pure POTRF
    let dbc = TwoDBlockCyclic::new(5, 3);
    let fact_dbc = potrf_messages(&dbc, nt);
    let total_dbc = DistChoice::TwoDbc { p: 5, q: 3 }.messages(Op::Posv, nt);
    println!(
        "POTRF-only gain vs {}: {:.2}x ; POSV gain: {:.2}x (smaller, as in Fig 13)",
        dbc.name(),
        fact_dbc as f64 / fact as f64,
        total_dbc as f64 / total_sbc as f64
    );
    println!("OK");
}
