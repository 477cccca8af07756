//! Quickstart: distributed Cholesky factorization with the SBC distribution.
//!
//! Factorizes a randomly generated SPD matrix on a simulated 21-node
//! platform (threads as nodes), checks the numerical result, and compares
//! the communication volume against the classical 2D block-cyclic layout.
//!
//! Run with: `cargo run --release --example quickstart`

use sbc::dist::comm::{messages_to_bytes, potrf_messages};
use sbc::dist::{Distribution, SbcExtended, TwoDBlockCyclic};
use sbc::matrix::{cholesky_residual, random_spd};
use sbc::runtime::{KernelBackend, Run};

fn main() {
    // Matrix of 24 x 24 tiles of 32 x 32 doubles (n = 768).
    let nt = 24;
    let b = 32;
    let seed = 2022;

    // The paper's r = 7 configuration: P = r(r-1)/2 = 21 nodes.
    let sbc = SbcExtended::new(7);
    println!("distribution : {}", sbc.name());
    println!("nodes        : {}", sbc.num_nodes());
    println!(
        "matrix       : {nt} x {nt} tiles of {b} x {b} (n = {})",
        nt * b
    );

    // Blocked kernels (the default, named here to show the knob) run the
    // same math faster than the `Naive` reference loops; both backends are
    // bit-identical, so the factor and the message counts below cannot
    // change.
    let out = Run::potrf(&sbc, nt)
        .block(b)
        .seed(seed)
        .kernels(KernelBackend::Blocked)
        .execute()
        .unwrap();
    let (factor, stats) = (out.factor(), &out.stats);

    // Validate against the original matrix: || A - L L^T || / || A ||.
    let a0 = random_spd(seed, nt, b);
    let residual = cholesky_residual(&a0, factor);
    println!("residual     : {residual:.2e}");
    assert!(
        residual < 1e-12,
        "factorization must be numerically correct"
    );

    // Communication: measured == analytic, and lower than 2DBC's.
    let analytic = potrf_messages(&sbc, nt);
    println!(
        "communication: {} tiles ({:.1} MB) — analytic count {}",
        stats.messages,
        messages_to_bytes(stats.messages, b) as f64 / 1e6,
        analytic,
    );
    assert_eq!(stats.messages, analytic);

    for (p, q) in [(7, 3), (5, 4)] {
        let dbc = TwoDBlockCyclic::new(p, q);
        let m = potrf_messages(&dbc, nt);
        println!(
            "vs {:12}: {m} tiles  (SBC saves {:.0}%)",
            dbc.name(),
            100.0 * (1.0 - stats.messages as f64 / m as f64)
        );
        assert!(stats.messages < m);
    }
    println!("OK");
}
