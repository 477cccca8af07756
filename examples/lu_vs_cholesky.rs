//! Section III-E, measured: why 2D block-cyclic is the right distribution
//! for LU but not for Cholesky — and how SBC closes the gap.
//!
//! Runs distributed LU (full matrix) and distributed Cholesky (half matrix)
//! with real kernels, counts every transferred tile, and compares the
//! arithmetic intensities normalized by per-node memory `sqrt(M)` — the
//! paper's measure.
//!
//! Run with: `cargo run --release --example lu_vs_cholesky`

use sbc::dist::{Distribution, SbcExtended, TwoDBlockCyclic};
use sbc::kernels::{flops_cholesky_total, flops_lu_total};
use sbc::matrix::{lu_residual, random_general};
use sbc::runtime::Run;

fn main() {
    let nt = 20;
    let b = 16;
    let seed = 161803;
    let n = nt * b;

    // --- distributed measurements ------------------------------------
    println!("distributed measurements (n = {n}, counted tile transfers):\n");

    // LU on a square 4x4 grid (16 nodes)
    let lu_dist = TwoDBlockCyclic::new(4, 4);
    let lu_out = Run::lu(&lu_dist, nt).block(b).seed(seed).execute().unwrap();
    let lu_stats = &lu_out.stats;
    let a0 = random_general(seed, nt, b);
    assert!(lu_residual(&a0, lu_out.lu_factors()) < 1e-12);
    let m_lu = (nt * nt) as f64 / 16.0; // tiles per node (full matrix)
    let rho_lu = flops_lu_total(n) / (lu_stats.messages as f64 * (b * b) as f64);
    println!(
        "  LU   {:<10}: {:>6} tiles moved, intensity {:>7.1} flops/elem, rho/sqrt(M) = {:.2}",
        lu_dist.name(),
        lu_stats.messages,
        rho_lu,
        rho_lu / (m_lu * (b * b) as f64).sqrt()
    );

    // Cholesky on SBC r=6 (15 nodes) and 2DBC 4x4 (16 nodes)
    for (name, stats) in [
        (
            "chol SBC r=6",
            Run::potrf(&SbcExtended::new(6), nt)
                .block(b)
                .seed(seed)
                .execute()
                .unwrap()
                .stats,
        ),
        (
            "chol 2DBC 4x4",
            Run::potrf(&TwoDBlockCyclic::new(4, 4), nt)
                .block(b)
                .seed(seed)
                .execute()
                .unwrap()
                .stats,
        ),
    ] {
        let p = if name.contains("SBC") { 15.0 } else { 16.0 };
        let m = (nt * nt) as f64 / (2.0 * p); // tiles per node (half matrix)
        let rho = flops_cholesky_total(n) / (stats.messages as f64 * (b * b) as f64);
        println!(
            "  {:<15}: {:>6} tiles moved, intensity {:>7.1} flops/elem, rho/sqrt(M) = {:.2}",
            name,
            stats.messages,
            rho,
            rho / (m * (b * b) as f64).sqrt()
        );
    }
    println!("\n  -> normalized by per-node memory, Cholesky-SBC matches LU-2DBC,");
    println!("     while Cholesky-2DBC sits a factor ~sqrt(2) below (Section III-E).");
}
