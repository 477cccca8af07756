//! Load-balance metrics for tile distributions.
//!
//! The paper's premise (Section I) is that 2D block-cyclic is used because
//! it balances load, including *over time* as the trailing matrix shrinks;
//! SBC must match that. These metrics quantify it: total tiles per node
//! and GEMM-task counts per node (the dominant work).

use crate::Distribution;

/// Summary statistics over per-node counts.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceStats {
    /// Per-node counts.
    pub per_node: Vec<u64>,
    /// Minimum count over nodes.
    pub min: u64,
    /// Maximum count over nodes.
    pub max: u64,
    /// Mean count.
    pub mean: f64,
}

impl BalanceStats {
    fn from_counts(per_node: Vec<u64>) -> Self {
        let min = per_node.iter().copied().min().unwrap_or(0);
        let max = per_node.iter().copied().max().unwrap_or(0);
        let mean = if per_node.is_empty() {
            0.0
        } else {
            per_node.iter().sum::<u64>() as f64 / per_node.len() as f64
        };
        BalanceStats {
            per_node,
            min,
            max,
            mean,
        }
    }

    /// `max / mean`: 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            1.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

/// Tiles owned per node over the `nt x nt` lower triangle.
pub fn tile_balance<D: Distribution>(dist: &D, nt: usize) -> BalanceStats {
    let mut counts = vec![0u64; dist.num_nodes()];
    for i in 0..nt {
        for j in 0..=i {
            counts[dist.owner(i, j)] += 1;
        }
    }
    BalanceStats::from_counts(counts)
}

/// GEMM tasks executed per node over the whole Cholesky factorization
/// (owner-computes: the GEMM updating tile `(j, k)` at iteration `i` runs on
/// `owner(j, k)`). GEMM dominates the flop count, so this is the primary
/// compute-balance metric.
pub fn gemm_balance<D: Distribution>(dist: &D, nt: usize) -> BalanceStats {
    let mut counts = vec![0u64; dist.num_nodes()];
    for k in 0..nt {
        for j in k + 1..nt {
            // tile (j,k) is a GEMM target once per iteration i < k
            counts[dist.owner(j, k)] += k as u64;
        }
    }
    BalanceStats::from_counts(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiagonalCycling, SbcBasic, SbcExtended, TwoDBlockCyclic};

    #[test]
    fn two_dbc_perfectly_balanced_on_multiples() {
        // On an nt multiple of lcm windows the 2DBC tile counts differ by a
        // bounded amount across nodes.
        let d = TwoDBlockCyclic::new(3, 2);
        let s = tile_balance(&d, 36);
        assert!(s.imbalance() < 1.10, "imbalance={}", s.imbalance());
    }

    #[test]
    fn sbc_extended_tile_balance_close_to_uniform() {
        for r in [5, 6, 7, 8, 9] {
            let d = SbcExtended::new(r);
            // whole number of diagonal-pattern cycles so the diagonal is
            // evenly distributed
            let npat = d.diagonal_patterns().len();
            let nt = r * npat * 2;
            let s = tile_balance(&d, nt);
            assert!(
                s.imbalance() < 1.10,
                "r={r} imbalance={} (min={} max={} mean={})",
                s.imbalance(),
                s.min,
                s.max,
                s.mean
            );
        }
    }

    #[test]
    fn sbc_basic_tile_balance() {
        for r in [4, 6, 8] {
            let d = SbcBasic::new(r);
            let nt = 6 * r;
            let s = tile_balance(&d, nt);
            // pair nodes get 2 pattern cells, diagonal nodes 2 cells: balanced
            assert!(s.imbalance() < 1.15, "r={r} imbalance={}", s.imbalance());
        }
    }

    #[test]
    fn gemm_balance_sbc_matches_2dbc_quality() {
        let sbc = SbcExtended::new(7); // P=21
        let dbc = TwoDBlockCyclic::new(7, 3); // P=21
        let nt = 84;
        let sb = gemm_balance(&sbc, nt).imbalance();
        let db = gemm_balance(&dbc, nt).imbalance();
        assert!(sb < 1.15, "sbc gemm imbalance {sb}");
        assert!(sb < db * 1.2, "sbc {sb} vs 2dbc {db}");
    }

    #[test]
    fn cycling_strategies_both_balanced() {
        for cyc in [DiagonalCycling::ColumnWise, DiagonalCycling::AntiDiagonal] {
            let d = SbcExtended::with_cycling(7, cyc);
            let npat = d.diagonal_patterns().len();
            let s = tile_balance(&d, 7 * npat * 2);
            assert!(s.imbalance() < 1.12, "{cyc:?}: {}", s.imbalance());
        }
    }

    #[test]
    fn stats_helpers() {
        let s = BalanceStats::from_counts(vec![2, 4, 6]);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.imbalance() - 1.5).abs() < 1e-12);
    }
}
