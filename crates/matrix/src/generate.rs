//! Seeded random generation of SPD tiled matrices and right-hand sides.
//!
//! Matches the paper's experimental setup (Section V-A): "a random symmetric
//! positive definite matrix A is generated (along with a matrix B as
//! right-hand-side for POSV)". We generate `A = R + R^T + 2n * I` elementwise
//! with `R` uniform in [-1, 1): symmetric, and strictly diagonally dominant,
//! hence SPD. Generation is per-tile and seeded per tile coordinate so that
//! distributed runtimes can generate tiles independently on their owner node
//! and still agree bit-for-bit with the sequential reference.

use crate::storage::{SymmetricTiledMatrix, TiledPanel};
use sbc_kernels::reference::SplitMix64;
use sbc_kernels::Tile;

/// Mixes a global seed with a tile coordinate to get a per-tile stream.
fn tile_seed(seed: u64, i: usize, j: usize) -> u64 {
    let mut h = SplitMix64::new(
        seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    h.next_u64()
}

/// Generates one tile `(i, j)` (with `j <= i`) of the random SPD matrix of
/// order `n = nt * b` with the given seed.
///
/// Public so the distributed runtime can create exactly the tiles a node
/// owns, without materializing the whole matrix anywhere.
pub fn spd_tile(seed: u64, nt: usize, b: usize, i: usize, j: usize) -> Tile {
    assert!(j <= i && i < nt);
    let n = (nt * b) as f64;
    if i == j {
        let mut rng = SplitMix64::new(tile_seed(seed, i, j));
        // diagonal tile: symmetric random + dominant diagonal
        let mut t = Tile::zeros(b);
        let data = t.as_mut_slice();
        for c in 0..b {
            for r in c..b {
                let v = 2.0 * rng.next_f64() - 1.0;
                if r == c {
                    data[c * b + r] = v + 2.0 * n;
                } else {
                    data[c * b + r] = v;
                    data[r * b + c] = v;
                }
            }
        }
        t
    } else {
        let mut rng = SplitMix64::new(tile_seed(seed, i, j));
        Tile::from_fn(b, |_, _| 2.0 * rng.next_f64() - 1.0)
    }
}

/// Generates a random SPD [`SymmetricTiledMatrix`] of `nt x nt` tiles of
/// dimension `b`.
pub fn random_spd(seed: u64, nt: usize, b: usize) -> SymmetricTiledMatrix {
    SymmetricTiledMatrix::from_tile_fn(nt, b, |i, j| spd_tile(seed, nt, b, i, j))
}

/// Generates one tile `(i, j)` (any position) of a random diagonally
/// dominant general matrix of order `n = nt * b`: uniform in [-1, 1) off
/// the diagonal, diagonal shifted by `2n`. Dominance guarantees LU without
/// pivoting succeeds. Lower tiles agree with [`spd_tile`]'s construction
/// philosophy but the matrix is *not* symmetric.
pub fn general_tile(seed: u64, nt: usize, b: usize, i: usize, j: usize) -> Tile {
    assert!(i < nt && j < nt);
    let n = (nt * b) as f64;
    let mut rng = SplitMix64::new(tile_seed(seed ^ 0x6E6E, i, j));
    let mut t = Tile::from_fn(b, |_, _| 2.0 * rng.next_f64() - 1.0);
    if i == j {
        let data = t.as_mut_slice();
        for d in 0..b {
            data[d * b + d] += 2.0 * n;
        }
    }
    t
}

/// Generates a random diagonally dominant general (non-symmetric)
/// [`FullTiledMatrix`](crate::FullTiledMatrix) for the LU substrate.
pub fn random_general(seed: u64, nt: usize, b: usize) -> crate::storage::FullTiledMatrix {
    crate::storage::FullTiledMatrix::from_tile_fn(nt, b, |i, j| general_tile(seed, nt, b, i, j))
}

/// Generates one tile of the random right-hand-side panel.
pub fn rhs_tile(seed: u64, b: usize, i: usize) -> Tile {
    let mut rng = SplitMix64::new(tile_seed(seed ^ 0xB5, i, usize::MAX >> 1));
    Tile::from_fn(b, |_, _| 2.0 * rng.next_f64() - 1.0)
}

/// Generates a random `nt x 1`-tile right-hand-side panel.
pub fn random_panel(seed: u64, nt: usize, b: usize) -> TiledPanel {
    TiledPanel::from_tile_fn(nt, b, |i| rhs_tile(seed, b, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = random_spd(42, 4, 3);
        let b = random_spd(42, 4, 3);
        for (i, j) in a.tile_coords() {
            assert!(a.tile(i, j).max_abs_diff(b.tile(i, j)) == 0.0);
        }
        let c = random_spd(43, 4, 3);
        assert!(a.tile(1, 0).max_abs_diff(c.tile(1, 0)) > 0.0);
    }

    #[test]
    fn per_tile_generation_matches_whole_matrix() {
        let a = random_spd(7, 5, 4);
        for (i, j) in a.tile_coords() {
            let t = spd_tile(7, 5, 4, i, j);
            assert!(a.tile(i, j).max_abs_diff(&t) == 0.0);
        }
    }

    #[test]
    fn diagonal_tiles_are_symmetric_and_dominant() {
        let nt = 3;
        let b = 4;
        let a = random_spd(1, nt, b);
        let n = (nt * b) as f64;
        for k in 0..nt {
            let t = a.tile(k, k);
            for r in 0..b {
                for c in 0..b {
                    assert_eq!(t.get(r, c), t.get(c, r));
                }
                assert!(t.get(r, r) > 2.0 * n - 1.0);
            }
        }
    }

    #[test]
    fn generated_matrix_is_positive_definite() {
        // Gershgorin: diagonal 2n +/- 1 dominates row sums < n.
        // Empirically verify via Cholesky of the dense expansion for small n.
        let nt = 3;
        let b = 3;
        let a = random_spd(5, nt, b);
        let n = nt * b;
        // dense in-place Cholesky
        let mut d = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                d[c * n + r] = a.element(r, c);
            }
        }
        for k in 0..n {
            let piv = d[k * n + k];
            assert!(piv > 0.0, "pivot {k} not positive");
            let piv = piv.sqrt();
            for r in k..n {
                d[k * n + r] /= piv;
            }
            for c in k + 1..n {
                let s = d[k * n + c];
                for r in c..n {
                    d[c * n + r] -= s * d[k * n + r];
                }
            }
        }
    }

    #[test]
    fn rhs_panel_deterministic_and_per_tile() {
        let p = random_panel(9, 6, 2);
        for i in 0..6 {
            assert!(p.tile(i).max_abs_diff(&rhs_tile(9, 2, i)) == 0.0);
        }
    }
}
