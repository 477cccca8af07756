//! In-tile LU factorization without pivoting.
//!
//! The paper's Section III-E contrasts Cholesky with LU throughout: 2DBC
//! reaches the optimal arithmetic intensity for LU but not for Cholesky,
//! which is exactly the gap SBC closes. The LU substrate (this kernel, the
//! tiled algorithm, its task graph and communication counts) lets the
//! library demonstrate that comparison experimentally.

use crate::{KernelError, Tile};

/// In-place LU factorization of `a` without pivoting: on success `a` holds
/// the unit-lower factor `L` strictly below the diagonal and the upper
/// factor `U` on and above it, with `L * U` equal to the original tile.
///
/// Right-looking unblocked algorithm with unit-stride column updates.
/// No pivoting is performed (matching the paper's "LU factorization
/// without pivoting" comparisons), so inputs must have a nonzero pivot
/// sequence — e.g. diagonally dominant matrices.
///
/// # Errors
/// Returns [`KernelError::SingularTriangle`] on a zero (or non-finite)
/// pivot.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_getrf(a: &mut Tile) -> Result<(), KernelError> {
    let n = a.dim();
    let data = a.as_mut_slice();
    for kk in 0..n {
        let pivot = data[kk * n + kk];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(KernelError::SingularTriangle(kk));
        }
        // scale the column below the pivot
        for v in &mut data[kk * n + kk + 1..(kk + 1) * n] {
            *v /= pivot;
        }
        // trailing update: A[kk+1.., j] -= A[kk+1.., kk] * A[kk, j]
        for j in kk + 1..n {
            let s = data[j * n + kk];
            if s != 0.0 {
                let (lo, hi) = data.split_at_mut(j * n);
                let ck = &lo[kk * n..kk * n + n];
                let cj = &mut hi[..n];
                for i in kk + 1..n {
                    cj[i] -= s * ck[i];
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::naive_getrf as getrf;
    use crate::gemm::{naive_gemm as gemm, Trans};
    use crate::reference::SplitMix64;
    use crate::{KernelError, Tile};

    fn dominant_tile(n: usize, seed: u64) -> Tile {
        let mut rng = SplitMix64::new(seed);
        Tile::from_fn(n, |i, j| {
            if i == j {
                2.0 * n as f64 + rng.next_f64()
            } else {
                rng.next_signed()
            }
        })
    }

    fn split_lu(a: &Tile) -> (Tile, Tile) {
        let n = a.dim();
        let l = Tile::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                a.get(i, j)
            } else {
                0.0
            }
        });
        let u = Tile::from_fn(n, |i, j| if i <= j { a.get(i, j) } else { 0.0 });
        (l, u)
    }

    #[test]
    fn getrf_reconstructs() {
        for n in [1, 2, 3, 9, 20] {
            let a0 = dominant_tile(n, 7);
            let mut f = a0.clone();
            getrf(&mut f).unwrap();
            let (l, u) = split_lu(&f);
            let mut rec = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &l, &u, 0.0, &mut rec);
            assert!(rec.max_abs_diff(&a0) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn getrf_identity() {
        let mut a = Tile::identity(6);
        getrf(&mut a).unwrap();
        assert!(a.max_abs_diff(&Tile::identity(6)) < 1e-15);
    }

    #[test]
    fn getrf_rejects_zero_pivot() {
        let mut a = Tile::zeros(3);
        assert_eq!(getrf(&mut a), Err(KernelError::SingularTriangle(0)));
    }

    #[test]
    fn getrf_matches_potrf_for_spd() {
        // For SPD A, LU without pivoting gives U = D L^T with the Cholesky
        // L scaled; check agreement of the first column: L_lu[:,0] =
        // L_chol[:,0] / L_chol[0,0].
        let a0 = crate::reference::random_spd_tile(8, 3);
        let mut lu = a0.clone();
        getrf(&mut lu).unwrap();
        let mut ch = a0.clone();
        crate::potrf::naive_potrf(&mut ch).unwrap();
        for i in 1..8 {
            let expect = ch.get(i, 0) / ch.get(0, 0);
            assert!((lu.get(i, 0) - expect).abs() < 1e-12);
        }
    }
}
