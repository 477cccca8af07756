//! Symmetric rank-k update restricted to the lower triangle.
//!
//! The Cholesky diagonal update (line 6 of Algorithm 1) is
//! `A[k][k] := A[k][k] - A[k][i] * A[k][i]^T`, i.e. `syrk` with
//! `trans = No`, `alpha = -1`, `beta = 1`. The tiled LAUUM sweep needs the
//! transposed form `C := C + A^T * A` as well.

use crate::{Tile, Trans};

/// `C := alpha * A * A^T + beta * C` (`trans = No`) or
/// `C := alpha * A^T * A + beta * C` (`trans = Yes`), updating only the
/// lower triangle (including the diagonal) of `C`.
///
/// The strictly upper triangle of `C` is left untouched, matching BLAS
/// `dsyrk` with `uplo = 'L'`.
///
/// # Panics
/// Panics if `a` and `c` have different dimensions.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_syrk(trans: Trans, alpha: f64, a: &Tile, beta: f64, c: &mut Tile) {
    let n = c.dim();
    assert_eq!(a.dim(), n, "syrk: A dimension mismatch");

    // one uniqueness check per call; the loops below index the slice
    let c = c.as_mut_slice();
    if beta != 1.0 {
        for j in 0..n {
            for x in &mut c[j * n + j..(j + 1) * n] {
                *x *= beta;
            }
        }
    }
    if alpha == 0.0 {
        return;
    }

    match trans {
        Trans::No => {
            // C[i,j] += alpha * sum_k A[i,k] A[j,k]  (i >= j)
            // axpy form over columns of A, writing only rows >= j.
            for j in 0..n {
                let ccol = &mut c[j * n..(j + 1) * n];
                for k in 0..n {
                    let s = alpha * a.get(j, k);
                    if s != 0.0 {
                        let acol = a.col(k);
                        for i in j..n {
                            ccol[i] += s * acol[i];
                        }
                    }
                }
            }
        }
        Trans::Yes => {
            // C[i,j] += alpha * dot(A[:,i], A[:,j])  (i >= j)
            for j in 0..n {
                let (aj, ccol) = (a.col(j), &mut c[j * n..(j + 1) * n]);
                for (i, cij) in ccol.iter_mut().enumerate().skip(j) {
                    let mut d = 0.0;
                    let ai = a.col(i);
                    for k in 0..n {
                        d += ai[k] * aj[k];
                    }
                    *cij += alpha * d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive_syrk as syrk;
    use crate::reference::ref_gemm;
    use crate::{Tile, Trans};

    fn tile_a(b: usize) -> Tile {
        Tile::from_fn(b, |i, j| ((i * 3 + j * 5) % 13) as f64 - 6.0)
    }

    fn check(trans: Trans, alpha: f64, beta: f64) {
        for b in [1, 2, 7, 16] {
            let a = tile_a(b);
            let c0 = Tile::from_fn(b, |i, j| ((i * j) % 5) as f64);
            let mut c = c0.clone();
            syrk(trans, alpha, &a, beta, &mut c);
            // reference: full gemm with A as both operands
            let mut full = c0.clone();
            match trans {
                Trans::No => ref_gemm(Trans::No, Trans::Yes, alpha, &a, &a, beta, &mut full),
                Trans::Yes => ref_gemm(Trans::Yes, Trans::No, alpha, &a, &a, beta, &mut full),
            }
            for i in 0..b {
                for j in 0..b {
                    if i >= j {
                        assert!(
                            (c.get(i, j) - full.get(i, j)).abs() < 1e-10,
                            "lower mismatch at ({i},{j}) trans={trans:?}"
                        );
                    } else {
                        assert_eq!(c.get(i, j), c0.get(i, j), "upper modified at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn syrk_notrans_matches_gemm_lower() {
        check(Trans::No, -1.0, 1.0);
        check(Trans::No, 2.0, 0.5);
    }

    #[test]
    fn syrk_trans_matches_gemm_lower() {
        check(Trans::Yes, 1.0, 1.0);
        check(Trans::Yes, -0.5, 0.0);
    }

    #[test]
    fn syrk_result_diagonal_nonnegative_when_subtracting_from_gram() {
        // C = A A^T has nonnegative diagonal; syrk(alpha=1, beta=0) from zero.
        let a = tile_a(9);
        let mut c = Tile::zeros(9);
        syrk(Trans::No, 1.0, &a, 0.0, &mut c);
        for i in 0..9 {
            assert!(c.get(i, i) >= 0.0);
        }
    }
}
