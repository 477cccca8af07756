//! Triangular solves with a tile of right-hand sides.
//!
//! Three variants are needed by the tiled algorithms, all dispatched through
//! [`Kernels`](crate::Kernels):
//!
//! * `trsm_right_lower_trans` — `B := alpha * B * L^{-T}`: the panel TRSM
//!   of Cholesky (line 4 of Algorithm 1), `A[j][i] := A[j][i] * L[i][i]^{-T}`.
//! * `trsm_right_lower` — `B := alpha * B * L^{-1}`: used (with
//!   `alpha = -1`) by the tiled TRTRI sweep.
//! * `trsm_left_lower` / `trsm_left_lower_trans` — `B := alpha * L^{-1} B`
//!   and `B := alpha * L^{-T} B`: the forward/backward sweeps of POSV and the
//!   left solve of TRTRI.
//!
//! `L` is always the lower triangle (with diagonal) of the `l` tile; its
//! strictly upper part is ignored, matching BLAS `dtrsm` semantics.

use crate::Tile;

/// `B := alpha * B * L^{-T}` where `L` is lower triangular (non-unit).
///
/// Solves `X * L^T = alpha * B` in place. Forward sweep over columns:
/// `X[:,j] = (alpha*B[:,j] - sum_{k<j} X[:,k] * L[j,k]) / L[j,j]`.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trsm_right_lower_trans(alpha: f64, l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
    scale(alpha, b);
    let data = b.as_mut_slice();
    for j in 0..n {
        for k in 0..j {
            let s = l.get(j, k);
            if s != 0.0 {
                let (xk, xj) = two_cols(data, n, k, j);
                for i in 0..n {
                    xj[i] -= s * xk[i];
                }
            }
        }
        let d = l.get(j, j);
        for x in &mut data[j * n..(j + 1) * n] {
            *x /= d;
        }
    }
}

/// `B := alpha * B * L^{-1}` where `L` is lower triangular (non-unit).
///
/// Solves `X * L = alpha * B` in place. Backward sweep over columns:
/// `X[:,j] = (alpha*B[:,j] - sum_{k>j} X[:,k] * L[k,j]) / L[j,j]`.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trsm_right_lower(alpha: f64, l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
    scale(alpha, b);
    let data = b.as_mut_slice();
    for j in (0..n).rev() {
        for k in j + 1..n {
            let s = l.get(k, j);
            if s != 0.0 {
                let (xk, xj) = two_cols(data, n, k, j);
                for i in 0..n {
                    xj[i] -= s * xk[i];
                }
            }
        }
        let d = l.get(j, j);
        for x in &mut data[j * n..(j + 1) * n] {
            *x /= d;
        }
    }
}

/// `B := alpha * L^{-1} * B` where `L` is lower triangular (non-unit).
///
/// Forward substitution applied to every column of `B`, using unit-stride
/// axpys with the columns of `L`.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trsm_left_lower(alpha: f64, l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
    scale(alpha, b);
    for j in 0..n {
        let x = b.col_mut(j);
        for k in 0..n {
            x[k] /= l.get(k, k);
            let xk = x[k];
            if xk != 0.0 {
                let lcol = l.col(k);
                for i in k + 1..n {
                    x[i] -= xk * lcol[i];
                }
            }
        }
    }
}

/// `B := alpha * L^{-T} * B` where `L` is lower triangular (non-unit).
///
/// Backward substitution applied to every column of `B`, using unit-stride
/// dot products with the columns of `L`.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trsm_left_lower_trans(alpha: f64, l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
    scale(alpha, b);
    for j in 0..n {
        let x = b.col_mut(j);
        for k in (0..n).rev() {
            let lcol = l.col(k);
            let mut s = x[k];
            for i in k + 1..n {
                s -= lcol[i] * x[i];
            }
            x[k] = s / lcol[k];
        }
    }
}

/// `B := L^{-1} * B` where `L` is *unit* lower triangular (diagonal assumed
/// 1, stored values on the diagonal ignored — they hold `U` after an
/// in-place LU factorization).
///
/// The row-panel solve of the tiled LU factorization.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trsm_left_unit_lower(l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trsm: L dimension mismatch");
    for j in 0..n {
        let x = b.col_mut(j);
        for kk in 0..n {
            let xk = x[kk];
            if xk != 0.0 {
                let lcol = l.col(kk);
                for i in kk + 1..n {
                    x[i] -= xk * lcol[i];
                }
            }
        }
    }
}

/// `B := B * U^{-1}` where `U` is upper triangular (non-unit).
///
/// The column-panel solve of the tiled LU factorization. Forward sweep over
/// columns: `X[:,j] = (B[:,j] - sum_{k<j} X[:,k] U[k,j]) / U[j,j]`.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trsm_right_upper(u: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(u.dim(), n, "trsm: U dimension mismatch");
    let data = b.as_mut_slice();
    for j in 0..n {
        for kk in 0..j {
            let s = u.get(kk, j);
            if s != 0.0 {
                let (xk, xj) = two_cols(data, n, kk, j);
                for i in 0..n {
                    xj[i] -= s * xk[i];
                }
            }
        }
        let d = u.get(j, j);
        for x in &mut data[j * n..(j + 1) * n] {
            *x /= d;
        }
    }
}

fn scale(alpha: f64, b: &mut Tile) {
    if alpha != 1.0 {
        for x in b.as_mut_slice() {
            *x *= alpha;
        }
    }
}

/// Borrows two distinct columns of a tile's data (dimension `n`)
/// mutably/immutably.
fn two_cols(data: &mut [f64], n: usize, src: usize, dst: usize) -> (&[f64], &mut [f64]) {
    assert_ne!(src, dst);
    if src < dst {
        let (lo, hi) = data.split_at_mut(dst * n);
        (&lo[src * n..src * n + n], &mut hi[..n])
    } else {
        let (lo, hi) = data.split_at_mut(src * n);
        let dstcol = &mut lo[dst * n..dst * n + n];
        // SAFETY-free trick: reborrow via split; hi starts at src column.
        (&hi[..n], dstcol)
    }
}

#[cfg(test)]
mod tests {
    use super::{
        naive_trsm_left_lower as trsm_left_lower,
        naive_trsm_left_lower_trans as trsm_left_lower_trans,
        naive_trsm_left_unit_lower as trsm_left_unit_lower,
        naive_trsm_right_lower as trsm_right_lower,
        naive_trsm_right_lower_trans as trsm_right_lower_trans,
        naive_trsm_right_upper as trsm_right_upper,
    };
    use crate::gemm::{naive_gemm as gemm, Trans};
    use crate::reference::random_lower_tile;
    use crate::Tile;

    fn rhs(bdim: usize) -> Tile {
        Tile::from_fn(bdim, |i, j| ((i * 11 + j * 7) % 17) as f64 - 8.0)
    }

    #[test]
    fn right_lower_trans_solves() {
        for n in [1, 2, 3, 8, 19] {
            let l = random_lower_tile(n, 42);
            let b0 = rhs(n);
            let mut x = b0.clone();
            trsm_right_lower_trans(1.0, &l, &mut x);
            // check X * L^T == B
            let mut lt = l.clone();
            lt.zero_strict_upper();
            let mut prod = Tile::zeros(n);
            gemm(Trans::No, Trans::Yes, 1.0, &x, &lt, 0.0, &mut prod);
            assert!(prod.max_abs_diff(&b0) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn right_lower_solves() {
        for n in [1, 2, 3, 8, 19] {
            let l = random_lower_tile(n, 7);
            let b0 = rhs(n);
            let mut x = b0.clone();
            trsm_right_lower(-1.0, &l, &mut x);
            // check X * L == -B
            let mut ll = l.clone();
            ll.zero_strict_upper();
            let mut prod = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &x, &ll, 0.0, &mut prod);
            let mut neg = b0.clone();
            for v in neg.as_mut_slice() {
                *v = -*v;
            }
            assert!(prod.max_abs_diff(&neg) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn left_lower_solves() {
        for n in [1, 2, 3, 8, 19] {
            let l = random_lower_tile(n, 13);
            let b0 = rhs(n);
            let mut x = b0.clone();
            trsm_left_lower(1.0, &l, &mut x);
            let mut ll = l.clone();
            ll.zero_strict_upper();
            let mut prod = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &ll, &x, 0.0, &mut prod);
            assert!(prod.max_abs_diff(&b0) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn left_lower_trans_solves() {
        for n in [1, 2, 3, 8, 19] {
            let l = random_lower_tile(n, 99);
            let b0 = rhs(n);
            let mut x = b0.clone();
            trsm_left_lower_trans(1.0, &l, &mut x);
            let mut ll = l.clone();
            ll.zero_strict_upper();
            let mut prod = Tile::zeros(n);
            gemm(Trans::Yes, Trans::No, 1.0, &ll, &x, 0.0, &mut prod);
            assert!(prod.max_abs_diff(&b0) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn trsm_ignores_strict_upper_of_l() {
        let n = 6;
        let l = random_lower_tile(n, 5);
        let mut l_dirty = l.clone();
        for j in 1..n {
            for i in 0..j {
                l_dirty.set(i, j, 123.0); // garbage above the diagonal
            }
        }
        let b0 = rhs(n);
        let mut x1 = b0.clone();
        let mut x2 = b0.clone();
        trsm_right_lower_trans(1.0, &l, &mut x1);
        trsm_right_lower_trans(1.0, &l_dirty, &mut x2);
        assert!(x1.max_abs_diff(&x2) == 0.0);
    }

    #[test]
    fn left_and_right_variants_are_transpose_consistent() {
        // (L^{-1} B)^T == B^T L^{-T}
        let n = 10;
        let l = random_lower_tile(n, 3);
        let b0 = rhs(n);
        let mut left = b0.clone();
        trsm_left_lower(1.0, &l, &mut left);
        let mut right = b0.transposed();
        trsm_right_lower_trans(1.0, &l, &mut right);
        assert!(left.transposed().max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn left_unit_lower_solves() {
        for n in [1, 2, 5, 13] {
            let l = random_lower_tile(n, 44);
            let b0 = rhs(n);
            let mut x = b0.clone();
            trsm_left_unit_lower(&l, &mut x);
            // build the unit-lower matrix explicitly and multiply back
            let lu = Tile::from_fn(n, |i, j| {
                if i == j {
                    1.0
                } else if i > j {
                    l.get(i, j)
                } else {
                    0.0
                }
            });
            let mut prod = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &lu, &x, 0.0, &mut prod);
            assert!(prod.max_abs_diff(&b0) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn right_upper_solves() {
        for n in [1, 2, 5, 13] {
            // upper triangle from the transpose of a lower tile
            let l = random_lower_tile(n, 45);
            let u = Tile::from_fn(n, |i, j| if i <= j { l.get(j, i) } else { 0.0 });
            let b0 = rhs(n);
            let mut x = b0.clone();
            trsm_right_upper(&u, &mut x);
            let mut prod = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &x, &u, 0.0, &mut prod);
            assert!(prod.max_abs_diff(&b0) < 1e-8, "n={n}");
        }
    }
}
