//! Triangular matrix multiply on tiles.
//!
//! The tiled LAUUM sweep needs `B := L^T * B`
//! ([`Kernels::trmm_left_lower_trans`](crate::Kernels::trmm_left_lower_trans));
//! the plain `B := L * B` variant is provided for completeness and used by
//! verification code.

use crate::Tile;

/// `B := L^T * B` where `L` is the lower triangle (with diagonal) of `l`.
///
/// Processed top-down per column: row `i` of the result only reads rows
/// `>= i` of the original column, which are still unmodified.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trmm_left_lower_trans(l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trmm: L dimension mismatch");
    for j in 0..n {
        let x = b.col_mut(j);
        for i in 0..n {
            let lcol = l.col(i);
            let mut s = 0.0;
            for k in i..n {
                s += lcol[k] * x[k];
            }
            x[i] = s;
        }
    }
}

/// `B := L * B` where `L` is the lower triangle (with diagonal) of `l`.
///
/// Processed bottom-up per column so unread inputs are preserved.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trmm_left_lower(l: &Tile, b: &mut Tile) {
    let n = b.dim();
    assert_eq!(l.dim(), n, "trmm: L dimension mismatch");
    for j in 0..n {
        let x = b.col_mut(j);
        for k in (0..n).rev() {
            let xk = x[k];
            let lcol = l.col(k);
            x[k] = lcol[k] * xk;
            if xk != 0.0 {
                for i in k + 1..n {
                    x[i] += xk * lcol[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        naive_trmm_left_lower as trmm_left_lower,
        naive_trmm_left_lower_trans as trmm_left_lower_trans,
    };
    use crate::gemm::{naive_gemm as gemm, Trans};
    use crate::reference::random_lower_tile;
    use crate::Tile;

    fn rhs(n: usize) -> Tile {
        Tile::from_fn(n, |i, j| ((3 * i + 5 * j) % 13) as f64 - 6.0)
    }

    #[test]
    fn trmm_trans_matches_gemm() {
        for n in [1, 2, 5, 12] {
            let mut l = random_lower_tile(n, 21);
            l.zero_strict_upper();
            let b0 = rhs(n);
            let mut b = b0.clone();
            trmm_left_lower_trans(&l, &mut b);
            let mut want = Tile::zeros(n);
            gemm(Trans::Yes, Trans::No, 1.0, &l, &b0, 0.0, &mut want);
            assert!(b.max_abs_diff(&want) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn trmm_notrans_matches_gemm() {
        for n in [1, 2, 5, 12] {
            let mut l = random_lower_tile(n, 22);
            l.zero_strict_upper();
            let b0 = rhs(n);
            let mut b = b0.clone();
            trmm_left_lower(&l, &mut b);
            let mut want = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &l, &b0, 0.0, &mut want);
            assert!(b.max_abs_diff(&want) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn trmm_then_trsm_roundtrips() {
        let n = 9;
        let mut l = random_lower_tile(n, 23);
        l.zero_strict_upper();
        let b0 = rhs(n);
        let mut b = b0.clone();
        trmm_left_lower_trans(&l, &mut b);
        crate::trsm::naive_trsm_left_lower_trans(1.0, &l, &mut b);
        assert!(b.max_abs_diff(&b0) < 1e-9);
    }
}
