//! General matrix-matrix multiply on tiles.
//!
//! The Cholesky update (line 8 of Algorithm 1) is
//! `A[j][k] := A[j][k] - A[j][i] * A[k][i]^T`, i.e. a `gemm` with
//! `transa = NoTrans`, `transb = Trans`, `alpha = -1`, `beta = 1`.
//! The tiled TRTRI and LAUUM sweeps need the `NoTrans/NoTrans` and
//! `Trans/NoTrans` combinations as well, so the full set is provided.

use crate::Tile;

/// Transposition selector for [`crate::Kernels::gemm`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// `C := alpha * op(A) * op(B) + beta * C` on square tiles.
///
/// All inner loops are unit-stride over tile columns where the transpose
/// combination allows it (`No/No` and `No/Yes` use column axpys, `Yes/No`
/// uses column dot products).
///
/// # Panics
/// Panics if the tiles do not all share the same dimension.
///
/// The reference implementation behind [`KernelBackend::Naive`]
/// (see [`crate::KernelBackend`]); every other backend is bit-identical
/// to this operation order.
///
/// [`KernelBackend::Naive`]: crate::KernelBackend::Naive
pub(crate) fn naive_gemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Tile,
    b: &Tile,
    beta: f64,
    c: &mut Tile,
) {
    let n = c.dim();
    assert_eq!(a.dim(), n, "gemm: A dimension mismatch");
    assert_eq!(b.dim(), n, "gemm: B dimension mismatch");

    // one uniqueness check per call; the loops below index the slice
    let c = c.as_mut_slice();
    if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    if alpha == 0.0 {
        return;
    }

    match (transa, transb) {
        (Trans::No, Trans::No) => {
            // C[:,j] += alpha * sum_k B[k,j] * A[:,k]
            for j in 0..n {
                let cj = &mut c[j * n..(j + 1) * n];
                for k in 0..n {
                    let s = alpha * b.get(k, j);
                    if s != 0.0 {
                        axpy(s, a.col(k), cj);
                    }
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            // C[:,j] += alpha * sum_k B[j,k] * A[:,k]
            for j in 0..n {
                let cj = &mut c[j * n..(j + 1) * n];
                for k in 0..n {
                    let s = alpha * b.get(j, k);
                    if s != 0.0 {
                        axpy(s, a.col(k), cj);
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // C[i,j] += alpha * dot(A[:,i], B[:,j])
            for j in 0..n {
                let (bj, cj) = (b.col(j), &mut c[j * n..(j + 1) * n]);
                for (i, cij) in cj.iter_mut().enumerate() {
                    *cij += alpha * dot(a.col(i), bj);
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            // C[i,j] += alpha * sum_k A[k,i] * B[j,k]
            for j in 0..n {
                for (i, cij) in c[j * n..(j + 1) * n].iter_mut().enumerate() {
                    let mut d = 0.0;
                    for k in 0..n {
                        d += a.get(k, i) * b.get(j, k);
                    }
                    *cij += alpha * d;
                }
            }
        }
    }
}

#[inline]
fn axpy(s: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += s * xi;
    }
}

#[inline]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    // Four-way unrolled accumulation: keeps FP dependency chains short and
    // vectorizes well without changing results materially.
    let mut acc = [0.0_f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut rest = 0.0;
    for i in chunks * 4..x.len() {
        rest += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + rest
}

#[cfg(test)]
mod tests {
    use super::{naive_gemm as gemm, Trans};
    use crate::reference::ref_gemm;
    use crate::Tile;

    fn tile_a(b: usize) -> Tile {
        Tile::from_fn(b, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0)
    }
    fn tile_b(b: usize) -> Tile {
        Tile::from_fn(b, |i, j| ((i * 5 + j * 13) % 9) as f64 - 4.0)
    }
    fn tile_c(b: usize) -> Tile {
        Tile::from_fn(b, |i, j| ((i + 2 * j) % 7) as f64)
    }

    fn check(transa: Trans, transb: Trans, alpha: f64, beta: f64) {
        for b in [1, 2, 5, 16, 17] {
            let a = tile_a(b);
            let bb = tile_b(b);
            let mut c = tile_c(b);
            let mut cref = c.clone();
            gemm(transa, transb, alpha, &a, &bb, beta, &mut c);
            ref_gemm(transa, transb, alpha, &a, &bb, beta, &mut cref);
            assert!(
                c.max_abs_diff(&cref) < 1e-10,
                "gemm mismatch for {transa:?}/{transb:?} b={b}"
            );
        }
    }

    #[test]
    fn gemm_nn_matches_reference() {
        check(Trans::No, Trans::No, -1.0, 1.0);
        check(Trans::No, Trans::No, 2.5, 0.5);
    }

    #[test]
    fn gemm_nt_matches_reference() {
        check(Trans::No, Trans::Yes, -1.0, 1.0);
        check(Trans::No, Trans::Yes, 0.7, 2.0);
    }

    #[test]
    fn gemm_tn_matches_reference() {
        check(Trans::Yes, Trans::No, 1.0, 1.0);
        check(Trans::Yes, Trans::No, -3.0, 0.0);
    }

    #[test]
    fn gemm_tt_matches_reference() {
        check(Trans::Yes, Trans::Yes, 1.0, 1.0);
        check(Trans::Yes, Trans::Yes, -0.5, 1.5);
    }

    #[test]
    fn gemm_alpha_zero_scales_only() {
        let a = tile_a(8);
        let b = tile_b(8);
        let mut c = tile_c(8);
        let orig = c.clone();
        gemm(Trans::No, Trans::No, 0.0, &a, &b, 2.0, &mut c);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(c.get(i, j), 2.0 * orig.get(i, j));
            }
        }
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = tile_a(6);
        let id = Tile::identity(6);
        let mut c = Tile::zeros(6);
        gemm(Trans::No, Trans::No, 1.0, &a, &id, 0.0, &mut c);
        assert!(c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gemm: A dimension mismatch")]
    fn gemm_rejects_mismatched_tiles() {
        let a = Tile::zeros(4);
        let b = Tile::zeros(5);
        let mut c = Tile::zeros(5);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 1.0, &mut c);
    }
}
