//! In-tile inversion of a lower triangular tile.

use crate::{KernelError, Tile};

/// In-place inversion of the lower triangle of `a` (non-unit diagonal):
/// on success the lower triangle of `a` holds `L^{-1}`.
///
/// Mirrors LAPACK `dtrti2` with `uplo = 'L'`, processing columns right to
/// left: for the partition `L = [[l_jj, 0], [v, T]]` with `T` already
/// inverted, the new column is `-T^{-1} v / l_jj` (a triangular
/// matrix-vector product followed by a scale).
///
/// The strictly upper triangle of `a` is neither read nor written.
///
/// # Errors
/// Returns [`KernelError::SingularTriangle`] when a diagonal entry is zero.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_trtri(a: &mut Tile) -> Result<(), KernelError> {
    let n = a.dim();
    let data = a.as_mut_slice();
    for j in (0..n).rev() {
        let d = data[j * n + j];
        if d == 0.0 || !d.is_finite() {
            return Err(KernelError::SingularTriangle(j));
        }
        let inv = 1.0 / d;
        data[j * n + j] = inv;
        if j + 1 < n {
            // x := T * x where T = inv(L[j+1.., j+1..]) already stored,
            // x = A[j+1.., j]. Lower trmv, in place, processed bottom-up via
            // column axpys: for k descending, x[k+1..] += x[k]*T[k+1..,k];
            // x[k] *= T[k,k].
            for k in (j + 1..n).rev() {
                let xk = data[j * n + k];
                if xk != 0.0 {
                    for i in k + 1..n {
                        data[j * n + i] += xk * data[k * n + i];
                    }
                }
                data[j * n + k] = xk * data[k * n + k];
            }
            // scale by -1/l_jj (inv already is 1/l_jj)
            for v in &mut data[j * n + j + 1..(j + 1) * n] {
                *v *= -inv;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::naive_trtri as trtri;
    use crate::gemm::{naive_gemm as gemm, Trans};
    use crate::reference::random_lower_tile;
    use crate::{KernelError, Tile};

    #[test]
    fn trtri_inverts_lower_tiles() {
        for n in [1, 2, 3, 8, 21] {
            let mut l = random_lower_tile(n, 31);
            l.zero_strict_upper();
            let mut w = l.clone();
            trtri(&mut w).expect("nonsingular triangle must invert");
            w.zero_strict_upper();
            let mut prod = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &l, &w, 0.0, &mut prod);
            assert!(prod.max_abs_diff(&Tile::identity(n)) < 1e-9, "n={n}");
            // and the other side
            let mut prod2 = Tile::zeros(n);
            gemm(Trans::No, Trans::No, 1.0, &w, &l, 0.0, &mut prod2);
            assert!(prod2.max_abs_diff(&Tile::identity(n)) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn trtri_result_is_lower_triangular() {
        let mut l = random_lower_tile(9, 4);
        l.zero_strict_upper();
        trtri(&mut l).unwrap();
        for j in 1..9 {
            for i in 0..j {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn trtri_diagonal_tile() {
        let mut a = Tile::from_fn(5, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        trtri(&mut a).unwrap();
        for i in 0..5 {
            assert!((a.get(i, i) - 1.0 / (i + 1) as f64).abs() < 1e-14);
        }
    }

    #[test]
    fn trtri_rejects_singular() {
        let mut a = Tile::identity(4);
        a.set(2, 2, 0.0);
        assert_eq!(trtri(&mut a), Err(KernelError::SingularTriangle(2)));
    }

    #[test]
    fn trtri_is_involutive() {
        let mut l = random_lower_tile(12, 8);
        l.zero_strict_upper();
        let orig = l.clone();
        trtri(&mut l).unwrap();
        trtri(&mut l).unwrap();
        assert!(l.max_abs_diff(&orig) < 1e-8);
    }
}
