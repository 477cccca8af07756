//! In-tile Cholesky factorization.

use crate::{KernelError, Tile};

/// In-place Cholesky factorization of the lower triangle of `a`:
/// on success, the lower triangle (with diagonal) of `a` contains `L` such
/// that `L * L^T` equals the symmetric matrix whose lower triangle `a` held.
///
/// Only the lower triangle of `a` is read and written; the strictly upper
/// triangle is left untouched (matching LAPACK `dpotrf` with `uplo = 'L'`).
///
/// Right-looking unblocked algorithm with unit-stride column updates.
///
/// # Errors
/// Returns [`KernelError::NotPositiveDefinite`] if a pivot is not strictly
/// positive; `a` is left partially factorized in that case.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_potrf(a: &mut Tile) -> Result<(), KernelError> {
    let n = a.dim();
    let data = a.as_mut_slice();
    for k in 0..n {
        let akk = data[k * n + k];
        if akk <= 0.0 || !akk.is_finite() {
            return Err(KernelError::NotPositiveDefinite(k));
        }
        let pivot = akk.sqrt();
        data[k * n + k] = pivot;
        // scale the column below the pivot
        for v in &mut data[k * n + k + 1..(k + 1) * n] {
            *v /= pivot;
        }
        // trailing update: for j > k, A[j.., j] -= A[j,k] * A[j.., k]
        for j in k + 1..n {
            let s = data[k * n + j];
            if s != 0.0 {
                // borrow columns k (read) and j (write) simultaneously
                let (lo, hi) = data.split_at_mut(j * n);
                let ck = &lo[k * n..k * n + n];
                let cj = &mut hi[..n];
                for i in j..n {
                    cj[i] -= s * ck[i];
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::naive_potrf as potrf;
    use crate::gemm::{naive_gemm as gemm, Trans};
    use crate::reference::random_spd_tile;
    use crate::{KernelError, Tile};

    #[test]
    fn potrf_reconstructs_spd_tile() {
        for n in [1, 2, 3, 8, 25] {
            let a0 = random_spd_tile(n, 17);
            let mut l = a0.clone();
            potrf(&mut l).expect("SPD tile must factorize");
            l.zero_strict_upper();
            let mut rec = Tile::zeros(n);
            gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut rec);
            // compare lower triangles (a0 is symmetric so full compare works)
            let scale = a0.norm_max().max(1.0);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (rec.get(i, j) - a0.get(i, j)).abs() < 1e-10 * scale,
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn potrf_identity_gives_identity() {
        let mut a = Tile::identity(7);
        potrf(&mut a).unwrap();
        assert!(a.max_abs_diff(&Tile::identity(7)) < 1e-14);
    }

    #[test]
    fn potrf_diagonal_tile() {
        let mut a = Tile::from_fn(4, |i, j| {
            if i == j {
                ((i + 2) * (i + 2)) as f64
            } else {
                0.0
            }
        });
        potrf(&mut a).unwrap();
        for i in 0..4 {
            assert!((a.get(i, i) - (i + 2) as f64).abs() < 1e-14);
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Tile::from_fn(3, |i, j| if i == j { -1.0 } else { 0.0 });
        assert_eq!(potrf(&mut a), Err(KernelError::NotPositiveDefinite(0)));
    }

    #[test]
    fn potrf_rejects_semidefinite_rank_deficient() {
        // rank-1 matrix ones * ones^T: second pivot becomes exactly 0.
        let mut a = Tile::from_fn(3, |_, _| 1.0);
        assert_eq!(potrf(&mut a), Err(KernelError::NotPositiveDefinite(1)));
    }

    #[test]
    fn potrf_does_not_touch_strict_upper() {
        let n = 5;
        let mut a = random_spd_tile(n, 3);
        for j in 1..n {
            for i in 0..j {
                a.set(i, j, 777.0);
            }
        }
        potrf(&mut a).unwrap();
        for j in 1..n {
            for i in 0..j {
                assert_eq!(a.get(i, j), 777.0);
            }
        }
    }
}
