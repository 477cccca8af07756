//! Sequential tiled algorithms — the ground truth for the distributed
//! runtimes.
//!
//! [`potrf_tiled`] is Algorithm 1 of the paper verbatim; the other routines
//! implement the tiled loops of POSV (forward/backward TRSM sweeps), TRTRI
//! and LAUUM exactly as the PLASMA/Chameleon tiled algorithms do, which is
//! what determines their communication patterns (Section V-F).
//!
//! All routines work in place on [`SymmetricTiledMatrix`] /
//! [`TiledPanel`]; the same loop nests (with owner-computes placement) are
//! what `sbc-taskgraph` turns into distributed task DAGs, so any change here
//! must be mirrored there (the integration tests compare the two).

use crate::storage::{FullTiledMatrix, SymmetricTiledMatrix, TiledPanel};
use sbc_kernels::{KernelBackend, KernelError, Kernels, Trans};

/// Kernel backend for the sequential sweeps: the default
/// ([`KernelBackend::Blocked`]) unless the `SBC_KERNELS` environment
/// variable overrides it. All
/// backends are bit-identical, so the override changes speed only.
fn kernels() -> KernelBackend {
    KernelBackend::resolve(KernelBackend::default())
}

/// Tiled Cholesky factorization (Algorithm 1): on success the lower tiles of
/// `a` hold `L` with `L L^T = A`.
///
/// ```text
/// for i = 0..N:
///   A[i][i] <- POTRF(A[i][i])
///   for j = i+1..N:   A[j][i] <- TRSM(A[j][i], A[i][i])
///   for k = i+1..N:
///     A[k][k] <- SYRK(A[k][k], A[k][i])
///     for j = k+1..N: A[j][k] <- GEMM(A[j][k], A[j][i], A[k][i])
/// ```
///
/// # Errors
/// Propagates [`KernelError::NotPositiveDefinite`] from the tile POTRF.
pub fn potrf_tiled(a: &mut SymmetricTiledMatrix) -> Result<(), KernelError> {
    let nt = a.tile_count();
    let krn = kernels();
    for i in 0..nt {
        krn.potrf(a.tile_mut(i, i))?;
        for j in i + 1..nt {
            let (diag, panel) = a.two_tiles_mut((i, i), (j, i));
            krn.trsm_right_lower_trans(1.0, diag, panel);
        }
        for kk in i + 1..nt {
            let (panel, diag) = a.two_tiles_mut((kk, i), (kk, kk));
            krn.syrk(Trans::No, -1.0, panel, 1.0, diag);
            for j in kk + 1..nt {
                let (aji, aki, ajk) = a.tiles_rrw((j, i), (kk, i), (j, kk));
                krn.gemm(Trans::No, Trans::Yes, -1.0, aji, aki, 1.0, ajk);
            }
        }
    }
    Ok(())
}

/// Forward sweep: `B := L^{-1} B` where `L` is the (already factorized)
/// lower-tile content of `a`.
pub fn solve_lower(a: &SymmetricTiledMatrix, b: &mut TiledPanel) {
    let nt = a.tile_count();
    let krn = kernels();
    assert_eq!(b.tile_count(), nt);
    for i in 0..nt {
        krn.trsm_left_lower(1.0, a.tile(i, i), b.tile_mut(i));
        for j in i + 1..nt {
            let (bj, bi) = b.two_tiles_mut(j, i);
            krn.gemm(Trans::No, Trans::No, -1.0, a.tile(j, i), bi, 1.0, bj);
        }
    }
}

/// Backward sweep: `B := L^{-T} B`.
pub fn solve_lower_trans(a: &SymmetricTiledMatrix, b: &mut TiledPanel) {
    let nt = a.tile_count();
    let krn = kernels();
    assert_eq!(b.tile_count(), nt);
    for i in (0..nt).rev() {
        krn.trsm_left_lower_trans(1.0, a.tile(i, i), b.tile_mut(i));
        for j in 0..i {
            // B[j] -= A[i][j]^T B[i]
            let (bj, bi) = b.two_tiles_mut(j, i);
            krn.gemm(Trans::Yes, Trans::No, -1.0, a.tile(i, j), bi, 1.0, bj);
        }
    }
}

/// POSV: factorizes `a` in place and solves `A x = B` in place in `b`
/// (`b` holds `x` on return).
///
/// # Errors
/// Propagates [`KernelError::NotPositiveDefinite`].
pub fn posv_tiled(a: &mut SymmetricTiledMatrix, b: &mut TiledPanel) -> Result<(), KernelError> {
    potrf_tiled(a)?;
    solve_lower(a, b);
    solve_lower_trans(a, b);
    Ok(())
}

/// Tiled LU factorization without pivoting (Section III-E's comparison
/// case): on success `a` holds the unit-lower factor strictly below the
/// diagonal and the upper factor on/above it, tile-wise.
///
/// ```text
/// for k = 0..N:
///   A[k][k] <- GETRF(A[k][k])
///   for j = k+1..N: A[k][j] <- L(kk)^{-1} A[k][j]       (row panel)
///   for i = k+1..N: A[i][k] <- A[i][k] U(kk)^{-1}       (column panel)
///   for i,j > k:    A[i][j] -= A[i][k] A[k][j]          (trailing update)
/// ```
///
/// # Errors
/// Propagates [`KernelError::SingularTriangle`] from the tile GETRF (no
/// pivoting — inputs should be diagonally dominant).
pub fn lu_tiled(a: &mut FullTiledMatrix) -> Result<(), KernelError> {
    let nt = a.tile_count();
    let krn = kernels();
    for kk in 0..nt {
        krn.getrf(a.tile_mut(kk, kk))?;
        for j in kk + 1..nt {
            let (diag, target) = a.two_tiles_mut((kk, kk), (kk, j));
            krn.trsm_left_unit_lower(diag, target);
        }
        for i in kk + 1..nt {
            let (diag, target) = a.two_tiles_mut((kk, kk), (i, kk));
            krn.trsm_right_upper(diag, target);
        }
        for i in kk + 1..nt {
            for j in kk + 1..nt {
                let (aik, akj, aij) = a.tiles_rrw((i, kk), (kk, j), (i, j));
                krn.gemm(Trans::No, Trans::No, -1.0, aik, akj, 1.0, aij);
            }
        }
    }
    Ok(())
}

/// Tiled lower-triangular inversion: the lower tiles of `a` (holding `L`)
/// are replaced by `L^{-1}`.
///
/// PLASMA-style sweep; at iteration `k`, tile `(m, n)` with `m > k > n`
/// receives `A[m][n] += A[m][k] * A[k][n]` — the nonsymmetric dependency
/// pattern discussed in Section V-F.2.
///
/// # Errors
/// Propagates [`KernelError::SingularTriangle`].
pub fn trtri_tiled(a: &mut SymmetricTiledMatrix) -> Result<(), KernelError> {
    let nt = a.tile_count();
    let krn = kernels();
    for kk in 0..nt {
        for m in kk + 1..nt {
            let (diag, target) = a.two_tiles_mut((kk, kk), (m, kk));
            krn.trsm_right_lower(-1.0, diag, target);
        }
        for m in kk + 1..nt {
            for n in 0..kk {
                let (amk, akn, amn) = a.tiles_rrw((m, kk), (kk, n), (m, n));
                krn.gemm(Trans::No, Trans::No, 1.0, amk, akn, 1.0, amn);
            }
        }
        for n in 0..kk {
            let (diag, target) = a.two_tiles_mut((kk, kk), (kk, n));
            krn.trsm_left_lower(1.0, diag, target);
        }
        krn.trtri(a.tile_mut(kk, kk))?;
    }
    Ok(())
}

/// Tiled LAUUM: the lower tiles of `a` (holding a lower-triangular `W`) are
/// replaced by the lower part of `W^T W`.
///
/// Same dependency pattern as POTRF (Section V-F.2), which is why SBC keeps
/// its advantage on this step.
pub fn lauum_tiled(a: &mut SymmetricTiledMatrix) {
    let nt = a.tile_count();
    let krn = kernels();
    for kk in 0..nt {
        for n in 0..kk {
            let (akn, ann) = a.two_tiles_mut((kk, n), (n, n));
            krn.syrk(Trans::Yes, 1.0, akn, 1.0, ann);
            for m in n + 1..kk {
                let (akm, akn, amn) = a.tiles_rrw((kk, m), (kk, n), (m, n));
                krn.gemm(Trans::Yes, Trans::No, 1.0, akm, akn, 1.0, amn);
            }
        }
        for n in 0..kk {
            let (diag, target) = a.two_tiles_mut((kk, kk), (kk, n));
            krn.trmm_left_lower_trans(diag, target);
        }
        krn.lauum(a.tile_mut(kk, kk));
    }
}

/// POTRI: computes `A^{-1}` of an SPD tiled matrix in place, via
/// POTRF + TRTRI + LAUUM (the three steps of Section V-F.2). On return the
/// lower tiles of `a` hold the lower part of `A^{-1}`.
///
/// # Errors
/// Propagates kernel errors from the factorization or inversion steps.
pub fn potri_tiled(a: &mut SymmetricTiledMatrix) -> Result<(), KernelError> {
    potrf_tiled(a)?;
    trtri_tiled(a)?;
    lauum_tiled(a);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_panel, random_spd};
    use crate::verify::{cholesky_residual, inverse_residual, solve_residual};
    use sbc_kernels::Tile;

    #[test]
    fn potrf_matches_scalar_cholesky() {
        // b = 1 reduces the tiled algorithm to the scalar one.
        let nt = 8;
        let a0 = random_spd(3, nt, 1);
        let mut tiled = a0.clone();
        potrf_tiled(&mut tiled).unwrap();

        // dense scalar Cholesky on the expansion
        let n = nt;
        let mut d = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..=r {
                d[c * n + r] = a0.element(r, c);
            }
        }
        for kk in 0..n {
            d[kk * n + kk] = d[kk * n + kk].sqrt();
            for r in kk + 1..n {
                d[kk * n + r] /= d[kk * n + kk];
            }
            for c in kk + 1..n {
                let s = d[kk * n + c];
                for r in c..n {
                    d[c * n + r] -= s * d[kk * n + r];
                }
            }
        }
        for r in 0..n {
            for c in 0..=r {
                assert!(
                    (tiled.element(r, c) - d[c * n + r]).abs() < 1e-10,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn potrf_residual_small() {
        for (nt, b) in [(1, 4), (3, 5), (6, 4), (10, 3)] {
            let a0 = random_spd(11, nt, b);
            let mut l = a0.clone();
            potrf_tiled(&mut l).unwrap();
            let res = cholesky_residual(&a0, &l);
            assert!(res < 1e-12, "nt={nt} b={b} residual={res}");
        }
    }

    #[test]
    fn posv_solves_system() {
        for (nt, b) in [(1, 3), (4, 4), (7, 3)] {
            let a0 = random_spd(21, nt, b);
            let rhs = random_panel(22, nt, b);
            let mut a = a0.clone();
            let mut x = rhs.clone();
            posv_tiled(&mut a, &mut x).unwrap();
            let res = solve_residual(&a0, &x, &rhs);
            assert!(res < 1e-10, "nt={nt} b={b} residual={res}");
        }
    }

    #[test]
    fn trtri_inverts_factor() {
        for (nt, b) in [(1, 4), (3, 3), (6, 2), (5, 4)] {
            let a0 = random_spd(31, nt, b);
            let mut l = a0.clone();
            potrf_tiled(&mut l).unwrap();
            let mut w = l.clone();
            trtri_tiled(&mut w).unwrap();
            // check W * L == I on the dense expansion (both lower triangular)
            let n = nt * b;
            let mut maxdiff = 0.0_f64;
            for r in 0..n {
                for c in 0..n {
                    let mut s = 0.0;
                    for t in c..=r {
                        // W[r][t] * L[t][c], both lower
                        let wrt = lower_elem(&w, r, t);
                        let ltc = lower_elem(&l, t, c);
                        s += wrt * ltc;
                    }
                    let want = if r == c { 1.0 } else { 0.0 };
                    maxdiff = maxdiff.max((s - want).abs());
                }
            }
            assert!(maxdiff < 1e-9, "nt={nt} b={b} diff={maxdiff}");
        }
    }

    /// Element of the lower-triangular content (zero above diagonal),
    /// *without* the symmetric mirroring of `element()`.
    fn lower_elem(a: &SymmetricTiledMatrix, r: usize, c: usize) -> f64 {
        if c > r {
            return 0.0;
        }
        let b = a.tile_dim();
        let (ti, tj) = (r / b, c / b);
        let (ri, rj) = (r % b, c % b);
        if ti == tj && rj > ri {
            0.0
        } else {
            a.tile(ti, tj).get(ri, rj)
        }
    }

    #[test]
    fn potri_inverts_matrix() {
        for (nt, b) in [(1, 4), (3, 3), (5, 3)] {
            let a0 = random_spd(41, nt, b);
            let mut inv = a0.clone();
            potri_tiled(&mut inv).unwrap();
            let res = inverse_residual(&a0, &inv);
            assert!(res < 1e-9, "nt={nt} b={b} residual={res}");
        }
    }

    #[test]
    fn lauum_matches_dense_ltl() {
        let nt = 4;
        let b = 3;
        let a0 = random_spd(51, nt, b);
        let mut l = a0.clone();
        potrf_tiled(&mut l).unwrap();
        let mut out = l.clone();
        lauum_tiled(&mut out);
        let n = nt * b;
        for r in 0..n {
            for c in 0..=r {
                // (L^T L)[r][c] = sum_t L[t][r] * L[t][c]
                let mut s = 0.0;
                for t in r..n {
                    s += lower_elem(&l, t, r) * lower_elem(&l, t, c);
                }
                assert!((lower_elem(&out, r, c) - s).abs() < 1e-9, "({r},{c})");
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite_matrix() {
        let mut a = SymmetricTiledMatrix::from_tile_fn(2, 2, |i, j| {
            if i == j {
                // negative diagonal
                Tile::from_fn(2, |r, c| if r == c { -1.0 } else { 0.0 })
            } else {
                Tile::zeros(2)
            }
        });
        assert!(potrf_tiled(&mut a).is_err());
    }

    #[test]
    fn solve_sweeps_are_inverse_of_multiplication() {
        let nt = 5;
        let b = 3;
        let a0 = random_spd(61, nt, b);
        let mut l = a0.clone();
        potrf_tiled(&mut l).unwrap();
        let x0 = random_panel(62, nt, b);
        let mut y = x0.clone();
        solve_lower(&l, &mut y);
        solve_lower_trans(&l, &mut y);
        // now y = L^{-T} L^{-1} x0 = A^{-1} x0; multiply back via solve check
        let res = solve_residual(&a0, &y, &x0);
        assert!(res < 1e-10);
    }

    #[test]
    fn lu_matches_dense_factorization() {
        use crate::generate::random_general;
        use crate::verify::lu_residual;
        for (nt, b) in [(1, 4), (3, 3), (6, 4)] {
            let a0 = random_general(13, nt, b);
            let mut f = a0.clone();
            lu_tiled(&mut f).unwrap();
            let res = lu_residual(&a0, &f);
            assert!(res < 1e-12, "nt={nt} b={b} residual={res}");
        }
    }

    #[test]
    fn lu_scalar_tiles_match_dense_lu() {
        use crate::generate::random_general;
        // b = 1 reduces the tiled algorithm to scalar LU
        let nt = 7;
        let a0 = random_general(17, nt, 1);
        let mut f = a0.clone();
        lu_tiled(&mut f).unwrap();
        let n = nt;
        let mut d: Vec<f64> = (0..n * n).map(|x| a0.element(x / n, x % n)).collect();
        for kk in 0..n {
            let piv = d[kk * n + kk];
            for i in kk + 1..n {
                d[i * n + kk] /= piv;
            }
            for i in kk + 1..n {
                for j in kk + 1..n {
                    d[i * n + j] -= d[i * n + kk] * d[kk * n + j];
                }
            }
        }
        for r in 0..n {
            for c in 0..n {
                assert!((f.element(r, c) - d[r * n + c]).abs() < 1e-10, "({r},{c})");
            }
        }
    }
}
