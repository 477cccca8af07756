//! In-tile triangular product `L^T * L` (lower part).

use crate::Tile;

/// In-place computation of the lower triangle of `L^T * L`, where `L` is the
/// lower triangle (with diagonal) of `a`.
///
/// Mirrors LAPACK `dlauu2` with `uplo = 'L'`: processing rows top to bottom,
/// row `i` of the result only needs the trailing part of the original `L`
/// (rows `>= i`), which has not been overwritten yet.
///
/// The strictly upper triangle of `a` is neither read nor written.
///
/// The reference implementation behind [`crate::KernelBackend::Naive`].
pub(crate) fn naive_lauum(a: &mut Tile) {
    let n = a.dim();
    let data = a.as_mut_slice();
    for i in 0..n {
        let aii = data[i * n + i];
        if i + 1 < n {
            // A[i, 0..i] := aii * A[i, 0..i] + A[i+1.., 0..i]^T . A[i+1.., i]
            for j in 0..i {
                let mut s = aii * data[j * n + i];
                for k in i + 1..n {
                    s += data[j * n + k] * data[i * n + k];
                }
                data[j * n + i] = s;
            }
            // A[i,i] := dot(A[i.., i], A[i.., i])
            let d: f64 = data[i * n + i..(i + 1) * n].iter().map(|v| v * v).sum();
            data[i * n + i] = d;
        } else {
            // last row: scale by aii
            for j in 0..n {
                data[j * n + i] *= aii;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive_lauum as lauum;
    use crate::gemm::{naive_gemm as gemm, Trans};
    use crate::reference::random_lower_tile;
    use crate::Tile;

    #[test]
    fn lauum_matches_explicit_product() {
        for n in [1, 2, 3, 8, 17] {
            let mut l = random_lower_tile(n, 77);
            l.zero_strict_upper();
            let mut out = l.clone();
            lauum(&mut out);
            let mut full = Tile::zeros(n);
            gemm(Trans::Yes, Trans::No, 1.0, &l, &l, 0.0, &mut full);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (out.get(i, j) - full.get(i, j)).abs() < 1e-9,
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn lauum_identity() {
        let mut a = Tile::identity(6);
        lauum(&mut a);
        assert!(a.max_abs_diff(&Tile::identity(6)) < 1e-14);
    }

    #[test]
    fn lauum_does_not_touch_strict_upper() {
        let n = 7;
        let mut a = random_lower_tile(n, 2);
        for j in 1..n {
            for i in 0..j {
                a.set(i, j, -55.0);
            }
        }
        lauum(&mut a);
        for j in 1..n {
            for i in 0..j {
                assert_eq!(a.get(i, j), -55.0);
            }
        }
    }

    #[test]
    fn lauum_diagonal_squares() {
        let mut a = Tile::from_fn(4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        lauum(&mut a);
        for i in 0..4 {
            assert!((a.get(i, i) - ((i + 1) * (i + 1)) as f64).abs() < 1e-12);
        }
    }
}
