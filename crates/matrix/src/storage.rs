//! Tiled matrix containers.

use sbc_kernels::Tile;

/// A symmetric `N x N`-tile matrix storing only the lower-triangular tiles,
/// each a `b x b` [`Tile`].
///
/// Tile `(i, j)` exists for `0 <= j <= i < N`; accesses with `j > i` panic.
/// Elements above the diagonal *within* a diagonal tile are kept (the tile is
/// stored fully) but the tiled Cholesky kernels only touch its lower part,
/// matching LAPACK convention.
///
/// Storage is a packed `Vec<Tile>` in row-major lower-triangular order:
/// index of `(i, j)` is `i (i + 1) / 2 + j`.
#[derive(Clone)]
pub struct SymmetricTiledMatrix {
    nt: usize,
    b: usize,
    tiles: Vec<Tile>,
}

impl SymmetricTiledMatrix {
    /// Builds a matrix by evaluating `f(i, j)` for every stored tile
    /// (`j <= i`).
    pub fn from_tile_fn(nt: usize, b: usize, mut f: impl FnMut(usize, usize) -> Tile) -> Self {
        let mut tiles = Vec::with_capacity(nt * (nt + 1) / 2);
        for i in 0..nt {
            for j in 0..=i {
                let t = f(i, j);
                assert_eq!(t.dim(), b, "tile ({i},{j}) has wrong dimension");
                tiles.push(t);
            }
        }
        SymmetricTiledMatrix { nt, b, tiles }
    }

    /// Number of tile rows/columns `N`.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.nt
    }

    /// Tile dimension `b`.
    #[inline]
    pub fn tile_dim(&self) -> usize {
        self.b
    }

    /// Matrix order `n = N * b`.
    #[inline]
    pub(crate) fn order(&self) -> usize {
        self.nt * self.b
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(
            j <= i && i < self.nt,
            "tile index ({i},{j}) outside lower triangle of {0}x{0}",
            self.nt
        );
        i * (i + 1) / 2 + j
    }

    /// Borrows tile `(i, j)`, `j <= i`.
    #[inline]
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[self.idx(i, j)]
    }

    /// Mutably borrows tile `(i, j)`, `j <= i`.
    #[inline]
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        let k = self.idx(i, j);
        &mut self.tiles[k]
    }

    /// Mutably borrows two distinct tiles at once (needed by kernels that
    /// read one tile while updating another).
    pub(crate) fn two_tiles_mut(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
    ) -> (&mut Tile, &mut Tile) {
        let ia = self.idx(a.0, a.1);
        let ib = self.idx(b.0, b.1);
        assert_ne!(ia, ib, "two_tiles_mut requires distinct tiles");
        if ia < ib {
            let (lo, hi) = self.tiles.split_at_mut(ib);
            (&mut lo[ia], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(ia);
            let second = &mut lo[ib];
            (&mut hi[0], second)
        }
    }

    /// Borrows two tiles immutably and a third mutably, all distinct. Needed
    /// by the GEMM update of the tiled algorithms, which reads two tiles and
    /// writes a third.
    pub(crate) fn tiles_rrw(
        &mut self,
        r1: (usize, usize),
        r2: (usize, usize),
        w: (usize, usize),
    ) -> (&Tile, &Tile, &mut Tile) {
        let i1 = self.idx(r1.0, r1.1);
        let i2 = self.idx(r2.0, r2.1);
        let iw = self.idx(w.0, w.1);
        assert!(
            i1 != iw && i2 != iw,
            "tiles_rrw: write tile must differ from read tiles"
        );
        let ptr = self.tiles.as_mut_ptr();
        // SAFETY: all three indices are in bounds (checked by `idx`), and the
        // mutable reference targets an element distinct from both shared
        // references (asserted above). The two shared references may alias
        // each other, which is fine.
        unsafe { (&*ptr.add(i1), &*ptr.add(i2), &mut *ptr.add(iw)) }
    }

    /// Scalar element access treating the matrix as symmetric: `(r, c)` in
    /// `0..n` with `A[r][c] == A[c][r]`.
    pub fn element(&self, r: usize, c: usize) -> f64 {
        let (r, c) = if r >= c { (r, c) } else { (c, r) };
        let (ti, tj) = (r / self.b, c / self.b);
        let (ri, rj) = (r % self.b, c % self.b);
        if ti == tj && rj > ri {
            // within a diagonal tile, mirror to the lower part
            self.tile(ti, tj).get(rj, ri)
        } else {
            self.tile(ti, tj).get(ri, rj)
        }
    }

    /// Frobenius norm of the full symmetric matrix (off-diagonal tiles
    /// counted twice, diagonal tiles using their lower parts mirrored).
    pub fn norm_fro(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.nt {
            for j in 0..=i {
                let t = self.tile(i, j);
                if i == j {
                    for c in 0..self.b {
                        for r in c..self.b {
                            let v = t.get(r, c);
                            s += if r == c { v * v } else { 2.0 * v * v };
                        }
                    }
                } else {
                    let f = t.norm_fro();
                    s += 2.0 * f * f;
                }
            }
        }
        s.sqrt()
    }

    /// Iterates over stored tile coordinates in row-major order.
    pub fn tile_coords(&self) -> impl Iterator<Item = (usize, usize)> {
        let nt = self.nt;
        (0..nt).flat_map(move |i| (0..=i).map(move |j| (i, j)))
    }
}

/// A general (non-symmetric) `N x N`-tile matrix storing every tile — the
/// container for the LU substrate of Section III-E.
#[derive(Clone)]
pub struct FullTiledMatrix {
    nt: usize,
    b: usize,
    tiles: Vec<Tile>,
}

impl FullTiledMatrix {
    /// Builds a matrix by evaluating `f(i, j)` for every tile.
    pub fn from_tile_fn(nt: usize, b: usize, mut f: impl FnMut(usize, usize) -> Tile) -> Self {
        let mut tiles = Vec::with_capacity(nt * nt);
        for i in 0..nt {
            for j in 0..nt {
                let t = f(i, j);
                assert_eq!(t.dim(), b, "tile ({i},{j}) has wrong dimension");
                tiles.push(t);
            }
        }
        FullTiledMatrix { nt, b, tiles }
    }

    /// Number of tile rows/columns.
    #[inline]
    pub(crate) fn tile_count(&self) -> usize {
        self.nt
    }

    /// Matrix order `n = N * b`.
    #[inline]
    pub(crate) fn order(&self) -> usize {
        self.nt * self.b
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(
            i < self.nt && j < self.nt,
            "tile index ({i},{j}) out of range"
        );
        i * self.nt + j
    }

    /// Borrows tile `(i, j)`.
    #[inline]
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[self.idx(i, j)]
    }

    /// Mutably borrows tile `(i, j)`.
    #[inline]
    pub(crate) fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        let k = self.idx(i, j);
        &mut self.tiles[k]
    }

    /// Mutably borrows two distinct tiles.
    pub(crate) fn two_tiles_mut(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
    ) -> (&mut Tile, &mut Tile) {
        let ia = self.idx(a.0, a.1);
        let ib = self.idx(b.0, b.1);
        assert_ne!(ia, ib, "two_tiles_mut requires distinct tiles");
        if ia < ib {
            let (lo, hi) = self.tiles.split_at_mut(ib);
            (&mut lo[ia], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(ia);
            let second = &mut lo[ib];
            (&mut hi[0], second)
        }
    }

    /// Borrows two tiles immutably and a third (distinct) tile mutably.
    pub(crate) fn tiles_rrw(
        &mut self,
        r1: (usize, usize),
        r2: (usize, usize),
        w: (usize, usize),
    ) -> (&Tile, &Tile, &mut Tile) {
        let i1 = self.idx(r1.0, r1.1);
        let i2 = self.idx(r2.0, r2.1);
        let iw = self.idx(w.0, w.1);
        assert!(
            i1 != iw && i2 != iw,
            "tiles_rrw: write tile must differ from read tiles"
        );
        let ptr = self.tiles.as_mut_ptr();
        // SAFETY: indices in bounds (checked by `idx`); the mutable element
        // is distinct from both shared ones (asserted); shared aliasing of
        // the two reads is allowed.
        unsafe { (&*ptr.add(i1), &*ptr.add(i2), &mut *ptr.add(iw)) }
    }

    /// Scalar element `(r, c)` in `0..n`.
    pub(crate) fn element(&self, r: usize, c: usize) -> f64 {
        self.tile(r / self.b, c / self.b)
            .get(r % self.b, c % self.b)
    }

    /// Frobenius norm.
    pub(crate) fn norm_fro(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| {
                let f = t.norm_fro();
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// A tall panel of `N x 1` tiles (the POSV right-hand side `B`, one tile
/// wide as in Section V-F.1 of the paper).
#[derive(Clone)]
pub struct TiledPanel {
    b: usize,
    tiles: Vec<Tile>,
}

impl TiledPanel {
    /// Builds a panel by evaluating `f(i)` for each tile row.
    pub fn from_tile_fn(nt: usize, b: usize, f: impl FnMut(usize) -> Tile) -> Self {
        let tiles: Vec<Tile> = (0..nt).map(f).collect();
        for t in &tiles {
            assert_eq!(t.dim(), b);
        }
        TiledPanel { b, tiles }
    }

    /// Number of tile rows.
    #[inline]
    pub(crate) fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Tile dimension.
    #[inline]
    pub(crate) fn tile_dim(&self) -> usize {
        self.b
    }

    /// Borrows tile row `i`.
    #[inline]
    pub(crate) fn tile(&self, i: usize) -> &Tile {
        &self.tiles[i]
    }

    /// Mutably borrows tile row `i`.
    #[inline]
    pub(crate) fn tile_mut(&mut self, i: usize) -> &mut Tile {
        &mut self.tiles[i]
    }

    /// Mutably borrows two distinct tile rows at once.
    pub(crate) fn two_tiles_mut(&mut self, a: usize, b: usize) -> (&mut Tile, &mut Tile) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = self.tiles.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(a);
            let second = &mut lo[b];
            (&mut hi[0], second)
        }
    }

    /// Maximum absolute element-wise difference with another panel.
    pub fn max_abs_diff(&self, other: &TiledPanel) -> f64 {
        assert_eq!(self.tiles.len(), other.tiles.len());
        self.tiles
            .iter()
            .zip(other.tiles.iter())
            .fold(0.0_f64, |m, (a, b)| m.max(a.max_abs_diff(b)))
    }

    /// Frobenius norm of the panel.
    pub(crate) fn norm_fro(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| {
                let f = t.norm_fro();
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SymmetricTiledMatrix {
        /// Creates a zero matrix with `nt x nt` tiles of dimension `b`.
        fn zeros(nt: usize, b: usize) -> Self {
            let count = nt * (nt + 1) / 2;
            SymmetricTiledMatrix {
                nt,
                b,
                tiles: vec![Tile::zeros(b); count],
            }
        }
    }

    impl TiledPanel {
        /// Creates a zero panel of `nt` tiles of dimension `b`.
        fn zeros(nt: usize, b: usize) -> Self {
            TiledPanel {
                b,
                tiles: vec![Tile::zeros(b); nt],
            }
        }
    }

    #[test]
    fn packed_indexing_roundtrip() {
        let nt = 5;
        let mut m = SymmetricTiledMatrix::zeros(nt, 2);
        for i in 0..nt {
            for j in 0..=i {
                m.tile_mut(i, j).set(0, 0, (i * 10 + j) as f64);
            }
        }
        for i in 0..nt {
            for j in 0..=i {
                assert_eq!(m.tile(i, j).get(0, 0), (i * 10 + j) as f64);
            }
        }
        assert_eq!(m.tile_coords().count(), 15);
    }

    #[test]
    #[should_panic(expected = "outside lower triangle")]
    fn upper_tile_access_panics() {
        let m = SymmetricTiledMatrix::zeros(3, 2);
        let _ = m.tile(0, 1);
    }

    #[test]
    fn element_access_is_symmetric() {
        let m = SymmetricTiledMatrix::from_tile_fn(3, 2, |i, j| {
            Tile::from_fn(2, |r, c| (1000 * i + 100 * j + 10 * r + c) as f64)
        });
        for r in 0..6 {
            for c in 0..6 {
                assert_eq!(m.element(r, c), m.element(c, r), "({r},{c})");
            }
        }
    }

    #[test]
    fn two_tiles_mut_returns_requested_tiles() {
        let mut m = SymmetricTiledMatrix::zeros(4, 2);
        m.tile_mut(2, 1).set(0, 0, 21.0);
        m.tile_mut(3, 0).set(0, 0, 30.0);
        let (a, b) = m.two_tiles_mut((2, 1), (3, 0));
        assert_eq!(a.get(0, 0), 21.0);
        assert_eq!(b.get(0, 0), 30.0);
        let (a, b) = m.two_tiles_mut((3, 0), (2, 1));
        assert_eq!(a.get(0, 0), 30.0);
        assert_eq!(b.get(0, 0), 21.0);
    }

    #[test]
    fn norm_counts_symmetry() {
        // Matrix with a single off-diagonal tile entry v: ||A||_F = v*sqrt(2).
        let mut m = SymmetricTiledMatrix::zeros(2, 2);
        m.tile_mut(1, 0).set(0, 0, 3.0);
        assert!((m.norm_fro() - 3.0 * 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn panel_two_tiles_mut() {
        let mut p = TiledPanel::zeros(4, 3);
        p.tile_mut(1).set(0, 0, 1.0);
        p.tile_mut(3).set(0, 0, 3.0);
        let (a, b) = p.two_tiles_mut(3, 1);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(b.get(0, 0), 1.0);
    }

    #[test]
    fn tile_coords_covers_lower_triangle() {
        let m = SymmetricTiledMatrix::zeros(4, 1);
        let coords: Vec<_> = m.tile_coords().collect();
        assert_eq!(coords.len(), 10);
        assert_eq!(coords[0], (0, 0));
        assert_eq!(coords[9], (3, 3));
        assert!(coords.iter().all(|&(i, j)| j <= i));
    }
}
