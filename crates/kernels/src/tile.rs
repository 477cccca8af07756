//! Square, column-major `f64` tiles.
//!
//! A [`Tile`] is the unit of data distribution and communication in the SBC
//! reproduction: the input matrix is split into `N × N` tiles of dimension
//! `b × b`, each owned by one node, and every inter-node message carries
//! exactly one tile (Section V-C of the paper: Chameleon/StarPU communicate
//! tile-by-tile with point-to-point messages).
//!
//! # Cost model
//!
//! A tile's values live in one reference-counted allocation, so a tile is
//! allocated once and every later copy of it is a handle:
//!
//! * [`Clone`] is O(1) — it bumps a count. Reading an operand, sending a
//!   tile to a rank of the same process, retaining it for retransmission
//!   and gathering a result all clone.
//! * The first write to a tile whose buffer is still shared copies the
//!   buffer (`b² · 8` bytes, one allocation) and un-shares it; a write to an
//!   unshared tile writes in place. Handles never observe each other's
//!   writes: a clone is logically a private copy.
//! * Every `&mut` accessor ([`Tile::set`], [`Tile::as_mut_slice`],
//!   [`Tile::col_mut`], …) checks uniqueness first — an atomic
//!   read-modify-write, a few dozen cycles. A loop therefore takes
//!   [`Tile::as_mut_slice`] (or a column) *once* and indexes the slice;
//!   calling `set` per element pays the check per element.
//!
//! Equality stays by value.

use std::sync::Arc;

/// A square `b × b` tile of `f64` values in column-major order.
///
/// Column-major matches BLAS/LAPACK conventions and makes the inner loops of
/// the kernels unit-stride over rows of a column. Cloning shares the buffer;
/// see the [module documentation](self) for what that costs and when a
/// write copies.
#[derive(Clone, PartialEq)]
pub struct Tile {
    b: usize,
    data: Arc<[f64]>,
}

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Tile({}x{}):", self.b, self.b)?;
        for i in 0..self.b.min(8) {
            for j in 0..self.b.min(8) {
                write!(f, " {:10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        if self.b > 8 {
            writeln!(f, " ...")?;
        }
        Ok(())
    }
}

impl Tile {
    /// Creates a zero-filled tile of dimension `b`.
    pub fn zeros(b: usize) -> Self {
        Tile {
            b,
            data: std::iter::repeat_n(0.0, b * b).collect(),
        }
    }

    /// Creates an identity tile of dimension `b`.
    pub fn identity(b: usize) -> Self {
        Tile::from_fn(b, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Creates a tile from `b * b` values in column-major order — a
    /// `Vec`, or an iterator: one of exact size (a slice or range adapter,
    /// as in the wire decoder) is written straight into the tile's
    /// allocation, with no staging `Vec`.
    ///
    /// # Panics
    /// Panics if `data` does not yield exactly `b * b` values.
    pub fn from_column_major(b: usize, data: impl IntoIterator<Item = f64>) -> Self {
        let data: Arc<[f64]> = data.into_iter().collect();
        assert_eq!(data.len(), b * b, "tile data length must be b*b");
        Tile { b, data }
    }

    /// Creates a tile by evaluating `f(i, j)` at every (row, column), in
    /// storage order: column by column, rows ascending within a column
    /// (the seeded generators draw from one random stream and rely on it).
    pub fn from_fn(b: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let (mut i, mut j) = (0, 0);
        Tile::from_column_major(
            b,
            (0..b * b).map(|_| {
                let v = f(i, j);
                i += 1;
                if i == b {
                    (i, j) = (0, j + 1);
                }
                v
            }),
        )
    }

    /// Tile dimension `b`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.b
    }

    /// Number of bytes of payload this tile carries over the network.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Element at (row `i`, column `j`).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.b && j < self.b);
        self.data[j * self.b + i]
    }

    /// Sets the element at (row `i`, column `j`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.b && j < self.b);
        let at = j * self.b + i;
        self.as_mut_slice()[at] = v;
    }

    /// Raw column-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data. Copies the buffer first if another
    /// handle still shares it; every other `&mut` accessor goes through
    /// here.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.data)
    }

    /// Borrows column `j` as a slice of `b` contiguous rows.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.b..(j + 1) * self.b]
    }

    /// Mutably borrows column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let b = self.b;
        &mut self.as_mut_slice()[j * b..(j + 1) * b]
    }

    /// Returns the transposed tile.
    pub fn transposed(&self) -> Tile {
        Tile::from_fn(self.b, |i, j| self.get(j, i))
    }

    /// Zeroes the strictly upper triangle, keeping the lower triangle and
    /// diagonal. Used to canonicalize Cholesky factors for comparisons.
    pub fn zero_strict_upper(&mut self) {
        let b = self.b;
        let data = self.as_mut_slice();
        for j in 1..b {
            data[j * b..j * b + j].fill(0.0);
        }
    }

    /// Mirrors the lower triangle onto the upper triangle, producing a
    /// symmetric tile. Used when expanding symmetric storage.
    pub fn symmetrize_from_lower(&mut self) {
        let b = self.b;
        let data = self.as_mut_slice();
        for j in 1..b {
            for i in 0..j {
                data[j * b + i] = data[i * b + j];
            }
        }
    }

    /// Frobenius norm of the tile.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-abs norm of the tile.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// `self += other`, element-wise. Used by 2.5D reduction tasks.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn add_assign(&mut self, other: &Tile) {
        assert_eq!(self.b, other.b, "tile dimension mismatch in add_assign");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self -= other`, element-wise.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn sub_assign(&mut self, other: &Tile) {
        assert_eq!(self.b, other.b, "tile dimension mismatch in sub_assign");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// Maximum absolute element-wise difference between two tiles.
    pub fn max_abs_diff(&self, other: &Tile) -> f64 {
        assert_eq!(self.b, other.b, "tile dimension mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Tile::zeros(4);
        assert_eq!(z.dim(), 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Tile::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn column_major_layout() {
        let t = Tile::from_column_major(2, vec![1.0, 2.0, 3.0, 4.0]);
        // column 0 is [1, 2], column 1 is [3, 4]
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(0, 1), 3.0);
        assert_eq!(t.get(1, 1), 4.0);
        assert_eq!(t.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_fn_matches_get() {
        let t = Tile::from_fn(5, |i, j| (i * 10 + j) as f64);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(t.get(i, j), (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let t = Tile::from_fn(6, |i, j| (3 * i + 7 * j) as f64);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed().get(2, 5), t.get(5, 2));
    }

    #[test]
    fn bytes_counts_payload() {
        assert_eq!(Tile::zeros(500).bytes(), 500 * 500 * 8); // the paper's 2 MB tile
    }

    #[test]
    fn add_sub_assign_roundtrip() {
        let a = Tile::from_fn(4, |i, j| (i + j) as f64);
        let b = Tile::from_fn(4, |i, j| (i * j) as f64);
        let mut c = a.clone();
        c.add_assign(&b);
        c.sub_assign(&b);
        assert!(c.max_abs_diff(&a) == 0.0);
    }

    #[test]
    fn zero_strict_upper_keeps_lower() {
        let mut t = Tile::from_fn(4, |_, _| 1.0);
        t.zero_strict_upper();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.get(i, j), if j > i { 0.0 } else { 1.0 });
            }
        }
    }

    #[test]
    fn symmetrize_from_lower_mirrors() {
        let mut t = Tile::from_fn(3, |i, j| if i >= j { (i * 3 + j) as f64 } else { -1.0 });
        t.symmetrize_from_lower();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.get(i, j), t.get(j, i));
            }
        }
    }

    type Write = fn(&mut Tile);

    /// Every `&mut` accessor, as a write that changes at least one value of
    /// the tile the sharing test builds.
    fn writes() -> [(&'static str, Write); 7] {
        [
            ("set", |t| t.set(2, 1, -7.0)),
            ("as_mut_slice", |t| t.as_mut_slice()[5] = -7.0),
            ("col_mut", |t| t.col_mut(3)[0] = -7.0),
            ("add_assign", |t| t.add_assign(&Tile::identity(4))),
            ("sub_assign", |t| t.sub_assign(&Tile::identity(4))),
            ("zero_strict_upper", Tile::zero_strict_upper),
            ("symmetrize_from_lower", Tile::symmetrize_from_lower),
        ]
    }

    fn ptr(t: &Tile) -> *const f64 {
        t.as_slice().as_ptr()
    }

    fn bits(t: &Tile) -> Vec<u64> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_clone_shares_the_buffer_until_either_handle_writes() {
        for (name, write) in writes() {
            // NaN and -0.0 on board: "unchanged" is judged on the bits
            let mut original = Tile::from_fn(4, |i, j| (1 + i + 10 * j) as f64);
            original.set(0, 3, f64::NAN);
            original.set(3, 0, -0.0);
            let before = bits(&original);

            let mut copy = original.clone();
            assert_eq!(ptr(&copy), ptr(&original), "{name}: a clone shares");
            write(&mut copy);
            assert_ne!(ptr(&copy), ptr(&original), "{name}: a write un-shares");
            assert_eq!(bits(&original), before, "{name}: the other handle moved");
            assert_ne!(bits(&copy), before, "{name}: the write happened");

            // now unshared: further writes happen in place
            let at = ptr(&copy);
            write(&mut copy);
            assert_eq!(ptr(&copy), at, "{name}: an unshared tile was copied");
        }
    }

    #[test]
    fn a_write_through_the_original_leaves_the_clone_alone() {
        let mut original = Tile::from_fn(3, |i, j| (i * 3 + j) as f64);
        let copy = original.clone();
        let (at, before) = (ptr(&copy), bits(&copy));
        original.set(1, 1, 99.0);
        assert_eq!((ptr(&copy), bits(&copy)), (at, before));
        assert_eq!(original.get(1, 1), 99.0);
        // the clone is the last handle on the old buffer: it writes in place
        let mut copy = copy;
        copy.set(0, 0, 1.0);
        assert_eq!(ptr(&copy), at);
    }

    #[test]
    fn equality_is_by_value_not_by_buffer() {
        let a = Tile::from_fn(3, |i, j| (i + 2 * j) as f64);
        let b = Tile::from_column_major(3, a.as_slice().to_vec());
        assert_ne!(ptr(&a), ptr(&b));
        assert_eq!(a, b);
        assert_ne!(a, Tile::zeros(3));
        assert_ne!(Tile::zeros(2), Tile::zeros(3));
        // IEEE equality: a NaN differs from itself, even through a shared
        // buffer, and the two zeros are equal
        let mut nan = Tile::zeros(2);
        nan.set(0, 0, f64::NAN);
        assert_ne!(nan, nan.clone());
        let mut neg = Tile::zeros(2);
        neg.set(1, 1, -0.0);
        assert_eq!(neg, Tile::zeros(2));
    }

    #[test]
    fn constructors_check_the_length() {
        assert_eq!(Tile::from_column_major(0, Vec::new()).bytes(), 0);
        for wrong in [3, 5] {
            let built = std::panic::catch_unwind(|| Tile::from_column_major(2, vec![0.0; wrong]));
            assert!(built.is_err(), "{wrong} values are not a 2 x 2 tile");
        }
    }

    #[test]
    fn tiles_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tile>();

        // a reader on a clone and a writer on its own handle, released
        // together: the reader must see the pre-write values throughout,
        // whichever of them the copy-on-write races with
        let b = 64;
        for round in 0..50 {
            let mut mine = Tile::from_fn(b, |i, j| (i + b * j) as f64);
            let theirs = mine.clone();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        for (k, v) in theirs.as_slice().iter().enumerate() {
                            assert_eq!(*v, k as f64, "round {round}");
                        }
                    }
                });
                start.wait();
                for v in mine.as_mut_slice() {
                    *v = -1.0;
                }
                reader.join().expect("the reader saw a torn tile");
            });
            assert!(mine.as_slice().iter().all(|&v| v == -1.0));
        }
    }

    #[test]
    fn norms() {
        let t = Tile::from_column_major(2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((t.norm_fro() - 5.0).abs() < 1e-12);
        assert_eq!(t.norm_max(), 4.0);
    }
}
