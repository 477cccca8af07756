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
//! A tile's values live in one reference-counted buffer, so a tile is
//! allocated once and every later copy of it is a handle:
//!
//! * [`Clone`] is O(1) — it bumps a count. Reading an operand, sending a
//!   tile to a rank of the same process, retaining it for retransmission
//!   and gathering a result all clone.
//! * The first write to a tile whose buffer is still shared copies the
//!   buffer (`b² · 8` bytes) and un-shares it; a write to an unshared tile
//!   writes in place. Handles never observe each other's writes: a clone is
//!   logically a private copy.
//! * Every `&mut` accessor ([`Tile::set`], [`Tile::as_mut_slice`],
//!   `Tile::col_mut`, …) checks uniqueness first — an atomic
//!   read-modify-write, a few dozen cycles. A loop therefore takes
//!   [`Tile::as_mut_slice`] (or a column) *once* and indexes the slice;
//!   calling `set` per element pays the check per element.
//!
//! A buffer of at least one page (4 KiB, so `b >= 23`) is allocated once
//! per process high-water mark, not once per tile: when the last handle on
//! it drops, it goes onto one process-wide LIFO free list, keyed by length
//! and bounded by a byte budget (64 MiB; a buffer freed into a full list
//! goes back to the allocator). [`Tile::zeros`], [`Tile::from_fill`] (so
//! the seeded generators and the wire reader), [`Tile::from_column_major`]
//! and the copy-on-write take from the list before they allocate, and write
//! every element before the tile is visible. A recycled buffer is neither
//! page-faulted back in nor zeroed twice, and [`Tile::from_fill`] does not
//! zero it at all: its caller writes every value. Smaller tiles never
//! touch the list or its lock.
//!
//! Equality stays by value.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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

/// Buffers shorter than one page never enter the free list.
const PAGE_WORDS: usize = 4096 / std::mem::size_of::<f64>();

/// Bytes the process-wide free list holds at most.
const BUDGET: usize = 64 << 20;

/// Unshared tile buffers waiting for reuse: one LIFO shelf per length, at
/// most `budget` bytes in all.
struct FreeList {
    budget: usize,
    bytes: usize,
    shelves: Vec<(usize, Vec<Arc<[f64]>>)>,
}

impl FreeList {
    const fn new(budget: usize) -> Self {
        FreeList {
            budget,
            bytes: 0,
            shelves: Vec::new(),
        }
    }

    /// The buffer of `len` words shelved last, if any.
    fn take(&mut self, len: usize) -> Option<Arc<[f64]>> {
        let (_, shelf) = self.shelves.iter_mut().find(|(l, _)| *l == len)?;
        let buf = shelf.pop()?;
        self.bytes -= std::mem::size_of_val(&*buf);
        Some(buf)
    }

    /// Shelves `buf`, or hands it back when it would overrun the budget.
    fn put(&mut self, buf: Arc<[f64]>) -> Option<Arc<[f64]>> {
        let bytes = std::mem::size_of_val(&*buf);
        if self.bytes + bytes > self.budget {
            return Some(buf);
        }
        self.bytes += bytes;
        match self.shelves.iter_mut().find(|(l, _)| *l == buf.len()) {
            Some((_, shelf)) => shelf.push(buf),
            None => self.shelves.push((buf.len(), vec![buf])),
        }
        None
    }
}

/// The one free list: socket readers take from it and rank threads give
/// back, so it is shared, not per thread.
static FREE: Mutex<FreeList> = Mutex::new(FreeList::new(BUDGET));

fn free_list() -> std::sync::MutexGuard<'static, FreeList> {
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shelved buffer of `len` words, when `len` is page-sized and the list
/// has one.
fn recycled(len: usize) -> Option<Arc<[f64]>> {
    if len < PAGE_WORDS {
        return None;
    }
    free_list().take(len)
}

/// The values of a buffer no other handle shares.
fn unique(buf: &mut Arc<[f64]>) -> &mut [f64] {
    Arc::get_mut(buf).expect("a tile buffer is never weakly referenced")
}

/// The empty buffer a dropped tile leaves behind when its own is shelved:
/// one for the process, so `drop` never allocates one.
fn empty() -> Arc<[f64]> {
    static EMPTY: OnceLock<Arc<[f64]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())))
}

impl Drop for Tile {
    /// The last handle on a page-sized buffer shelves it.
    fn drop(&mut self) {
        if self.data.len() >= PAGE_WORDS && Arc::get_mut(&mut self.data).is_some() {
            let buf = std::mem::replace(&mut self.data, empty());
            // a buffer the budget refuses is freed after the lock is released
            let refused = free_list().put(buf);
            drop(refused);
        }
    }
}

impl Tile {
    /// Creates a zero-filled tile of dimension `b`.
    pub fn zeros(b: usize) -> Self {
        let data = match recycled(b * b) {
            Some(mut buf) => {
                unique(&mut buf).fill(0.0);
                buf
            }
            None => std::iter::repeat_n(0.0, b * b).collect(),
        };
        Tile { b, data }
    }

    /// Creates an identity tile of dimension `b`.
    pub fn identity(b: usize) -> Self {
        Tile::from_fn(b, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Creates a tile whose `b * b` column-major values `fill` writes, all
    /// of them, into the tile's buffer in place: a recycled buffer when the
    /// free list has one, holding a dropped tile's stale values (so it is
    /// not zero-filled first), else a fresh zeroed one. The seeded
    /// generators and the wire reader build their tiles here.
    pub fn from_fill(b: usize, fill: impl FnOnce(&mut [f64])) -> Self {
        let Ok(tile) = Tile::try_from_fill::<std::convert::Infallible>(b, |data| {
            fill(data);
            Ok(())
        });
        tile
    }

    /// [`Tile::from_fill`] with a fill that may fail, such as a read from
    /// a stream; a failed fill's buffer goes back to the free list.
    pub fn try_from_fill<E>(
        b: usize,
        fill: impl FnOnce(&mut [f64]) -> Result<(), E>,
    ) -> Result<Self, E> {
        let data = recycled(b * b).unwrap_or_else(|| std::iter::repeat_n(0.0, b * b).collect());
        let mut tile = Tile { b, data };
        fill(unique(&mut tile.data))?;
        Ok(tile)
    }

    /// Creates a tile from `b * b` values in column-major order — a
    /// `Vec`, or an exact-size iterator (a slice or range adapter),
    /// written straight into the tile's buffer with no staging `Vec`.
    ///
    /// # Panics
    /// Panics if `data` does not yield exactly `b * b` values.
    pub fn from_column_major<I>(b: usize, data: I) -> Self
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: ExactSizeIterator,
    {
        let data = data.into_iter();
        assert_eq!(data.len(), b * b, "tile data length must be b*b");
        let data = match recycled(b * b) {
            Some(mut buf) => {
                let mut written = 0;
                for (slot, v) in unique(&mut buf).iter_mut().zip(data) {
                    *slot = v;
                    written += 1;
                }
                assert_eq!(written, b * b, "tile data length must be b*b");
                buf
            }
            None => {
                let buf: Arc<[f64]> = data.collect();
                assert_eq!(buf.len(), b * b, "tile data length must be b*b");
                buf
            }
        };
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
        // a count of one is final: a clone needs a handle, and we hold the
        // only one
        if Arc::strong_count(&self.data) > 1 {
            self.data = match recycled(self.data.len()) {
                Some(mut buf) => {
                    unique(&mut buf).copy_from_slice(&self.data);
                    buf
                }
                None => Arc::from(&self.data[..]),
            };
        }
        unique(&mut self.data)
    }

    /// Borrows column `j` as a slice of `b` contiguous rows.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.b..(j + 1) * self.b]
    }

    /// Mutably borrows column `j`.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let b = self.b;
        &mut self.as_mut_slice()[j * b..(j + 1) * b]
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

    impl Tile {
        /// Returns the transposed tile (the reference the TRSM variants
        /// are checked against).
        pub(crate) fn transposed(&self) -> Tile {
            Tile::from_fn(self.b, |i, j| self.get(j, i))
        }
    }

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
    fn add_assign_sums_element_wise() {
        let a = Tile::from_fn(4, |i, j| (i + j) as f64);
        let b = Tile::from_fn(4, |i, j| (i * j) as f64 - 0.5);
        let mut c = a.clone();
        c.add_assign(&b);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.get(i, j), a.get(i, j) + b.get(i, j));
            }
        }
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
    fn writes() -> [(&'static str, Write); 6] {
        [
            ("set", |t| t.set(2, 1, -7.0)),
            ("as_mut_slice", |t| t.as_mut_slice()[5] = -7.0),
            ("col_mut", |t| t.col_mut(3)[0] = -7.0),
            ("add_assign", |t| t.add_assign(&Tile::identity(4))),
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

    /// A seeded stream of small numbers, one generator per test.
    struct Seeded(u64);

    impl Seeded {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Whether the process-wide list holds the buffer at `at`.
    fn shelved(at: *const f64) -> bool {
        let list = free_list();
        let mut bufs = list.shelves.iter().flat_map(|(_, shelf)| shelf);
        bufs.any(|buf| buf.as_ptr() == at)
    }

    #[test]
    fn recycled_buffers_never_alias_a_live_handle() {
        // page-sized, so every buffer goes through the list; other tests
        // of this binary share the list and only add traffic
        const B: usize = 24;
        for seed in 1..=8u64 {
            let mut rng = Seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // every live tile beside the bits it must still hold
            let mut live: Vec<(Tile, Vec<u64>)> = Vec::new();
            for step in 0..400 {
                let op = if live.is_empty() { 0 } else { rng.below(5) };
                let touched = match op {
                    0 => {
                        let fill = rng.below(1000) as f64;
                        let t = match rng.below(4) {
                            0 => Tile::zeros(B),
                            1 => Tile::from_fn(B, |i, j| fill + (i * B + j) as f64),
                            2 => Tile::from_column_major(B, vec![fill; B * B]),
                            _ => Tile::from_fill(B, |data| data.fill(fill)),
                        };
                        let want = bits(&t);
                        live.push((t, want));
                        Some(live.len() - 1)
                    }
                    1 => {
                        let (t, want) = &live[rng.below(live.len())];
                        let copy = (t.clone(), want.clone());
                        live.push(copy);
                        None
                    }
                    2 | 3 => {
                        live.swap_remove(rng.below(live.len()));
                        None
                    }
                    _ => {
                        let k = rng.below(live.len());
                        let (at, v) = (rng.below(B * B), -(step as f64));
                        let (t, want) = &mut live[k];
                        t.as_mut_slice()[at] = v;
                        want[at] = v.to_bits();
                        Some(k)
                    }
                };
                if let Some(k) = touched {
                    let at = ptr(&live[k].0);
                    for (other, (t, _)) in live.iter().enumerate() {
                        assert!(
                            other == k || ptr(t) != at,
                            "seed {seed} step {step}: aliased"
                        );
                    }
                }
                for (t, want) in &live {
                    assert_eq!(&bits(t), want, "seed {seed} step {step}: a live tile moved");
                }
            }
        }
    }

    #[test]
    fn zeros_on_a_recycled_buffer_reads_all_zeros() {
        // a dimension no other test of this binary uses
        const B: usize = 41;
        let dirty = Tile::from_fn(B, |i, j| (i + j) as f64 + 0.5);
        let at = ptr(&dirty);
        let copy = dirty.clone();
        drop(dirty);
        assert!(!shelved(at), "a buffer with a live handle is not shelved");
        drop(copy);
        assert!(shelved(at), "the last handle shelves its buffer");
        let zeros = Tile::zeros(B);
        assert_eq!(ptr(&zeros), at, "zeros takes the shelved buffer");
        assert!(zeros.as_slice().iter().all(|&v| v.to_bits() == 0));
    }

    #[test]
    fn a_copy_on_write_takes_a_recycled_buffer() {
        const B: usize = 43;
        let original = Tile::from_fn(B, |i, j| (i * B + j) as f64);
        let spare = Tile::zeros(B);
        let at = ptr(&spare);
        drop(spare);
        let mut copy = original.clone();
        copy.set(0, 0, -1.0);
        assert_eq!(ptr(&copy), at, "the copy lands in the shelved buffer");
        assert_eq!(&bits(&copy)[1..], &bits(&original)[1..]);
        assert_eq!(copy.get(0, 0), -1.0);
    }

    #[test]
    fn sub_page_buffers_bypass_the_list() {
        assert_eq!((22 * 22 < PAGE_WORDS, 23 * 23 < PAGE_WORDS), (true, false));
        let small = Tile::from_fn(22, |i, j| (i + j) as f64);
        let at = ptr(&small);
        drop(small);
        assert!(!shelved(at));
        assert!(
            recycled(22 * 22).is_none(),
            "sub-page sizes are never looked up"
        );
        let list = free_list();
        assert!(list.shelves.iter().all(|&(len, _)| len >= PAGE_WORDS));
        assert!(list.bytes <= BUDGET);
    }

    #[test]
    fn the_budget_holds_and_the_list_is_last_in_first_out() {
        let buf = |fill: f64| -> Arc<[f64]> { vec![fill; PAGE_WORDS].into() };
        let bytes = PAGE_WORDS * 8;
        let mut list = FreeList::new(3 * bytes);
        let kept: Vec<_> = (0..3).map(|k| buf(k as f64)).collect();
        let ats: Vec<_> = kept.iter().map(|b| b.as_ptr()).collect();
        for b in kept {
            assert!(list.put(b).is_none());
        }
        let refused = list.put(buf(9.0)).expect("a full list refuses");
        assert_eq!(refused[0], 9.0);
        assert_eq!(list.bytes, 3 * bytes);
        assert!(list.take(PAGE_WORDS + 1).is_none(), "keyed by length");
        for &at in ats.iter().rev() {
            assert_eq!(list.take(PAGE_WORDS).map(|b| b.as_ptr()), Some(at));
        }
        assert_eq!((list.bytes, list.take(PAGE_WORDS)), (0, None));
    }

    #[test]
    fn norms() {
        let t = Tile::from_column_major(2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((t.norm_fro() - 5.0).abs() < 1e-12);
        assert_eq!(t.norm_max(), 4.0);
    }
}
