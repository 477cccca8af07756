//! Task and data identifiers.

use sbc_kernels::flops;

/// Index of a task within its [`crate::TaskGraph`].
pub type TaskId = u32;

/// A logical tile instance — the unit of data access, versioning and
/// communication.
///
/// `phase` distinguishes redistributed generations of the matrix in the
/// remapped POTRI workflow (0 = first distribution, 1 = after the first
/// redistribution, ...). `slice` distinguishes the per-slice copies of the
/// 2.5D layout. Both are 0 for plain 2D operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileRef {
    /// Lower tile `(i, j)` of the symmetric matrix (`j <= i`).
    A {
        /// Redistribution generation.
        phase: u8,
        /// 2.5D slice of this copy.
        slice: u8,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// 2.5D accumulation buffer for tile `(i, j)` on a slice (starts zero).
    Buf {
        /// Owning slice.
        slice: u8,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// Right-hand-side panel tile row `i`.
    B {
        /// Tile row.
        i: u32,
    },
}

/// The one numbering of tiles: every [`TileRef`] a graph over `nt x nt`
/// tiles and `slices` 2.5D slices can name has a slot, so per-tile state
/// lives in a table indexed by [`TileSpace::slot`] instead of a hash map
/// keyed by `TileRef`. Its two users are the dependency-inferring
/// `GraphBuilder` and [`crate::RankView`], which keys its fetched originals
/// and orders its owned tiles by slot.
///
/// Layout, in slot order: the `nt` right-hand-side tiles `B`; then, only when
/// `slices > 1`, one `nt²` plane of accumulation buffers `Buf` per slice;
/// then one `nt²` plane of `A` tiles per `(phase, slice)`, phases outermost —
/// so a table needs to reach only as far as the last phase a graph names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpace {
    /// Tile count `N` of the matrix.
    pub nt: usize,
    /// 2.5D slice count (1 for plain 2D graphs).
    pub slices: usize,
}

impl TileSpace {
    /// Slot of the first `A` tile: past the panel and the buffer planes.
    pub(crate) fn a_base(&self) -> usize {
        let buffers = if self.slices > 1 { self.slices } else { 0 };
        self.nt + buffers * self.nt * self.nt
    }

    /// Whether `r` is a tile of this space — what [`TileSpace::slot`]
    /// asserts, as a question for names that come off the wire.
    pub(crate) fn contains(&self, r: TileRef) -> bool {
        let (nt, c) = (self.nt, self.slices);
        let cell = |i: u32, j: u32| (i as usize) < nt && (j as usize) < nt;
        match r {
            TileRef::B { i } => (i as usize) < nt,
            TileRef::Buf { slice, i, j } => c > 1 && (slice as usize) < c && cell(i, j),
            TileRef::A { slice, i, j, .. } => (slice as usize) < c && cell(i, j),
        }
    }

    /// The slot of tile `r`.
    ///
    /// # Panics
    /// Panics if `r` is not a tile of this space (a coordinate `>= nt`, a
    /// slice `>= slices`, a `Buf` when `slices == 1`): it would otherwise
    /// share a slot with another tile. (The messages are static: formatting
    /// the tile into them costs the builders 4 % of their time.)
    #[inline]
    pub fn slot(&self, r: TileRef) -> usize {
        let (nt, c) = (self.nt, self.slices);
        let cell = |i: u32, j: u32| {
            assert!((i as usize) < nt && (j as usize) < nt, "tile outside nt");
            i as usize * nt + j as usize
        };
        match r {
            TileRef::B { i } => {
                assert!((i as usize) < nt, "tile outside nt");
                i as usize
            }
            TileRef::Buf { slice, i, j } => {
                assert!(c > 1 && (slice as usize) < c, "tile outside the slices");
                nt + slice as usize * nt * nt + cell(i, j)
            }
            TileRef::A { phase, slice, i, j } => {
                assert!((slice as usize) < c, "tile outside the slices");
                self.a_base() + (phase as usize * c + slice as usize) * nt * nt + cell(i, j)
            }
        }
    }

    /// The tile in `slot` — the inverse of [`TileSpace::slot`].
    pub fn tile(&self, slot: usize) -> TileRef {
        let (nt, c) = (self.nt, self.slices);
        if slot < nt {
            return TileRef::B { i: slot as u32 };
        }
        let plane = nt * nt;
        let cell = |rest: usize| ((rest % plane / nt) as u32, (rest % nt) as u32);
        if slot < self.a_base() {
            let rest = slot - nt;
            let (i, j) = cell(rest);
            let slice = (rest / plane) as u8;
            return TileRef::Buf { slice, i, j };
        }
        let rest = slot - self.a_base();
        let (i, j) = cell(rest);
        TileRef::A {
            phase: (rest / plane / c) as u8,
            slice: (rest / plane % c) as u8,
            i,
            j,
        }
    }
}

/// The kind (and coordinates) of a task. Coordinates follow the loop
/// variables of the corresponding sequential algorithm in `sbc-matrix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Cholesky of diagonal tile `k` (Algorithm 1 line 2).
    Potrf {
        /// Iteration / diagonal index.
        k: u32,
    },
    /// Panel solve of tile `(i, k)` against diagonal `k` (line 4), `i > k`.
    Trsm {
        /// Iteration (column).
        k: u32,
        /// Row of the target tile.
        i: u32,
    },
    /// Trailing diagonal update of `(k, k)` from panel tile `(k, i)`
    /// (line 6), `k > i`.
    Syrk {
        /// Iteration generating the update.
        i: u32,
        /// Diagonal index updated.
        k: u32,
    },
    /// Trailing update of `(j, k)` from panel tiles `(j, i)`, `(k, i)`
    /// (line 8), `j > k > i`.
    Gemm {
        /// Iteration generating the update.
        i: u32,
        /// Row of the target tile.
        j: u32,
        /// Column of the target tile.
        k: u32,
    },
    /// 2.5D reduction: add slice `from_slice`'s accumulation buffer of tile
    /// `(i, j)` into the executing slice's copy (Section IV).
    Reduce {
        /// Tile row.
        i: u32,
        /// Tile column (= iteration whose panel consumes the result).
        j: u32,
        /// Slice whose buffer is folded in.
        from_slice: u32,
    },
    /// POSV forward solve of RHS row `i`.
    TrsmFwd {
        /// Iteration.
        i: u32,
    },
    /// POSV forward update `B[j] -= A[j][i] B[i]`, `j > i`.
    GemmFwd {
        /// Iteration.
        i: u32,
        /// Target RHS row.
        j: u32,
    },
    /// POSV backward solve of RHS row `i`.
    TrsmBwd {
        /// Iteration.
        i: u32,
    },
    /// POSV backward update `B[j] -= A[i][j]^T B[i]`, `j < i`.
    GemmBwd {
        /// Iteration.
        i: u32,
        /// Target RHS row.
        j: u32,
    },
    /// TRTRI right solve `A[m][k] := -A[m][k] A[k][k]^{-1}`, `m > k`.
    TrsmRInv {
        /// Iteration.
        k: u32,
        /// Row of the target tile.
        m: u32,
    },
    /// TRTRI update `A[m][n] += A[m][k] A[k][n]`, `m > k > n`.
    GemmInv {
        /// Iteration.
        k: u32,
        /// Row of the target tile.
        m: u32,
        /// Column of the target tile.
        n: u32,
    },
    /// TRTRI left solve `A[k][n] := A[k][k]^{-1} A[k][n]`, `n < k`.
    TrsmLInv {
        /// Iteration.
        k: u32,
        /// Column of the target tile.
        n: u32,
    },
    /// TRTRI of diagonal tile `k`.
    TrtriDiag {
        /// Iteration.
        k: u32,
    },
    /// LAUUM diagonal update `A[n][n] += A[k][n]^T A[k][n]`, `n < k`.
    SyrkLu {
        /// Iteration.
        k: u32,
        /// Diagonal index updated.
        n: u32,
    },
    /// LAUUM update `A[m][n] += A[k][m]^T A[k][n]`, `n < m < k`.
    GemmLu {
        /// Iteration.
        k: u32,
        /// Row of the target tile.
        m: u32,
        /// Column of the target tile.
        n: u32,
    },
    /// LAUUM row scale `A[k][n] := A[k][k]^T A[k][n]`, `n < k`.
    TrmmLu {
        /// Iteration.
        k: u32,
        /// Column of the target tile.
        n: u32,
    },
    /// LAUUM of diagonal tile `k`.
    LauumDiag {
        /// Iteration.
        k: u32,
    },
    /// LU factorization of diagonal tile `k` (no pivoting; Section III-E's
    /// comparison case).
    Getrf {
        /// Iteration / diagonal index.
        k: u32,
    },
    /// LU row-panel solve `A[k][j] := L(kk)^{-1} A[k][j]`, `j > k`.
    TrsmRow {
        /// Iteration.
        k: u32,
        /// Column of the target tile.
        j: u32,
    },
    /// LU column-panel solve `A[i][k] := A[i][k] U(kk)^{-1}`, `i > k`.
    TrsmCol {
        /// Iteration.
        k: u32,
        /// Row of the target tile.
        i: u32,
    },
    /// LU trailing update `A[i][j] -= A[i][k] A[k][j]`, `i, j > k`.
    GemmTrail {
        /// Iteration generating the update.
        k: u32,
        /// Row of the target tile.
        i: u32,
        /// Column of the target tile.
        j: u32,
    },
    /// Redistribution copy of tile `(i, j)` to its next-phase owner
    /// (zero flops; generates one message when the owner changes).
    Move {
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
}

impl TaskKind {
    /// Flop cost of this task for tile dimension `b`.
    pub fn flops(&self, b: usize) -> f64 {
        match self {
            TaskKind::Potrf { .. } => flops::flops_potrf(b),
            TaskKind::Trsm { .. } => flops::flops_trsm(b),
            TaskKind::Syrk { .. } | TaskKind::SyrkLu { .. } => flops::flops_syrk(b),
            TaskKind::Gemm { .. }
            | TaskKind::GemmInv { .. }
            | TaskKind::GemmLu { .. }
            | TaskKind::GemmTrail { .. } => flops::flops_gemm(b),
            TaskKind::Getrf { .. } => flops::flops_getrf(b),
            TaskKind::TrsmRow { .. } | TaskKind::TrsmCol { .. } => flops::flops_trsm(b),
            TaskKind::Reduce { .. } => (b * b) as f64,
            // RHS tasks operate on one b x b tile of right-hand sides
            TaskKind::TrsmFwd { .. } | TaskKind::TrsmBwd { .. } => flops::flops_trsm(b),
            TaskKind::GemmFwd { .. } | TaskKind::GemmBwd { .. } => flops::flops_gemm(b),
            TaskKind::TrsmRInv { .. } | TaskKind::TrsmLInv { .. } => flops::flops_trsm(b),
            TaskKind::TrtriDiag { .. } => flops::flops_trtri(b),
            TaskKind::TrmmLu { .. } => flops::flops_trmm(b),
            TaskKind::LauumDiag { .. } => flops::flops_lauum(b),
            TaskKind::Move { .. } => 0.0,
        }
    }

    /// Stable lower-case kernel name, without coordinates — the key used by
    /// per-kind metrics and trace exporters in `sbc-obs`.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Potrf { .. } => "potrf",
            TaskKind::Trsm { .. } => "trsm",
            TaskKind::Syrk { .. } => "syrk",
            TaskKind::Gemm { .. } => "gemm",
            TaskKind::Reduce { .. } => "reduce",
            TaskKind::TrsmFwd { .. } => "trsm_fwd",
            TaskKind::GemmFwd { .. } => "gemm_fwd",
            TaskKind::TrsmBwd { .. } => "trsm_bwd",
            TaskKind::GemmBwd { .. } => "gemm_bwd",
            TaskKind::TrsmRInv { .. } => "trsm_rinv",
            TaskKind::GemmInv { .. } => "gemm_inv",
            TaskKind::TrsmLInv { .. } => "trsm_linv",
            TaskKind::TrtriDiag { .. } => "trtri",
            TaskKind::SyrkLu { .. } => "syrk_lu",
            TaskKind::GemmLu { .. } => "gemm_lu",
            TaskKind::TrmmLu { .. } => "trmm_lu",
            TaskKind::LauumDiag { .. } => "lauum",
            TaskKind::Getrf { .. } => "getrf",
            TaskKind::TrsmRow { .. } => "trsm_row",
            TaskKind::TrsmCol { .. } => "trsm_col",
            TaskKind::GemmTrail { .. } => "gemm_trail",
            TaskKind::Move { .. } => "move",
        }
    }

    /// The algorithm iteration this task belongs to — used by priorities and
    /// by the bulk-synchronous (COnfCHOX-like) scheduling mode.
    pub fn iteration(&self) -> u32 {
        match *self {
            TaskKind::Potrf { k }
            | TaskKind::Trsm { k, .. }
            | TaskKind::TrsmRInv { k, .. }
            | TaskKind::GemmInv { k, .. }
            | TaskKind::TrsmLInv { k, .. }
            | TaskKind::TrtriDiag { k }
            | TaskKind::SyrkLu { k, .. }
            | TaskKind::GemmLu { k, .. }
            | TaskKind::TrmmLu { k, .. }
            | TaskKind::LauumDiag { k }
            | TaskKind::Getrf { k }
            | TaskKind::TrsmRow { k, .. }
            | TaskKind::TrsmCol { k, .. }
            | TaskKind::GemmTrail { k, .. } => k,
            TaskKind::Syrk { i, .. }
            | TaskKind::Gemm { i, .. }
            | TaskKind::TrsmFwd { i }
            | TaskKind::GemmFwd { i, .. }
            | TaskKind::TrsmBwd { i }
            | TaskKind::GemmBwd { i, .. } => i,
            // a reduction feeds the panel tasks of iteration j
            TaskKind::Reduce { j, .. } => j,
            TaskKind::Move { .. } => 0,
        }
    }
}

/// A task: its kind, the node executing it (owner-computes), and the
/// redistribution phase its tile accesses refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// What to compute.
    pub kind: TaskKind,
    /// Executing node.
    pub node: u32,
    /// Redistribution generation of the `A` tiles this task touches.
    pub phase: u8,
}

/// The (at most two) tiles a task reads besides its read-modify-write
/// target. Returned by [`Task::reads`]; avoids heap allocation in the hot
/// graph-construction loop.
#[derive(Debug, Clone, Copy)]
pub struct ReadSet {
    arr: [TileRef; 2],
    len: u8,
}

impl ReadSet {
    const EMPTY_SLOT: TileRef = TileRef::B { i: u32::MAX };

    /// The reads `tiles`, at most two.
    #[inline(always)]
    fn of<const N: usize>(tiles: [TileRef; N]) -> Self {
        let mut arr = [Self::EMPTY_SLOT; 2];
        arr[..N].copy_from_slice(&tiles);
        ReadSet { arr, len: N as u8 }
    }

    /// The reads as a slice.
    pub fn as_slice(&self) -> &[TileRef] {
        &self.arr[..self.len as usize]
    }
}

impl Task {
    /// 2.5D slice executing iteration `k` for `c` slices. A 2D graph
    /// (`c == 1`) skips the division: the decode runs it up to three times
    /// per task, and it is the decode's dearest instruction.
    #[inline]
    fn sigma(k: u32, c: usize) -> u8 {
        (if c == 1 { 0 } else { k % c as u32 }) as u8
    }

    /// The tile this task read-modify-writes, for a graph with `c` slices.
    ///
    /// This is the single source of truth for task data accesses: the graph
    /// builders and the distributed runtime's executor both use it, so the
    /// dependence structure and the actual kernel operands cannot diverge.
    /// Always inlined, like [`Task::reads`]: where the caller is inlined
    /// into a loop nest's submit site, the task's kind is known there and
    /// the match folds away.
    #[inline(always)]
    pub fn output(&self, c: usize) -> TileRef {
        let ph = self.phase;
        let a = |slice: u8, i: u32, j: u32| TileRef::A {
            phase: ph,
            slice,
            i,
            j,
        };
        match self.kind {
            TaskKind::Potrf { k } => a(Self::sigma(k, c), k, k),
            TaskKind::Trsm { k, i } => a(Self::sigma(k, c), i, k),
            TaskKind::Syrk { i, k } => {
                let s = Self::sigma(i, c);
                if Self::sigma(k, c) == s {
                    a(s, k, k)
                } else {
                    TileRef::Buf {
                        slice: s,
                        i: k,
                        j: k,
                    }
                }
            }
            TaskKind::Gemm { i, j, k } => {
                let s = Self::sigma(i, c);
                if Self::sigma(k, c) == s {
                    a(s, j, k)
                } else {
                    TileRef::Buf {
                        slice: s,
                        i: j,
                        j: k,
                    }
                }
            }
            TaskKind::Reduce { i, j, .. } => a(Self::sigma(j, c), i, j),
            TaskKind::TrsmFwd { i } | TaskKind::TrsmBwd { i } => TileRef::B { i },
            TaskKind::GemmFwd { j, .. } | TaskKind::GemmBwd { j, .. } => TileRef::B { i: j },
            TaskKind::TrsmRInv { k, m } => a(0, m, k),
            TaskKind::GemmInv { m, n, .. } => a(0, m, n),
            TaskKind::TrsmLInv { k, n } => a(0, k, n),
            TaskKind::TrtriDiag { k } => a(0, k, k),
            TaskKind::SyrkLu { n, .. } => a(0, n, n),
            TaskKind::GemmLu { m, n, .. } => a(0, m, n),
            TaskKind::TrmmLu { k, n } => a(0, k, n),
            TaskKind::LauumDiag { k } => a(0, k, k),
            TaskKind::Getrf { k } => a(0, k, k),
            TaskKind::TrsmRow { k, j } => a(0, k, j),
            TaskKind::TrsmCol { k, i } => a(0, i, k),
            TaskKind::GemmTrail { i, j, .. } => a(0, i, j),
            TaskKind::Move { i, j } => a(0, i, j),
        }
    }

    /// The tiles this task reads (excluding the read-modify-write target),
    /// for a graph with `c` slices, in the operand order the executor's
    /// kernel dispatch expects.
    #[inline(always)]
    pub fn reads(&self, c: usize) -> ReadSet {
        let ph = self.phase;
        let a = |slice: u8, i: u32, j: u32| TileRef::A {
            phase: ph,
            slice,
            i,
            j,
        };
        match self.kind {
            TaskKind::Potrf { .. }
            | TaskKind::TrtriDiag { .. }
            | TaskKind::LauumDiag { .. }
            | TaskKind::Getrf { .. } => ReadSet::of([]),
            TaskKind::TrsmRow { k, .. } | TaskKind::TrsmCol { k, .. } => ReadSet::of([a(0, k, k)]),
            TaskKind::GemmTrail { k, i, j } => ReadSet::of([a(0, i, k), a(0, k, j)]),
            TaskKind::Trsm { k, .. } => ReadSet::of([a(Self::sigma(k, c), k, k)]),
            TaskKind::Syrk { i, k } => ReadSet::of([a(Self::sigma(i, c), k, i)]),
            TaskKind::Gemm { i, j, k } => {
                let s = Self::sigma(i, c);
                ReadSet::of([a(s, j, i), a(s, k, i)])
            }
            TaskKind::Reduce { i, j, from_slice } => ReadSet::of([TileRef::Buf {
                slice: from_slice as u8,
                i,
                j,
            }]),
            TaskKind::TrsmFwd { i } | TaskKind::TrsmBwd { i } => ReadSet::of([a(0, i, i)]),
            TaskKind::GemmFwd { i, j } => ReadSet::of([a(0, j, i), TileRef::B { i }]),
            TaskKind::GemmBwd { i, j } => ReadSet::of([a(0, i, j), TileRef::B { i }]),
            TaskKind::TrsmRInv { k, .. } => ReadSet::of([a(0, k, k)]),
            TaskKind::GemmInv { k, m, n } => ReadSet::of([a(0, m, k), a(0, k, n)]),
            TaskKind::TrsmLInv { k, .. } => ReadSet::of([a(0, k, k)]),
            TaskKind::SyrkLu { k, n } => ReadSet::of([a(0, k, n)]),
            TaskKind::GemmLu { k, m, n } => ReadSet::of([a(0, k, m), a(0, k, n)]),
            TaskKind::TrmmLu { k, .. } => ReadSet::of([a(0, k, k)]),
            TaskKind::Move { i, j } => ReadSet::of([TileRef::A {
                phase: ph - 1,
                slice: 0,
                i,
                j,
            }]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_are_positive_except_move() {
        let b = 64;
        assert!(TaskKind::Potrf { k: 0 }.flops(b) > 0.0);
        assert!(TaskKind::Gemm { i: 0, j: 2, k: 1 }.flops(b) > 0.0);
        assert_eq!(TaskKind::Move { i: 1, j: 0 }.flops(b), 0.0);
        assert!(
            TaskKind::Reduce {
                i: 1,
                j: 0,
                from_slice: 1
            }
            .flops(b)
                > 0.0
        );
    }

    #[test]
    fn gemm_dominates_costs() {
        let b = 128;
        let g = TaskKind::Gemm { i: 0, j: 2, k: 1 }.flops(b);
        for k in [
            TaskKind::Potrf { k: 0 },
            TaskKind::Trsm { k: 0, i: 1 },
            TaskKind::Syrk { i: 0, k: 1 },
        ] {
            assert!(k.flops(b) <= g);
        }
    }

    #[test]
    fn iterations() {
        assert_eq!(TaskKind::Potrf { k: 3 }.iteration(), 3);
        assert_eq!(TaskKind::Gemm { i: 2, j: 5, k: 4 }.iteration(), 2);
        assert_eq!(
            TaskKind::Reduce {
                i: 5,
                j: 4,
                from_slice: 0
            }
            .iteration(),
            4
        );
        assert_eq!(TaskKind::GemmBwd { i: 4, j: 1 }.iteration(), 4);
    }

    #[test]
    fn tileref_equality_and_hash() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(TileRef::A {
            phase: 0,
            slice: 0,
            i: 1,
            j: 0,
        });
        s.insert(TileRef::A {
            phase: 0,
            slice: 1,
            i: 1,
            j: 0,
        });
        s.insert(TileRef::Buf {
            slice: 1,
            i: 1,
            j: 0,
        });
        s.insert(TileRef::B { i: 1 });
        assert_eq!(s.len(), 4);
        assert!(s.contains(&TileRef::A {
            phase: 0,
            slice: 0,
            i: 1,
            j: 0
        }));
    }
}
