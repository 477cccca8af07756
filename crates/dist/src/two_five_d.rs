//! 2.5D replication wrapper (Section IV of the paper).

use crate::{Distribution, NodeId};

/// A 2.5D distribution: `c` slices of nodes, each holding a full copy of the
/// matrix distributed with an inner 2D distribution `D`.
///
/// Iteration `i` of the factorization is executed by slice `i mod c`
/// (Section IV): the panel tasks (POTRF/TRSM) of iteration `i` and all the
/// GEMM/SYRK updates *generated by* iteration `i` run on slice `i mod c`'s
/// copy. Before the panel tasks of iteration `k`, the partial updates of the
/// column-`k` tiles are reduced from all contributing slices onto slice
/// `k mod c` — `c - 1` extra messages per tile, against intermediate-result
/// broadcasts that now stay within one slice.
///
/// Node ids are `slice * D.num_nodes() + local`.
#[derive(Debug, Clone)]
pub struct TwoPointFiveD<D> {
    inner: D,
    c: usize,
}

impl<D: Distribution> TwoPointFiveD<D> {
    /// Wraps an inner 2D distribution into `c >= 1` slices.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn new(inner: D, c: usize) -> Self {
        assert!(c >= 1, "slice count must be >= 1");
        TwoPointFiveD { inner, c }
    }

    /// Number of slices `c`.
    pub fn slices(&self) -> usize {
        self.c
    }

    /// The inner per-slice distribution.
    pub(crate) fn inner(&self) -> &D {
        &self.inner
    }

    /// The slice executing iteration `k`.
    #[inline]
    pub(crate) fn slice_of_iteration(&self, k: usize) -> usize {
        k % self.c
    }

    /// Owner of tile `(i, j)`'s copy on a given slice.
    #[inline]
    pub fn owner_in_slice(&self, slice: usize, i: usize, j: usize) -> NodeId {
        debug_assert!(slice < self.c);
        slice * self.inner.num_nodes() + self.inner.owner(i, j)
    }

    /// Owner of the *final* value of tile `(i, j)`: the copy on the slice
    /// executing iteration `j` (column `j`'s panel tasks finalize the tile).
    pub(crate) fn final_owner(&self, i: usize, j: usize) -> NodeId {
        self.owner_in_slice(self.slice_of_iteration(j), i, j)
    }
}

impl<D: Distribution> Distribution for TwoPointFiveD<D> {
    fn num_nodes(&self) -> usize {
        self.c * self.inner.num_nodes()
    }

    /// The 2.5D "owner" of a tile for generic consumers is the final owner.
    fn owner(&self, i: usize, j: usize) -> NodeId {
        self.final_owner(i, j)
    }

    fn name(&self) -> String {
        format!("2.5D c={} [{}]", self.c, self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SbcBasic, TwoDBlockCyclic};

    #[test]
    fn node_count_multiplies() {
        let d = TwoPointFiveD::new(SbcBasic::new(4), 3);
        assert_eq!(d.num_nodes(), 24);
        assert_eq!(d.slices(), 3);
    }

    #[test]
    fn slices_use_disjoint_node_ranges() {
        let d = TwoPointFiveD::new(TwoDBlockCyclic::new(2, 2), 3);
        for s in 0..3 {
            for i in 0..8 {
                for j in 0..=i {
                    let n = d.owner_in_slice(s, i, j);
                    assert!(n >= s * 4 && n < (s + 1) * 4);
                }
            }
        }
    }

    #[test]
    fn iteration_round_robin() {
        let d = TwoPointFiveD::new(TwoDBlockCyclic::new(2, 2), 3);
        assert_eq!(d.slice_of_iteration(0), 0);
        assert_eq!(d.slice_of_iteration(4), 1);
        assert_eq!(d.slice_of_iteration(5), 2);
    }

    #[test]
    fn c_equals_one_reduces_to_inner() {
        let inner = TwoDBlockCyclic::new(3, 2);
        let d = TwoPointFiveD::new(inner.clone(), 1);
        for i in 0..10 {
            for j in 0..=i {
                assert_eq!(d.owner(i, j), inner.owner(i, j));
            }
        }
    }
}
