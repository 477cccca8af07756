//! Standard 2D block-cyclic distribution (Fig 1 of the paper).

use crate::{Distribution, NodeId};

/// ScaLAPACK-style 2D block-cyclic distribution over a `p x q` node grid:
/// tile `(i, j)` belongs to node `(i mod p) * q + (j mod q)`.
///
/// With this distribution a TRSM result tile is needed by `p + q - 2` other
/// nodes (the `q - 1` other nodes of its pattern row and the `p - 1` other
/// nodes of its pattern column), which is the communication volume SBC
/// improves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoDBlockCyclic {
    p: usize,
    q: usize,
}

impl TwoDBlockCyclic {
    /// Creates a `p x q` block-cyclic distribution.
    ///
    /// # Panics
    /// Panics if `p == 0 || q == 0`.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "grid dimensions must be positive");
        TwoDBlockCyclic { p, q }
    }
}

impl Distribution for TwoDBlockCyclic {
    fn num_nodes(&self) -> usize {
        self.p * self.q
    }

    fn owner(&self, i: usize, j: usize) -> NodeId {
        (i % self.p) * self.q + (j % self.q)
    }

    fn name(&self) -> String {
        format!("2DBC {}x{}", self.p, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_pattern() {
        // Fig 1: 2x3 pattern over a 12x12 tile matrix, P = 6.
        let d = TwoDBlockCyclic::new(2, 3);
        assert_eq!(d.num_nodes(), 6);
        // pattern row 0: nodes 0,1,2 ; row 1: nodes 3,4,5
        assert_eq!(d.owner(0, 0), 0);
        assert_eq!(d.owner(0, 0), d.owner(2, 3)); // periodicity
        assert_eq!(d.owner(1, 2), 5);
        assert_eq!(d.owner(7, 4), 3 + (4 % 3));
    }

    #[test]
    fn pattern_is_periodic() {
        let d = TwoDBlockCyclic::new(3, 4);
        for i in 0..24 {
            for j in 0..=i {
                assert_eq!(d.owner(i, j), d.owner(i + 3, j + 4));
                assert_eq!(d.owner(i, j), d.owner(i + 3 * 5, j + 4 * 5));
            }
        }
    }

    #[test]
    fn row_has_q_distinct_nodes() {
        let d = TwoDBlockCyclic::new(4, 3);
        let mut nodes: Vec<_> = (0..12).map(|j| d.owner(20, j)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn column_has_p_distinct_nodes() {
        let d = TwoDBlockCyclic::new(4, 3);
        let mut nodes: Vec<_> = (5..25).map(|i| d.owner(i, 5)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn all_nodes_used() {
        let d = TwoDBlockCyclic::new(5, 4);
        let mut seen = [false; 20];
        for i in 0..20 {
            for j in 0..=i {
                seen[d.owner(i, j)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
