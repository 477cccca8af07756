//! The Symmetric Block Cyclic (SBC) distribution — Section III of the paper.
//!
//! The generic SBC pattern is an `r x r` grid in which each of the
//! `r (r - 1) / 2` nodes is identified with an unordered pair `{x, y}`
//! (`0 <= x < y < r`) and occupies the two symmetric positions `(x, y)` and
//! `(y, x)`. Tile `(i, j)` maps to pattern position
//! `(i mod r, j mod r)`. Because the nodes appearing in pattern row `x` are
//! exactly the nodes appearing in pattern column `x` (all pairs containing
//! `x`), the row-broadcast and column-broadcast consumer sets of a TRSM
//! result coincide — this is the whole trick that saves the factor sqrt(2).
//!
//! Diagonal pattern positions `(x, x)` are not covered by pairs; the two
//! variants differ in how they fill them:
//!
//! * **basic** ([`SbcBasic`], even `r`): `r/2` extra nodes are added, each
//!   taking two diagonal positions round-robin (Fig 3). `P = r^2 / 2`; each
//!   tile is communicated to `r - 1` nodes.
//! * **extended** ([`SbcExtended`], any `r >= 3`): diagonal positions are
//!   filled with existing pair nodes, chosen so that the node at diagonal
//!   position `d` is a pair containing `d` (hence already a member of row
//!   and column `d`'s consumer set — no extra communication). Load balance
//!   across the diagonal requires a family of diagonal *patterns* used in
//!   round-robin (Figs 4–6). `P = r (r - 1) / 2`; each tile is communicated
//!   to `r - 2` nodes.

use crate::{Distribution, NodeId};

/// Node id of the pair `{x, y}`, `x < y`: pairs are numbered in column-major
/// order of the strict lower triangle, `id = y (y - 1) / 2 + x`, matching the
/// numbering of Fig 4 of the paper.
#[inline]
pub fn pair_id(x: usize, y: usize) -> NodeId {
    debug_assert!(x < y);
    y * (y - 1) / 2 + x
}

/// Inverse of [`pair_id`]: the pair `{x, y}` (`x < y`) of a node id.
pub fn pair_of(id: NodeId) -> (usize, usize) {
    // find y: largest with y (y - 1) / 2 <= id
    let mut y = 1;
    while (y + 1) * y / 2 <= id {
        y += 1;
    }
    let x = id - y * (y - 1) / 2;
    debug_assert!(x < y);
    (x, y)
}

/// How the family of diagonal patterns of [`SbcExtended`] is cycled over the
/// pattern-diagonal tiles of the matrix.
///
/// Both strategies keep Theorem 1's communication count (any valid diagonal
/// node is already in the consumer set); they only differ in load balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiagonalCycling {
    /// Pattern index = block column `(j / r) mod npat` — the "round-robin
    /// column-wise fashion" of Fig 6. Default.
    #[default]
    ColumnWise,
    /// Pattern index = `(i / r + j / r) mod npat`, which spreads diagonal
    /// work slightly more evenly on the lower triangle.
    AntiDiagonal,
}

/// Basic SBC distribution (Section III-C.1): even `r`, `r/2` extra diagonal
/// nodes, `P = r^2 / 2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SbcBasic {
    r: usize,
}

impl SbcBasic {
    /// Creates the basic SBC distribution for an even `r >= 2`.
    ///
    /// # Panics
    /// Panics if `r` is odd or `< 2`.
    pub fn new(r: usize) -> Self {
        assert!(
            r >= 2 && r.is_multiple_of(2),
            "basic SBC requires even r >= 2"
        );
        SbcBasic { r }
    }

    /// Number of pair (off-diagonal) nodes, `r (r - 1) / 2`.
    pub(crate) fn pair_nodes(&self) -> usize {
        self.r * (self.r - 1) / 2
    }
}

impl Distribution for SbcBasic {
    fn num_nodes(&self) -> usize {
        // r(r-1)/2 pair nodes + r/2 diagonal nodes = r^2 / 2
        self.r * self.r / 2
    }

    fn owner(&self, i: usize, j: usize) -> NodeId {
        let x = i % self.r;
        let y = j % self.r;
        if x == y {
            // diagonal positions assigned round-robin to the extra nodes
            self.pair_nodes() + (x % (self.r / 2))
        } else {
            pair_id(x.min(y), x.max(y))
        }
    }

    fn name(&self) -> String {
        format!("SBC-basic r={}", self.r)
    }
}

/// One diagonal pattern: the node placed at each diagonal position
/// `0..r`.
type DiagPattern = Vec<NodeId>;

/// Extended SBC distribution (Section III-C.2): diagonal positions are
/// filled by existing pair nodes via a rotating family of diagonal patterns,
/// `P = r (r - 1) / 2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SbcExtended {
    r: usize,
    patterns: Vec<DiagPattern>,
    cycling: DiagonalCycling,
}

impl SbcExtended {
    /// Creates the extended SBC distribution for `r >= 3`, with the default
    /// column-wise diagonal cycling.
    ///
    /// ```
    /// use sbc_dist::{Distribution, SbcExtended};
    ///
    /// // the paper's r = 7 configuration: P = r(r-1)/2 = 21 nodes
    /// let d = SbcExtended::new(7);
    /// assert_eq!(d.num_nodes(), 21);
    ///
    /// // cyclic repetition: congruent positions share their owner
    /// assert_eq!(d.owner(9, 1), d.owner(16, 1)); // both map to pair {1, 2}
    /// // the symmetric trick: pattern cell (2, 1) and (1, 2) are the same node
    /// assert_eq!(d.owner(9, 1), d.owner(8, 2));
    /// ```
    ///
    /// # Panics
    /// Panics if `r < 3`.
    pub fn new(r: usize) -> Self {
        Self::with_cycling(r, DiagonalCycling::default())
    }

    /// Creates the extended SBC distribution with an explicit diagonal
    /// cycling strategy.
    pub fn with_cycling(r: usize, cycling: DiagonalCycling) -> Self {
        assert!(r >= 3, "extended SBC requires r >= 3");
        let patterns = if r % 2 == 1 {
            Self::odd_patterns(r)
        } else {
            Self::even_patterns(r)
        };
        let s = SbcExtended {
            r,
            patterns,
            cycling,
        };
        debug_assert!(s.validate().is_ok());
        s
    }

    /// The diagonal patterns (each of length `r`); exposed for the pattern
    /// gallery example and for tests.
    pub fn diagonal_patterns(&self) -> &[DiagPattern] {
        &self.patterns
    }

    /// Diagonal entries of "pattern l" for `l in 1..=(r-1)/2` (odd
    /// construction, also the source of the even construction's packs):
    ///
    /// * first group: node `{i-1, i+l-1}` at position `i-1`, `i = 1..=r-l`,
    /// * second group: node `{j-1, r-l+j-1}` at position `r-l+j-1`,
    ///   `j = 1..=l`.
    ///
    /// Every entry at position `d` is a pair containing `d`, so it already
    /// belongs to the consumer set of row/column `d`.
    fn pattern_l(r: usize, l: usize) -> DiagPattern {
        let mut diag = vec![usize::MAX; r];
        for i in 1..=r - l {
            diag[i - 1] = pair_id(i - 1, i + l - 1);
        }
        for j in 1..=l {
            diag[r - l + j - 1] = pair_id(j - 1, r - l + j - 1);
        }
        debug_assert!(diag.iter().all(|&d| d != usize::MAX));
        diag
    }

    fn odd_patterns(r: usize) -> Vec<DiagPattern> {
        (1..=(r - 1) / 2).map(|l| Self::pattern_l(r, l)).collect()
    }

    /// Even-`r` construction (Fig 5): split each of the first `r/2 - 1`
    /// patterns into a *left pack* (positions `0..r/2`) and a *right pack*
    /// (positions `r/2..r`); add a *bonus pack* of nodes `{j-1, r/2+j-1}`
    /// valid at either end; combine `(L_l, R_l)` for the base patterns and
    /// `(bonus, R_1), (L_1, R_2), ..., (L_{r/2-1}, bonus)` for the shifted
    /// ones — `r - 1` patterns total, each node on the diagonal of exactly
    /// two of them.
    fn even_patterns(r: usize) -> Vec<DiagPattern> {
        let h = r / 2;
        let base: Vec<DiagPattern> = (1..h).map(|l| Self::pattern_l(r, l)).collect();
        let lefts: Vec<Vec<NodeId>> = base.iter().map(|p| p[..h].to_vec()).collect();
        let rights: Vec<Vec<NodeId>> = base.iter().map(|p| p[h..].to_vec()).collect();
        let bonus: Vec<NodeId> = (1..=h).map(|j| pair_id(j - 1, h + j - 1)).collect();

        let mut patterns = base;
        // shifted combinations: left list [bonus, L1..], right list [R1.., bonus]
        let mut left_list: Vec<Vec<NodeId>> = Vec::with_capacity(h);
        left_list.push(bonus.clone());
        left_list.extend(lefts);
        let mut right_list: Vec<Vec<NodeId>> = rights;
        right_list.push(bonus);
        for (l, rgt) in left_list.into_iter().zip(right_list) {
            let mut p = l;
            p.extend(rgt);
            patterns.push(p);
        }
        patterns
    }

    /// Pattern index used for the pattern-diagonal tile `(i, j)`
    /// (`i ≡ j mod r`).
    fn pattern_index(&self, i: usize, j: usize) -> usize {
        let npat = self.patterns.len();
        match self.cycling {
            DiagonalCycling::ColumnWise => (j / self.r) % npat,
            DiagonalCycling::AntiDiagonal => (i / self.r + j / self.r) % npat,
        }
    }

    /// Checks the structural invariants of the construction. Used by tests
    /// and `debug_assert` at construction time:
    ///
    /// 1. every diagonal entry at position `d` is a pair containing `d`,
    /// 2. every node appears on the diagonal the same number of times across
    ///    the whole family (once for odd `r`, twice for even `r`),
    /// 3. the expected number of patterns.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let r = self.r;
        let expected_pats = if r % 2 == 1 { (r - 1) / 2 } else { r - 1 };
        if self.patterns.len() != expected_pats {
            return Err(format!(
                "expected {expected_pats} diagonal patterns, got {}",
                self.patterns.len()
            ));
        }
        let mut appearances = vec![0usize; self.num_nodes()];
        for pat in &self.patterns {
            if pat.len() != r {
                return Err(format!("pattern length {} != r", pat.len()));
            }
            for (d, &node) in pat.iter().enumerate() {
                let (x, y) = pair_of(node);
                if x != d && y != d {
                    return Err(format!(
                        "diagonal node {node}={{{x},{y}}} at position {d} not in row/column {d}"
                    ));
                }
                appearances[node] += 1;
            }
        }
        let per_node = if r % 2 == 1 { 1 } else { 2 };
        for (node, &cnt) in appearances.iter().enumerate() {
            if cnt != per_node {
                return Err(format!(
                    "node {node} appears {cnt} times on diagonals, expected {per_node}"
                ));
            }
        }
        Ok(())
    }
}

impl Distribution for SbcExtended {
    fn num_nodes(&self) -> usize {
        self.r * (self.r - 1) / 2
    }

    fn owner(&self, i: usize, j: usize) -> NodeId {
        let x = i % self.r;
        let y = j % self.r;
        if x == y {
            self.patterns[self.pattern_index(i, j)][x]
        } else {
            pair_id(x.min(y), x.max(y))
        }
    }

    fn name(&self) -> String {
        format!("SBC r={}", self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_id_matches_fig4_numbering() {
        // Fig 4 (r = 5): pairs numbered 0..9 as
        // (0,1)=0 (0,2)=1 (1,2)=2 (0,3)=3 (1,3)=4 (2,3)=5 (0,4)=6 ...
        assert_eq!(pair_id(0, 1), 0);
        assert_eq!(pair_id(0, 2), 1);
        assert_eq!(pair_id(1, 2), 2);
        assert_eq!(pair_id(0, 3), 3);
        assert_eq!(pair_id(1, 3), 4);
        assert_eq!(pair_id(2, 3), 5);
        assert_eq!(pair_id(0, 4), 6);
        assert_eq!(pair_id(3, 4), 9);
    }

    #[test]
    fn pair_of_inverts_pair_id() {
        for y in 1..12 {
            for x in 0..y {
                assert_eq!(pair_of(pair_id(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn generic_pattern_is_symmetric() {
        for r in [3, 4, 5, 6, 7, 8, 9] {
            let d = SbcExtended::new(r);
            for i in 0..3 * r {
                for j in 0..=i {
                    if i % r != j % r {
                        // symmetric positions map to the same node
                        let x = i % r;
                        let y = j % r;
                        assert_eq!(d.owner(i, j), pair_id(x.min(y), x.max(y)));
                    }
                }
            }
        }
    }

    #[test]
    fn basic_fig3_pattern() {
        // Fig 3 (r = 4): pattern
        //   6 0 1 3
        //   0 7 2 4
        //   1 2 6 5
        //   3 4 5 7
        let d = SbcBasic::new(4);
        assert_eq!(d.num_nodes(), 8);
        let expect = [[6, 0, 1, 3], [0, 7, 2, 4], [1, 2, 6, 5], [3, 4, 5, 7]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate().take(i + 1) {
                assert_eq!(d.owner(i, j), want, "({i},{j})");
            }
        }
    }

    #[test]
    fn extended_fig4_first_pattern() {
        // Fig 4 (r = 5): pattern 1 diagonal is [0, 2, 5, 9, 6],
        // pattern 2 diagonal is [1, 4, 8, 3, 7].
        let d = SbcExtended::new(5);
        assert_eq!(d.num_nodes(), 10);
        assert_eq!(d.diagonal_patterns().len(), 2);
        assert_eq!(d.diagonal_patterns()[0], vec![0, 2, 5, 9, 6]);
        assert_eq!(d.diagonal_patterns()[1], vec![1, 4, 8, 3, 7]);
    }

    #[test]
    fn extended_construction_is_valid_for_all_r() {
        for r in 3..=20 {
            let d = SbcExtended::new(r);
            d.validate().unwrap_or_else(|e| panic!("r={r}: {e}"));
        }
    }

    #[test]
    fn even_r_has_r_minus_1_patterns_fig5() {
        // Fig 5 (r = 6): 5 diagonal sets.
        let d = SbcExtended::new(6);
        assert_eq!(d.num_nodes(), 15);
        assert_eq!(d.diagonal_patterns().len(), 5);
    }

    #[test]
    fn extended_diagonal_nodes_share_row_or_column() {
        for r in 3..=12 {
            let d = SbcExtended::new(r);
            for pat in d.diagonal_patterns() {
                for (pos, &node) in pat.iter().enumerate() {
                    let (x, y) = pair_of(node);
                    assert!(x == pos || y == pos, "r={r} pos={pos} node={node}");
                }
            }
        }
    }

    #[test]
    fn row_and_column_consumer_sets_coincide() {
        // The SBC property: the set of nodes owning tiles in (the lower part
        // of) matrix row x equals the set owning tiles in column x, and both
        // equal the pairs containing x mod r (at most r - 1 nodes).
        let r = 7;
        let d = SbcExtended::new(r);
        let nt = 4 * r;
        for x in r..2 * r {
            let mut row: Vec<_> = (0..x).map(|j| d.owner(x, j)).collect();
            let mut col: Vec<_> = (x..nt).map(|i| d.owner(i, x)).collect();
            row.sort_unstable();
            row.dedup();
            col.sort_unstable();
            col.dedup();
            assert_eq!(row, col, "x={x}");
            assert_eq!(row.len(), r - 1);
            for &n in &row {
                let (a, b) = pair_of(n);
                assert!(a == x % r || b == x % r);
            }
        }
    }

    #[test]
    fn two_dbc_row_and_column_sets_differ() {
        // Contrast with SBC: for 2DBC the two sets are disjoint except
        // around the diagonal, totalling p + q - 1 distinct nodes.
        let d = crate::TwoDBlockCyclic::new(3, 2);
        let nt = 12;
        let x = 5;
        let mut all: Vec<_> = (0..x)
            .map(|j| d.owner(x, j))
            .chain((x..nt).map(|i| d.owner(i, x)))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3 + 2 - 1);
    }

    #[test]
    fn all_nodes_receive_tiles() {
        for r in 3..=10 {
            let d = SbcExtended::new(r);
            let nt = 3 * r;
            let mut seen = vec![false; d.num_nodes()];
            for i in 0..nt {
                for j in 0..=i {
                    seen[d.owner(i, j)] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "r={r}");
        }
        for r in [2, 4, 6, 8, 10] {
            let d = SbcBasic::new(r);
            let nt = 3 * r;
            let mut seen = vec![false; d.num_nodes()];
            for i in 0..nt {
                for j in 0..=i {
                    seen[d.owner(i, j)] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "basic r={r}");
        }
    }

    #[test]
    fn owner_ids_in_range() {
        for r in 3..=11 {
            let d = SbcExtended::new(r);
            for i in 0..5 * r {
                for j in 0..=i {
                    assert!(d.owner(i, j) < d.num_nodes());
                }
            }
        }
    }

    #[test]
    fn cycling_strategies_agree_off_diagonal() {
        let a = SbcExtended::with_cycling(6, DiagonalCycling::ColumnWise);
        let b = SbcExtended::with_cycling(6, DiagonalCycling::AntiDiagonal);
        for i in 0..30 {
            for j in 0..=i {
                if i % 6 != j % 6 {
                    assert_eq!(a.owner(i, j), b.owner(i, j));
                }
            }
        }
    }
}
