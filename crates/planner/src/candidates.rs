//! Enumeration of the feasible distribution space for a node budget.
//!
//! A "candidate" is a fully specified distribution choice — 2DBC `p x q`,
//! basic/extended SBC `r`, a 2.5D `c`-slice replication, or the POTRI
//! "SBC remap 2DBC" strategy — that fits within a node budget `P` and
//! supports the requested operation. `enumerate` produces the list the
//! cost model ranks; [`DistChoice`] knows how to count its exact messages
//! and build its task graph, so the planner, the simulator and the runtime
//! all consume the same object.

use sbc_dist::comm;
use sbc_dist::{
    balance, table1, Distribution, RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD,
};
use sbc_kernels::flops;
use sbc_taskgraph::{builders, memo, TaskGraph};
use std::sync::Arc;

/// The dense linear-algebra operations the planner knows how to place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Cholesky factorization `A = L L^T` (Algorithm 1).
    Potrf,
    /// Factorization plus forward/backward solve of one tile column of
    /// right-hand sides (Section V-F.1).
    Posv,
    /// In-place inversion of the Cholesky factor `L` (Section V-F.2).
    Trtri,
    /// Triangular multiply `L^T L` finishing a symmetric inverse.
    Lauum,
    /// Full symmetric inverse: POTRF + TRTRI + LAUUM (Section V-F.2).
    Potri,
    /// LU factorization without pivoting on the full matrix (Section VI).
    Lu,
}

impl Op {
    /// All supported operations, in planner-stable order.
    pub const ALL: [Op; 6] = [Op::Potrf, Op::Posv, Op::Trtri, Op::Lauum, Op::Potri, Op::Lu];

    /// Total flop count at matrix size `n = nt * b`.
    ///
    /// POSV is counted with one tile column (`b` right-hand sides),
    /// matching [`builders::build_posv`].
    pub(crate) fn total_flops(self, nt: usize, b: usize) -> f64 {
        let n = nt * b;
        match self {
            Op::Potrf => flops::flops_cholesky_total(n),
            Op::Posv => flops::flops_posv_total(n, b),
            Op::Trtri => flops::flops_trtri(n),
            Op::Lauum => flops::flops_lauum(n),
            Op::Potri => flops::flops_potri_total(n),
            Op::Lu => flops::flops_lu_total(n),
        }
    }

    /// Short lower-case name, as used in report headings.
    pub fn name(self) -> &'static str {
        match self {
            Op::Potrf => "potrf",
            Op::Posv => "posv",
            Op::Trtri => "trtri",
            Op::Lauum => "lauum",
            Op::Potri => "potri",
            Op::Lu => "lu",
        }
    }
}

/// One point of the feasible distribution space.
///
/// All variants carry only their defining integers, so a choice is `Copy`
/// and trivially hashable; the concrete `sbc_dist` object is rebuilt on
/// demand by `DistChoice::distribution` (construction is cheap relative to
/// scoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistChoice {
    /// ScaLAPACK-style 2D block cyclic `p x q` on `p * q` nodes.
    TwoDbc {
        /// Grid rows.
        p: usize,
        /// Grid columns.
        q: usize,
    },
    /// Basic SBC with `r/2` dedicated diagonal nodes, `r` even,
    /// `P = r^2 / 2` (Section III-C.1).
    SbcBasic {
        /// Symmetric block parameter.
        r: usize,
    },
    /// Extended SBC with rotating diagonal patterns, `P = r (r - 1) / 2`
    /// (Section III-C.2).
    SbcExtended {
        /// Symmetric block parameter.
        r: usize,
    },
    /// 2.5D replication of a basic SBC slice over `c` slices (Section IV-A).
    TwoFiveDSbc {
        /// Per-slice SBC parameter (even).
        r: usize,
        /// Number of slices.
        c: usize,
    },
    /// 2.5D replication of a `p x q` block-cyclic slice over `c` slices
    /// (Section IV-B).
    TwoFiveDBc {
        /// Per-slice grid rows.
        p: usize,
        /// Per-slice grid columns.
        q: usize,
        /// Number of slices.
        c: usize,
    },
    /// POTRI "SBC remap 2DBC": POTRF and LAUUM under extended SBC `r`,
    /// TRTRI under 2DBC `p x q`, with full redistributions in between
    /// (Section V-F.2).
    PotriRemap {
        /// Extended SBC parameter of the symmetric phases.
        r: usize,
        /// TRTRI grid rows.
        p: usize,
        /// TRTRI grid columns.
        q: usize,
    },
}

impl DistChoice {
    /// Number of nodes the choice actually occupies (may be below the
    /// budget `P` it was enumerated for).
    pub fn nodes_used(self) -> usize {
        match self {
            DistChoice::TwoDbc { p, q } => p * q,
            DistChoice::SbcBasic { r } => r * r / 2,
            DistChoice::SbcExtended { r } => r * (r - 1) / 2,
            DistChoice::TwoFiveDSbc { r, c } => c * (r * r / 2),
            DistChoice::TwoFiveDBc { p, q, c } => c * p * q,
            DistChoice::PotriRemap { r, .. } => r * (r - 1) / 2,
        }
    }

    /// Human-readable label, e.g. `"SBC ext r=8 (P=28)"`.
    pub fn describe(self) -> String {
        let n = self.nodes_used();
        match self {
            DistChoice::TwoDbc { p, q } => format!("2DBC {p}x{q} (P={n})"),
            DistChoice::SbcBasic { r } => format!("SBC basic r={r} (P={n})"),
            DistChoice::SbcExtended { r } => format!("SBC ext r={r} (P={n})"),
            DistChoice::TwoFiveDSbc { r, c } => format!("2.5D SBC r={r} c={c} (P={n})"),
            DistChoice::TwoFiveDBc { p, q, c } => format!("2.5D BC {p}x{q} c={c} (P={n})"),
            DistChoice::PotriRemap { r, p, q } => {
                format!("SBC r={r} remap 2DBC {p}x{q} (P={n})")
            }
        }
    }

    /// Whether this choice can execute `op` at all. 2.5D replication is
    /// only implemented for POTRF, and the remap strategy only makes sense
    /// for POTRI.
    pub(crate) fn supports(self, op: Op) -> bool {
        match self {
            DistChoice::TwoFiveDSbc { .. } | DistChoice::TwoFiveDBc { .. } => op == Op::Potrf,
            DistChoice::PotriRemap { .. } => op == Op::Potri,
            _ => true,
        }
    }

    /// The 2D distribution this choice places tiles by: the choice itself
    /// for the flat families, one slice's for a 2.5D choice, the symmetric
    /// phases' for the remap strategy.
    pub(crate) fn distribution(self) -> Arc<dyn Distribution> {
        match self {
            DistChoice::TwoDbc { p, q } | DistChoice::TwoFiveDBc { p, q, .. } => {
                Arc::new(TwoDBlockCyclic::new(p, q))
            }
            DistChoice::SbcBasic { r } | DistChoice::TwoFiveDSbc { r, .. } => {
                Arc::new(SbcBasic::new(r))
            }
            DistChoice::SbcExtended { r } | DistChoice::PotriRemap { r, .. } => {
                Arc::new(SbcExtended::new(r))
            }
        }
    }

    /// Exact message count of `op` on an `nt x nt` tile matrix under this
    /// choice, from the `sbc_dist::comm` counters.
    ///
    /// # Panics
    /// Panics if `!self.supports(op)`.
    pub fn messages(self, op: Op, nt: usize) -> u64 {
        assert!(self.supports(op), "{} cannot run {op:?}", self.describe());
        let dist = self.distribution();
        match self {
            DistChoice::TwoFiveDSbc { c, .. } | DistChoice::TwoFiveDBc { c, .. } => {
                comm::potrf_25d_messages(&TwoPointFiveD::new(dist, c), nt).total()
            }
            DistChoice::PotriRemap { p, q, .. } => {
                comm::potri_remap_messages(&dist, &TwoDBlockCyclic::new(p, q), nt)
            }
            _ => match op {
                Op::Potrf => comm::potrf_messages(&dist, nt),
                Op::Posv => comm::posv_messages(&dist, &RowCyclic::new(dist.num_nodes()), nt),
                Op::Trtri => comm::trtri_messages(&dist, nt),
                Op::Lauum => comm::lauum_messages(&dist, nt),
                Op::Potri => comm::potri_messages(&dist, nt),
                Op::Lu => comm::lu_messages(&dist, nt),
            },
        }
    }

    /// Per-pair message counts of `op` under this choice: a row-major
    /// `nodes_used() x nodes_used()` matrix where entry `[src * n + dst]`
    /// counts the tile messages src sends dst (initial fetches plus one
    /// message per remote consumer node of each task). The matrix sums to
    /// the graph's total message count, so the topology-aware cost model
    /// prices exactly the traffic the flat model counts — just per route.
    ///
    /// # Panics
    /// Panics if `!self.supports(op)`.
    pub(crate) fn message_matrix(self, op: Op, nt: usize) -> Vec<u64> {
        let g = self.build_graph(op, nt);
        let n = self.nodes_used();
        let mut m = vec![0u64; n * n];
        for f in g.initial_fetches() {
            m[f.home as usize * n + f.dest as usize] += 1;
        }
        let mut consumers = Vec::new();
        for t in 0..g.len() as u32 {
            let src = g.tasks()[t as usize].node as usize;
            g.remote_consumer_nodes(t, &mut consumers);
            for &dst in &consumers {
                m[src * n + dst as usize] += 1;
            }
        }
        m
    }

    /// Load imbalance of the trailing-update (GEMM) work, the dominant
    /// compute term: max over nodes of per-node GEMM count divided by the
    /// mean. For 2.5D choices the per-slice distribution is measured (the
    /// iteration round-robin splits work evenly across slices).
    pub(crate) fn gemm_imbalance(self, nt: usize) -> f64 {
        balance::gemm_balance(&self.distribution(), nt).imbalance()
    }

    /// The shared task graph executing `op` under this choice, from the
    /// process-wide [`sbc_taskgraph::memo`]: what the runtime executes.
    ///
    /// # Panics
    /// Panics if `!self.supports(op)`.
    pub(crate) fn graph(self, op: Op, nt: usize) -> Arc<TaskGraph> {
        assert!(self.supports(op), "{} cannot run {op:?}", self.describe());
        let dist = self.distribution();
        match self {
            DistChoice::TwoFiveDSbc { c, .. } | DistChoice::TwoFiveDBc { c, .. } => {
                memo::potrf_25d(&TwoPointFiveD::new(dist, c), nt)
            }
            DistChoice::PotriRemap { p, q, .. } => {
                memo::potri_remap(&dist, &TwoDBlockCyclic::new(p, q), nt)
            }
            _ => match op {
                Op::Potrf => memo::potrf(&dist, nt),
                Op::Posv => memo::posv(&dist, &RowCyclic::new(dist.num_nodes()), nt),
                Op::Trtri => memo::trtri(&dist, nt),
                Op::Lauum => memo::lauum(&dist, nt),
                Op::Potri => memo::potri(&dist, nt),
                Op::Lu => memo::lu(&dist, nt),
            },
        }
    }

    /// Builds the task graph executing `op` under this choice afresh, for a
    /// one-off analysis (the simulator's refinement, the per-pair message
    /// matrix) that should not occupy the memo.
    ///
    /// # Panics
    /// Panics if `!self.supports(op)`.
    pub fn build_graph(self, op: Op, nt: usize) -> TaskGraph {
        assert!(self.supports(op), "{} cannot run {op:?}", self.describe());
        let dist = self.distribution();
        match self {
            DistChoice::TwoFiveDSbc { c, .. } | DistChoice::TwoFiveDBc { c, .. } => {
                builders::build_potrf_25d(&TwoPointFiveD::new(dist, c), nt)
            }
            DistChoice::PotriRemap { p, q, .. } => {
                builders::build_potri_remap(&dist, &TwoDBlockCyclic::new(p, q), nt)
            }
            _ => match op {
                Op::Potrf => builders::build_potrf(&dist, nt),
                Op::Posv => builders::build_posv(&dist, &RowCyclic::new(dist.num_nodes()), nt),
                Op::Trtri => builders::build_trtri(&dist, nt),
                Op::Lauum => builders::build_lauum(&dist, nt),
                Op::Potri => builders::build_potri(&dist, nt),
                Op::Lu => builders::build_lu(&dist, nt),
            },
        }
    }
}

/// How many nodes below the budget a candidate may leave idle. Grids that
/// waste more than this many nodes always lose on the compute term at the
/// sizes the planner targets, so enumerating them only slows the search.
const MAX_IDLE_NODES: usize = 3;

/// Enumerates every feasible [`DistChoice`] for operation `op` on at most
/// `p_nodes` nodes.
///
/// * every 2DBC factorization `p x q` (both orientations) of every node
///   count in `[p_nodes - 3, p_nodes]`,
/// * every extended SBC `r >= 3` and basic SBC (even `r >= 4`) fitting the
///   budget,
/// * for POTRF: 2.5D slicings `c in 2..=4` of the largest fitting SBC and
///   of the squarest fitting grid,
/// * for POTRI: the "SBC remap 2DBC" strategy for each fitting extended
///   SBC, paired with the squarest grid on the same node count.
pub(crate) fn enumerate(op: Op, p_nodes: usize) -> Vec<DistChoice> {
    let mut out = Vec::new();
    if p_nodes == 0 {
        return out;
    }

    // 2DBC factor pairs near the budget.
    let lo = p_nodes.saturating_sub(MAX_IDLE_NODES).max(1);
    for n in lo..=p_nodes {
        for p in 1..=n {
            if n % p == 0 {
                out.push(DistChoice::TwoDbc { p, q: n / p });
            }
        }
    }

    // SBC families.
    let mut r = 3;
    while r * (r - 1) / 2 <= p_nodes {
        out.push(DistChoice::SbcExtended { r });
        r += 1;
    }
    let mut r = 4;
    while r * r / 2 <= p_nodes {
        out.push(DistChoice::SbcBasic { r });
        r += 2;
    }

    // 2.5D slicings (POTRF only).
    if op == Op::Potrf {
        for c in 2..=4 {
            if let Some(r) = largest_even_r(p_nodes / c) {
                out.push(DistChoice::TwoFiveDSbc { r, c });
            }
            if p_nodes / c >= 1 {
                let (p, q) = table1::best_grid(p_nodes / c);
                if c * p * q <= p_nodes && p * q > 1 {
                    out.push(DistChoice::TwoFiveDBc { p, q, c });
                }
            }
        }
    }

    // POTRI remap strategy (POTRI only).
    if op == Op::Potri {
        let mut r = 3;
        while r * (r - 1) / 2 <= p_nodes {
            let nodes = r * (r - 1) / 2;
            let (p, q) = table1::best_grid(nodes);
            out.push(DistChoice::PotriRemap { r, p, q });
            r += 1;
        }
    }

    out.retain(|c| c.supports(op));
    out
}

/// Largest even `r >= 4` with `r^2 / 2 <= budget`, if any.
fn largest_even_r(budget: usize) -> Option<usize> {
    let mut best = None;
    let mut r = 4;
    while r * r / 2 <= budget {
        best = Some(r);
        r += 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_covers_table1_pairings() {
        // Table I: r = 8 / P = 28 is compared against 7x4 and 6x5 (30 > 28
        // is excluded by the budget; the paper runs it on more nodes).
        let c = enumerate(Op::Potrf, 28);
        assert!(c.contains(&DistChoice::SbcExtended { r: 8 }));
        assert!(c.contains(&DistChoice::TwoDbc { p: 7, q: 4 }));
        assert!(c.contains(&DistChoice::TwoDbc { p: 4, q: 7 }));
        assert!(c.contains(&DistChoice::TwoDbc { p: 5, q: 5 }));
        // every candidate fits the budget
        assert!(c.iter().all(|d| d.nodes_used() <= 28));
    }

    #[test]
    fn twofived_only_for_potrf_and_remap_only_for_potri() {
        for op in Op::ALL {
            for c in enumerate(op, 36) {
                assert!(c.supports(op), "{c:?} enumerated for {op:?}");
                match c {
                    DistChoice::TwoFiveDSbc { .. } | DistChoice::TwoFiveDBc { .. } => {
                        assert_eq!(op, Op::Potrf)
                    }
                    DistChoice::PotriRemap { .. } => assert_eq!(op, Op::Potri),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn messages_match_direct_counters() {
        let nt = 24;
        let sbc = DistChoice::SbcExtended { r: 6 };
        assert_eq!(
            sbc.messages(Op::Potrf, nt),
            comm::potrf_messages(&SbcExtended::new(6), nt)
        );
        let bc = DistChoice::TwoDbc { p: 5, q: 3 };
        assert_eq!(
            bc.messages(Op::Trtri, nt),
            comm::trtri_messages(&TwoDBlockCyclic::new(5, 3), nt)
        );
    }

    #[test]
    fn message_matrix_sums_to_graph_message_count() {
        let nt = 16;
        for choice in [
            DistChoice::SbcExtended { r: 5 },
            DistChoice::TwoDbc { p: 3, q: 3 },
        ] {
            for op in [Op::Potrf, Op::Potri] {
                let m = choice.message_matrix(op, nt);
                let n = choice.nodes_used();
                assert_eq!(m.len(), n * n);
                let total: u64 = m.iter().sum();
                assert_eq!(total, choice.build_graph(op, nt).count_messages());
                // nothing on the diagonal: a node never messages itself
                for i in 0..n {
                    assert_eq!(m[i * n + i], 0, "{} self-message", choice.describe());
                }
            }
        }
    }

    #[test]
    fn graphs_are_buildable_for_every_enumerated_choice() {
        let nt = 10;
        for op in Op::ALL {
            for c in enumerate(op, 16) {
                let g = c.build_graph(op, nt);
                assert!(
                    g.count_messages() > 0 || c.nodes_used() == 1,
                    "{}",
                    c.describe()
                );
            }
        }
    }
}
