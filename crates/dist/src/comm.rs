//! Exact communication-volume counting and closed-form expressions.
//!
//! **Counting model.** Matching the Chameleon/StarPU behaviour described in
//! Section V-C/D of the paper: every inter-node transfer carries exactly one
//! tile, there are no collectives, and a tile *version* is sent at most once
//! to each consumer node (StarPU caches received data until it changes).
//! Hence the exact communication volume of an operation is the number of
//! distinct `(tile version, consumer node)` pairs where the consumer is not
//! the producer's node.
//!
//! **Hand-derived counters.** The `record_*` functions below enumerate those
//! pairs by hand for each single sweep — the tiled POTRF, TRTRI, LAUUM and
//! LU loops and the 2.5D POTRF — from each tile version's consumer set in
//! the algorithm's loop nest, and report every message with its `(producer
//! node, consumer node)` pair; each `*_messages` function counts one. They
//! are an oracle independent of the task graph: the graph derivation is
//! tested to send *exactly* these messages pair by pair, and the
//! distributed runtime and the simulator to measure exactly these counts.
//! A composed operation (POSV, POTRI, the remap strategy) has no counter
//! here: its merged graph reuses a tile version across parts, so its count
//! is `sbc_taskgraph`'s, taken from the operation's own task stream, and
//! the sum of these counters over its parts overcounts it.
//!
//! **Closed forms.** The paper's analytic results (Theorem 1, the 2DBC
//! comparison of Section III-D, the 2.5D results of Section IV, and the
//! TRTRI/POTRI volumes of Section V-F.2) are provided as leading-term
//! formulas for cross-checking.

use crate::two_five_d::TwoPointFiveD;
use crate::{Distribution, NodeId};

/// A small, reusable set of node ids.
struct NodeSet {
    words: Vec<u64>,
    members: Vec<NodeId>,
}

impl NodeSet {
    fn new(p: usize) -> Self {
        NodeSet {
            words: vec![0; p.div_ceil(64)],
            members: Vec::with_capacity(p),
        }
    }

    fn clear(&mut self) {
        for &m in &self.members {
            self.words[m / 64] &= !(1 << (m % 64));
        }
        self.members.clear();
    }

    fn insert(&mut self, n: NodeId) {
        let (w, b) = (n / 64, n % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.members.push(n);
        }
    }

    /// Sends the messages that feed this consumer set from `producer`: one
    /// to every member but the producer itself.
    fn send_from(&self, producer: NodeId, send: &mut impl FnMut(NodeId, NodeId)) {
        for &m in self.members.iter().filter(|&&m| m != producer) {
            send(producer, m);
        }
    }
}

/// Exact number of tile messages of the tiled Cholesky factorization
/// (Algorithm 1) under `dist`, for an `nt x nt`-tile matrix: what
/// [`record_potrf`] sends.
///
/// ```
/// use sbc_dist::comm::potrf_messages;
/// use sbc_dist::{SbcExtended, TwoDBlockCyclic};
///
/// // Fig 8's setting: SBC r=7 vs the 7x3 grid, both on 21 nodes
/// let nt = 60;
/// let sbc = potrf_messages(&SbcExtended::new(7), nt);
/// let dbc = potrf_messages(&TwoDBlockCyclic::new(7, 3), nt);
/// assert!(sbc < dbc); // fewer communications...
/// assert!((dbc as f64 / sbc as f64) > 1.3); // ...by roughly sqrt(2)
/// ```
pub fn potrf_messages<D: Distribution>(dist: &D, nt: usize) -> u64 {
    let mut sent = 0;
    record_potrf(dist, nt, |_, _| sent += 1);
    sent
}

/// Calls `send(src, dst)` once per tile message of the tiled Cholesky
/// factorization (Algorithm 1) under `dist`.
///
/// Two message classes exist (Section III-D): POTRF results broadcast down
/// their column, and TRSM results broadcast to the owners of the row/column
/// tiles they update.
pub fn record_potrf<D: Distribution>(dist: &D, nt: usize, mut send: impl FnMut(NodeId, NodeId)) {
    potrf_broadcasts(dist.num_nodes(), nt, |_, r, c| dist.owner(r, c), &mut send);
}

/// [`record_potrf`]'s two broadcast classes, where iteration `i` finds tile
/// `(r, c)` on node `owner(i, r, c)`.
fn potrf_broadcasts(
    nodes: usize,
    nt: usize,
    owner: impl Fn(usize, usize, usize) -> NodeId,
    send: &mut impl FnMut(NodeId, NodeId),
) {
    let mut set = NodeSet::new(nodes);
    for i in 0..nt {
        let owner = |r, c| owner(i, r, c);
        // POTRF(i,i) -> TRSM tasks of column i
        set.clear();
        for j in i + 1..nt {
            set.insert(owner(j, i));
        }
        set.send_from(owner(i, i), send);
        // TRSM(j,i) -> SYRK(j,j), GEMMs on row j (first operand) and
        // column j (second operand)
        for j in i + 1..nt {
            set.clear();
            set.insert(owner(j, j));
            for k in i + 1..j {
                set.insert(owner(j, k));
            }
            for j2 in j + 1..nt {
                set.insert(owner(j2, j));
            }
            set.send_from(owner(j, i), send);
        }
    }
}

/// Exact number of tile messages of the tiled lower-triangular inversion
/// (TRTRI) under `dist`: what [`record_trtri`] sends.
pub fn trtri_messages<D: Distribution>(dist: &D, nt: usize) -> u64 {
    let mut sent = 0;
    record_trtri(dist, nt, |_, _| sent += 1);
    sent
}

/// Calls `send(src, dst)` once per tile message of the tiled
/// lower-triangular inversion (TRTRI) under `dist`.
///
/// Per iteration `k` the diagonal tile is broadcast to the TRSM targets of
/// column `k` and row `k`; each column tile `(m, k)` (post right-TRSM) feeds
/// the GEMM targets on row `m` left of `k`; each row tile `(k, n)` (after
/// its accumulated updates) feeds the GEMM targets on column `n` below `k`.
/// The sub-diagonal tiles `(n+1, n)` have no updates between their two roles
/// so both consumer sets share one version (deduplicated here, exactly as a
/// caching runtime would).
pub fn record_trtri<D: Distribution>(dist: &D, nt: usize, mut send: impl FnMut(NodeId, NodeId)) {
    let mut set = NodeSet::new(dist.num_nodes());
    for k in 0..nt {
        // diagonal tile (k,k), original value -> right-TRSM targets (m,k)
        // and left-TRSM targets (k,n)
        set.clear();
        for m in k + 1..nt {
            set.insert(dist.owner(m, k));
        }
        for n in 0..k {
            set.insert(dist.owner(k, n));
        }
        set.send_from(dist.owner(k, k), &mut send);
    }
    // off-diagonal tiles: two versions, v1 after the right-TRSM of
    // iteration n, v2 (accumulated) read at iteration m.
    for m in 1..nt {
        for n in 0..m {
            let producer = dist.owner(m, n);
            if m == n + 1 {
                // single version: union of both consumer sets
                set.clear();
                for n2 in 0..n {
                    set.insert(dist.owner(m, n2));
                }
                for m2 in m + 1..nt {
                    set.insert(dist.owner(m2, n));
                }
                set.send_from(producer, &mut send);
            } else {
                set.clear();
                for n2 in 0..n {
                    set.insert(dist.owner(m, n2));
                }
                set.send_from(producer, &mut send);
                set.clear();
                for m2 in m + 1..nt {
                    set.insert(dist.owner(m2, n));
                }
                set.send_from(producer, &mut send);
            }
        }
    }
}

/// Exact number of tile messages of the tiled LAUUM sweep under `dist`:
/// what [`record_lauum`] sends.
pub fn lauum_messages<D: Distribution>(dist: &D, nt: usize) -> u64 {
    let mut sent = 0;
    record_lauum(dist, nt, |_, _| sent += 1);
    sent
}

/// Calls `send(src, dst)` once per tile message of the tiled LAUUM sweep
/// under `dist`.
///
/// Tile `(k, n)` (its value before the iteration-`k` TRMM) feeds the SYRK at
/// `(n, n)`, the GEMM targets `(m, n)` for `n < m < k`, and the GEMM targets
/// `(n, n2)` for `n2 < n` — a row-plus-column set around index `n`, the same
/// symmetric shape as POTRF (which is why SBC keeps its advantage here).
pub fn record_lauum<D: Distribution>(dist: &D, nt: usize, mut send: impl FnMut(NodeId, NodeId)) {
    let mut set = NodeSet::new(dist.num_nodes());
    for k in 0..nt {
        // diagonal tile (k,k) original -> TRMM targets on row k
        set.clear();
        for n in 0..k {
            set.insert(dist.owner(k, n));
        }
        set.send_from(dist.owner(k, k), &mut send);
        // row tiles (k,n)
        for n in 0..k {
            set.clear();
            set.insert(dist.owner(n, n));
            for m in n + 1..k {
                set.insert(dist.owner(m, n));
            }
            for n2 in 0..n {
                set.insert(dist.owner(n, n2));
            }
            set.send_from(dist.owner(k, n), &mut send);
        }
    }
}

/// Exact number of tile messages of the tiled LU factorization without
/// pivoting under `dist`: what [`record_lu`] sends.
pub fn lu_messages<D: Distribution>(dist: &D, nt: usize) -> u64 {
    let mut sent = 0;
    record_lu(dist, nt, |_, _| sent += 1);
    sent
}

/// Calls `send(src, dst)` once per tile message of the tiled LU
/// factorization without pivoting under `dist` (full `nt x nt` matrix;
/// Section III-E's comparison case). Per iteration `k`: the GETRF result
/// feeds both panels; each column-panel tile `(i, k)` feeds the trailing
/// GEMMs of row `i`; each row-panel tile `(k, j)` feeds the trailing GEMMs
/// of column `j`. Unlike Cholesky, the row and column consumer sets involve
/// *different* tiles, so no symmetric reuse exists — 2DBC is the right
/// distribution here.
pub fn record_lu<D: Distribution>(dist: &D, nt: usize, mut send: impl FnMut(NodeId, NodeId)) {
    let mut set = NodeSet::new(dist.num_nodes());
    for k in 0..nt {
        // GETRF(k,k) -> both panels
        set.clear();
        for j in k + 1..nt {
            set.insert(dist.owner(k, j));
            set.insert(dist.owner(j, k));
        }
        set.send_from(dist.owner(k, k), &mut send);
        // column panel (i,k) -> row i trailing targets
        for i in k + 1..nt {
            set.clear();
            for j in k + 1..nt {
                set.insert(dist.owner(i, j));
            }
            set.send_from(dist.owner(i, k), &mut send);
        }
        // row panel (k,j) -> column j trailing targets
        for j in k + 1..nt {
            set.clear();
            for i in k + 1..nt {
                set.insert(dist.owner(i, j));
            }
            set.send_from(dist.owner(k, j), &mut send);
        }
    }
}

/// Per-class breakdown of 2.5D POTRF messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoFiveDMessages {
    /// Intra-slice broadcasts of POTRF/TRSM results (`D1` in Section IV-A).
    pub broadcasts: u64,
    /// Inter-slice reduction messages (`D2` in Section IV-A).
    pub reductions: u64,
}

impl TwoFiveDMessages {
    /// Total messages.
    pub fn total(&self) -> u64 {
        self.broadcasts + self.reductions
    }
}

/// Exact messages of the 2.5D tiled Cholesky (Section IV), split into its
/// two classes: what [`record_potrf_25d`] sends within a slice and across
/// slices.
pub fn potrf_25d_messages<D: Distribution>(d25: &TwoPointFiveD<D>, nt: usize) -> TwoFiveDMessages {
    let per_slice = d25.num_nodes() / d25.slices();
    let mut m = TwoFiveDMessages::default();
    record_potrf_25d(d25, nt, |src, dst| {
        match src / per_slice == dst / per_slice {
            true => m.broadcasts += 1,
            false => m.reductions += 1,
        }
    });
    m
}

/// Calls `send(src, dst)` once per tile message of the 2.5D tiled Cholesky
/// (Section IV): iteration `i` runs on slice `i mod c`, and its panel
/// results are broadcast within that slice only; before the panel tasks of
/// iteration `k`, the partial updates of each column-`k` tile `(j, k)` are
/// reduced from its copy on every *contributing* slice to its copy on slice
/// `k mod c` (a slice contributes if some earlier iteration was assigned to
/// it). All slices hold a copy of the input, so the reduction needs no
/// extra message for the original values.
pub fn record_potrf_25d<D: Distribution>(
    d25: &TwoPointFiveD<D>,
    nt: usize,
    mut send: impl FnMut(NodeId, NodeId),
) {
    let sigma = |i| d25.slice_of_iteration(i);
    let owner = |i, r, c| d25.owner_in_slice(sigma(i), r, c);
    potrf_broadcasts(d25.num_nodes(), nt, owner, &mut send);
    for k in 0..nt {
        for s in (0..d25.slices().min(k)).filter(|&s| s != sigma(k)) {
            for j in k..nt {
                send(
                    d25.owner_in_slice(s, j, k),
                    d25.owner_in_slice(sigma(k), j, k),
                );
            }
        }
    }
}

/// Total size of the symmetric matrix in tiles: `S = nt (nt + 1) / 2`.
pub fn matrix_tiles(nt: usize) -> u64 {
    (nt * (nt + 1) / 2) as u64
}

/// Converts a tile-message count to bytes for tile dimension `b` (f64).
pub fn messages_to_bytes(messages: u64, b: usize) -> u64 {
    messages * (b * b * 8) as u64
}

// ---------------------------------------------------------------------------
// Closed forms from the paper
// ---------------------------------------------------------------------------

/// Theorem 1 (basic): `D = S (r - 1)` tile sends.
pub fn theorem1_basic(nt: usize, r: usize) -> u64 {
    matrix_tiles(nt) * (r as u64 - 1)
}

/// Theorem 1 (extended): `D = S (r - 2)` tile sends.
pub fn theorem1_extended(nt: usize, r: usize) -> u64 {
    matrix_tiles(nt) * (r as u64 - 2)
}

/// Optimal slice count for 2.5D SBC with ample memory (Section IV-B):
/// `r = 2c`, `c = (P/2)^{1/3}` — returned as the best integer `c >= 1` for
/// `P` nodes given that `r^2 c = 2 P` must hold with even `r`.
pub fn optimal_c_sbc(p_nodes: usize) -> usize {
    ((p_nodes as f64 / 2.0).cbrt().round() as usize).max(1)
}

/// Optimal slice count for 2.5D block-cyclic: `p = q = c = P^{1/3}`.
pub fn optimal_c_bc(p_nodes: usize) -> usize {
    ((p_nodes as f64).cbrt().round() as usize).max(1)
}

/// Average arithmetic intensity of Cholesky under 2DBC (Section III-E):
/// `sqrt(M)/sqrt(2)` at the first iteration, `(2/3) sqrt(M/2)` averaged over
/// the whole computation — a factor sqrt(2) below the SBC value.
pub fn intensity_cholesky_2dbc(m_tiles: f64) -> f64 {
    (2.0 / 3.0) * (m_tiles / 2.0).sqrt()
}

/// Average arithmetic intensity of Cholesky under SBC (Section III-E):
/// `(2/3) sqrt(M)` (matching LU under 2DBC and Béreux's sequential bound up
/// to the 2/3 shrinking factor).
pub fn intensity_cholesky_sbc(m_tiles: f64) -> f64 {
    (2.0 / 3.0) * m_tiles.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SbcBasic, SbcExtended, TwoDBlockCyclic};

    // The paper's leading terms, pinned below against the exact counters.

    /// LU 2DBC leading term: each of the `nt (nt - 1) / 2` column-panel tiles
    /// is broadcast to the `q - 1` other nodes of its pattern row and each of
    /// the `nt (nt - 1) / 2` row-panel tiles to the `p - 1` other nodes of its
    /// pattern column, `D = nt (nt - 1) / 2 * (p + q - 2)`. The broadcasts of
    /// the diagonal (GETRF) tiles are left out, so [`lu_messages`] sits a
    /// little above this form.
    fn lu_2dbc_closed_form(nt: usize, p: usize, q: usize) -> u64 {
        let panels = (nt * (nt - 1) / 2) as u64;
        panels * (q as u64 - 1) + panels * (p as u64 - 1)
    }

    /// 2DBC POTRF leading term: `D = S (p + q - 2)` tile sends.
    fn potrf_2dbc_closed_form(nt: usize, p: usize, q: usize) -> u64 {
        matrix_tiles(nt) * (p + q - 2) as u64
    }

    /// 2.5D SBC POTRF leading term (Section IV-A): `D = S (r + c - 2)`.
    fn potrf_25d_sbc_closed_form(nt: usize, r: usize, c: usize) -> u64 {
        matrix_tiles(nt) * (r + c - 2) as u64
    }

    /// 2.5D 2DBC POTRF leading term: `D = S (p + q + c - 3)`.
    fn potrf_25d_bc_closed_form(nt: usize, p: usize, q: usize, c: usize) -> u64 {
        matrix_tiles(nt) * (p + q + c - 3) as u64
    }

    /// TRTRI leading terms (Section V-F.2): `S (p + q - 2)` for 2DBC.
    fn trtri_2dbc_closed_form(nt: usize, p: usize, q: usize) -> u64 {
        matrix_tiles(nt) * (p + q - 2) as u64
    }

    /// TRTRI leading terms (Section V-F.2): `S (2r - 2)` for extended SBC.
    fn trtri_sbc_closed_form(nt: usize, r: usize) -> u64 {
        matrix_tiles(nt) * (2 * r - 2) as u64
    }

    /// POTRI all-2DBC leading term: `3 S (p + q - 2)`.
    fn potri_2dbc_closed_form(nt: usize, p: usize, q: usize) -> u64 {
        3 * matrix_tiles(nt) * (p + q - 2) as u64
    }

    /// POTRI "SBC remap 2DBC" leading term: `S (2r + p + q - 4)`.
    fn potri_remap_closed_form(nt: usize, r: usize, p: usize, q: usize) -> u64 {
        matrix_tiles(nt) * (2 * r + p + q - 4) as u64
    }

    /// POTRI's steps counted each as if it ran alone, the paper's per-step
    /// accounting: what the leading terms above describe.
    fn potri_steps<D: Distribution>(d: &D, nt: usize) -> u64 {
        potrf_messages(d, nt) + trtri_messages(d, nt) + lauum_messages(d, nt)
    }

    /// One message per lower tile whose owner differs between `from` and
    /// `to`: a redistribution step.
    fn moves<A: Distribution, B: Distribution>(from: &A, to: &B, nt: usize) -> u64 {
        let tiles = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j)));
        tiles
            .filter(|&(i, j)| from.owner(i, j) != to.owner(i, j))
            .count() as u64
    }

    /// The remap strategy's five steps, each as if it ran alone.
    fn potri_remap_steps<A: Distribution, B: Distribution>(sym: &A, bc: &B, nt: usize) -> u64 {
        potrf_messages(sym, nt)
            + moves(sym, bc, nt)
            + trtri_messages(bc, nt)
            + moves(bc, sym, nt)
            + lauum_messages(sym, nt)
    }

    #[test]
    fn nodeset_dedup_and_producer_exclusion() {
        let mut s = NodeSet::new(10);
        s.insert(3);
        s.insert(3);
        s.insert(7);
        assert_eq!(s.members, [3, 7]);
        let sent_from = |producer| {
            let mut pairs = Vec::new();
            s.send_from(producer, &mut |src, dst| pairs.push((src, dst)));
            pairs
        };
        assert_eq!(sent_from(3), [(3, 7)]);
        assert_eq!(sent_from(0), [(0, 3), (0, 7)]);
        s.clear();
        assert!(s.members.is_empty());
        assert!(s.words.iter().all(|&w| w == 0));
    }

    #[test]
    fn single_node_never_communicates() {
        let d = TwoDBlockCyclic::new(1, 1);
        for nt in [1, 5, 12] {
            assert_eq!(potrf_messages(&d, nt), 0);
            assert_eq!(trtri_messages(&d, nt), 0);
            assert_eq!(lauum_messages(&d, nt), 0);
            assert_eq!(lu_messages(&d, nt), 0);
        }
    }

    #[test]
    fn potrf_sbc_basic_matches_theorem1_asymptotically() {
        // Each tile sent to at most r-1 nodes; the ratio approaches 1 as nt
        // grows (edge effects shrink).
        let r = 4;
        let d = SbcBasic::new(r);
        for nt in [8 * r, 16 * r] {
            let exact = potrf_messages(&d, nt);
            let closed = theorem1_basic(nt, r);
            assert!(exact <= closed);
            let ratio = exact as f64 / closed as f64;
            assert!(ratio > 0.85, "nt={nt} ratio={ratio}");
        }
        // monotone convergence
        let r16 = potrf_messages(&d, 16 * r) as f64 / theorem1_basic(16 * r, r) as f64;
        let r8 = potrf_messages(&d, 8 * r) as f64 / theorem1_basic(8 * r, r) as f64;
        assert!(r16 > r8);
    }

    #[test]
    fn potrf_sbc_extended_matches_theorem1_asymptotically() {
        for r in [5, 6, 7, 8] {
            let d = SbcExtended::new(r);
            let nt = 12 * r;
            let exact = potrf_messages(&d, nt);
            let closed = theorem1_extended(nt, r);
            assert!(exact <= closed, "r={r}");
            let ratio = exact as f64 / closed as f64;
            assert!(ratio > 0.85, "r={r} ratio={ratio}");
        }
    }

    #[test]
    fn potrf_2dbc_matches_closed_form_asymptotically() {
        let (p, q) = (4, 3);
        let d = TwoDBlockCyclic::new(p, q);
        let nt = 72;
        let exact = potrf_messages(&d, nt);
        let closed = potrf_2dbc_closed_form(nt, p, q);
        assert!(exact <= closed);
        assert!(exact as f64 / closed as f64 > 0.85);
    }

    /// Exact count over closed form at nt = 48 and 96: within 5 % at 96 and
    /// closer to 1 than at 48, approached from above for a lower bound.
    fn assert_converges(
        name: &str,
        exact: impl Fn(usize) -> u64,
        closed: impl Fn(usize) -> u64,
        lower_bound: bool,
    ) {
        let ratio = |nt| exact(nt) as f64 / closed(nt) as f64;
        let (r48, r96) = (ratio(48), ratio(96));
        for r in [r48, r96] {
            assert_eq!(r >= 1.0, lower_bound, "{name}: ratio {r}");
        }
        assert!((r96 - 1.0).abs() < 0.05, "{name}: ratio {r96} at nt = 96");
        assert!(
            (r96 - 1.0).abs() < (r48 - 1.0).abs(),
            "{name}: {r48} -> {r96}"
        );
    }

    #[test]
    fn lu_2dbc_closed_form_is_a_converging_lower_bound() {
        let bc = TwoDBlockCyclic::new(4, 3);
        assert_converges(
            "LU 2DBC 4x3",
            |nt| lu_messages(&bc, nt),
            |nt| lu_2dbc_closed_form(nt, 4, 3),
            true,
        );
    }

    #[test]
    fn potrf_25d_bc_matches_closed_form_asymptotically() {
        let d25 = TwoPointFiveD::new(TwoDBlockCyclic::new(4, 3), 3);
        assert_converges(
            "2.5D 2DBC 4x3 c=3",
            |nt| potrf_25d_messages(&d25, nt).total(),
            |nt| potrf_25d_bc_closed_form(nt, 4, 3, 3),
            false,
        );
    }

    #[test]
    fn potri_2dbc_matches_closed_form_asymptotically() {
        let bc = TwoDBlockCyclic::new(4, 3);
        assert_converges(
            "POTRI 2DBC 4x3",
            |nt| potri_steps(&bc, nt),
            |nt| potri_2dbc_closed_form(nt, 4, 3),
            false,
        );
    }

    #[test]
    fn potri_remap_matches_closed_form_asymptotically() {
        let (sbc, bc) = (SbcExtended::new(8), TwoDBlockCyclic::new(7, 4));
        assert_converges(
            "remap r=8 with 7x4",
            |nt| potri_remap_steps(&sbc, &bc, nt),
            |nt| potri_remap_closed_form(nt, 8, 7, 4),
            false,
        );
    }

    #[test]
    fn sbc_beats_2dbc_at_equal_node_count() {
        // r=7 -> P=21 vs 2DBC 7x3=21 and 5x4=20 (Fig 8 setting).
        let sbc = SbcExtended::new(7);
        let bc73 = TwoDBlockCyclic::new(7, 3);
        let bc54 = TwoDBlockCyclic::new(5, 4);
        let nt = 60;
        let vs = potrf_messages(&sbc, nt);
        assert!(vs < potrf_messages(&bc73, nt));
        assert!(vs < potrf_messages(&bc54, nt));
    }

    #[test]
    fn sqrt2_asymptotic_improvement() {
        // Section III-D: SBC volume ~ S*sqrt(2P), square 2DBC ~ 2S*sqrt(P):
        // ratio -> sqrt(2). Check the closed-form ratio for growing square P.
        for r in [9, 17, 33] {
            let p_nodes = r * (r - 1) / 2;
            let side = (p_nodes as f64).sqrt();
            let sbc_per_tile = (r - 2) as f64;
            let dbc_per_tile = 2.0 * side - 2.0;
            let ratio = dbc_per_tile / sbc_per_tile;
            // approaches sqrt(2) ~ 1.414 from... check within 10% for r>=9
            assert!(
                (ratio - std::f64::consts::SQRT_2).abs() < 0.15,
                "r={r} ratio={ratio}"
            );
        }
    }

    #[test]
    fn trtri_prefers_2dbc() {
        // Section V-F.2: for TRTRI, 2DBC generates a smaller volume than SBC.
        let sbc = SbcExtended::new(8); // P=28
        let bc = TwoDBlockCyclic::new(7, 4); // P=28
        let nt = 64;
        assert!(trtri_messages(&bc, nt) < trtri_messages(&sbc, nt));
        // and both are near their closed forms
        let e = trtri_messages(&bc, nt) as f64 / trtri_2dbc_closed_form(nt, 7, 4) as f64;
        assert!(e > 0.8 && e <= 1.0, "e={e}");
        // SBC's row/column broadcasts need longer spans to reach all r-1
        // nodes, so edge effects are larger; the ratio converges to 1 slowly.
        let s = trtri_messages(&sbc, nt) as f64 / trtri_sbc_closed_form(nt, 8) as f64;
        assert!(s > 0.65 && s <= 1.0, "s={s}");
        let s2 = trtri_messages(&sbc, 2 * nt) as f64 / trtri_sbc_closed_form(2 * nt, 8) as f64;
        assert!(s2 > s, "convergence: {s2} vs {s}");
    }

    #[test]
    fn lauum_matches_potrf_volume_shape() {
        // Section V-F.2: LAUUM has the same dependency pattern as POTRF and
        // should induce (asymptotically) the same volume per distribution.
        let sbc = SbcExtended::new(7);
        let nt = 56;
        let l = lauum_messages(&sbc, nt) as f64;
        let p = potrf_messages(&sbc, nt) as f64;
        assert!((l / p - 1.0).abs() < 0.05, "l={l} p={p}");
    }

    #[test]
    fn potri_remap_beats_all_2dbc_asymptotically() {
        // closed-form ratio 3(p+q-2) vs (2r+p+q-4): for square grids and
        // matching P the ratio approaches 3/(1+sqrt(2)) ~ 1.24.
        let r = 40usize;
        let p_nodes = r * (r - 1) / 2; // 780
        let side = (p_nodes as f64).sqrt(); // ~27.9
        let p = side.round() as usize;
        let all_bc = 3.0 * (2 * p - 2) as f64;
        let remap = (2 * r + 2 * p - 4) as f64;
        let ratio = all_bc / remap;
        assert!(
            (ratio - 3.0 / (1.0 + std::f64::consts::SQRT_2)).abs() < 0.08,
            "ratio={ratio}"
        );
    }

    #[test]
    fn potri_remap_exact_counts_fig14_case() {
        // Fig 14: r=8 (P=28), 2DBC 7x4: volume reduction factor 27/23 ~ 1.17.
        let sbc = SbcExtended::new(8);
        let bc = TwoDBlockCyclic::new(7, 4);
        let nt = 64;
        let all_bc = potri_steps(&bc, nt);
        let remap = potri_remap_steps(&sbc, &bc, nt);
        let ratio = all_bc as f64 / remap as f64;
        // the paper's leading-order ratio is 27/23 ~ 1.174; exact counts
        // include redistribution and edge effects, so allow a window.
        assert!(ratio > 1.0 && ratio < 1.35, "ratio={ratio}");
    }

    #[test]
    fn two_five_d_counts_match_section_iv() {
        // c slices of basic SBC r: D = S (r + c - 2) asymptotically.
        let r = 4;
        let c = 3;
        let d25 = TwoPointFiveD::new(SbcBasic::new(r), c);
        let nt = 48;
        let m = potrf_25d_messages(&d25, nt);
        let closed = potrf_25d_sbc_closed_form(nt, r, c);
        assert!(m.total() <= closed);
        assert!(
            m.total() as f64 / closed as f64 > 0.85,
            "{} vs {closed}",
            m.total()
        );
        // reductions alone ~ S (c - 1)
        let red_closed = matrix_tiles(nt) * (c as u64 - 1);
        assert!(m.reductions <= red_closed);
        assert!(m.reductions as f64 / red_closed as f64 > 0.9);
    }

    /// A 2.5D reduction goes between two copies of one tile, and column
    /// `k` is reduced from each of its contributing slices once per tile.
    #[test]
    fn two_five_d_reductions_join_copies_of_one_tile() {
        for (r, c) in [(4, 2), (4, 3), (6, 4)] {
            let d25 = TwoPointFiveD::new(SbcBasic::new(r), c);
            let per_slice = d25.num_nodes() / c;
            for nt in [1, 5, 17] {
                let mut across = 0;
                record_potrf_25d(&d25, nt, |src, dst| {
                    if src / per_slice != dst / per_slice {
                        assert_eq!(src % per_slice, dst % per_slice);
                        across += 1;
                    }
                });
                // slices 0..min(c, k) ran an earlier iteration; the home
                // slice k mod c is among them once k >= c
                let contributing = |k: usize| c.min(k) - usize::from(k >= c);
                let columns = (0..nt).map(|k| contributing(k) * (nt - k));
                assert_eq!(across, columns.sum::<usize>(), "r={r} c={c} nt={nt}");
            }
        }
    }

    #[test]
    fn two_five_d_with_one_slice_equals_2d() {
        let r = 4;
        let d2 = SbcBasic::new(r);
        let d25 = TwoPointFiveD::new(d2.clone(), 1);
        let nt = 32;
        let m = potrf_25d_messages(&d25, nt);
        assert_eq!(m.reductions, 0);
        assert_eq!(m.broadcasts, potrf_messages(&d2, nt));
    }

    #[test]
    fn optimal_c_values() {
        // Section IV-B: c ~ (P/2)^(1/3); for P=256, c ~ 5.04 -> 5.
        assert_eq!(optimal_c_sbc(256), 5);
        assert_eq!(optimal_c_bc(27), 3);
        assert_eq!(optimal_c_bc(1000), 10);
        assert!(optimal_c_sbc(1) >= 1);
    }

    #[test]
    fn arithmetic_intensity_ratio_is_sqrt2() {
        // Section III-E / conclusion: SBC raises Cholesky's arithmetic
        // intensity by sqrt(2) over 2DBC.
        let m = 10_000.0;
        let sbc = intensity_cholesky_sbc(m);
        let dbc = (2.0 / 3.0) * (m / 2.0).sqrt();
        assert!((sbc / dbc - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
