//! Task-graph builders for the tiled operations.
//!
//! Each operation is one task stream: its `submit_*` function walks the
//! *same loop nest* as the corresponding sequential algorithm in
//! `sbc-matrix`, submitting one task per kernel call into a sink;
//! placement follows owner-computes under the given distribution. A
//! [`Workload`] names an operation and its placement, and every consumer of
//! the stream reads it from there: the `build_*` functions feed it to the
//! graph builder, whose tile accesses are derived from
//! [`Task::reads`]/[`Task::output`] (shared with the runtime executor, so
//! dependencies and kernel operands cannot diverge), and
//! [`Workload::traffic`] counts the messages of that same graph without
//! building it. Integration tests run these graphs through the real runtime
//! and compare against the sequential results.

use crate::graph::{GraphBuilder, ResultKind, TaskGraph};
use crate::task::{Task, TaskKind, TileRef};
use sbc_dist::{Distribution, RowCyclic, TwoPointFiveD};

/// Where an operation's task stream goes, task by task in sequential-program
/// order: the graph builder infers the task graph from it, the traffic sink
/// counts that graph's messages, the task count its length.
pub(crate) trait Sink {
    /// Takes the next task.
    fn submit_task(&mut self, task: Task);

    /// Declares `node` the home of the original input tile `tile`, so reads
    /// of it by tasks elsewhere fetch it from there.
    fn set_home(&mut self, tile: TileRef, node: u32);
}

/// Counts a stream's tasks.
struct TaskCount(usize);

impl Sink for TaskCount {
    fn submit_task(&mut self, _: Task) {
        self.0 += 1;
    }

    fn set_home(&mut self, _: TileRef, _: u32) {}
}

/// A distribution's owner of every tile of an `nt x nt` matrix, looked up
/// instead of computed: a loop nest asks for each owner up to `nt` times,
/// and a lookup in this column-major table costs less than a call through
/// a `dyn Distribution` and its divisions.
struct Owners {
    nt: usize,
    table: Vec<u32>,
}

impl Owners {
    fn new(owner: impl Fn(usize, usize) -> usize, nt: usize) -> Self {
        let cells = (0..nt).flat_map(|j| (0..nt).map(move |i| (i, j)));
        let table = cells.map(|(i, j)| owner(i, j) as u32).collect();
        Owners { nt, table }
    }

    fn owner(&self, i: usize, j: usize) -> usize {
        self.table[j * self.nt + i] as usize
    }
}

/// An operation and the placement its tasks run under: the one description
/// its task graph (the shared [`Workload::graph`], or a `build_*` function)
/// and its messages per node pair ([`Workload::traffic`]) both come from.
pub enum Workload<'a, D> {
    /// Cholesky factorization (Algorithm 1).
    Potrf(&'a D),
    /// 2.5D Cholesky factorization (Section IV).
    Potrf25d(&'a TwoPointFiveD<D>),
    /// Factorization plus both triangular-solve sweeps of one tile column of
    /// right-hand sides, distributed by the [`RowCyclic`] layout.
    Posv(&'a D, &'a RowCyclic),
    /// Standalone inversion of a distributed lower-triangular matrix.
    Trtri(&'a D),
    /// Standalone `L^T L` of a distributed lower-triangular matrix.
    Lauum(&'a D),
    /// POTRF + TRTRI + LAUUM under one distribution.
    Potri(&'a D),
    /// The paper's "SBC remap 2DBC" POTRI: POTRF and LAUUM under the first
    /// distribution, TRTRI under the second.
    PotriRemap(&'a D, &'a dyn Distribution),
    /// LU without pivoting on the full matrix.
    Lu(&'a D),
}

impl<D: Distribution> Workload<'_, D> {
    /// Number of platform nodes the tasks are placed on.
    pub(crate) fn nodes(&self) -> usize {
        match self {
            Workload::Potrf25d(d25) => d25.num_nodes(),
            Workload::Potrf(d)
            | Workload::Posv(d, _)
            | Workload::Trtri(d)
            | Workload::Lauum(d)
            | Workload::Potri(d)
            | Workload::PotriRemap(d, _)
            | Workload::Lu(d) => d.num_nodes(),
        }
    }

    /// 2.5D slice count of the tile space (1 for 2D).
    pub(crate) fn slices(&self) -> usize {
        match self {
            Workload::Potrf25d(d25) => d25.slices(),
            _ => 1,
        }
    }

    /// Submits the operation's tasks into `g`.
    pub(crate) fn submit<S: Sink>(&self, g: &mut S, nt: usize) {
        let owners = |d: &dyn Distribution| Owners::new(|i, j| d.owner(i, j), nt);
        match *self {
            Workload::Potrf(d) => submit_potrf(g, &owners(d), nt, 0),
            Workload::Potrf25d(d25) => submit_potrf_25d(g, d25, nt),
            Workload::Posv(d, rhs) => {
                assert_eq!(
                    rhs.num_nodes(),
                    d.num_nodes(),
                    "RHS distribution must target the same platform"
                );
                submit_potrf(g, &owners(d), nt, 0);
                submit_solve(g, rhs, nt, 0);
            }
            Workload::Trtri(d) => {
                let d = owners(d);
                register_homes(g, &d, nt);
                submit_trtri(g, &d, nt, 0);
            }
            Workload::Lauum(d) => {
                let d = owners(d);
                register_homes(g, &d, nt);
                submit_lauum(g, &d, nt, 0);
            }
            Workload::Potri(d) => {
                let d = owners(d);
                submit_potrf(g, &d, nt, 0);
                submit_trtri(g, &d, nt, 0);
                submit_lauum(g, &d, nt, 0);
            }
            Workload::PotriRemap(sym, bc) => {
                assert_eq!(
                    sym.num_nodes(),
                    bc.num_nodes(),
                    "remap requires both distributions on the same platform"
                );
                let (sym, bc) = (owners(sym), owners(bc));
                submit_potrf(g, &sym, nt, 0);
                submit_moves(g, &bc, nt, 1);
                submit_trtri(g, &bc, nt, 1);
                submit_moves(g, &sym, nt, 2);
                submit_lauum(g, &sym, nt, 2);
            }
            Workload::Lu(d) => submit_lu(g, &owners(d), nt),
        }
    }

    /// Number of tasks of the operation on `nt x nt` tiles.
    pub(crate) fn tasks(&self, nt: usize) -> usize {
        let mut count = TaskCount(0);
        self.submit(&mut count, nt);
        count.0
    }

    /// Builds the operation's task graph on `nt x nt` tiles (uncached).
    pub(crate) fn build(&self, nt: usize) -> TaskGraph {
        let mut g = GraphBuilder::new(self.nodes(), nt, self.slices());
        self.submit(&mut g, nt);
        g.result = match self {
            Workload::Posv(..) => ResultKind::Panel,
            Workload::PotriRemap(..) => ResultKind::Symmetric { phase: 2 },
            Workload::Lu(_) => ResultKind::Full,
            _ => ResultKind::Symmetric { phase: 0 },
        };
        g.finish()
    }
}

fn a0(phase: u8, i: usize, j: usize) -> TileRef {
    TileRef::A {
        phase,
        slice: 0,
        i: i as u32,
        j: j as u32,
    }
}

/// Submits the Cholesky factorization tasks (Algorithm 1) into `g` under
/// `dist`, on redistribution phase `phase`.
fn submit_potrf<S: Sink>(g: &mut S, dist: &Owners, nt: usize, phase: u8) {
    submit_cholesky(g, nt, phase, |_, r, c| dist.owner(r, c), |_, _| {});
}

/// The Cholesky loop nest, where iteration `i` places the task writing tile
/// `(r, c)` on `owner(i, r, c)` and first submits `before(g, i)`.
fn submit_cholesky<S: Sink>(
    g: &mut S,
    nt: usize,
    phase: u8,
    owner: impl Fn(usize, usize, usize) -> usize,
    mut before: impl FnMut(&mut S, usize),
) {
    let task = |kind, node: usize| Task {
        kind,
        node: node as u32,
        phase,
    };
    for i in 0..nt {
        before(g, i);
        let owner = |r, c| owner(i, r, c);
        g.submit_task(task(TaskKind::Potrf { k: i as u32 }, owner(i, i)));
        for j in i + 1..nt {
            g.submit_task(task(
                TaskKind::Trsm {
                    k: i as u32,
                    i: j as u32,
                },
                owner(j, i),
            ));
        }
        for k in i + 1..nt {
            g.submit_task(task(
                TaskKind::Syrk {
                    i: i as u32,
                    k: k as u32,
                },
                owner(k, k),
            ));
            for j in k + 1..nt {
                g.submit_task(task(
                    TaskKind::Gemm {
                        i: i as u32,
                        j: j as u32,
                        k: k as u32,
                    },
                    owner(j, k),
                ));
            }
        }
    }
}

/// Builds the 2D distributed Cholesky task graph.
pub fn build_potrf<D: Distribution>(dist: &D, nt: usize) -> TaskGraph {
    Workload::Potrf(dist).build(nt)
}

/// Builds the 2.5D distributed Cholesky task graph (Section IV).
pub fn build_potrf_25d<D: Distribution>(d25: &TwoPointFiveD<D>, nt: usize) -> TaskGraph {
    Workload::Potrf25d(d25).build(nt)
}

/// Submits the 2.5D Cholesky tasks: iteration `i` runs on slice
/// `sigma(i) = i mod c`: its panel tasks (POTRF/TRSM) and all the GEMM/SYRK
/// updates it generates. An update to
/// target `(j, k)` is applied directly to slice `sigma(k)`'s copy when
/// `sigma(i) == sigma(k)`, and accumulated into slice `sigma(i)`'s zero
/// buffer otherwise. Before iteration `i`'s panel tasks, [`TaskKind::Reduce`]
/// tasks fold every contributing buffer into slice `sigma(i)`'s copy. Every
/// slice holds a replica of the input, so originals travel no further.
fn submit_potrf_25d<S: Sink, D: Distribution>(g: &mut S, d25: &TwoPointFiveD<D>, nt: usize) {
    let c = d25.slices();
    // slice s holds slice 0's layout, shifted by s slices' worth of nodes
    let slice0 = Owners::new(|r, col| d25.owner_in_slice(0, r, col), nt);
    let per_slice = d25.num_nodes() / c;
    let owner = |i: usize, r, col| i % c * per_slice + slice0.owner(r, col);
    // reductions feeding iteration i's panel: fold the column-i buffers of
    // every contributing slice (slice s contributed iff some iteration
    // i' < i has sigma(i') = s, i.e. s < i for s < c)
    let reduce = |g: &mut S, i: usize| {
        for j in i..nt {
            for s in (0..c.min(i)).filter(|&s| s != i % c) {
                g.submit_task(Task {
                    kind: TaskKind::Reduce {
                        i: j as u32,
                        j: i as u32,
                        from_slice: s as u32,
                    },
                    node: owner(i, j, i) as u32,
                    phase: 0,
                });
            }
        }
    };
    submit_cholesky(g, nt, 0, owner, reduce);
}

/// Submits the two POSV triangular-solve sweeps (`B` under `rhs_dist`).
fn submit_solve<S: Sink>(g: &mut S, rhs_dist: &RowCyclic, nt: usize, phase: u8) {
    let task = |kind, node: usize| Task {
        kind,
        node: node as u32,
        phase,
    };
    // forward: B := L^{-1} B
    for i in 0..nt {
        g.submit_task(task(
            TaskKind::TrsmFwd { i: i as u32 },
            rhs_dist.owner_row(i),
        ));
        for j in i + 1..nt {
            g.submit_task(task(
                TaskKind::GemmFwd {
                    i: i as u32,
                    j: j as u32,
                },
                rhs_dist.owner_row(j),
            ));
        }
    }
    // backward: B := L^{-T} B
    for i in (0..nt).rev() {
        g.submit_task(task(
            TaskKind::TrsmBwd { i: i as u32 },
            rhs_dist.owner_row(i),
        ));
        for j in 0..i {
            g.submit_task(task(
                TaskKind::GemmBwd {
                    i: i as u32,
                    j: j as u32,
                },
                rhs_dist.owner_row(j),
            ));
        }
    }
}

/// Builds the POSV task graph: factorization plus both solve sweeps, fully
/// asynchronous (no barrier between the operations — the StarPU behaviour
/// of Section V-C: "the task graphs of the operations are merged").
pub fn build_posv<D: Distribution>(dist: &D, rhs_dist: &RowCyclic, nt: usize) -> TaskGraph {
    Workload::Posv(dist, rhs_dist).build(nt)
}

/// Submits the tiled TRTRI sweep (PLASMA loop order, matching
/// `sbc_matrix::trtri_tiled`).
fn submit_trtri<S: Sink>(g: &mut S, dist: &Owners, nt: usize, phase: u8) {
    let task = |kind, node: usize| Task {
        kind,
        node: node as u32,
        phase,
    };
    for k in 0..nt {
        for m in k + 1..nt {
            g.submit_task(task(
                TaskKind::TrsmRInv {
                    k: k as u32,
                    m: m as u32,
                },
                dist.owner(m, k),
            ));
        }
        for m in k + 1..nt {
            for n in 0..k {
                g.submit_task(task(
                    TaskKind::GemmInv {
                        k: k as u32,
                        m: m as u32,
                        n: n as u32,
                    },
                    dist.owner(m, n),
                ));
            }
        }
        for n in 0..k {
            g.submit_task(task(
                TaskKind::TrsmLInv {
                    k: k as u32,
                    n: n as u32,
                },
                dist.owner(k, n),
            ));
        }
        g.submit_task(task(TaskKind::TrtriDiag { k: k as u32 }, dist.owner(k, k)));
    }
}

/// Submits the tiled LAUUM sweep (matching `sbc_matrix::lauum_tiled`).
fn submit_lauum<S: Sink>(g: &mut S, dist: &Owners, nt: usize, phase: u8) {
    let task = |kind, node: usize| Task {
        kind,
        node: node as u32,
        phase,
    };
    for k in 0..nt {
        for n in 0..k {
            g.submit_task(task(
                TaskKind::SyrkLu {
                    k: k as u32,
                    n: n as u32,
                },
                dist.owner(n, n),
            ));
            for m in n + 1..k {
                g.submit_task(task(
                    TaskKind::GemmLu {
                        k: k as u32,
                        m: m as u32,
                        n: n as u32,
                    },
                    dist.owner(m, n),
                ));
            }
        }
        for n in 0..k {
            g.submit_task(task(
                TaskKind::TrmmLu {
                    k: k as u32,
                    n: n as u32,
                },
                dist.owner(k, n),
            ));
        }
        g.submit_task(task(TaskKind::LauumDiag { k: k as u32 }, dist.owner(k, k)));
    }
}

/// Declares the owner of every phase-0 tile as its home, so reads of
/// original data by remote tasks become [`crate::InitialFetch`]es.
fn register_homes<S: Sink>(g: &mut S, dist: &Owners, nt: usize) {
    for i in 0..nt {
        for j in 0..=i {
            g.set_home(a0(0, i, j), dist.owner(i, j) as u32);
        }
    }
}

/// Builds a standalone TRTRI task graph (input: a lower-triangular tiled
/// matrix already distributed by `dist`). Original tiles consumed by remote
/// tasks are fetched from their owners.
pub fn build_trtri<D: Distribution>(dist: &D, nt: usize) -> TaskGraph {
    Workload::Trtri(dist).build(nt)
}

/// Builds a standalone LAUUM task graph.
pub fn build_lauum<D: Distribution>(dist: &D, nt: usize) -> TaskGraph {
    Workload::Lauum(dist).build(nt)
}

/// Builds the POTRI task graph (POTRF + TRTRI + LAUUM) under one
/// distribution, fully asynchronous.
pub fn build_potri<D: Distribution>(dist: &D, nt: usize) -> TaskGraph {
    Workload::Potri(dist).build(nt)
}

/// Builds the tiled LU-without-pivoting task graph (full matrix, Section
/// III-E's comparison case). Tile `(i, j)` lives on `dist.owner(i, j)` for
/// *all* positions (both distributions are defined on the full index
/// space).
pub fn build_lu<D: Distribution>(dist: &D, nt: usize) -> TaskGraph {
    Workload::Lu(dist).build(nt)
}

/// Submits the tiled LU tasks (no pivoting).
fn submit_lu<S: Sink>(g: &mut S, dist: &Owners, nt: usize) {
    let task = |kind, node: usize| Task {
        kind,
        node: node as u32,
        phase: 0,
    };
    for k in 0..nt {
        g.submit_task(task(TaskKind::Getrf { k: k as u32 }, dist.owner(k, k)));
        for j in k + 1..nt {
            g.submit_task(task(
                TaskKind::TrsmRow {
                    k: k as u32,
                    j: j as u32,
                },
                dist.owner(k, j),
            ));
        }
        for i in k + 1..nt {
            g.submit_task(task(
                TaskKind::TrsmCol {
                    k: k as u32,
                    i: i as u32,
                },
                dist.owner(i, k),
            ));
        }
        for i in k + 1..nt {
            for j in k + 1..nt {
                g.submit_task(task(
                    TaskKind::GemmTrail {
                        k: k as u32,
                        i: i as u32,
                        j: j as u32,
                    },
                    dist.owner(i, j),
                ));
            }
        }
    }
}

/// Submits redistribution tasks: tile `(i, j)` is copied from phase
/// `phase - 1` to phase `phase` (owned by `to`). The copy runs on the
/// destination owner; when the owner is unchanged it is a local zero-flop
/// task, otherwise it pulls one message.
fn submit_moves<S: Sink>(g: &mut S, to: &Owners, nt: usize, phase: u8) {
    for i in 0..nt {
        for j in 0..=i {
            g.submit_task(Task {
                kind: TaskKind::Move {
                    i: i as u32,
                    j: j as u32,
                },
                node: to.owner(i, j) as u32,
                phase,
            });
        }
    }
}

/// Builds the paper's "SBC remap 2DBC" POTRI workflow (Section V-F.2):
/// POTRF under `sym` (phase 0), redistribution to `bc`, TRTRI under `bc`
/// (phase 1), redistribution back, LAUUM under `sym` (phase 2). The
/// redistributions are asynchronous tasks overlapped with the rest of the
/// computation, exactly as Chameleon does.
pub fn build_potri_remap<A: Distribution, B: Distribution>(
    sym: &A,
    bc: &B,
    nt: usize,
) -> TaskGraph {
    Workload::PotriRemap(sym, bc).build(nt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::comm;
    use sbc_dist::{SbcBasic, SbcExtended, TwoDBlockCyclic};

    #[test]
    fn potrf_task_count() {
        // POTRF: N potrf + N(N-1)/2 trsm + N(N-1)/2 syrk + N(N-1)(N-2)/6 gemm
        let d = TwoDBlockCyclic::new(2, 2);
        for nt in [1, 2, 3, 5, 10] {
            let g = build_potrf(&d, nt);
            let expect = nt + nt * (nt - 1) / 2 * 2 + nt * (nt - 1) * (nt.max(2) - 2) / 6;
            assert_eq!(g.len(), expect, "nt={nt}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn potrf_messages_match_analytic_counts() {
        // The graph-derived message count must equal the independent
        // analytic counter for every distribution.
        let nt = 24;
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(TwoDBlockCyclic::new(3, 2)),
            Box::new(TwoDBlockCyclic::new(5, 4)),
            Box::new(SbcBasic::new(4)),
            Box::new(SbcExtended::new(5)),
            Box::new(SbcExtended::new(8)),
        ];
        for d in &dists {
            let g = build_potrf(&d.as_ref(), nt);
            assert_eq!(
                g.count_messages(),
                comm::potrf_messages(&d.as_ref(), nt),
                "{}",
                d.name()
            );
        }
    }

    #[test]
    fn trtri_messages_match_analytic_counts() {
        let nt = 20;
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(TwoDBlockCyclic::new(3, 2)),
            Box::new(SbcExtended::new(6)),
        ];
        for d in &dists {
            let g = build_trtri(&d.as_ref(), nt);
            assert_eq!(
                g.count_messages(),
                comm::trtri_messages(&d.as_ref(), nt),
                "{}",
                d.name()
            );
        }
    }

    #[test]
    fn lauum_messages_match_analytic_counts() {
        let nt = 20;
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(TwoDBlockCyclic::new(2, 3)),
            Box::new(SbcExtended::new(7)),
        ];
        for d in &dists {
            let g = build_lauum(&d.as_ref(), nt);
            assert_eq!(
                g.count_messages(),
                comm::lauum_messages(&d.as_ref(), nt),
                "{}",
                d.name()
            );
        }
    }

    #[test]
    fn graphs_validate() {
        let d = SbcExtended::new(5);
        let rhs = RowCyclic::new(10);
        for g in [
            build_potrf(&d, 12),
            build_posv(&d, &rhs, 10),
            build_trtri(&d, 10),
            build_lauum(&d, 10),
            build_potri(&d, 8),
            build_potri_remap(&d, &TwoDBlockCyclic::new(5, 2), 8),
        ] {
            g.validate().unwrap();
        }
    }

    #[test]
    fn potrf_25d_reduces_to_2d_with_one_slice() {
        let inner = SbcBasic::new(4);
        let d25 = TwoPointFiveD::new(inner.clone(), 1);
        let nt = 10;
        let g25 = build_potrf_25d(&d25, nt);
        let g2 = build_potrf(&inner, nt);
        assert_eq!(g25.len(), g2.len());
        assert_eq!(g25.count_messages(), g2.count_messages());
    }

    #[test]
    fn potrf_25d_messages_match_analytic_counts() {
        for c in [2, 3] {
            let d25 = TwoPointFiveD::new(SbcBasic::new(4), c);
            let nt = 16;
            let g = build_potrf_25d(&d25, nt);
            g.validate().unwrap();
            let analytic = comm::potrf_25d_messages(&d25, nt);
            assert_eq!(g.count_messages(), analytic.total(), "c={c}");
        }
    }

    /// A redistribution sends one message per lower tile whose owner
    /// changes, and none when it does not.
    #[test]
    fn remap_moves_send_one_message_per_changed_owner() {
        let nt = 8;
        let moved = |g: &TaskGraph| {
            let moves = (0..g.len() as u32).filter(|&t| {
                let task = &g.tasks()[t as usize];
                matches!(task.kind, TaskKind::Move { .. })
                    && g.preds(t).any(|(p, kind)| {
                        kind == crate::EdgeKind::Data && g.tasks()[p as usize].node != task.node
                    })
            });
            moves.count()
        };
        let (a, b) = (TwoDBlockCyclic::new(2, 2), TwoDBlockCyclic::new(4, 1));
        assert_eq!(moved(&build_potri_remap(&a, &a, nt)), 0);
        let changed = (0..nt)
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .filter(|&(i, j)| a.owner(i, j) != b.owner(i, j))
            .count();
        assert!(changed > 0);
        assert_eq!(moved(&build_potri_remap(&a, &b, nt)), 2 * changed);
    }

    #[test]
    fn owner_computes_placement() {
        let d = SbcExtended::new(6);
        let nt = 12;
        let g = build_potrf(&d, nt);
        for t in g.tasks() {
            let (ti, tj) = match t.kind {
                TaskKind::Potrf { k } => (k, k),
                TaskKind::Trsm { k, i } => (i, k),
                TaskKind::Syrk { k, .. } => (k, k),
                TaskKind::Gemm { j, k, .. } => (j, k),
                _ => unreachable!(),
            };
            assert_eq!(t.node as usize, d.owner(ti as usize, tj as usize));
        }
    }

    #[test]
    fn move_tasks_count() {
        let sym = SbcExtended::new(5);
        let bc = TwoDBlockCyclic::new(5, 2);
        let nt = 8;
        let g = build_potri_remap(&sym, &bc, nt);
        let moves = g
            .tasks()
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Move { .. }))
            .count();
        assert_eq!(moves, 2 * nt * (nt + 1) / 2);
    }

    #[test]
    fn reads_and_output_are_consistent_with_iteration_structure() {
        // For every task of a POTRF graph, the output tile's owner is the
        // task's node (owner computes, derived two ways).
        let d = SbcExtended::new(7);
        let nt = 14;
        let g = build_potrf(&d, nt);
        for t in g.tasks() {
            match t.output(1) {
                TileRef::A { i, j, .. } => {
                    assert_eq!(t.node as usize, d.owner(i as usize, j as usize));
                }
                _ => panic!("potrf tasks write A tiles"),
            }
        }
    }
}
