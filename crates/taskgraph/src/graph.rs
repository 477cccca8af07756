//! Task graph storage and the superscalar dependency-inference builder.

use crate::task::{Task, TaskId, TileRef, TileSpace};
use crate::view::RankView;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A transfer of *original* (never written in this graph) tile data from its
/// home node to a consumer node, needed before the consumers can run.
///
/// These arise in standalone TRTRI/LAUUM graphs whose inputs are consumed
/// before any task rewrites them; composed graphs (POTRF, POSV, POTRI) read
/// originals only on their owner node and have none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialFetch {
    /// The tile fetched.
    pub tile: TileRef,
    /// Node storing the original.
    pub home: u32,
    /// Node needing it.
    pub dest: u32,
    /// Tasks on `dest` blocked on this fetch.
    pub consumers: Vec<TaskId>,
}

/// Kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Read-after-write: the consumer needs the producer's output tile. If
    /// the two tasks run on different nodes, this edge implies a message.
    Data,
    /// Write-after-read on the same node's storage: pure ordering, no data
    /// moves (a remote reader works on its received copy instead).
    Ordering,
}

/// What a finished execution of a graph leaves behind — and so which tiles
/// a gather collects into which container, and what the seeded inputs are.
/// Set by the operation builders, next to `nt` and `slices`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultKind {
    /// The lower triangle of a symmetric matrix (SPD input): tile `(i, j)` is
    /// `TileRef::A` at redistribution phase `phase` on slice `j % slices`.
    Symmetric {
        /// Phase whose tiles hold the result (0 without redistribution).
        phase: u8,
    },
    /// The right-hand-side panel `TileRef::B` (POSV's solution).
    Panel,
    /// Every tile of a full matrix with general, non-symmetric input (LU).
    Full,
}

const WAR_BIT: u32 = 1 << 31;

/// Compressed sparse storage of predecessor/successor lists.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<u32>,
    edges: Vec<u32>, // task id, top bit = Ordering edge
}

impl Csr {
    fn range(&self, t: TaskId) -> &[u32] {
        let t = t as usize;
        &self.edges[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.edges.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The view of a rank past the graph's nodes: it owns nothing.
static NO_TASKS: RankView = RankView::EMPTY;

/// An immutable distributed task graph.
///
/// Tasks are stored in submission order, which is a valid topological order
/// (the builder only creates edges to previously submitted tasks).
pub struct TaskGraph {
    tasks: Vec<Task>,
    preds: Csr,
    succs: Csr,
    initial_fetches: Vec<InitialFetch>,
    /// Number of nodes across the whole platform.
    num_nodes: usize,
    /// Tile count `N` of the matrix the graph was built for.
    pub nt: usize,
    /// 2.5D slice count (1 for plain 2D graphs).
    pub slices: usize,
    /// What the executed graph's result is.
    pub result: ResultKind,
    /// One past the highest [`TileSpace`] slot any task or home names.
    tile_slots: usize,
    /// [`TaskGraph::count_messages`], walked once.
    messages: OnceLock<u64>,
    /// Each task's number among its node's tasks, counted once.
    local: OnceLock<Vec<u32>>,
    /// Each node's [`RankView`], derived on first use.
    views: Box<[OnceLock<RankView>]>,
}

impl TaskGraph {
    /// The numbering of this graph's tiles.
    pub fn tile_space(&self) -> TileSpace {
        TileSpace {
            nt: self.nt,
            slices: self.slices,
        }
    }

    /// How long a table indexed by [`TileSpace::slot`] must be to hold every
    /// tile this graph touches.
    pub fn tile_slots(&self) -> usize {
        self.tile_slots
    }

    /// The tasks in submission (= topological) order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of platform nodes this graph is placed on.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// `rank`'s share of the graph under rank-local task numbers, derived
    /// on the first call for that rank and kept with the graph. A rank the
    /// graph places nothing on (one past its nodes included) gets an empty
    /// view.
    pub fn rank_view(&self, rank: u32) -> &RankView {
        match self.views.get(rank as usize) {
            Some(view) => view.get_or_init(|| RankView::build(self, rank)),
            None => &NO_TASKS,
        }
    }

    /// Each task's number among its node's tasks in submission order: the
    /// rank-local numbering of every [`RankView`].
    pub(crate) fn local_numbers(&self) -> &[u32] {
        self.local.get_or_init(|| {
            let mut next = vec![0u32; self.num_nodes];
            let mut number = |node: u32| {
                let n = &mut next[node as usize];
                *n += 1;
                *n - 1
            };
            self.tasks.iter().map(|t| number(t.node)).collect()
        })
    }

    /// Bytes the graph's tasks, edges and fetches hold on the heap (the rank
    /// views it keeps are not counted).
    pub fn heap_bytes(&self) -> usize {
        let fetches = self
            .initial_fetches
            .iter()
            .map(|f| f.consumers.capacity() * 4);
        self.tasks.capacity() * std::mem::size_of::<Task>()
            + self.preds.heap_bytes()
            + self.succs.heap_bytes()
            + self.initial_fetches.capacity() * std::mem::size_of::<InitialFetch>()
            + fetches.sum::<usize>()
    }

    /// Predecessors of `t` with edge kinds.
    pub fn preds(&self, t: TaskId) -> impl Iterator<Item = (TaskId, EdgeKind)> + '_ {
        self.preds.range(t).iter().map(|&e| decode(e))
    }

    /// Successors of `t` with edge kinds.
    pub fn succs(&self, t: TaskId) -> impl Iterator<Item = (TaskId, EdgeKind)> + '_ {
        self.succs.range(t).iter().map(|&e| decode(e))
    }

    /// In-degree (all edge kinds) of every task — the initial dependency
    /// counters for schedulers.
    pub(crate) fn in_degrees(&self) -> Vec<u32> {
        (0..self.len())
            .map(|t| self.preds.offsets[t + 1] - self.preds.offsets[t])
            .collect()
    }

    /// Collects the distinct remote nodes that need `t`'s output tile
    /// (consumers of data edges on other nodes), appending into `out`.
    pub fn remote_consumer_nodes(&self, t: TaskId, out: &mut Vec<u32>) {
        out.clear();
        let own = self.tasks[t as usize].node;
        for (s, kind) in self.succs(t) {
            if kind == EdgeKind::Data {
                let n = self.tasks[s as usize].node;
                if n != own && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
    }

    /// Transfers of original input tiles to remote consumers.
    pub fn initial_fetches(&self) -> &[InitialFetch] {
        &self.initial_fetches
    }

    /// Total number of inter-node messages implied by the graph: one per
    /// distinct `(producer, consumer node)` pair over data edges, plus one
    /// per initial fetch of original data.
    ///
    /// This is the quantity `sbc_dist::comm` computes analytically; the two
    /// must agree exactly (tested). Walked once per graph.
    pub fn count_messages(&self) -> u64 {
        *self.messages.get_or_init(|| {
            let mut total = self.initial_fetches.len() as u64;
            let mut buf = Vec::new();
            for t in 0..self.len() as TaskId {
                self.remote_consumer_nodes(t, &mut buf);
                total += buf.len() as u64;
            }
            total
        })
    }

    /// What every task waits for before anything has run: its in-degree plus
    /// one per fetched original it consumes (a consumer cannot start before
    /// they arrive) — the counters an executor starts from and decrements.
    pub fn initial_deps(&self) -> Vec<u32> {
        let mut deps = self.in_degrees();
        for f in &self.initial_fetches {
            for &t in &f.consumers {
                deps[t as usize] += 1;
            }
        }
        deps
    }

    /// Total flops of the graph for tile dimension `b`.
    pub fn total_flops(&self, b: usize) -> f64 {
        self.tasks.iter().map(|t| t.kind.flops(b)).sum()
    }

    /// Validates structural invariants: edges point to earlier tasks
    /// (acyclicity via topological submission order), symmetric pred/succ
    /// storage, and node ids within range.
    pub fn validate(&self) -> Result<(), String> {
        for t in 0..self.len() as TaskId {
            if self.tasks[t as usize].node as usize >= self.num_nodes {
                return Err(format!("task {t} on out-of-range node"));
            }
            for (p, _) in self.preds(t) {
                if p >= t {
                    return Err(format!("edge {p} -> {t} does not point backwards"));
                }
                if !self.succs(p).any(|(s, _)| s == t) {
                    return Err(format!("missing mirror succ edge {p} -> {t}"));
                }
            }
        }
        let pred_edges: usize = self.preds.edges.len();
        let succ_edges: usize = self.succs.edges.len();
        if pred_edges != succ_edges {
            return Err(format!("edge count mismatch {pred_edges} vs {succ_edges}"));
        }
        Ok(())
    }
}

#[inline]
fn decode(e: u32) -> (TaskId, EdgeKind) {
    if e & WAR_BIT != 0 {
        (e & !WAR_BIT, EdgeKind::Ordering)
    } else {
        (e, EdgeKind::Data)
    }
}

/// Per-tile access state tracked during graph construction.
#[derive(Default)]
struct DataState {
    last_writer: Option<TaskId>,
    /// Readers since the last write, with their executing node.
    readers: Vec<(TaskId, u32)>,
    /// Home node of the original (input) data, for tiles consumed before any
    /// task writes them. Registered by builders of standalone operations.
    home: Option<u32>,
}

/// The state of the tile in `slot`, growing the table to reach it.
fn state(data: &mut Vec<DataState>, slot: usize) -> &mut DataState {
    if slot >= data.len() {
        data.resize_with(slot + 1, DataState::default);
    }
    &mut data[slot]
}

/// Superscalar task-graph builder: submit tasks in sequential-program order
/// with explicit read/write tile sets; dependencies are inferred exactly as
/// StarPU infers them from access modes:
///
/// * each *read* depends on the tile's last writer (read-after-write, a
///   data edge carrying the tile),
/// * each *write* depends on the tile's last writer (write chains; all
///   writers of a tile share its owner node, so these are local) and on all
///   same-node readers since then (write-after-read ordering edges —
///   remote readers received a copy and impose nothing).
pub(crate) struct GraphBuilder {
    tasks: Vec<Task>,
    // flat (consumer, encoded pred) pairs, turned into CSR at finish
    edge_list: Vec<(u32, u32)>,
    /// Per-tile state, indexed by [`TileSpace::slot`].
    data: Vec<DataState>,
    /// Consumers per `(tile slot, consumer node)` of a remote original.
    fetches: HashMap<(usize, u32), Vec<TaskId>>,
    num_nodes: usize,
    space: TileSpace,
    /// What the finished graph's result is; the phase-0 symmetric matrix
    /// unless an operation builder says otherwise.
    pub(crate) result: ResultKind,
    // scratch for dedup
    scratch: Vec<u32>,
}

impl GraphBuilder {
    /// Creates a builder for a platform of `num_nodes` nodes and a matrix of
    /// `nt x nt` tiles, with `slices` 2.5D slices (1 for 2D).
    pub(crate) fn new(num_nodes: usize, nt: usize, slices: usize) -> Self {
        GraphBuilder {
            tasks: Vec::new(),
            edge_list: Vec::new(),
            data: Vec::new(),
            fetches: HashMap::new(),
            num_nodes,
            space: TileSpace { nt, slices },
            result: ResultKind::Symmetric { phase: 0 },
            scratch: Vec::new(),
        }
    }

    /// Declares the home node of an original input tile. A read of a tile
    /// with no writer yet, by a task on a different node, then records an
    /// [`InitialFetch`] instead of being silently treated as local.
    pub(crate) fn set_home(&mut self, tile: TileRef, node: u32) {
        state(&mut self.data, self.space.slot(tile)).home = Some(node);
    }

    /// Records that `tid` on `node` consumes the tile in `slot` before any
    /// task wrote it: a fetch when the tile's original lives elsewhere.
    fn read_original(&mut self, slot: usize, tid: TaskId, node: u32) {
        if self.data[slot].home.is_some_and(|home| home != node) {
            let entry = self.fetches.entry((slot, node)).or_default();
            if entry.last() != Some(&tid) {
                entry.push(tid);
            }
        }
    }

    /// Submits a task reading `reads` and read-modify-writing `target`.
    /// Returns the new task's id.
    pub(crate) fn submit(&mut self, task: Task, reads: &[TileRef], target: TileRef) -> TaskId {
        let tid = self.tasks.len() as TaskId;
        assert!(
            (task.node as usize) < self.num_nodes,
            "task node out of range"
        );
        self.scratch.clear();
        for r in reads {
            debug_assert_ne!(*r, target, "target must not be listed in reads");
            let slot = self.space.slot(*r);
            match state(&mut self.data, slot).last_writer {
                Some(w) => self.scratch.push(w), // data edge
                // reading original data: remote homes need a fetch
                None => self.read_original(slot, tid, task.node),
            }
            self.data[slot].readers.push((tid, task.node));
        }
        {
            let slot = self.space.slot(target);
            match state(&mut self.data, slot).last_writer {
                // write chain (local, still carries data for RMW)
                Some(w) => self.scratch.push(w),
                // first write read-modifies the original: remote home needs a fetch
                None => self.read_original(slot, tid, task.node),
            }
            let st = &mut self.data[slot];
            for &(rdr, node) in &st.readers {
                if node == task.node {
                    self.scratch.push(rdr | WAR_BIT);
                }
            }
            st.last_writer = Some(tid);
            st.readers.clear();
        }
        // dedup, preferring Data over Ordering when both exist
        self.scratch
            .sort_unstable_by_key(|&e| (e & !WAR_BIT, e & WAR_BIT));
        let mut last: Option<u32> = None;
        for &e in &self.scratch {
            let id = e & !WAR_BIT;
            if last == Some(id) {
                continue;
            }
            last = Some(id);
            self.edge_list.push((tid, e));
        }
        self.tasks.push(task);
        tid
    }

    /// Submits a task, deriving its read set and target from
    /// [`Task::reads`] / [`Task::output`] with this builder's slice count —
    /// the normal entry point for the operation builders.
    pub(crate) fn submit_task(&mut self, task: Task) -> TaskId {
        let reads = task.reads(self.space.slices);
        let target = task.output(self.space.slices);
        self.submit(task, reads.as_slice(), target)
    }

    /// Finalizes the graph: packs predecessor and successor CSR structures.
    pub(crate) fn finish(mut self) -> TaskGraph {
        let n = self.tasks.len();
        // predecessor CSR (edge_list is grouped by consumer already since
        // submissions append in order, but sort defensively)
        self.edge_list.sort_unstable_by_key(|&(c, _)| c);
        let mut pred_offsets = vec![0u32; n + 1];
        for &(c, _) in &self.edge_list {
            pred_offsets[c as usize + 1] += 1;
        }
        for i in 0..n {
            pred_offsets[i + 1] += pred_offsets[i];
        }
        let pred_edges: Vec<u32> = self.edge_list.iter().map(|&(_, e)| e).collect();

        // successor CSR by counting sort over producers
        let mut succ_offsets = vec![0u32; n + 1];
        for &(_, e) in &self.edge_list {
            succ_offsets[(e & !WAR_BIT) as usize + 1] += 1;
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let mut cursor = succ_offsets.clone();
        let mut succ_edges = vec![0u32; self.edge_list.len()];
        for &(c, e) in &self.edge_list {
            let p = (e & !WAR_BIT) as usize;
            succ_edges[cursor[p] as usize] = c | (e & WAR_BIT);
            cursor[p] += 1;
        }

        // the slot breaks ties between fetches one task starts, so the
        // order does not depend on the map's
        let mut fetches: Vec<_> = self.fetches.into_iter().collect();
        fetches.sort_by_key(|((slot, dest), consumers)| {
            (
                self.data[*slot].home,
                *dest,
                consumers.first().copied(),
                *slot,
            )
        });
        let initial_fetches = fetches
            .into_iter()
            .map(|((slot, dest), consumers)| InitialFetch {
                tile: self.space.tile(slot),
                home: self.data[slot].home.expect("a fetched tile has a home"),
                dest,
                consumers,
            })
            .collect();

        TaskGraph {
            tasks: self.tasks,
            preds: Csr {
                offsets: pred_offsets,
                edges: pred_edges,
            },
            succs: Csr {
                offsets: succ_offsets,
                edges: succ_edges,
            },
            initial_fetches,
            num_nodes: self.num_nodes,
            nt: self.space.nt,
            slices: self.space.slices,
            result: self.result,
            tile_slots: self.data.len(),
            messages: OnceLock::new(),
            local: OnceLock::new(),
            views: (0..self.num_nodes).map(|_| OnceLock::new()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    fn a(i: u32, j: u32) -> TileRef {
        TileRef::A {
            phase: 0,
            slice: 0,
            i,
            j,
        }
    }

    fn mk(kind: TaskKind, node: u32) -> Task {
        Task {
            kind,
            node,
            phase: 0,
        }
    }

    #[test]
    fn raw_edge_inferred() {
        let mut b = GraphBuilder::new(2, 2, 1);
        let t0 = b.submit(mk(TaskKind::Potrf { k: 0 }, 0), &[], a(0, 0));
        let t1 = b.submit(mk(TaskKind::Trsm { k: 0, i: 1 }, 1), &[a(0, 0)], a(1, 0));
        let g = b.finish();
        g.validate().unwrap();
        let preds: Vec<_> = g.preds(t1).collect();
        assert_eq!(preds, vec![(t0, EdgeKind::Data)]);
        assert_eq!(g.count_messages(), 1); // cross-node data edge
    }

    #[test]
    fn write_chain_inferred() {
        let mut b = GraphBuilder::new(1, 3, 1);
        let t0 = b.submit(
            mk(TaskKind::Gemm { i: 0, j: 2, k: 1 }, 0),
            &[a(2, 0), a(1, 0)],
            a(2, 1),
        );
        let t1 = b.submit(mk(TaskKind::Trsm { k: 1, i: 2 }, 0), &[a(1, 1)], a(2, 1));
        let g = b.finish();
        let preds: Vec<_> = g.preds(t1).collect();
        assert!(preds.contains(&(t0, EdgeKind::Data)));
    }

    #[test]
    fn war_edge_only_for_same_node_readers() {
        // reader on node 1 reads tile X; writer on node 0 overwrites X.
        // No WAR edge (remote copy). Same-node reader does get one.
        let mut b = GraphBuilder::new(2, 3, 1);
        let w0 = b.submit(mk(TaskKind::Potrf { k: 0 }, 0), &[], a(0, 0));
        let remote_reader = b.submit(mk(TaskKind::Trsm { k: 0, i: 1 }, 1), &[a(0, 0)], a(1, 0));
        let local_reader = b.submit(mk(TaskKind::Trsm { k: 0, i: 2 }, 0), &[a(0, 0)], a(2, 0));
        let w1 = b.submit(mk(TaskKind::LauumDiag { k: 0 }, 0), &[], a(0, 0));
        let g = b.finish();
        let preds: Vec<_> = g.preds(w1).collect();
        assert!(preds.contains(&(w0, EdgeKind::Data))); // write chain
        assert!(preds.contains(&(local_reader, EdgeKind::Ordering)));
        assert!(!preds.iter().any(|&(p, _)| p == remote_reader));
    }

    #[test]
    fn duplicate_reads_deduplicated() {
        let mut b = GraphBuilder::new(2, 3, 1);
        let p = b.submit(mk(TaskKind::Trsm { k: 0, i: 1 }, 0), &[], a(1, 0));
        // syrk reads the same tile "twice" (A A^T)
        let s = b.submit(
            mk(TaskKind::Syrk { i: 0, k: 1 }, 1),
            &[a(1, 0), a(1, 0)],
            a(1, 1),
        );
        let g = b.finish();
        assert_eq!(g.preds(s).count(), 1);
        assert_eq!(g.count_messages(), 1);
        let _ = p;
    }

    #[test]
    fn message_dedup_per_consumer_node() {
        // one producer feeding two tasks on the same remote node = 1 message
        let mut b = GraphBuilder::new(2, 4, 1);
        let p = b.submit(mk(TaskKind::Trsm { k: 0, i: 1 }, 0), &[], a(1, 0));
        b.submit(mk(TaskKind::Syrk { i: 0, k: 1 }, 1), &[a(1, 0)], a(1, 1));
        b.submit(
            mk(TaskKind::Gemm { i: 0, j: 2, k: 1 }, 1),
            &[a(2, 0), a(1, 0)],
            a(2, 1),
        );
        let g = b.finish();
        let mut buf = Vec::new();
        g.remote_consumer_nodes(p, &mut buf);
        assert_eq!(buf, vec![1]);
    }

    #[test]
    fn validate_catches_everything_on_good_graphs() {
        let mut b = GraphBuilder::new(3, 4, 1);
        let mut prev = None;
        for k in 0..4u32 {
            let reads: Vec<TileRef> = prev.into_iter().collect();
            let t = b.submit(mk(TaskKind::Potrf { k }, k % 3), &reads, a(k, k));
            let _ = t;
            prev = Some(a(k, k));
        }
        let g = b.finish();
        g.validate().unwrap();
        assert_eq!(g.len(), 4);
        // chain of data edges across nodes 0,1,2,0 -> 3 messages
        assert_eq!(g.count_messages(), 3);
    }

    #[test]
    fn in_degrees_count_all_edges() {
        let mut b = GraphBuilder::new(1, 3, 1);
        b.submit(mk(TaskKind::Potrf { k: 0 }, 0), &[], a(0, 0));
        b.submit(mk(TaskKind::Trsm { k: 0, i: 1 }, 0), &[a(0, 0)], a(1, 0));
        b.submit(mk(TaskKind::Syrk { i: 0, k: 1 }, 0), &[a(1, 0)], a(1, 1));
        let g = b.finish();
        assert_eq!(g.in_degrees(), vec![0, 1, 1]);
    }
}
