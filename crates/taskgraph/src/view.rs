//! One rank's share of a task graph, numbered locally.
//!
//! An engine executing a graph on rank `r` needs only `r`'s own tasks and
//! their boundary: the remote producers and fetched originals those tasks
//! wait on, and the remote ranks their outputs go to. [`RankView`] is that
//! share, derived once per `(graph, rank)` and kept with the graph
//! ([`crate::TaskGraph::rank_view`]), so a job's per-rank state is sized by
//! the rank's tasks and not by the graph's, and nothing scans the graph's
//! edges per task or per job.
//!
//! A view also numbers every tile the rank holds for a job, so an engine
//! keeps them in one table of [`RankView::owned`] + [`RankView::inputs`]
//! slots: the rank's own tiles (its tasks' outputs, the originals it reads
//! or ships) at `0..owned()`, ascending by [`TileSpace::slot`], then remote
//! input `i` at `owned() + i`.

use crate::graph::{EdgeKind, TaskGraph};
use crate::task::{TaskId, TileRef, TileSpace};

/// Variable-length lists packed into one buffer (the graph's CSR shape).
#[derive(Debug)]
struct Lists<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Lists<T> {
    const EMPTY: Lists<T> = Lists {
        offsets: Vec::new(),
        items: Vec::new(),
    };

    fn new() -> Self {
        Lists {
            offsets: vec![0],
            items: Vec::new(),
        }
    }

    /// Appends `item` to the open (last) list.
    fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// The open list so far.
    fn open(&self) -> &[T] {
        &self.items[*self.offsets.last().expect("a started list") as usize..]
    }

    /// Closes the open list and starts the next.
    fn end(&mut self) {
        self.offsets.push(self.items.len() as u32);
    }

    /// The closed lists, without spare capacity (an open list is empty).
    fn done(mut self) -> Self {
        self.offsets.shrink_to_fit();
        self.items.shrink_to_fit();
        self
    }

    fn get(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.offsets) + vec_bytes(&self.items)
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// A remote arrival a rank's tasks wait on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The output of a task on another rank.
    Task(TaskId),
    /// An original tile fetched from its home rank.
    Orig(TileRef),
}

/// Where one read operand of a task comes from on the task's own rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A local task's output, in owned slot `s`.
    Local(u32),
    /// The tile's original, generated on first use into owned slot `s`.
    Original(u32),
    /// Remote input `i` of the view ([`RankView::input`]).
    Input(u32),
}

/// Sorted-key tag of a fetched original: above every task id.
const ORIG: u64 = 1 << 32;

/// One rank's tasks under rank-local numbers `0..len()` (ascending global
/// id, so local order is submission order), with everything an engine asks
/// of the graph about them. Built by [`crate::TaskGraph::rank_view`].
#[derive(Debug)]
pub struct RankView {
    space: TileSpace,
    /// Global id of each own task.
    tasks: Vec<TaskId>,
    /// Unmet dependencies of each own task before anything ran.
    deps: Vec<u32>,
    /// Per own task: the own tasks that depend on it (local numbers).
    succs: Lists<u32>,
    /// Per own task: the distinct remote ranks that read its output.
    dests: Lists<u32>,
    /// Per own task: one source per [`crate::Task::reads`] entry, in order.
    sources: Lists<Source>,
    /// Per own task: the owned slot of its output.
    outputs: Vec<u32>,
    /// The [`TileSpace::slot`] of each owned tile, ascending.
    owned: Vec<u32>,
    /// Remote inputs, ascending: a task id, or [`ORIG`] plus a tile's slot.
    inputs: Vec<u64>,
    /// Per remote input: the own tasks it unblocks (local numbers).
    waiters: Lists<u32>,
    /// Per remote input: how many own tasks read it.
    readers: Vec<u32>,
    /// Originals this rank ships: the tile's owned slot, its destination,
    /// and the first task there that reads it.
    ships: Vec<(u32, u32, TaskId)>,
}

impl RankView {
    /// The view of a rank that owns nothing.
    pub(crate) const EMPTY: RankView = RankView {
        space: TileSpace { nt: 0, slices: 1 },
        tasks: Vec::new(),
        deps: Vec::new(),
        succs: Lists::EMPTY,
        dests: Lists::EMPTY,
        sources: Lists::EMPTY,
        outputs: Vec::new(),
        owned: Vec::new(),
        inputs: Vec::new(),
        waiters: Lists::EMPTY,
        readers: Vec::new(),
        ships: Vec::new(),
    };

    /// Derives `rank`'s view of `g`: one pass over the tasks' nodes, one
    /// over the rank's own tasks and their edges, then one that renumbers
    /// the owned tiles they name.
    pub(crate) fn build(g: &TaskGraph, rank: u32) -> RankView {
        let (space, all, local) = (g.tile_space(), g.tasks(), g.local_numbers());
        let node = |t: TaskId| all[t as usize].node;
        let tasks: Vec<TaskId> = (0..g.len() as TaskId)
            .filter(|&t| node(t) == rank)
            .collect();
        let fetched = || g.initial_fetches().iter().filter(|f| f.dest == rank);
        let orig = |r: TileRef| ORIG | space.slot(r) as u64;

        let mut inputs: Vec<u64> = fetched().map(|f| orig(f.tile)).collect();
        for &t in &tasks {
            let remote = g.preds(t).filter(|&(p, _)| node(p) != rank);
            inputs.extend(remote.map(|(p, _)| p as u64));
        }
        inputs.sort_unstable();
        inputs.dedup();
        let input = |key: u64| inputs.binary_search(&key).expect("a remote input") as u32;

        let mut deps: Vec<u32> = Vec::with_capacity(tasks.len());
        let mut readers = vec![0; inputs.len()];
        // (input, waiting task) in task order, then in fetch order
        let mut waiting: Vec<(u32, u32)> = Vec::new();
        let (mut succs, mut dests, mut sources) = (Lists::new(), Lists::new(), Lists::new());
        // owned tiles under their `TileSpace` slots until renumbered below
        let mut outputs = Vec::with_capacity(tasks.len());
        let mut owned: Vec<u32> = Vec::new();
        let slot = |r: TileRef| space.slot(r) as u32;
        // this task's data producers: their output and where it is here
        let mut produced: Vec<(TileRef, Source)> = Vec::new();
        for (l, &t) in tasks.iter().enumerate() {
            let mut in_degree = 0;
            produced.clear();
            for (p, kind) in g.preds(t) {
                in_degree += 1;
                let out = all[p as usize].output(g.slices);
                let source = if node(p) == rank {
                    Source::Local(slot(out))
                } else {
                    debug_assert_eq!(kind, EdgeKind::Data, "remote edges carry data");
                    let i = input(p as u64);
                    waiting.push((i, l as u32));
                    Source::Input(i)
                };
                if kind == EdgeKind::Data {
                    produced.push((out, source));
                }
            }
            deps.push(in_degree);
            for (s, kind) in g.succs(t) {
                let n = node(s);
                if n == rank {
                    succs.push(local[s as usize]);
                } else if kind == EdgeKind::Data && !dests.open().contains(&n) {
                    dests.push(n);
                }
            }
            for &r in all[t as usize].reads(g.slices).as_slice() {
                let producer = produced.iter().find(|&&(out, _)| out == r);
                sources.push(match producer {
                    Some(&(_, source)) => source,
                    None => match inputs.binary_search(&orig(r)) {
                        Ok(i) => Source::Input(i as u32),
                        Err(_) => Source::Original(slot(r)),
                    },
                });
            }
            let read = sources.open();
            for (k, &source) in read.iter().enumerate() {
                match source {
                    Source::Input(i) if !read[..k].contains(&source) => readers[i as usize] += 1,
                    Source::Original(s) => owned.push(s),
                    // a local producer's output is one of `outputs`
                    Source::Input(_) | Source::Local(_) => {}
                }
            }
            outputs.push(slot(all[t as usize].output(g.slices)));
            succs.end();
            dests.end();
            sources.end();
        }
        for f in fetched() {
            let i = input(orig(f.tile));
            for &c in &f.consumers {
                let l = local[c as usize];
                deps[l as usize] += 1;
                waiting.push((i, l));
            }
        }
        // stable: each input's waiters stay in the order they were found
        waiting.sort_by_key(|&(i, _)| i);
        let mut waiters = Lists::new();
        let mut pairs = waiting.into_iter().peekable();
        for i in 0..inputs.len() as u32 {
            while let Some((_, l)) = pairs.next_if(|&(at, _)| at == i) {
                waiters.push(l);
            }
            waiters.end();
        }
        let ships = g.initial_fetches().iter().filter(|f| f.home == rank);
        let mut ships: Vec<(u32, u32, TaskId)> = ships
            .map(|f| (slot(f.tile), f.dest, f.consumers[0]))
            .collect();

        owned.extend(&outputs);
        owned.extend(ships.iter().map(|&(s, ..)| s));
        owned.sort_unstable();
        owned.dedup();
        owned.shrink_to_fit();
        let renumber = |s: &mut u32| *s = owned.binary_search(s).expect("an owned tile") as u32;
        let mut sources = sources.done();
        for source in &mut sources.items {
            if let Source::Local(s) | Source::Original(s) = source {
                renumber(s);
            }
        }
        outputs.iter_mut().for_each(renumber);
        ships.iter_mut().for_each(|(s, ..)| renumber(s));

        RankView {
            space,
            tasks,
            deps,
            succs: succs.done(),
            dests: dests.done(),
            sources,
            outputs,
            owned,
            inputs,
            waiters: waiters.done(),
            readers,
            ships,
        }
    }

    /// Number of own tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the rank owns no task.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Global id of own task `l`.
    pub fn task(&self, l: u32) -> TaskId {
        self.tasks[l as usize]
    }

    /// Unmet dependencies of every own task before anything ran: in-degree
    /// plus one per fetched original it consumes. An engine starts a job
    /// from a copy.
    pub fn deps(&self) -> &[u32] {
        &self.deps
    }

    /// The own tasks (local numbers) that depend on own task `l`.
    pub fn succs(&self, l: u32) -> &[u32] {
        self.succs.get(l as usize)
    }

    /// The distinct remote ranks that read own task `l`'s output — one
    /// message each.
    pub fn dests(&self, l: u32) -> &[u32] {
        self.dests.get(l as usize)
    }

    /// Where each of own task `l`'s read operands comes from, in
    /// [`crate::Task::reads`] order.
    pub fn sources(&self, l: u32) -> &[Source] {
        self.sources.get(l as usize)
    }

    /// The owned slot own task `l` writes.
    pub fn output(&self, l: u32) -> u32 {
        self.outputs[l as usize]
    }

    /// Number of tiles the rank owns for a job: its tasks' outputs and the
    /// originals it reads or ships, at slots `0..owned()`.
    pub fn owned(&self) -> usize {
        self.owned.len()
    }

    /// The tile in owned slot `s`.
    pub fn owned_tile(&self, s: u32) -> TileRef {
        self.space.tile(self.owned[s as usize] as usize)
    }

    /// Number of remote inputs; input `i` is held at slot `owned() + i`.
    pub fn inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Remote input `i`.
    pub fn input(&self, i: usize) -> Input {
        match self.inputs[i] {
            key if key < ORIG => Input::Task(key as TaskId),
            key => Input::Orig(self.space.tile((key - ORIG) as usize)),
        }
    }

    /// The index of remote input `input`, or `None` when no own task waits
    /// for it — including a producer or tile the graph does not have.
    pub fn find(&self, input: Input) -> Option<usize> {
        let key = match input {
            Input::Task(p) => p as u64,
            Input::Orig(r) if self.space.contains(r) => ORIG | self.space.slot(r) as u64,
            Input::Orig(_) => return None,
        };
        self.inputs.binary_search(&key).ok()
    }

    /// The own tasks (local numbers) remote input `i` unblocks, in
    /// ascending order.
    pub fn waiters(&self, i: usize) -> &[u32] {
        self.waiters.get(i)
    }

    /// Per remote input: how many own tasks read it, each counted once —
    /// after the last of them ran, nothing on this rank reads the input
    /// again. Not every waiter need be a reader. An engine counts down a
    /// copy.
    pub fn readers(&self) -> &[u32] {
        &self.readers
    }

    /// The originals this rank ships before its tasks start: the tile's
    /// owned slot, the destination rank, and the first task there that
    /// reads it.
    pub fn ships(&self) -> &[(u32, u32, TaskId)] {
        &self.ships
    }

    /// Bytes this view holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.tasks)
            + vec_bytes(&self.deps)
            + self.succs.heap_bytes()
            + self.dests.heap_bytes()
            + self.sources.heap_bytes()
            + vec_bytes(&self.outputs)
            + vec_bytes(&self.owned)
            + vec_bytes(&self.inputs)
            + self.waiters.heap_bytes()
            + vec_bytes(&self.readers)
            + vec_bytes(&self.ships)
    }

    /// Bytes of the view that describe its boundary: the remote inputs
    /// with their waiter lists and reader counts, the remote destinations
    /// and the ships.
    pub fn boundary_bytes(&self) -> usize {
        vec_bytes(&self.inputs)
            + self.waiters.heap_bytes()
            + vec_bytes(&self.readers)
            + vec_bytes(&self.dests.items)
            + vec_bytes(&self.ships)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build_posv, build_potrf, build_potrf_25d, build_trtri};
    use sbc_dist::comm::potrf_messages;
    use sbc_dist::{RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};

    /// Every fact a view states agrees with the whole graph it came from,
    /// and every slot it names is inside its table of `owned() + inputs()`.
    fn assert_view_agrees(g: &TaskGraph) {
        let mut own = 0;
        for rank in 0..g.num_nodes() as u32 {
            let v = g.rank_view(rank);
            own += v.len();
            let deps = g.initial_deps();
            let owned = (0..v.owned() as u32).map(|s| g.tile_space().slot(v.owned_tile(s)));
            let owned: Vec<usize> = owned.collect();
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned tiles ascend");
            let mut named = vec![false; v.owned()];
            let mut readers = vec![0; v.inputs()];
            for l in 0..v.len() as u32 {
                let t = v.task(l);
                let task = &g.tasks()[t as usize];
                assert_eq!(task.node, rank);
                let out = v.output(l);
                assert_eq!(v.owned_tile(out), task.output(g.slices), "task {t}");
                named[out as usize] = true;
                let reads = task.reads(g.slices);
                for (&r, &source) in reads.as_slice().iter().zip(v.sources(l)) {
                    match source {
                        Source::Local(s) | Source::Original(s) => {
                            assert_eq!(v.owned_tile(s), r, "task {t}");
                            named[s as usize] = true;
                        }
                        Source::Input(i) => assert!((i as usize) < v.inputs()),
                    }
                }
                let mut read: Vec<&Source> = v.sources(l).iter().collect();
                read.dedup();
                for &source in read {
                    if let Source::Input(i) = source {
                        readers[i as usize] += 1;
                    }
                }
                assert_eq!(v.deps()[l as usize], deps[t as usize], "task {t}");
                let mut dests = Vec::new();
                g.remote_consumer_nodes(t, &mut dests);
                assert_eq!(v.dests(l), dests.as_slice());
                let succs: Vec<TaskId> = v.succs(l).iter().map(|&s| v.task(s)).collect();
                let local: Vec<TaskId> = g
                    .succs(t)
                    .map(|(s, _)| s)
                    .filter(|&s| g.tasks()[s as usize].node == rank)
                    .collect();
                assert_eq!(succs, local);
                let reads = g.tasks()[t as usize].reads(g.slices).as_slice().len();
                assert_eq!(v.sources(l).len(), reads);
                for &s in v.sources(l) {
                    if let Source::Input(i) = s {
                        let waiters = v.waiters(i as usize);
                        assert!(waiters.contains(&l), "a read input unblocks its reader");
                    }
                }
            }
            for i in 0..v.inputs() {
                assert_eq!(v.find(v.input(i)), Some(i));
                assert!(!v.waiters(i).is_empty());
            }
            assert_eq!(v.readers(), readers, "one count per reader");
            let ships = g.initial_fetches().iter().filter(|f| f.home == rank);
            let ships: Vec<(TileRef, u32, TaskId)> =
                ships.map(|f| (f.tile, f.dest, f.consumers[0])).collect();
            let shipped: Vec<(TileRef, u32, TaskId)> = v
                .ships()
                .iter()
                .map(|&(s, dest, task)| (v.owned_tile(s), dest, task))
                .collect();
            assert_eq!(shipped, ships);
            for &(s, ..) in v.ships() {
                named[s as usize] = true;
            }
            assert!(
                named.iter().all(|&n| n),
                "rank {rank} owns a tile nothing names"
            );
        }
        assert_eq!(own, g.len());
    }

    #[test]
    fn views_agree_with_their_graphs() {
        let d = SbcExtended::new(5);
        assert_view_agrees(&build_potrf(&d, 12));
        assert_view_agrees(&build_posv(&d, &RowCyclic::new(10), 9));
        assert_view_agrees(&build_trtri(&TwoDBlockCyclic::new(3, 2), 9));
        assert_view_agrees(&build_potrf_25d(
            &TwoPointFiveD::new(SbcBasic::new(4), 2),
            9,
        ));
    }

    /// Over the ranks of a POTRF graph on `d`: the owned tiles, the remote
    /// inputs and the widest rank's table, checked as
    /// [`assert_view_agrees`] checks a view.
    fn table_sizes<D: sbc_dist::Distribution>(d: &D, nt: usize) -> (usize, u64, usize) {
        let g = build_potrf(d, nt);
        assert_view_agrees(&g);
        let views = (0..g.num_nodes() as u32).map(|r| g.rank_view(r));
        let owned = views.clone().map(RankView::owned).sum();
        let inputs = views.clone().map(|v| v.inputs() as u64).sum();
        let widest = views.map(|v| v.owned() + v.inputs()).max().unwrap();
        (owned, inputs, widest)
    }

    /// A rank's table for a POTRF job holds its share of the lower triangle
    /// plus one slot per replica it receives: over the ranks, exactly the
    /// `nt(nt+1)/2` tiles of the matrix plus the analytic message count.
    #[test]
    fn a_ranks_table_is_its_share_of_the_triangle_plus_its_replicas() {
        let (sbc, dbc) = (SbcExtended::new(4), TwoDBlockCyclic::new(3, 2));
        for (nt, replicas) in [(12, 150), (20, 413), (64, 4_153)] {
            let triangle = nt * (nt + 1) / 2;
            let (owned, inputs, widest) = table_sizes(&sbc, nt);
            assert_eq!((owned, inputs), (triangle, replicas), "SBC nt={nt}");
            assert_eq!(inputs, potrf_messages(&sbc, nt));
            if nt == 64 {
                // the whole tile space alone is nt + nt² = 4 160 slots
                assert!(widest <= 1_071, "SBC: {widest} slots");
            }
            let (owned, inputs, _) = table_sizes(&dbc, nt);
            assert_eq!(owned, triangle, "2DBC nt={nt}");
            assert_eq!(inputs, potrf_messages(&dbc, nt), "2DBC nt={nt}");
        }
    }

    #[test]
    fn a_rank_past_the_graph_owns_nothing() {
        let g = build_potrf(&TwoDBlockCyclic::new(2, 2), 6);
        let v = g.rank_view(7);
        assert!(v.is_empty());
        assert_eq!((v.owned(), v.inputs(), v.ships().len()), (0, 0, 0));
        assert_eq!(v.find(Input::Task(0)), None);
    }

    #[test]
    fn find_refuses_what_the_graph_does_not_have() {
        let g = build_trtri(&TwoDBlockCyclic::new(2, 2), 6);
        let rank = (0..4)
            .find(|&r| {
                (0..g.rank_view(r).inputs())
                    .any(|i| matches!(g.rank_view(r).input(i), Input::Orig(_)))
            })
            .expect("some rank fetches an original");
        let v = g.rank_view(rank);
        let a = |slice, i, j| TileRef::A {
            phase: 0,
            slice,
            i,
            j,
        };
        for r in [a(0, 6, 0), a(1, 1, 0), TileRef::B { i: 9 }] {
            assert_eq!(v.find(Input::Orig(r)), None, "{r:?}");
        }
        for p in [g.len() as TaskId, TaskId::MAX] {
            assert_eq!(v.find(Input::Task(p)), None);
        }
    }

    /// A rank holds its own share: at most two P-ths of the graph's bytes
    /// plus what its boundary (remote inputs and destinations) takes.
    #[test]
    fn a_view_is_a_share_of_its_graph_plus_its_boundary() {
        for (g, label) in [
            (build_potrf(&SbcExtended::new(8), 40), "SBC r=8 nt=40"),
            (
                build_potrf(&TwoDBlockCyclic::new(7, 4), 40),
                "2DBC 7x4 nt=40",
            ),
        ] {
            let p = g.num_nodes();
            for rank in 0..p as u32 {
                let v = g.rank_view(rank);
                let bound = 2 * g.heap_bytes() / p + v.boundary_bytes();
                assert!(
                    v.heap_bytes() <= bound,
                    "{label} rank {rank}: {} > {bound}",
                    v.heap_bytes()
                );
            }
        }
    }
}
