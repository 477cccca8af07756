//! One rank's share of a task graph, numbered locally.
//!
//! An engine executing a graph on rank `r` needs only `r`'s own tasks and
//! their boundary: the remote producers and fetched originals those tasks
//! wait on, and the remote ranks their outputs go to. [`RankView`] is that
//! share, derived once per `(graph, rank)` and kept with the graph
//! ([`crate::TaskGraph::rank_view`]), so a job's per-rank state is sized by
//! the rank's tasks and not by the graph's, and nothing scans the graph's
//! edges per task or per job.

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
    /// A local task's output, in the rank's tile store.
    Local,
    /// The tile's original, generated on first use.
    Original,
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
    /// Remote inputs, ascending: a task id, or [`ORIG`] plus a tile's slot.
    inputs: Vec<u64>,
    /// Per remote input: the own tasks it unblocks (local numbers).
    waiters: Lists<u32>,
    /// Per remote input: how many own tasks read it.
    readers: Vec<u32>,
    /// Originals this rank ships: the tile, its destination, and the first
    /// task there that reads it.
    ships: Vec<(TileRef, u32, TaskId)>,
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
        inputs: Vec::new(),
        waiters: Lists::EMPTY,
        readers: Vec::new(),
        ships: Vec::new(),
    };

    /// Derives `rank`'s view of `g`: one pass over the tasks' nodes, then
    /// one over the rank's own tasks and their edges.
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
        // this task's data producers: their output and where it is here
        let mut produced: Vec<(TileRef, Source)> = Vec::new();
        for (l, &t) in tasks.iter().enumerate() {
            let mut in_degree = 0;
            produced.clear();
            for (p, kind) in g.preds(t) {
                in_degree += 1;
                let source = if node(p) == rank {
                    Source::Local
                } else {
                    debug_assert_eq!(kind, EdgeKind::Data, "remote edges carry data");
                    let i = input(p as u64);
                    waiting.push((i, l as u32));
                    Source::Input(i)
                };
                if kind == EdgeKind::Data {
                    produced.push((all[p as usize].output(g.slices), source));
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
                        Err(_) => Source::Original,
                    },
                });
            }
            let read = sources.open();
            for (k, &source) in read.iter().enumerate() {
                match source {
                    Source::Input(i) if !read[..k].contains(&source) => readers[i as usize] += 1,
                    _ => {}
                }
            }
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
        let ships = ships.map(|f| (f.tile, f.dest, f.consumers[0])).collect();

        RankView {
            space,
            tasks,
            deps,
            succs: succs.done(),
            dests: dests.done(),
            sources: sources.done(),
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

    /// Number of remote inputs.
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

    /// The originals this rank ships before its tasks start: tile,
    /// destination rank, and the first task there that reads it.
    pub fn ships(&self) -> &[(TileRef, u32, TaskId)] {
        &self.ships
    }

    /// Bytes this view holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.tasks)
            + vec_bytes(&self.deps)
            + self.succs.heap_bytes()
            + self.dests.heap_bytes()
            + self.sources.heap_bytes()
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
    use sbc_dist::{RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};

    /// Every fact a view states agrees with the whole graph it came from.
    fn assert_view_agrees(g: &TaskGraph) {
        let mut own = 0;
        for rank in 0..g.num_nodes() as u32 {
            let v = g.rank_view(rank);
            own += v.len();
            let deps = g.initial_deps();
            for l in 0..v.len() as u32 {
                let t = v.task(l);
                assert_eq!(g.tasks()[t as usize].node, rank);
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
                let reads = |l: u32| v.sources(l).contains(&Source::Input(i as u32));
                let readers = (0..v.len() as u32).filter(|&l| reads(l)).count();
                assert_eq!(
                    v.readers()[i] as usize,
                    readers,
                    "input {i}: one count per reader"
                );
            }
            let ships = g
                .initial_fetches()
                .iter()
                .filter(|f| f.home == rank)
                .count();
            assert_eq!(v.ships().len(), ships);
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

    #[test]
    fn a_rank_past_the_graph_owns_nothing() {
        let g = build_potrf(&TwoDBlockCyclic::new(2, 2), 6);
        let v = g.rank_view(7);
        assert!(v.is_empty());
        assert_eq!((v.inputs(), v.ships().len()), (0, 0));
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
