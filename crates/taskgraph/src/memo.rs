//! The process-wide graph memo: a graph is built once per placement.
//!
//! A task graph is a pure function of its builder, `nt`, the node count and
//! the owner of every tile the builder places — the lower triangle of each
//! distribution it reads (each slice of a 2.5D one, the right-hand-side rows
//! of POSV, both distributions of the remap, the full square for LU). That
//! is the key here, so two distributions that print the same
//! [`sbc_dist::Distribution::name`] but place tiles differently never share
//! a graph, and `Distribution` needs no method of its own for it.
//!
//! [`Workload::graph`] returns the shared graph of a workload: the first
//! caller builds it, callers racing it wait for that build (single flight),
//! and later callers get the same [`Arc`]. Graphs are kept least recently
//! used first out under a fixed budget of `BUDGET_TASKS` tasks over all
//! graphs; a graph larger than the whole budget is handed out but not kept.
//! Every build makes room before it runs — its task count is a counting
//! pass over the same task stream, run with the memo unlocked — so the
//! graphs it replaces need not outlive it. The `build_*` functions stay pure and uncached.

use crate::builders::Workload;
use crate::graph::TaskGraph;
use sbc_dist::Distribution;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Tasks the memo keeps across all its graphs: the paper's largest
/// factorization (nt = 200, 1 353 400 tasks) beside a working set of small
/// ones.
pub(crate) const BUDGET_TASKS: usize = 1 << 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Builder {
    Potrf,
    Potrf25d,
    Posv,
    Lu,
    Trtri,
    Lauum,
    Potri,
    PotriRemap,
}

/// Everything a graph is a pure function of.
#[derive(PartialEq, Eq, Hash)]
struct Key {
    builder: Builder,
    nt: usize,
    nodes: usize,
    owners: Vec<u32>,
}

impl Key {
    fn new(builder: Builder, nt: usize, nodes: usize) -> Self {
        Key {
            builder,
            nt,
            nodes,
            owners: Vec::new(),
        }
    }

    /// Appends the owners of the lower triangle of `owner`.
    fn lower(mut self, owner: impl Fn(usize, usize) -> usize) -> Self {
        let nt = self.nt;
        let cells = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j)));
        self.owners.extend(cells.map(|(i, j)| owner(i, j) as u32));
        self
    }
}

/// One memoized graph: filled once by the caller that created the slot.
type Cell = Arc<OnceLock<Arc<TaskGraph>>>;

#[derive(Default)]
struct Slot {
    cell: Cell,
    /// Stamp of the latest lookup.
    used: u64,
    /// The graph's task count once built; 0 while a build is in flight.
    tasks: usize,
}

#[derive(Default)]
struct Memo {
    slots: HashMap<Key, Slot>,
    clock: u64,
}

impl Memo {
    /// The cell of `key`, and whether this lookup created it: empty, for a
    /// key not kept.
    fn cell(&mut self, key: Key) -> (Cell, bool) {
        self.clock += 1;
        let (slot, created) = match self.slots.entry(key) {
            Entry::Occupied(slot) => (slot.into_mut(), false),
            Entry::Vacant(slot) => (slot.insert(Slot::default()), true),
        };
        slot.used = self.clock;
        (Arc::clone(&slot.cell), created)
    }

    /// Records the size of the graph just built into `cell`, then evicts
    /// down to `budget` tasks.
    fn keep(&mut self, cell: &Cell, tasks: usize, budget: usize) {
        if let Some(slot) = self.slots.values_mut().find(|s| Arc::ptr_eq(&s.cell, cell)) {
            slot.tasks = tasks;
        }
        self.evict(budget);
    }

    /// Evicts the least recently used built graphs until at most `budget`
    /// tasks are kept.
    fn evict(&mut self, budget: usize) {
        while self.slots.values().map(|s| s.tasks).sum::<usize>() > budget {
            let built = self.slots.values().filter(|s| s.tasks > 0);
            let Some(oldest) = built.map(|s| s.used).min() else {
                return;
            };
            self.slots.retain(|_, s| s.used != oldest);
        }
    }
}

fn lock(memo: &Mutex<Memo>) -> MutexGuard<'_, Memo> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The graph `key` names: `memo`'s, or `build`'s, which is then kept within
/// `budget` tasks. The caller that creates the slot counts the graph's
/// `tasks` first, with the memo unlocked, and evicts down to `budget` less
/// that size, so what the memo lets go can be freed before the new graph is
/// built beside it; a hit, or a caller racing the build, counts nothing.
fn shared(
    memo: &Mutex<Memo>,
    budget: usize,
    key: Key,
    tasks: impl FnOnce() -> usize,
    build: impl FnOnce() -> TaskGraph,
) -> Arc<TaskGraph> {
    let (cell, created) = lock(memo).cell(key);
    if created {
        let tasks = tasks();
        lock(memo).evict(budget.saturating_sub(tasks));
    }
    let mut built = false;
    // a racing caller of the same key blocks here until the build is done
    let graph = cell.get_or_init(|| {
        built = true;
        Arc::new(build())
    });
    if built {
        lock(memo).keep(&cell, graph.len(), budget);
    }
    Arc::clone(graph)
}

impl<D: Distribution> Workload<'_, D> {
    /// The shared graph of this workload on `nt x nt` tiles: what its
    /// `build_*` function builds, kept in the process-wide memo.
    pub fn graph(&self, nt: usize) -> Arc<TaskGraph> {
        static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
        let memo = MEMO.get_or_init(Mutex::default);
        let (tasks, build) = (|| self.tasks(nt), || self.build(nt));
        shared(memo, BUDGET_TASKS, self.key(nt), tasks, build)
    }

    /// Everything the graph is a pure function of.
    fn key(&self, nt: usize) -> Key {
        let key = |builder| Key::new(builder, nt, self.nodes());
        match self {
            Workload::Potrf(d) => key(Builder::Potrf).lower(|i, j| d.owner(i, j)),
            Workload::Potrf25d(d25) => (0..d25.slices()).fold(key(Builder::Potrf25d), |k, s| {
                k.lower(|i, j| d25.owner_in_slice(s, i, j))
            }),
            Workload::Posv(d, rhs) => {
                let mut key = key(Builder::Posv).lower(|i, j| d.owner(i, j));
                key.owners.extend((0..nt).map(|i| rhs.owner_row(i) as u32));
                key
            }
            Workload::Trtri(d) => key(Builder::Trtri).lower(|i, j| d.owner(i, j)),
            Workload::Lauum(d) => key(Builder::Lauum).lower(|i, j| d.owner(i, j)),
            Workload::Potri(d) => key(Builder::Potri).lower(|i, j| d.owner(i, j)),
            Workload::PotriRemap(sym, bc) => key(Builder::PotriRemap)
                .lower(|i, j| sym.owner(i, j))
                .lower(|i, j| bc.owner(i, j)),
            Workload::Lu(d) => {
                let mut key = key(Builder::Lu);
                let cells = (0..nt).flat_map(|i| (0..nt).map(move |j| (i, j)));
                key.owners.extend(cells.map(|(i, j)| d.owner(i, j) as u32));
                key
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::build_potrf;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};

    /// Every input of a build is in the key; a renamed placement under
    /// another name, and the racing callers of one shape, are pinned where
    /// they execute (`sbc-runtime`'s `run.rs` tests).
    #[test]
    fn one_placement_is_one_graph() {
        let d = SbcExtended::new(4);
        let g = Workload::Potrf(&d).graph(13);
        let same = Workload::Potrf(&SbcExtended::new(4)).graph(13);
        assert!(Arc::ptr_eq(&g, &same));
        let other = Workload::Potrf(&d).graph(14);
        assert!(!Arc::ptr_eq(&g, &other), "nt is in the key");
        let other = Workload::Potri(&d).graph(13);
        assert!(!Arc::ptr_eq(&g, &other), "the builder is in the key");
        let wide = TwoDBlockCyclic::new(3, 2);
        assert_eq!(wide.num_nodes(), d.num_nodes());
        let other = Workload::Potrf(&wide).graph(13);
        assert!(!Arc::ptr_eq(&g, &other), "the owners are in the key");
    }

    #[test]
    fn the_least_recently_used_graphs_leave_first() {
        let d = TwoDBlockCyclic::new(2, 1);
        let mut memo = Memo::default();
        let key = |nt| Key::new(Builder::Potrf, nt, 2).lower(|i, j| d.owner(i, j));
        let cells: Vec<Cell> = (1..=3).map(|nt| memo.cell(key(nt)).0).collect();
        for (nt, cell) in (1..=3).zip(&cells) {
            let graph = Arc::new(build_potrf(&d, nt));
            let tasks = graph.len();
            assert!(cell.set(graph).is_ok());
            memo.keep(cell, tasks, 14);
        }
        // 1 + 4 + 10 tasks: the nt = 1 graph left to make room
        assert_eq!(memo.slots.len(), 2);
        assert!(!memo.slots.contains_key(&key(1)));
        // a lookup makes nt = 2 the recent one, so nt = 3 goes next
        let (cell, created) = memo.cell(key(2));
        assert!(Arc::ptr_eq(&cell, &cells[1]) && !created);
        let (cell, created) = memo.cell(key(4));
        assert!(created);
        assert!(cell.set(Arc::new(build_potrf(&d, 1))).is_ok());
        memo.keep(&cell, 1, 5);
        assert!(memo.slots.contains_key(&key(2)) && memo.slots.contains_key(&key(4)));
        assert!(!memo.slots.contains_key(&key(3)));
        // a graph larger than the whole budget is not kept at all
        let cell = memo.cell(key(5)).0;
        assert!(cell.set(Arc::new(build_potrf(&d, 5))).is_ok());
        memo.keep(&cell, 35, 30);
        assert!(memo.slots.is_empty());
    }

    /// A build knows its size up front and makes room before it runs, so
    /// the graphs it replaces are not kept beside it; a hit counts and
    /// evicts nothing. The builds below look at the memo as they start.
    #[test]
    fn a_build_of_known_size_evicts_before_it_runs() {
        let d = TwoDBlockCyclic::new(2, 1);
        let memo = Mutex::default();
        let key = |nt| Workload::Potrf(&d).key(nt);
        let kept = |nt| lock(&memo).slots.get(&key(nt)).is_some_and(|s| s.tasks > 0);
        for nt in 1..=3 {
            let potrf = Workload::Potrf(&d);
            let tasks = || potrf.tasks(nt);
            let g = shared(&memo, 15, key(nt), tasks, || potrf.build(nt));
            assert_eq!(g.len(), nt * (nt + 1) * (nt + 2) / 6);
        }
        // 1 + 4 + 10 = 15 kept; a hit on nt = 1 of a full memo evicts nothing
        let (count, build) = (
            || unreachable!("a hit counts"),
            || unreachable!("a hit builds"),
        );
        shared(&memo, 15, key(1), count, build);
        assert_eq!(lock(&memo).slots.len(), 3);
        // a 10-task build makes room first: nt = 2 and nt = 3 are the oldest
        let build = || {
            assert!(kept(1) && !kept(2) && !kept(3));
            build_potrf(&d, 3)
        };
        shared(&memo, 15, key(4), || 10, build);
        assert!(kept(1) && kept(4));
        // a composed operation's size is a counting pass over its stream; a
        // build of the whole budget evicts every built graph first
        let potri = Workload::Potri(&d);
        let tasks = potri.tasks(3);
        let build = || {
            assert!(!kept(1) && !kept(4));
            potri.build(3)
        };
        assert_eq!(
            shared(&memo, tasks, potri.key(3), || tasks, build).len(),
            tasks
        );
        assert_eq!(lock(&memo).slots.len(), 1);
    }
}
