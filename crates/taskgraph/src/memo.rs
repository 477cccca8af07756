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
//! Each function below returns the shared graph of its builder's arguments:
//! the first caller builds it, callers racing it wait for that build (single
//! flight), and later callers get the same [`Arc`]. Graphs are kept least
//! recently used first out under a fixed budget of `BUDGET_TASKS` tasks
//! over all graphs; a graph larger than the whole budget is handed out but
//! not kept. A build whose size is known up front (POTRF's) makes room
//! before it runs, so the graphs it replaces need not outlive it. The
//! `build_*` functions stay pure and uncached.

use crate::builders::{
    build_lauum, build_lu, build_posv, build_potrf, build_potrf_25d, build_potri,
    build_potri_remap, build_trtri,
};
use crate::graph::TaskGraph;
use sbc_dist::{Distribution, RowCyclic, TwoPointFiveD};
use std::collections::HashMap;
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
    /// The cell of `key`, created empty for a key not kept. `tasks` is the
    /// size of that graph when the caller knows it up front (0 when not):
    /// before handing out a cell still to be built, the memo evicts down to
    /// `budget` less that size, so what it lets go can be freed before the
    /// new graph is built beside it.
    fn cell(&mut self, key: Key, tasks: usize, budget: usize) -> Cell {
        self.clock += 1;
        let used = self.clock;
        let slot = self.slots.entry(key).or_insert_with(|| Slot {
            cell: Cell::default(),
            used,
            tasks: 0,
        });
        slot.used = used;
        let cell = Arc::clone(&slot.cell);
        if cell.get().is_none() {
            self.evict(budget.saturating_sub(tasks));
        }
        cell
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

fn memo() -> MutexGuard<'static, Memo> {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    let memo = MEMO.get_or_init(Mutex::default);
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The graph `key` names: the memo's, or `build`'s, which is then kept.
/// `tasks` is its size when known up front, 0 when not ([`Memo::cell`]).
fn shared(key: Key, tasks: usize, build: impl FnOnce() -> TaskGraph) -> Arc<TaskGraph> {
    let cell = memo().cell(key, tasks, BUDGET_TASKS);
    let mut built = false;
    // a racing caller of the same key blocks here until the build is done
    let graph = cell.get_or_init(|| {
        built = true;
        Arc::new(build())
    });
    if built {
        memo().keep(&cell, graph.len(), BUDGET_TASKS);
    }
    Arc::clone(graph)
}

/// The shared [`build_potrf`] graph of `dist`.
pub fn potrf<D: Distribution>(dist: &D, nt: usize) -> Arc<TaskGraph> {
    let key = Key::new(Builder::Potrf, nt, dist.num_nodes()).lower(|i, j| dist.owner(i, j));
    shared(key, nt * (nt + 1) * (nt + 2) / 6, || build_potrf(dist, nt))
}

/// The shared [`build_potrf_25d`] graph of `d25`.
pub fn potrf_25d<D: Distribution>(d25: &TwoPointFiveD<D>, nt: usize) -> Arc<TaskGraph> {
    let mut key = Key::new(Builder::Potrf25d, nt, d25.num_nodes());
    for s in 0..d25.slices() {
        key = key.lower(|i, j| d25.owner_in_slice(s, i, j));
    }
    shared(key, 0, || build_potrf_25d(d25, nt))
}

/// The shared [`build_posv`] graph of `dist` and `rhs_dist`.
pub fn posv<D: Distribution>(dist: &D, rhs_dist: &RowCyclic, nt: usize) -> Arc<TaskGraph> {
    let mut key = Key::new(Builder::Posv, nt, dist.num_nodes()).lower(|i, j| dist.owner(i, j));
    key.owners
        .extend((0..nt).map(|i| rhs_dist.owner_row(i) as u32));
    shared(key, 0, || build_posv(dist, rhs_dist, nt))
}

/// The shared [`build_lu`] graph of `dist` (whose every tile it places).
pub fn lu<D: Distribution>(dist: &D, nt: usize) -> Arc<TaskGraph> {
    let mut key = Key::new(Builder::Lu, nt, dist.num_nodes());
    let cells = (0..nt).flat_map(|i| (0..nt).map(move |j| (i, j)));
    key.owners
        .extend(cells.map(|(i, j)| dist.owner(i, j) as u32));
    shared(key, 0, || build_lu(dist, nt))
}

/// The shared [`build_trtri`] graph of `dist`.
pub fn trtri<D: Distribution>(dist: &D, nt: usize) -> Arc<TaskGraph> {
    let key = Key::new(Builder::Trtri, nt, dist.num_nodes()).lower(|i, j| dist.owner(i, j));
    shared(key, 0, || build_trtri(dist, nt))
}

/// The shared [`build_lauum`] graph of `dist`.
pub fn lauum<D: Distribution>(dist: &D, nt: usize) -> Arc<TaskGraph> {
    let key = Key::new(Builder::Lauum, nt, dist.num_nodes()).lower(|i, j| dist.owner(i, j));
    shared(key, 0, || build_lauum(dist, nt))
}

/// The shared [`build_potri`] graph of `dist`.
pub fn potri<D: Distribution>(dist: &D, nt: usize) -> Arc<TaskGraph> {
    let key = Key::new(Builder::Potri, nt, dist.num_nodes()).lower(|i, j| dist.owner(i, j));
    shared(key, 0, || build_potri(dist, nt))
}

/// The shared [`build_potri_remap`] graph of `sym` and `bc`.
pub fn potri_remap<A: Distribution, B: Distribution>(sym: &A, bc: &B, nt: usize) -> Arc<TaskGraph> {
    let key = Key::new(Builder::PotriRemap, nt, sym.num_nodes());
    let key = key
        .lower(|i, j| sym.owner(i, j))
        .lower(|i, j| bc.owner(i, j));
    shared(key, 0, || build_potri_remap(sym, bc, nt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};

    /// Every input of a build is in the key; a renamed placement under
    /// another name, and the racing callers of one shape, are pinned where
    /// they execute (`sbc-runtime`'s `run.rs` tests).
    #[test]
    fn one_placement_is_one_graph() {
        let d = SbcExtended::new(4);
        let g = potrf(&d, 13);
        assert!(Arc::ptr_eq(&g, &potrf(&SbcExtended::new(4), 13)));
        assert!(!Arc::ptr_eq(&g, &potrf(&d, 14)), "nt is in the key");
        assert!(
            !Arc::ptr_eq(&g, &potri(&d, 13)),
            "the builder is in the key"
        );
        let wide = TwoDBlockCyclic::new(3, 2);
        assert_eq!(wide.num_nodes(), d.num_nodes());
        assert!(
            !Arc::ptr_eq(&g, &potrf(&wide, 13)),
            "the owners are in the key"
        );
    }

    #[test]
    fn the_least_recently_used_graphs_leave_first() {
        let d = TwoDBlockCyclic::new(2, 1);
        let mut memo = Memo::default();
        let key = |nt| Key::new(Builder::Potrf, nt, 2).lower(|i, j| d.owner(i, j));
        let cells: Vec<Cell> = (1..=3).map(|nt| memo.cell(key(nt), 0, 14)).collect();
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
        assert!(Arc::ptr_eq(&memo.cell(key(2), 0, 5), &cells[1]));
        let cell = memo.cell(key(4), 0, 15);
        assert!(cell.set(Arc::new(build_potrf(&d, 1))).is_ok());
        memo.keep(&cell, 1, 5);
        assert!(memo.slots.contains_key(&key(2)) && memo.slots.contains_key(&key(4)));
        assert!(!memo.slots.contains_key(&key(3)));
        // a graph larger than the whole budget is not kept at all
        let cell = memo.cell(key(5), 0, 30);
        assert!(cell.set(Arc::new(build_potrf(&d, 5))).is_ok());
        memo.keep(&cell, 35, 30);
        assert!(memo.slots.is_empty());
    }

    /// A build whose size is known up front makes room before it runs, so
    /// the graphs it replaces are not kept beside it; a hit evicts nothing.
    #[test]
    fn a_build_of_known_size_evicts_before_it_runs() {
        let d = TwoDBlockCyclic::new(2, 1);
        let mut memo = Memo::default();
        let key = |nt| Key::new(Builder::Potrf, nt, 2).lower(|i, j| d.owner(i, j));
        for nt in 1..=3 {
            let cell = memo.cell(key(nt), 0, 15);
            let graph = Arc::new(build_potrf(&d, nt));
            let tasks = graph.len();
            assert_eq!(tasks, nt * (nt + 1) * (nt + 2) / 6);
            assert!(cell.set(graph).is_ok());
            memo.keep(&cell, tasks, 15);
        }
        // 1 + 4 + 10 = 15 kept; a hit on nt = 1 of a full memo evicts nothing
        assert!(memo.cell(key(1), 1, 15).get().is_some());
        assert_eq!(memo.slots.len(), 3);
        // a 10-task build makes room first: nt = 2 and nt = 3 are the oldest
        let cell = memo.cell(key(4), 10, 15);
        assert!(cell.get().is_none());
        assert!(memo.slots.contains_key(&key(1)) && memo.slots.contains_key(&key(4)));
        assert_eq!(memo.slots.len(), 2);
    }
}
