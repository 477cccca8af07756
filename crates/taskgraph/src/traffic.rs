//! An operation's messages per node pair, counted from its task stream.
//!
//! [`TrafficSink`] applies [`crate::graph::GraphBuilder`]'s rules to the
//! stream without building the graph: a tile *version* — an original, or
//! what one task wrote — is sent once to each node, other than its holder,
//! that reads it or read-modify-writes it before the next write. Those are
//! the graph's data edges deduplicated per consumer node, plus its initial
//! fetches, so the count equals
//! [`TaskGraph::count_messages`](crate::TaskGraph::count_messages) pair by pair
//! for every operation, composed ones included (the stream is the merged
//! one).

use crate::builders::{Sink, Workload};
use crate::task::{Task, TileRef, TileSpace};
use sbc_dist::{Distribution, NodeId};

/// Tile messages per ordered node pair: the form of an operation's
/// communication volume that a network topology can price (each pair's
/// messages follow one route). Its [`Traffic::total`] is the operation's
/// message count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    nodes: usize,
    counts: Vec<u64>,
}

impl Traffic {
    /// Every message recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The pairs that exchange messages, as `(src, dst, count)` in
    /// row-major order of `(src, dst)`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        let n = self.nodes;
        let sent = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0);
        sent.map(move |(i, &count)| (i / n, i % n, count))
    }
}

/// No node holds the tile's current version: it was never written and has
/// no home, so reading it sends nothing.
const NOBODY: u32 = u32::MAX;

/// Counts a task stream's messages into a [`Traffic`]. Per tile it keeps the
/// node holding the current version and the set of nodes that read it, one
/// bit per node; it allocates nothing per task.
struct TrafficSink {
    space: TileSpace,
    /// Rows before the first `A` plane: the `B` tiles and the buffers.
    a_base: usize,
    /// `u64` words of one reader set.
    words: usize,
    /// Per tile row (see [`TrafficSink::row`]): the node holding the
    /// current version, or [`NOBODY`].
    holder: Vec<u32>,
    /// Per tile row: `words` words of reader bits.
    readers: Vec<u64>,
    traffic: Traffic,
}

impl TrafficSink {
    /// A sink for a stream over `space` whose tasks name `phases`
    /// redistribution phases: its tables are sized once, for every row.
    fn new(nodes: usize, space: TileSpace, phases: usize) -> Self {
        let TileSpace { nt, slices: c } = space;
        let a_base = space.a_base();
        let rows = a_base + phases * c * nt * nt;
        let words = nodes.div_ceil(64);
        TrafficSink {
            space,
            a_base,
            words,
            holder: vec![NOBODY; rows],
            readers: vec![0; rows * words],
            traffic: Traffic {
                nodes,
                counts: vec![0; nodes * nodes],
            },
        }
    }

    /// The table row of `tile`. The rows are [`TileSpace`]'s planes, each
    /// numbered column-major: the loop nests walk the columns of the lower
    /// triangle innermost, so consecutive accesses land on adjacent rows,
    /// where row-major slots would scatter them a row apart.
    #[inline(always)]
    fn row(&self, tile: TileRef) -> usize {
        let TileSpace { nt, slices: c } = self.space;
        let cell = |plane: usize, i: u32, j: u32| (plane * nt + j as usize) * nt + i as usize;
        match tile {
            TileRef::B { i } => i as usize,
            TileRef::Buf { slice, i, j } => nt + cell(slice as usize, i, j),
            TileRef::A { phase, slice, i, j } => {
                self.a_base + cell(phase as usize * c + slice as usize, i, j)
            }
        }
    }

    /// Sends the current version of `row` to each of its readers but its
    /// holder, and empties its reader set.
    #[inline]
    fn flush(&mut self, row: usize) {
        let words = self.words;
        let readers = &mut self.readers[row * words..(row + 1) * words];
        let holder = self.holder[row];
        if holder == NOBODY {
            readers.fill(0);
            return;
        }
        let holder = holder as usize;
        readers[holder / 64] &= !(1 << (holder % 64));
        let nodes = self.traffic.nodes;
        let sent = &mut self.traffic.counts[holder * nodes..(holder + 1) * nodes];
        for (w, word) in readers.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                sent[w * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }

    /// The traffic of the whole stream: every version still unsent flushed.
    fn finish(mut self) -> Traffic {
        for row in 0..self.holder.len() {
            self.flush(row);
        }
        self.traffic
    }
}

impl Sink for TrafficSink {
    /// Inlined into each submit site of the loop nests, where the decode of
    /// the task's accesses folds to the tiles themselves; called, it costs
    /// about twice as much.
    #[inline(always)]
    fn submit_task(&mut self, task: Task) {
        let c = self.space.slices;
        let node = task.node as usize;
        let (word, bit) = (node / 64, 1 << (node % 64));
        for &tile in task.reads(c).as_slice() {
            let row = self.row(tile);
            self.readers[row * self.words + word] |= bit;
        }
        // the write reads the version it replaces, then holds the new one
        let row = self.row(task.output(c));
        self.readers[row * self.words + word] |= bit;
        self.flush(row);
        self.holder[row] = task.node;
    }

    fn set_home(&mut self, tile: TileRef, node: u32) {
        let row = self.row(tile);
        self.holder[row] = node;
    }
}

impl<D: Distribution> Workload<'_, D> {
    /// Messages per ordered node pair of the operation on `nt x nt` tiles:
    /// what its task graph sends
    /// ([`TaskGraph::count_messages`](crate::TaskGraph::count_messages) is
    /// the total), counted from the task stream without building the graph.
    pub fn traffic(&self, nt: usize) -> Traffic {
        let space = TileSpace {
            nt,
            slices: self.slices(),
        };
        // the remap strategy's tasks name three redistribution phases
        let phases = if let Workload::PotriRemap(..) = self {
            3
        } else {
            1
        };
        let mut sink = TrafficSink::new(self.nodes(), space, phases);
        self.submit(&mut sink, nt);
        sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::{RowCyclic, SbcExtended, TwoDBlockCyclic};

    #[test]
    fn one_node_sends_nothing() {
        let d = TwoDBlockCyclic::new(1, 1);
        let rhs = RowCyclic::new(1);
        for nt in [1, 5, 12] {
            for w in [Workload::Potri(&d), Workload::Posv(&d, &rhs)] {
                assert_eq!(w.traffic(nt).total(), 0);
            }
        }
    }

    /// The solve sweeps add traffic to the factorization's, at most one
    /// message per `A` tile and two per diagonal tile, and one per other
    /// node per sweep for each `B` tile.
    #[test]
    fn posv_adds_bounded_solve_traffic() {
        for (r, nt) in [(5, 14), (6, 30)] {
            let sbc = SbcExtended::new(r);
            let rhs = RowCyclic::new(sbc.num_nodes());
            let potrf = Workload::Potrf(&sbc).traffic(nt).total();
            let solve = Workload::Posv(&sbc, &rhs).traffic(nt).total() - potrf;
            assert!(solve > 0, "r={r}");
            let others = sbc.num_nodes() - 1;
            assert!(solve <= (nt * (nt + 1) + 2 * nt * others) as u64, "r={r}");
        }
    }
}
