//! The pluggable list-scheduler family.
//!
//! Both the discrete-event simulator (`sbc-simgrid`) and the threaded
//! runtime (`sbc-runtime`) order their per-node ready heaps by a
//! precomputed static rank per task. A [`Scheduler`] computes that rank
//! vector from a [`SchedCtx`] — the task graph, a per-task cost estimate
//! and a flat per-hop communication cost — so one implementation drives
//! both executors. Larger rank = more urgent; ranks are non-negative `f32`
//! (the runtime stores them as raw bits, which order like the floats:
//! [`TaskGraph::priorities`] keeps `-0.0` as zero and refuses a negative or
//! NaN rank, naming the scheduler).
//!
//! [`CriticalPath`] is `sbc_taskgraph::upward_ranks` over the context's
//! costs — the same pass `critical_path_priorities` runs — and
//! [`SubmissionOrder`] ranks every task zero, which leaves the heaps' task-id
//! tie-break in charge.

use sbc_taskgraph::{upward_ranks, EdgeKind, TaskGraph};

/// Everything a scheduler may consult when ranking tasks.
pub struct SchedCtx<'a> {
    /// The task graph being scheduled.
    pub graph: &'a TaskGraph,
    /// Estimated cost of each task, indexed by `TaskId`. The simulator
    /// passes modelled seconds; the runtime passes flop counts (only the
    /// ordering matters for list scheduling).
    pub task_cost: &'a [f64],
    /// Cost of moving one tile between two nodes, in the same unit as
    /// `task_cost`. Used by communication-aware rankers (HEFT) to penalize
    /// cross-node data edges.
    pub comm_cost: f64,
}

/// A static list scheduler: ranks every task once, up front.
pub trait Scheduler: Sync {
    /// Stable kebab-case name for reports. Two schedulers with one name must
    /// rank every context alike: the runtime keeps a graph's ranks under
    /// this name ([`TaskGraph::priorities`]) and reuses them for every job.
    fn name(&self) -> &'static str;

    /// Rank per task (larger = more urgent), `ctx.graph.len()` entries.
    fn ranks(&self, ctx: &SchedCtx<'_>) -> Vec<f32>;
}

/// Upward-rank critical-path priorities — every front end's default, the
/// ranks of [`sbc_taskgraph::critical_path_priorities`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CriticalPath;

impl Scheduler for CriticalPath {
    fn name(&self) -> &'static str {
        "critical-path"
    }

    fn ranks(&self, ctx: &SchedCtx<'_>) -> Vec<f32> {
        upward_ranks(ctx.graph, |t| ctx.task_cost[t])
    }
}

/// No ranking: ready tasks pop in submission (`TaskId`) order, close to the
/// sequential schedule — the ablation of the priority heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmissionOrder;

impl Scheduler for SubmissionOrder {
    fn name(&self) -> &'static str {
        "submission-order"
    }

    fn ranks(&self, ctx: &SchedCtx<'_>) -> Vec<f32> {
        vec![0.0; ctx.graph.len()]
    }
}

/// HEFT-style upward rank: like [`CriticalPath`] but every *cross-node
/// data* edge adds the tile transfer cost, so tasks whose results must
/// travel are surfaced earlier, hiding the wire behind other work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heft;

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn ranks(&self, ctx: &SchedCtx<'_>) -> Vec<f32> {
        let g = ctx.graph;
        let comm = ctx.comm_cost as f32;
        let n = g.len();
        let tasks = g.tasks();
        let mut prio = vec![0.0f32; n];
        for t in (0..n).rev() {
            let node = tasks[t].node;
            let mut best = 0.0f32;
            for (s, kind) in g.succs(t as u32) {
                let mut r = prio[s as usize];
                if kind == EdgeKind::Data && tasks[s as usize].node != node {
                    r += comm;
                }
                best = best.max(r);
            }
            prio[t] = best + ctx.task_cost[t] as f32;
        }
        prio
    }
}

/// The schedulers `paper topo` compares, in report-stable order: each wins
/// on some (topology, distribution) point the other loses.
pub fn zoo() -> Vec<Box<dyn Scheduler + Send + Sync>> {
    vec![Box::new(CriticalPath), Box::new(Heft)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::SbcExtended;
    use sbc_taskgraph::{build_potrf, critical_path_priorities};

    fn ctx_parts(nt: usize) -> (TaskGraph, Vec<f64>) {
        let g = build_potrf(&SbcExtended::new(4), nt);
        let costs: Vec<f64> = g.tasks().iter().map(|t| t.kind.flops(8)).collect();
        (g, costs)
    }

    #[test]
    fn critical_path_is_bit_identical_to_taskgraph_priorities() {
        let (g, costs) = ctx_parts(12);
        let ctx = SchedCtx {
            graph: &g,
            task_cost: &costs,
            comm_cost: 123.0,
        };
        let ours = CriticalPath.ranks(&ctx);
        let reference = critical_path_priorities(&g, |t| t.kind.flops(8));
        assert_eq!(ours.len(), reference.len());
        for (a, b) in ours.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn heft_never_ranks_below_critical_path() {
        let (g, costs) = ctx_parts(10);
        let ctx = SchedCtx {
            graph: &g,
            task_cost: &costs,
            comm_cost: 500.0,
        };
        let cp = CriticalPath.ranks(&ctx);
        let heft = Heft.ranks(&ctx);
        let mut differs = false;
        for (h, c) in heft.iter().zip(&cp) {
            assert!(h >= c, "heft rank {h} below critical-path {c}");
            differs |= h > c;
        }
        assert!(differs, "comm cost should raise some ranks");
        // zero comm cost collapses HEFT onto the critical path
        let zero = SchedCtx {
            graph: &g,
            task_cost: &costs,
            comm_cost: 0.0,
        };
        assert_eq!(Heft.ranks(&zero), cp);
    }

    #[test]
    fn zoo_names_are_unique() {
        let names: Vec<_> = zoo().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
