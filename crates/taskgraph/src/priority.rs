//! Task priorities.
//!
//! StarPU schedules ready tasks by dynamic priorities; for tiled Cholesky
//! the decisive heuristic is to favour tasks on the critical path (the
//! POTRF→TRSM chain down the diagonal) so panel results are produced — and
//! broadcast — as early as possible. We compute the classical *upward rank*:
//! `prio[t] = cost(t) + max over successors prio[s]`, in one reverse pass
//! over the topological (submission) order.

use crate::graph::TaskGraph;
use crate::task::Task;

/// The upward rank of every task under per-task costs indexed by `TaskId`:
/// the workspace's one implementation of the reverse pass, shared by
/// [`critical_path_priorities`] and `sbc_topo::CriticalPath`.
pub fn upward_ranks(g: &TaskGraph, cost: impl Fn(usize) -> f64) -> Vec<f32> {
    let n = g.len();
    let mut prio = vec![0.0f32; n];
    for t in (0..n).rev() {
        let mut best = 0.0f32;
        for (s, _) in g.succs(t as u32) {
            best = best.max(prio[s as usize]);
        }
        prio[t] = best + cost(t) as f32;
    }
    prio
}

/// Computes longest-path-to-exit priorities with a per-task cost model
/// (typically estimated execution seconds; flops work as well since only
/// ordering matters).
///
/// Larger is more urgent. Communication costs are not included — the
/// simulator/runtime use these as list-scheduling keys only.
pub fn critical_path_priorities(g: &TaskGraph, cost: impl Fn(&Task) -> f64) -> Vec<f32> {
    upward_ranks(g, |t| cost(&g.tasks()[t]))
}

/// The weighted critical-path length of the graph (the makespan lower bound
/// with infinite resources and free communication).
pub fn critical_path_length(g: &TaskGraph, cost: impl Fn(&Task) -> f64) -> f64 {
    critical_path_priorities(g, cost)
        .into_iter()
        .fold(0.0f32, f32::max) as f64
}

/// Upward-rank priorities under the default cost model — each kind's flop
/// count at tile size `b`. For list-scheduling only the *ordering* of
/// priorities matters, and flops preserve the ordering that real kernel
/// times induce (all kinds are O(b^3) dense kernels).
pub fn flops_priorities(g: &TaskGraph, b: usize) -> Vec<f32> {
    critical_path_priorities(g, |t| t.kind.flops(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::build_potrf;
    use sbc_dist::TwoDBlockCyclic;

    #[test]
    fn priorities_decrease_along_edges() {
        let d = TwoDBlockCyclic::new(2, 2);
        let g = build_potrf(&d, 8);
        let prio = critical_path_priorities(&g, |t| t.kind.flops(8));
        for t in 0..g.len() as u32 {
            for (s, _) in g.succs(t) {
                assert!(prio[t as usize] > prio[s as usize]);
            }
        }
    }

    #[test]
    fn first_potrf_is_most_urgent() {
        let d = TwoDBlockCyclic::new(2, 2);
        let g = build_potrf(&d, 10);
        let prio = critical_path_priorities(&g, |t| t.kind.flops(16));
        let max = prio.iter().cloned().fold(0.0f32, f32::max);
        assert_eq!(prio[0], max); // task 0 is Potrf{0}
    }

    #[test]
    fn critical_path_grows_linearly_in_nt() {
        let d = TwoDBlockCyclic::new(2, 2);
        let c8 = critical_path_length(&build_potrf(&d, 8), |t| t.kind.flops(4));
        let c16 = critical_path_length(&build_potrf(&d, 16), |t| t.kind.flops(4));
        // chain length ~ 3N tasks (potrf, trsm, gemm per iteration)
        assert!(c16 > 1.5 * c8);
        assert!(c16 < 3.0 * c8);
    }

    #[test]
    fn flops_priorities_match_explicit_cost() {
        let d = TwoDBlockCyclic::new(2, 3);
        let g = build_potrf(&d, 9);
        assert_eq!(
            flops_priorities(&g, 16),
            critical_path_priorities(&g, |t| t.kind.flops(16))
        );
    }

    #[test]
    fn zero_cost_gives_zero_length() {
        let d = TwoDBlockCyclic::new(1, 1);
        let g = build_potrf(&d, 5);
        assert_eq!(critical_path_length(&g, |_| 0.0), 0.0);
    }
}
