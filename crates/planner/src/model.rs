//! Closed-form cost model ranking distribution candidates.
//!
//! The model mirrors the paper's performance analysis (Section V-E) with
//! two terms:
//!
//! * **Compute**: `op` flops divided by the aggregate effective throughput
//!   of the nodes the candidate occupies (worker cores x per-core peak x
//!   GEMM efficiency at tile size `b`), stretched by the candidate's
//!   trailing-update load imbalance. This is what separates a 28-node SBC
//!   from a 20-node grid at the same budget.
//! * **Communication**: the exact per-op message count from
//!   [`sbc_dist::comm`], times the NIC port time of one `b x b` tile,
//!   spread over the candidate's NICs. This is the Theorem 1 term: fewer
//!   sends, faster factorization.
//!
//! The two are **summed**, not maxed. A max would assume perfect
//! compute/communication overlap, under which the comm term vanishes in
//! the compute-bound regime and the model would rank purely by load
//! balance — contradicting the paper's measurement that fewer messages
//! still win at compute-bound sizes, because every message costs host
//! overhead on the communication core and imperfect overlap leaks into
//! the critical path (Sections V-C/V-E). The sum is a serialization bound
//! that preserves the paper's ordering; [`crate::Planner::simulate`]
//! gives the overlap-aware makespan of any one candidate.
//!
//! Ranking is lexicographic `(total_seconds, messages)`: on a time tie the
//! candidate that communicates less wins — the paper's whole point.

use std::cmp::Ordering;
use std::sync::Arc;

use sbc_simgrid::Platform;
use sbc_taskgraph::TaskKind;
use sbc_topo::Topology;

use crate::candidates::{DistChoice, Op};

/// Scored cost of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Exact message count of the operation under the candidate.
    pub messages: u64,
    /// Seconds the busiest NIC spends porting messages.
    pub comm_seconds: f64,
    /// Seconds the busiest node spends computing.
    pub compute_seconds: f64,
    /// Trailing-update load imbalance (>= 1.0) folded into
    /// `compute_seconds`.
    pub imbalance: f64,
    /// Seconds the busiest backbone link direction spends serializing this
    /// candidate's traffic (0 under the flat model or a flat topology) —
    /// the rack-boundary term that makes ranking topology-aware.
    pub cross_boundary_seconds: f64,
    /// Model makespan: `compute_seconds + comm_seconds +
    /// cross_boundary_seconds` (serialization bound, see module docs).
    pub total_seconds: f64,
}

impl CostBreakdown {
    /// Lexicographic ranking: smaller model makespan first, fewer messages
    /// as tie-break.
    pub(crate) fn rank(&self, other: &CostBreakdown) -> Ordering {
        self.total_seconds
            .total_cmp(&other.total_seconds)
            .then(self.messages.cmp(&other.messages))
    }
}

/// The analytic scorer: a [`Platform`] plus the arithmetic above.
#[derive(Debug, Clone)]
pub struct CostModel {
    platform: Platform,
    topology: Option<Arc<Topology>>,
}

impl CostModel {
    /// Builds a model over `platform`'s constants, assuming every core of
    /// a node works (the platform's `cores_per_node`).
    pub fn new(platform: Platform) -> Self {
        CostModel {
            platform,
            topology: None,
        }
    }

    /// Prices communication over an explicit network topology (graph node
    /// `i` on host `i`): each candidate's per-pair traffic is charged at
    /// its route's bottleneck bandwidth, and the busiest backbone link
    /// direction adds a serialization term.
    ///
    /// The two forks do not price the same count: the flat model charges
    /// the closed-form `DistChoice::messages`, a topology the per-pair
    /// `DistChoice::message_matrix`, which sums to the task graph's count.
    /// The two agree for POTRF, TRTRI, LAUUM and LU, but not for most POSV
    /// and POTRI candidates, so even a single-switch topology can rank
    /// those differently from the flat model (ROADMAP 13(d)).
    pub(crate) fn with_topology(mut self, topology: Arc<Topology>) -> Self {
        assert!(
            topology.hosts() >= self.platform.nodes,
            "topology has {} hosts but the platform has {} nodes",
            topology.hosts(),
            self.platform.nodes
        );
        self.topology = Some(topology);
        self
    }

    /// The topology communication is priced over, if any.
    pub(crate) fn topology(&self) -> Option<&Topology> {
        self.topology.as_deref()
    }

    /// The platform being modelled.
    pub(crate) fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Scores `choice` executing `op` on an `nt x nt` tile matrix with
    /// tile size `b`.
    pub fn score(&self, choice: DistChoice, op: Op, nt: usize, b: usize) -> CostBreakdown {
        let nodes = choice.nodes_used() as f64;
        let messages = choice.messages(op, nt);
        let tile_bytes = (b * b * 8) as u64;
        // Each message occupies a sender NIC and a receiver NIC for
        // port_seconds; with P nodes the aggregate port work spreads over P
        // full-duplex ports. With a topology, each pair's traffic is priced
        // at its route's bottleneck instead of the uniform NIC rate, and
        // the busiest backbone link direction adds a serialization term.
        let mut cross_boundary_seconds = 0.0;
        let comm_seconds = match &self.topology {
            None => messages as f64 * self.platform.port_seconds(tile_bytes) / nodes,
            Some(topo) => {
                let n = choice.nodes_used();
                assert!(
                    n <= topo.hosts(),
                    "candidate uses {n} nodes but the topology has {} hosts",
                    topo.hosts()
                );
                let matrix = choice.message_matrix(op, nt);
                let mut port = 0.0;
                let mut occupancy = vec![[0.0f64; 2]; topo.links().len()];
                for src in 0..n {
                    for dst in 0..n {
                        let count = matrix[src * n + dst];
                        if count == 0 {
                            continue;
                        }
                        let route = topo.route(src as u32, dst as u32);
                        port += count as f64
                            * (self.platform.per_message_overhead
                                + tile_bytes as f64 / route.bottleneck);
                        for hop in &route.backbone {
                            occupancy[hop.link as usize][hop.dir()] += count as f64
                                * tile_bytes as f64
                                / topo.links()[hop.link as usize].bandwidth;
                        }
                    }
                }
                cross_boundary_seconds = occupancy
                    .iter()
                    .flatten()
                    .fold(0.0f64, |acc, &v| acc.max(v));
                port / nodes
            }
        };

        let imbalance = choice.gemm_imbalance(nt);
        let eff = self
            .platform
            .efficiency
            .efficiency(&TaskKind::Gemm { i: 0, j: 1, k: 0 }, b);
        let node_flops = self.platform.cores_per_node as f64 * self.platform.core_gflops * 1e9;
        let compute_seconds = op.total_flops(nt, b) / (nodes * node_flops * eff) * imbalance;

        CostBreakdown {
            messages,
            comm_seconds,
            compute_seconds,
            imbalance,
            cross_boundary_seconds,
            total_seconds: compute_seconds + comm_seconds + cross_boundary_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize) -> CostModel {
        CostModel::new(Platform::bora(nodes))
    }

    #[test]
    fn more_nodes_less_compute_time() {
        let m = model(28);
        let big = m.score(DistChoice::SbcExtended { r: 8 }, Op::Potrf, 64, 500);
        let small = m.score(DistChoice::TwoDbc { p: 5, q: 4 }, Op::Potrf, 64, 500);
        assert!(big.compute_seconds < small.compute_seconds);
    }

    #[test]
    fn comm_term_tracks_message_count() {
        let m = model(28);
        // Same node count, SBC sends fewer POTRF messages (Theorem 1).
        let sbc = m.score(DistChoice::SbcExtended { r: 8 }, Op::Potrf, 40, 500);
        let bc = m.score(DistChoice::TwoDbc { p: 7, q: 4 }, Op::Potrf, 40, 500);
        assert!(sbc.messages < bc.messages);
        assert!(sbc.comm_seconds < bc.comm_seconds);
    }

    #[test]
    fn flat_topology_adds_no_cross_boundary_term() {
        let p = Platform::bora(10);
        let flat = model(10);
        let topo = model(10).with_topology(Arc::new(p.single_switch_topology()));
        let choice = DistChoice::SbcExtended { r: 5 };
        let a = flat.score(choice, Op::Potrf, 20, 500);
        let b = topo.score(choice, Op::Potrf, 20, 500);
        assert_eq!(a.messages, b.messages);
        assert_eq!(b.cross_boundary_seconds, 0.0);
        // same arithmetic per message: overhead + bytes / nic_bandwidth
        assert!((a.comm_seconds - b.comm_seconds).abs() < 1e-12 * a.comm_seconds.max(1.0));
    }

    #[test]
    fn oversubscribed_racks_penalize_cross_rack_traffic() {
        let p = Platform::bora(12);
        let flat = model(12);
        let racks = model(12).with_topology(Arc::new(p.rack_topology(2, 32.0)));
        let choice = DistChoice::TwoDbc { p: 4, q: 3 };
        let a = flat.score(choice, Op::Potrf, 24, 500);
        let b = racks.score(choice, Op::Potrf, 24, 500);
        assert!(b.cross_boundary_seconds > 0.0);
        assert!(
            b.total_seconds > a.total_seconds,
            "racks {} vs flat {}",
            b.total_seconds,
            a.total_seconds
        );
    }

    #[test]
    fn rank_breaks_ties_on_messages() {
        let a = CostBreakdown {
            messages: 10,
            comm_seconds: 1.0,
            compute_seconds: 2.0,
            imbalance: 1.0,
            cross_boundary_seconds: 0.0,
            total_seconds: 2.0,
        };
        let mut b = a;
        b.messages = 20;
        assert_eq!(a.rank(&b), Ordering::Less);
        assert_eq!(b.rank(&a), Ordering::Greater);
        assert_eq!(a.rank(&a), Ordering::Equal);
    }
}
