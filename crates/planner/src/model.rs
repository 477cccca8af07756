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
//! * **Communication**: the exact per-op message count of the task graph
//!   that runs, counted per node pair from its task stream
//!   (`DistChoice::traffic`) and
//!   priced over one network [`Topology`]: each pair's messages pay the
//!   port time of one `b x b` tile at their route's bottleneck, spread over
//!   the candidate's NICs, and the busiest backbone link direction adds a
//!   serialization term. This is the Theorem 1 term: fewer sends, faster
//!   factorization. [`CostModel::new`] prices over the platform's single
//!   switch, where the term is `messages x port time / nodes` bit for bit,
//!   the flat one-NIC-per-node model.
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
    /// candidate's traffic (0 on a topology without backbone links, such as
    /// the single switch [`CostModel::new`] prices over) — the
    /// rack-boundary term that makes ranking topology-aware.
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

/// The analytic scorer: a [`Platform`], the [`Topology`] its messages
/// cross, and the arithmetic above.
#[derive(Debug, Clone)]
pub struct CostModel {
    platform: Platform,
    topology: Arc<Topology>,
}

impl CostModel {
    /// Builds a model over `platform`'s constants, assuming every core of
    /// a node works (the platform's `cores_per_node`), with communication
    /// priced over the platform's own single switch.
    pub fn new(platform: Platform) -> Self {
        let topology = Arc::new(platform.single_switch_topology());
        CostModel { platform, topology }
    }

    /// Prices communication over `topology` instead (graph node `i` on host
    /// `i`): each candidate's per-pair traffic is charged at its route's
    /// bottleneck bandwidth, and the busiest backbone link direction adds a
    /// serialization term. The count is the same [`DistChoice::traffic`]
    /// whatever the topology.
    pub(crate) fn with_topology(mut self, topology: Arc<Topology>) -> Self {
        assert!(
            topology.hosts() >= self.platform.nodes,
            "topology has {} hosts but the platform has {} nodes",
            topology.hosts(),
            self.platform.nodes
        );
        self.topology = topology;
        self
    }

    /// The topology communication is priced over.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The platform being modelled.
    pub(crate) fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Scores `choice` executing `op` on an `nt x nt` tile matrix with
    /// tile size `b`.
    pub fn score(&self, choice: DistChoice, op: Op, nt: usize, b: usize) -> CostBreakdown {
        let topo = &*self.topology;
        assert!(
            choice.nodes_used() <= topo.hosts(),
            "candidate uses {} nodes but the topology has {} hosts",
            choice.nodes_used(),
            topo.hosts()
        );
        let nodes = choice.nodes_used() as f64;
        let traffic = choice.traffic(op, nt);
        // Count in integers first: messages per distinct route bottleneck
        // and per backbone link direction.
        let mut per_bottleneck: Vec<(f64, u64)> = Vec::new();
        let mut per_link = vec![[0u64; 2]; topo.links().len()];
        for (src, dst, count) in traffic.pairs() {
            let route = topo.route(src as u32, dst as u32);
            match per_bottleneck
                .iter_mut()
                .find(|(bw, _)| *bw == route.bottleneck)
            {
                Some((_, sum)) => *sum += count,
                None => per_bottleneck.push((route.bottleneck, count)),
            }
            for hop in &route.backbone {
                per_link[hop.link as usize][hop.dir()] += count;
            }
        }
        // Price last, once per group. Each message occupies a sender NIC and
        // a receiver NIC for its port time; with P nodes the aggregate port
        // work spreads over P full-duplex ports. On one switch there is one
        // group, so this is `messages * port_seconds / nodes` exactly.
        let tile_bytes = (b * b * 8) as f64;
        let overhead = self.platform.per_message_overhead;
        let port = per_bottleneck.iter().fold(0.0, |acc, &(bw, count)| {
            acc + count as f64 * (overhead + tile_bytes / bw)
        });
        let comm_seconds = port / nodes;
        let cross_boundary_seconds = per_link
            .iter()
            .zip(topo.links())
            .flat_map(|(dirs, link)| dirs.map(|count| count as f64 * tile_bytes / link.bandwidth))
            .fold(0.0, f64::max);

        let imbalance = choice.gemm_imbalance(nt);
        let eff = self
            .platform
            .efficiency
            .efficiency(&TaskKind::Gemm { i: 0, j: 1, k: 0 }, b);
        let node_flops = self.platform.cores_per_node as f64 * self.platform.core_gflops * 1e9;
        let compute_seconds = op.total_flops(nt, b) / (nodes * node_flops * eff) * imbalance;

        CostBreakdown {
            messages: traffic.total(),
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

    /// The default model prices over the platform's single switch, and
    /// there a score is the flat one-NIC-per-node formula bit for bit.
    #[test]
    fn flat_topology_adds_no_cross_boundary_term() {
        let p = Platform::bora(10);
        let flat = model(10);
        let single = model(10).with_topology(Arc::new(p.single_switch_topology()));
        for (choice, op) in [
            (DistChoice::SbcExtended { r: 5 }, Op::Potrf),
            (DistChoice::TwoDbc { p: 2, q: 5 }, Op::Posv),
            (DistChoice::TwoFiveDBc { p: 2, q: 2, c: 2 }, Op::Potrf),
            (DistChoice::PotriRemap { r: 5, p: 5, q: 2 }, Op::Potri),
            (DistChoice::TwoDbc { p: 1, q: 1 }, Op::Lu),
        ] {
            let a = flat.score(choice, op, 20, 500);
            let b = single.score(choice, op, 20, 500);
            assert_eq!(a.messages, b.messages);
            assert_eq!(b.cross_boundary_seconds.to_bits(), 0.0f64.to_bits());
            for (x, y) in [
                (a.comm_seconds, b.comm_seconds),
                (a.compute_seconds, b.compute_seconds),
                (a.cross_boundary_seconds, b.cross_boundary_seconds),
                (a.total_seconds, b.total_seconds),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", choice.describe());
            }
            let nodes = choice.nodes_used() as f64;
            let port = p.port_seconds(500 * 500 * 8);
            let formula = a.messages as f64 * port / nodes;
            assert_eq!(a.comm_seconds.to_bits(), formula.to_bits());
        }
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
