//! Simulation results and execution traces.
//!
//! The trace primitives ([`TraceEvent`], [`render_gantt`]) now live in
//! [`sbc_obs`] so measured runs from the real runtime share them; they are
//! re-exported here for compatibility.

pub use sbc_obs::{render_gantt, TraceEvent};

/// Outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end execution time in seconds (first task start is t = 0).
    pub makespan: f64,
    /// Number of inter-node messages (tiles) transferred.
    pub messages: u64,
    /// Bytes transferred between nodes.
    pub bytes: u64,
    /// Messages whose route crossed a rack boundary (0 on a single switch,
    /// the network [`crate::Simulator::new`] prices over).
    pub cross_rack_messages: u64,
    /// Bytes that crossed a rack boundary (0 on a single switch).
    pub cross_rack_bytes: u64,
    /// Total flops executed.
    pub flops: f64,
    /// Per-node busy time (seconds of core-occupancy, summed over cores).
    pub busy_per_node: Vec<f64>,
    /// Per-node send-port occupancy (seconds): per message, the host
    /// overhead plus serialization at its route's bottleneck bandwidth.
    pub send_port_per_node: Vec<f64>,
    /// Per-node receive-port occupancy (seconds), priced like the send
    /// side.
    pub recv_port_per_node: Vec<f64>,
    /// Number of tasks executed (equals the graph size on success).
    pub tasks_executed: u64,
    /// Worker cores per node (to compute utilization).
    pub cores_per_node: usize,
}

impl SimReport {
    /// GFlop/s per node, the paper's comparison metric
    /// (`F = #flops / (t * P)`, Section V-E). `flops` defaults to the
    /// executed task flops; pass the dense-operation count (e.g. `n^3/3`)
    /// to match the paper's normalization exactly.
    pub fn gflops_per_node(&self, flops: Option<f64>) -> f64 {
        let f = flops.unwrap_or(self.flops);
        let p = self.busy_per_node.len().max(1) as f64;
        f / (self.makespan.max(f64::MIN_POSITIVE) * p) / 1e9
    }

    /// Mean worker utilization over nodes: busy core-seconds divided by
    /// available core-seconds.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let avail = self.makespan * self.cores_per_node as f64;
        let busy: f64 = self.busy_per_node.iter().sum::<f64>() / self.busy_per_node.len() as f64;
        busy / avail
    }

    /// Communication volume in gigabytes.
    pub fn gigabytes(&self) -> f64 {
        self.bytes as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_gantt_renders_sim_traces() {
        let events = vec![
            TraceEvent {
                task: 0,
                node: 0,
                start: 0.0,
                end: 1.0,
            },
            TraceEvent {
                task: 1,
                node: 1,
                start: 0.5,
                end: 1.0,
            },
        ];
        let g = render_gantt(&events, 2, 1, 4);
        assert!(g.contains("node   0 |####|"), "{g}");
        assert!(g.contains("node   1 |  ##|"), "{g}");
    }

    #[test]
    fn gflops_per_node_normalizes_by_nodes_and_time() {
        let r = SimReport {
            makespan: 2.0,
            messages: 0,
            bytes: 0,
            cross_rack_messages: 0,
            cross_rack_bytes: 0,
            flops: 4e9,
            busy_per_node: vec![1.0, 1.0],
            send_port_per_node: vec![0.0, 0.0],
            recv_port_per_node: vec![0.0, 0.0],
            tasks_executed: 10,
            cores_per_node: 4,
        };
        assert!((r.gflops_per_node(None) - 1.0).abs() < 1e-12);
        assert!((r.gflops_per_node(Some(8e9)) - 2.0).abs() < 1e-12);
        assert!((r.utilization() - 0.125).abs() < 1e-12);
    }
}
