//! Aggregating a [`Recording`] into a measured execution profile and a
//! populated metrics registry.

use std::collections::BTreeMap;

use crate::metrics::Metrics;
use crate::recorder::{Event, Recording};

/// Latency bucket bounds (seconds) for kernel and wait histograms:
/// exponential from 1 µs to 10 s.
pub const LATENCY_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Message-size bucket bounds (bytes): powers of four from 1 KiB to 16 MiB.
pub const BYTES_BOUNDS: [f64; 8] = [
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
];

/// Per-task-kind timing aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindStats {
    /// Number of executed tasks of this kind.
    pub count: u64,
    /// Summed kernel time in seconds.
    pub total_seconds: f64,
    /// Fastest instance.
    pub min_seconds: f64,
    /// Slowest instance.
    pub max_seconds: f64,
}

/// What the runtime *actually did*, summarized: the measured counterpart of
/// the planner's predicted `CostBreakdown`, and the input to its drift
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Wall-clock span from the first task start to the last task end.
    pub wall_seconds: f64,
    /// Number of nodes that produced events.
    pub nodes: usize,
    /// Summed kernel (busy) seconds per node.
    pub busy_per_node: Vec<f64>,
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
    /// Seconds spent blocking on dependencies, summed over nodes.
    pub dep_wait_seconds: f64,
    /// Timing aggregates keyed by kernel name.
    pub per_kind: BTreeMap<&'static str, KindStats>,
}

impl ExecProfile {
    /// Builds the profile from a drained recording.
    pub fn from_recording(rec: &Recording) -> Self {
        let nodes = rec.nodes();
        let mut busy_per_node = vec![0.0f64; nodes];
        let mut per_kind: BTreeMap<&'static str, KindStats> = BTreeMap::new();
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut dep_wait_seconds = 0.0f64;
        let mut first = f64::INFINITY;
        let mut last = f64::NEG_INFINITY;
        for e in &rec.events {
            match *e {
                Event::Task {
                    kind,
                    node,
                    start,
                    end,
                    ..
                } => {
                    let dur = (end - start).max(0.0);
                    busy_per_node[node as usize] += dur;
                    first = first.min(start);
                    last = last.max(end);
                    let s = per_kind.entry(kind.name()).or_insert(KindStats {
                        count: 0,
                        total_seconds: 0.0,
                        min_seconds: f64::INFINITY,
                        max_seconds: 0.0,
                    });
                    s.count += 1;
                    s.total_seconds += dur;
                    s.min_seconds = s.min_seconds.min(dur);
                    s.max_seconds = s.max_seconds.max(dur);
                }
                Event::Send { bytes: b, .. } => {
                    messages += 1;
                    bytes += b;
                }
                Event::DepWait { start, end, .. } => {
                    dep_wait_seconds += (end - start).max(0.0);
                }
                Event::Recv { .. } | Event::Gauge { .. } | Event::Fault { .. } => {}
            }
        }
        ExecProfile {
            wall_seconds: if last > first { last - first } else { 0.0 },
            nodes,
            busy_per_node,
            messages,
            bytes,
            dep_wait_seconds,
            per_kind,
        }
    }

    /// Busy seconds of the busiest node (the measured analogue of the cost
    /// model's `compute_seconds`).
    pub fn max_busy_seconds(&self) -> f64 {
        self.busy_per_node.iter().fold(0.0f64, |m, &b| m.max(b))
    }

    /// Total kernel seconds across all nodes.
    pub fn total_busy_seconds(&self) -> f64 {
        self.busy_per_node.iter().sum()
    }
}

/// Populates a [`Metrics`] registry from a recording: message/byte/task
/// counters, per-kind kernel-latency histograms (`latency.<kind>`), the
/// message-size histogram, the dependency-wait histogram, and peak gauges.
pub fn metrics_from_recording(rec: &Recording) -> Metrics {
    let m = Metrics::new();
    for e in &rec.events {
        match *e {
            Event::Task {
                kind, start, end, ..
            } => {
                m.counter("tasks.executed").inc();
                m.histogram(&format!("latency.{}", kind.name()), &LATENCY_BOUNDS)
                    .observe((end - start).max(0.0));
            }
            Event::Send { bytes, orig, .. } => {
                m.counter("messages.sent").inc();
                m.counter(if orig {
                    "messages.sent.orig"
                } else {
                    "messages.sent.data"
                })
                .inc();
                m.counter("bytes.sent").add(bytes);
                m.histogram("message.bytes", &BYTES_BOUNDS)
                    .observe(bytes as f64);
            }
            Event::Recv { .. } => m.counter("messages.received").inc(),
            Event::DepWait { start, end, .. } => {
                m.histogram("wait.dependency", &LATENCY_BOUNDS)
                    .observe((end - start).max(0.0));
            }
            Event::Fault {
                kind, start, end, ..
            } => {
                use crate::recorder::FaultKind;
                match kind {
                    FaultKind::AckRtt => {
                        m.histogram("ack.rtt", &LATENCY_BOUNDS)
                            .observe((end - start).max(0.0));
                    }
                    FaultKind::Retransmit | FaultKind::Stall => {
                        m.counter(&format!("faults.{}", kind.name())).inc();
                    }
                }
            }
            Event::Gauge { gauge, value, .. } => {
                m.gauge(&format!("gauge.{}", gauge.name())).set(value);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{GaugeKind, Recorder};
    use sbc_taskgraph::TaskKind;

    fn sample_recording() -> Recording {
        let rec = Recorder::new();
        let mut n0 = rec.node(0);
        let mut n1 = rec.node(1);
        n0.task(0, TaskKind::Potrf { k: 0 }, 0.0, 0.5);
        n0.send(1, 512, false);
        n1.recv(0, 512, false);
        n1.task(1, TaskKind::Trsm { k: 0, i: 1 }, 0.6, 1.0);
        n1.dep_wait(0.1, 0.6);
        n1.gauge(GaugeKind::ReadyQueue, 3.0);
        drop(n0);
        drop(n1);
        rec.drain()
    }

    #[test]
    fn profile_aggregates_spans_and_messages() {
        let p = ExecProfile::from_recording(&sample_recording());
        assert_eq!(p.nodes, 2);
        assert_eq!(p.messages, 1);
        assert_eq!(p.bytes, 512);
        assert!((p.wall_seconds - 1.0).abs() < 1e-12);
        assert!((p.busy_per_node[0] - 0.5).abs() < 1e-12);
        assert!((p.busy_per_node[1] - 0.4).abs() < 1e-12);
        assert!((p.dep_wait_seconds - 0.5).abs() < 1e-12);
        assert!((p.max_busy_seconds() - 0.5).abs() < 1e-12);
        assert!((p.total_busy_seconds() - 0.9).abs() < 1e-12);
        let potrf = p.per_kind["potrf"];
        assert_eq!(potrf.count, 1);
        assert!((potrf.total_seconds - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_registry_is_populated() {
        let m = metrics_from_recording(&sample_recording());
        let s = m.snapshot();
        assert_eq!(s.counter("tasks.executed"), Some(2));
        assert_eq!(s.counter("messages.sent"), Some(1));
        assert_eq!(s.counter("messages.sent.data"), Some(1));
        assert_eq!(s.counter("messages.received"), Some(1));
        assert_eq!(s.counter("bytes.sent"), Some(512));
        assert_eq!(s.histogram("latency.potrf").unwrap().count, 1);
        assert_eq!(s.histogram("latency.trsm").unwrap().count, 1);
        assert_eq!(s.histogram("wait.dependency").unwrap().count, 1);
        assert_eq!(s.histogram("message.bytes").unwrap().count, 1);
        assert!(s.render().contains("latency.potrf"));
    }

    #[test]
    fn fault_events_feed_counters_and_rtt_histogram() {
        use crate::recorder::FaultKind;
        let rec = Recorder::new();
        let mut h = rec.node(0);
        h.fault(FaultKind::Retransmit, 0.1, 0.1);
        h.fault(FaultKind::Retransmit, 0.2, 0.2);
        h.fault(FaultKind::AckRtt, 0.1, 0.15);
        h.fault(FaultKind::Stall, 0.0, 1.0);
        drop(h);
        let recording = rec.drain();
        let m = metrics_from_recording(&recording);
        let s = m.snapshot();
        assert_eq!(s.counter("faults.retransmit"), Some(2));
        assert_eq!(s.counter("faults.stall"), Some(1));
        assert_eq!(s.histogram("ack.rtt").unwrap().count, 1);
        // faults never leak into the payload aggregates
        let p = ExecProfile::from_recording(&recording);
        assert_eq!(p.messages, 0);
        assert_eq!(p.bytes, 0);
    }

    #[test]
    fn empty_recording_yields_empty_profile() {
        let p = ExecProfile::from_recording(&Recording::default());
        assert_eq!(p.nodes, 0);
        assert_eq!(p.messages, 0);
        assert_eq!(p.wall_seconds, 0.0);
        assert!(p.per_kind.is_empty());
    }
}
