//! The shared timeline type and the text Gantt renderer.
//!
//! [`TraceEvent`] used to live in `sbc-simgrid`; it now lives here so the
//! simulator's virtual timeline and the threaded runtime's *measured*
//! timeline are literally the same type — `render_gantt` and the Chrome
//! exporter do not care whether time was simulated or real.

use crate::recorder::{Event, Recording};
use crate::ring::Ring;

/// One executed task in a recorded trace (simulated or measured).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Task index in the graph.
    pub task: u32,
    /// Executing node.
    pub node: u32,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

/// Extracts the task spans of a [`Recording`] as [`TraceEvent`]s — the
/// bridge that lets [`render_gantt`] draw *measured* executions.
pub fn task_spans(rec: &Recording) -> Vec<TraceEvent> {
    rec.events
        .iter()
        .filter_map(|e| match *e {
            Event::Task {
                task,
                node,
                start,
                end,
                ..
            } => Some(TraceEvent {
                task,
                node,
                start,
                end,
            }),
            _ => None,
        })
        .collect()
}

/// Renders a per-node utilization Gantt strip as text: `width` buckets per
/// node, each showing the fraction of busy worker-core time in that time
/// slice (' ' empty, '.' <25%, '-' <50%, '=' <75%, '#' full).
///
/// Degenerate inputs render degenerately instead of panicking: an empty
/// event list, `width == 0`, `nodes == 0`, or a zero makespan all yield an
/// empty string; an event whose `node` is `>= nodes` is clamped onto the
/// last row; instantaneous events (`end <= start`) contribute no busy time.
pub fn render_gantt(events: &[TraceEvent], nodes: usize, cores: usize, width: usize) -> String {
    let makespan = events.iter().fold(0.0f64, |m, e| m.max(e.end));
    if makespan <= 0.0 || width == 0 || nodes == 0 || cores == 0 {
        return String::new();
    }
    let dt = makespan / width as f64;
    let mut busy = vec![vec![0.0f64; width]; nodes];
    for e in events {
        if e.end <= e.start {
            continue;
        }
        let b0 = ((e.start / dt) as usize).min(width - 1);
        let b1 = ((e.end / dt) as usize).min(width - 1);
        let row = &mut busy[(e.node as usize).min(nodes - 1)];
        for (bucket, cell) in row.iter_mut().enumerate().take(b1 + 1).skip(b0) {
            let lo = (bucket as f64 * dt).max(e.start);
            let hi = ((bucket + 1) as f64 * dt).min(e.end);
            if hi > lo {
                *cell += hi - lo;
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("gantt ({makespan:.3}s across {width} buckets):\n"));
    for (n, row) in busy.iter().enumerate() {
        out.push_str(&format!("node {n:>3} |"));
        for &b in row {
            let frac = b / (dt * cores as f64);
            out.push(match frac {
                f if f <= 0.01 => ' ',
                f if f < 0.25 => '.',
                f if f < 0.5 => '-',
                f if f < 0.75 => '=',
                _ => '#',
            });
        }
        out.push_str("|\n");
    }
    out
}

/// Bounded, rotating retention for trace spans.
///
/// A resident service accumulates one span per task per job forever; this
/// ring keeps only the newest `capacity` spans (dropping the oldest) so a
/// week-long service holds a fixed amount of trace memory.
pub type SpanRing = Ring<TraceEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: u32, node: u32, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            task,
            node,
            start,
            end,
        }
    }

    #[test]
    fn gantt_renders_buckets() {
        let events = vec![ev(0, 0, 0.0, 1.0), ev(1, 1, 0.5, 1.0)];
        let g = render_gantt(&events, 2, 1, 4);
        assert!(g.contains("node   0 |####|"), "{g}");
        assert!(g.contains("node   1 |  ##|"), "{g}");
    }

    #[test]
    fn gantt_empty_events() {
        assert_eq!(render_gantt(&[], 2, 1, 4), "");
    }

    #[test]
    fn gantt_zero_width_and_zero_nodes() {
        let events = vec![ev(0, 0, 0.0, 1.0)];
        assert_eq!(render_gantt(&events, 2, 1, 0), "");
        assert_eq!(render_gantt(&events, 0, 1, 4), "");
        assert_eq!(render_gantt(&events, 2, 0, 4), "");
    }

    #[test]
    fn gantt_instantaneous_event() {
        // end == start: no busy time, but the makespan still frames the strip
        let g = render_gantt(&[ev(0, 0, 1.0, 1.0)], 1, 1, 4);
        assert!(g.contains("node   0 |    |"), "{g}");
        // at t = 0 the makespan itself is 0: nothing to draw
        assert_eq!(render_gantt(&[ev(0, 0, 0.0, 0.0)], 1, 1, 4), "");
    }

    #[test]
    fn gantt_out_of_range_node_is_clamped_not_panicking() {
        // node 7 with nodes = 2 lands on the last row
        let g = render_gantt(&[ev(0, 0, 0.0, 1.0), ev(1, 7, 0.0, 1.0)], 2, 1, 4);
        assert!(g.contains("node   0 |####|"), "{g}");
        assert!(g.contains("node   1 |####|"), "{g}");
    }

    #[test]
    fn span_ring_rotates_keeping_the_newest() {
        let ring = SpanRing::with_capacity(3);
        for i in 0..5 {
            ring.push(ev(i, 0, i as f64, i as f64 + 1.0));
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.len(), 3);
        let tasks: Vec<u32> = ring.snapshot().iter().map(|e| e.task).collect();
        assert_eq!(tasks, vec![2, 3, 4], "newest three, oldest first");
        ring.push(ev(9, 0, 9.0, 10.0));
        assert_eq!(ring.snapshot().last().unwrap().task, 9);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn span_ring_capacity_zero_counts_but_keeps_nothing() {
        let ring = SpanRing::with_capacity(0);
        ring.push(ev(0, 0, 0.0, 1.0));
        assert_eq!(ring.total(), 1);
        assert_eq!(ring.len(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn task_spans_filters_recording() {
        use crate::recorder::Recorder;
        use sbc_taskgraph::TaskKind;
        let rec = Recorder::new();
        let mut h = rec.node(2);
        h.task(5, TaskKind::Potrf { k: 0 }, 0.1, 0.2);
        h.send(0, 64, false);
        drop(h);
        let spans = task_spans(&rec.drain());
        assert_eq!(spans, vec![ev(5, 2, 0.1, 0.2)]);
    }
}
