//! The execution recorder: typed events, per-thread buffers, one merge.
//!
//! Every node thread of the runtime (and, in principle, any other
//! instrumented component) asks the shared [`Recorder`] for a
//! [`NodeRecorder`] handle and appends events to it. A handle owns a plain
//! `Vec` — recording an event is a timestamp read plus a push, no locks, no
//! atomics — and flushes that buffer into the recorder exactly once, when
//! the handle is dropped (or `NodeRecorder::flush` is called early). The
//! only synchronized operation is that single per-thread flush, so the
//! recorder's cost is O(events) memory and effectively zero contention.
//!
//! Timestamps are `f64` seconds relative to the recorder's creation
//! (`Recorder::now`), the same unit the simulator's virtual clock uses —
//! which is what lets measured and simulated timelines share one trace
//! type, one Gantt renderer and one Chrome-trace exporter.

use parking_lot::Mutex;
use sbc_taskgraph::TaskKind;
use std::time::Instant;

/// A periodically sampled quantity (as opposed to a span or a point event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeKind {
    /// Number of tiles resident on a node: its owned tiles plus the
    /// replicas it still holds for a local reader.
    TileStore,
    /// Number of dependency-free tasks queued on a node's scheduler.
    ReadyQueue,
    /// Number of workers of a node currently executing a task.
    ActiveWorkers,
}

/// How many [`GaugeKind`] variants exist (size of the coalescing cache).
const GAUGE_KINDS: usize = 3;

/// A reliability-layer incident observed during an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A payload's retransmission timer fired and the payload was resent.
    Retransmit,
    /// A cumulative ack arrived; the span is the oldest covered payload's
    /// send-to-ack round trip.
    AckRtt,
    /// A rank exceeded its progress deadline while blocked on the network.
    Stall,
}

impl FaultKind {
    /// Stable display name (also the Chrome-trace span name).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultKind::Retransmit => "retransmit",
            FaultKind::AckRtt => "ack_rtt",
            FaultKind::Stall => "stall",
        }
    }
}

impl GaugeKind {
    /// Stable display name (also the Chrome-trace counter name).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            GaugeKind::TileStore => "tile_store_tiles",
            GaugeKind::ReadyQueue => "ready_queue_depth",
            GaugeKind::ActiveWorkers => "active_workers",
        }
    }

    fn idx(self) -> usize {
        match self {
            GaugeKind::TileStore => 0,
            GaugeKind::ReadyQueue => 1,
            GaugeKind::ActiveWorkers => 2,
        }
    }
}

/// One recorded observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A task executed on a node: the span of the kernel call itself.
    Task {
        /// Task index in the graph.
        task: u32,
        /// What was computed (kind + coordinates).
        kind: TaskKind,
        /// Executing node.
        node: u32,
        /// Worker within the node that ran the kernel.
        worker: u32,
        /// Start time in seconds.
        start: f64,
        /// End time in seconds.
        end: f64,
    },
    /// A message left a node towards `dest`.
    Send {
        /// Sending node.
        node: u32,
        /// Destination node.
        dest: u32,
        /// Payload size.
        bytes: u64,
        /// `true` for an original-tile fetch, `false` for a producer output.
        orig: bool,
        /// Time of the send.
        at: f64,
    },
    /// A message was received and applied on a node.
    Recv {
        /// Receiving node.
        node: u32,
        /// Sending node (pairs this receive with its send for flow arrows).
        src: u32,
        /// Payload size.
        bytes: u64,
        /// `true` for an original-tile fetch, `false` for a producer output.
        orig: bool,
        /// Time of the receive.
        at: f64,
    },
    /// A node sat idle blocking on a dependency that had not arrived yet.
    DepWait {
        /// Waiting node.
        node: u32,
        /// When the node started blocking.
        start: f64,
        /// When the awaited message arrived.
        end: f64,
    },
    /// A reliability-layer incident (retransmission, ack round trip, stall).
    Fault {
        /// Node the incident belongs to.
        node: u32,
        /// What happened.
        kind: FaultKind,
        /// Start of the incident span (send time for ack RTTs).
        start: f64,
        /// End of the incident span.
        end: f64,
    },
    /// A sampled gauge value.
    Gauge {
        /// Sampling node.
        node: u32,
        /// Which quantity.
        gauge: GaugeKind,
        /// The sampled value.
        value: f64,
        /// Sampling time.
        at: f64,
    },
}

impl Event {
    /// The time this event is ordered by (span start for spans).
    pub(crate) fn at(&self) -> f64 {
        match *self {
            Event::Task { start, .. }
            | Event::DepWait { start, .. }
            | Event::Fault { start, .. } => start,
            Event::Send { at, .. } | Event::Recv { at, .. } | Event::Gauge { at, .. } => at,
        }
    }

    /// The node the event belongs to.
    pub(crate) fn node(&self) -> u32 {
        match *self {
            Event::Task { node, .. }
            | Event::Send { node, .. }
            | Event::Recv { node, .. }
            | Event::DepWait { node, .. }
            | Event::Fault { node, .. }
            | Event::Gauge { node, .. } => node,
        }
    }
}

/// The merged, time-ordered result of one recorded execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    /// All events, sorted by `Event::at`.
    pub events: Vec<Event>,
}

impl Recording {
    /// Number of events recorded on `node`.
    pub fn events_on(&self, node: u32) -> usize {
        self.events.iter().filter(|e| e.node() == node).count()
    }

    /// Highest node index observed plus one (0 for an empty recording).
    pub fn nodes(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.node() as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Shared event sink for one instrumented execution.
///
/// Cheap to create, cheap to carry: the hot path lives entirely in the
/// [`NodeRecorder`] handles. Dropping all handles and calling
/// [`Recorder::drain`] yields the merged [`Recording`].
pub struct Recorder {
    epoch: Instant,
    sink: Mutex<Vec<Vec<Event>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// Seconds elapsed since the recorder was created.
    pub(crate) fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Converts an externally captured [`Instant`] (e.g. a transport
    /// session's event timestamp) onto the recorder clock. Instants taken
    /// before the recorder existed map to 0.
    pub fn time_of(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// A per-thread handle recording on behalf of `node` (worker 0).
    pub fn node(&self, node: u32) -> NodeRecorder<'_> {
        self.worker(node, 0)
    }

    /// A per-thread handle recording on behalf of one `worker` of `node` —
    /// task spans land on that worker's track in the Chrome trace.
    pub fn worker(&self, node: u32, worker: u32) -> NodeRecorder<'_> {
        NodeRecorder {
            rec: self,
            node,
            worker,
            buf: Vec::with_capacity(256),
            last_gauge: [None; GAUGE_KINDS],
        }
    }

    /// Merges every flushed buffer into one time-ordered [`Recording`].
    ///
    /// Buffers of handles still alive are not included — drop (or `flush`)
    /// all handles first; the runtime does this before returning.
    pub fn drain(&self) -> Recording {
        let mut bufs = self.sink.lock();
        let mut events: Vec<Event> = bufs.drain(..).flatten().collect();
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        Recording { events }
    }
}

/// A node thread's private recording handle. All methods are lock-free
/// appends; the buffer reaches the [`Recorder`] on drop (or `flush`).
pub struct NodeRecorder<'r> {
    rec: &'r Recorder,
    node: u32,
    worker: u32,
    buf: Vec<Event>,
    last_gauge: [Option<f64>; GAUGE_KINDS],
}

impl NodeRecorder<'_> {
    /// Seconds on the shared recorder clock.
    pub fn now(&self) -> f64 {
        self.rec.now()
    }

    /// Records a completed task span on this handle's worker track.
    pub fn task(&mut self, task: u32, kind: TaskKind, start: f64, end: f64) {
        self.buf.push(Event::Task {
            task,
            kind,
            node: self.node,
            worker: self.worker,
            start,
            end,
        });
    }

    /// Records an outgoing message.
    pub fn send(&mut self, dest: u32, bytes: u64, orig: bool) {
        let at = self.now();
        self.buf.push(Event::Send {
            node: self.node,
            dest,
            bytes,
            orig,
            at,
        });
    }

    /// Records an applied incoming message from node `src`.
    pub fn recv(&mut self, src: u32, bytes: u64, orig: bool) {
        let at = self.now();
        self.buf.push(Event::Recv {
            node: self.node,
            src,
            bytes,
            orig,
            at,
        });
    }

    /// Records a reliability-layer incident span.
    pub fn fault(&mut self, kind: FaultKind, start: f64, end: f64) {
        self.buf.push(Event::Fault {
            node: self.node,
            kind,
            start,
            end,
        });
    }

    /// Records a blocking wait for a dependency.
    pub fn dep_wait(&mut self, start: f64, end: f64) {
        self.buf.push(Event::DepWait {
            node: self.node,
            start,
            end,
        });
    }

    /// Records a gauge sample. Consecutive samples with an unchanged value
    /// are coalesced — the timeline is identical, the event stream smaller.
    pub fn gauge(&mut self, gauge: GaugeKind, value: f64) {
        if self.last_gauge[gauge.idx()] == Some(value) {
            return;
        }
        self.last_gauge[gauge.idx()] = Some(value);
        let at = self.now();
        self.buf.push(Event::Gauge {
            node: self.node,
            gauge,
            value,
            at,
        });
    }

    /// Pushes the buffered events into the recorder early (drop does the
    /// same once).
    pub(crate) fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.rec.sink.lock().push(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for NodeRecorder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_merge_time_ordered_across_handles() {
        let rec = Recorder::new();
        let mut a = rec.node(0);
        let mut b = rec.node(1);
        a.task(0, TaskKind::Potrf { k: 0 }, 0.5, 0.6);
        b.task(1, TaskKind::Trsm { k: 0, i: 1 }, 0.1, 0.2);
        a.send(1, 128, false);
        drop(a);
        drop(b);
        let r = rec.drain();
        assert_eq!(r.events.len(), 3);
        let times: Vec<f64> = r.events.iter().map(|e| e.at()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert_eq!(r.nodes(), 2);
        assert_eq!(r.events_on(0), 2);
        assert_eq!(r.events_on(1), 1);
    }

    #[test]
    fn drain_skips_unflushed_then_picks_up_after_flush() {
        let rec = Recorder::new();
        let mut h = rec.node(3);
        h.gauge(GaugeKind::TileStore, 4.0);
        assert_eq!(rec.drain().events.len(), 0);
        h.flush();
        let r = rec.drain();
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.nodes(), 4);
        drop(h); // second flush is a no-op
        assert_eq!(rec.drain().events.len(), 0);
    }

    #[test]
    fn worker_handles_tag_task_spans() {
        let rec = Recorder::new();
        let mut w0 = rec.worker(2, 0);
        let mut w1 = rec.worker(2, 1);
        w0.task(5, TaskKind::Potrf { k: 0 }, 0.0, 0.1);
        w1.task(6, TaskKind::Syrk { i: 0, k: 1 }, 0.0, 0.2);
        w1.gauge(GaugeKind::ActiveWorkers, 2.0);
        drop(w0);
        drop(w1);
        let r = rec.drain();
        let workers: Vec<u32> = r
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::Task { worker, .. } => Some(worker),
                _ => None,
            })
            .collect();
        assert_eq!(workers.len(), 2);
        assert!(workers.contains(&0) && workers.contains(&1));
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, Event::Gauge { gauge: GaugeKind::ActiveWorkers, value, .. } if *value == 2.0)));
    }

    #[test]
    fn recorder_clock_is_monotonic() {
        let rec = Recorder::new();
        let a = rec.now();
        let b = rec.now();
        assert!(b >= a && a >= 0.0);
    }
}
