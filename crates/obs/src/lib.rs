//! # sbc-obs — unified observability for the runtime and the simulator
//!
//! The paper's whole argument is about *where time goes*: per-message host
//! overhead, per-node communication volume, idle time on the critical path
//! (Sections V-C/V-E). This crate is the layer that makes those quantities
//! visible on the *real* threaded runtime, not just in the simulator:
//!
//! * [`Recorder`] / [`NodeRecorder`] — a lock-cheap event recorder: each
//!   node thread appends typed events (task spans with
//!   [`sbc_taskgraph::TaskKind`] and coordinates, message sends/receives with bytes, dependency waits,
//!   tile-store and ready-queue gauges) to a private buffer, flushed into
//!   the shared sink once per thread;
//! * [`Metrics`] — a registry of counters, gauges and fixed-bucket
//!   histograms with atomic updates, frozen into a plain
//!   [`MetricsSnapshot`] and rendered as a text report;
//! * [`TraceEvent`] + [`render_gantt`] — the timeline type formerly owned
//!   by `sbc-simgrid`, now shared so the same Gantt renderer draws both
//!   simulated and measured executions ([`task_spans`] bridges a
//!   [`Recording`] to it);
//! * [`chrome_trace`] / [`chrome_trace_from_spans`] — Chrome
//!   `chrome://tracing` / Perfetto JSON export (one pid per node, one tid
//!   per worker), hand-serialized and checked by the in-tree [`json`]
//!   validator;
//! * [`ExecProfile`] — the measured aggregate (wall time, per-node busy
//!   time, messages, bytes, per-kind latency) that `sbc-planner`'s drift
//!   report compares against its predicted cost;
//! * [`expo`] — a Prometheus-style text exposition of a
//!   [`MetricsSnapshot`] plus the matching parser, the scrape wire format
//!   of the resident service's telemetry plane;
//! * [`EventLog`] — a bounded ring of structured job-lifecycle events
//!   ([`Severity`] / [`EventKind`] / [`ObsEvent`]);
//! * [`RateWindow`] — a lock-free sliding-window event rate (jobs/sec that
//!   decays when traffic stops);
//! * [`SpanRing`] — rotating retention for trace spans, so a resident
//!   service holds bounded trace memory; it and [`EventLog`] are both a
//!   [`Ring`], one bounded mutex-guarded deque with a lifetime count.
//!
//! Zero external dependencies (the offline build rule): everything here is
//! `std` plus the in-tree `parking_lot` stand-in.
//!
//! ```
//! use sbc_obs::{chrome_trace, render_gantt, task_spans, ExecProfile, Recorder};
//! use sbc_taskgraph::TaskKind;
//!
//! let rec = Recorder::new();
//! let mut node0 = rec.node(0);
//! node0.task(0, TaskKind::Potrf { k: 0 }, 0.0, 0.4);
//! node0.send(1, 8 * 64, false);
//! drop(node0);
//!
//! let recording = rec.drain();
//! let profile = ExecProfile::from_recording(&recording);
//! assert_eq!(profile.messages, 1);
//! let gantt = render_gantt(&task_spans(&recording), 1, 1, 8);
//! assert!(gantt.contains("node   0"));
//! sbc_obs::json::validate(&chrome_trace(&recording)).unwrap();
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod events;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod rate;
pub mod recorder;
pub mod ring;
pub mod trace;

pub use chrome::{chrome_trace, chrome_trace_from_spans, merge_chrome_traces};
pub use events::{EventKind, EventLog, ObsEvent, Severity};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use profile::{metrics_from_recording, ExecProfile, KindStats};
pub use rate::RateWindow;
pub use recorder::{Event, FaultKind, GaugeKind, NodeRecorder, Recorder, Recording};
pub use ring::Ring;
pub use trace::{render_gantt, task_spans, SpanRing, TraceEvent};
