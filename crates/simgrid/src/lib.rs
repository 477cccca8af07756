//! # sbc-simgrid — a discrete-event cluster simulator for task graphs
//!
//! The paper's performance experiments (Figs 7–14) ran on the `bora`
//! cluster: homogeneous nodes of 36 Intel Skylake cores (34 usable as
//! workers under StarPU) at 41.6 GFlop/s per core, linked by a 100 Gb/s
//! OmniPath network, executing Chameleon task graphs over StarPU with
//! asynchronous point-to-point tile messages. This crate simulates exactly
//! that setup:
//!
//! * [`Platform`] — node/core counts, per-core peak, a per-kernel
//!   efficiency-vs-tile-size model (calibrated so POTRF throughput
//!   saturates near `b = 500`, reproducing Fig 7), and a full-duplex NIC
//!   with bandwidth and latency, serialized per direction — the hosts of
//!   its [`Platform::single_switch_topology`];
//! * [`Simulator`] — an event-driven executor of `sbc-taskgraph` graphs:
//!   per-node priority ready queues (critical-path priorities, the StarPU
//!   analogue), worker pools, eager per-tile messages grouped per
//!   destination node, and initial-fetch injection;
//! * [`ScheduleMode`] — `Async` (StarPU/Chameleon lookahead across
//!   iterations) or `BulkSynchronous` (a static, iteration-barrier schedule
//!   modelling the COnfCHOX comparator of Section V-E).
//!
//! Every message is priced over an `sbc-topo` [`Topology`]: the platform's
//! single switch by default, or any other passed to
//! [`Simulator::with_topology`] to route messages through racks and
//! oversubscribed uplinks. A [`Scheduler`] from the zoo, passed to
//! [`Simulator::with_scheduler`], swaps the ready-queue ranking policy.
//!
//! The simulator's measured communication volume is *exactly* the graph's
//! message count (tested), so Fig 8 and the performance figures are
//! produced by one consistent machinery.

#![warn(missing_docs)]

pub mod engine;
pub mod platform;
pub mod stats;

pub use engine::{ScheduleMode, SimConfig, Simulator};
pub use platform::{KernelEfficiency, Platform};
pub use sbc_topo::{Scheduler, Topology};
pub use stats::{render_gantt, SimReport, TraceEvent};
