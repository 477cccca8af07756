//! # sbc-topo — topology-aware platform model and the scheduler zoo
//!
//! The paper (and `sbc-simgrid`'s original network model) treats the
//! cluster as one flat switch: every node owns a full-duplex NIC and any
//! pair communicates at the same bandwidth and latency. Real clusters are
//! hierarchical — hosts hang off top-of-rack switches joined by (often
//! oversubscribed) uplinks — and the communication-avoiding literature
//! frames the win in terms of *where* bytes cross a bandwidth boundary,
//! not just how many there are. This crate supplies the two missing
//! layers:
//!
//! * [`Topology`] — a host/switch/link graph with per-link bandwidth and
//!   latency, deterministic shortest-path routing, per-direction backbone
//!   contention, and rack labels. The degenerate
//!   [`Topology::single_switch`] reproduces the flat model **bit-exactly**,
//!   so the simulator prices every run, and the planner every candidate,
//!   over a topology, and the paper's flat network is the single switch.
//! * [`Scheduler`] — the list-scheduler contract shared by the simulator
//!   and the threaded runtime — the one selector of ready order in both —
//!   with three implementations: [`CriticalPath`] (every front end's
//!   default), [`Heft`] (communication-aware upward rank) and
//!   [`SubmissionOrder`] (no ranking: `TaskId` order, the ablation
//!   baseline). [`zoo`] is the first two, the ones `paper topo` compares:
//!   each is strictly faster than the other somewhere.
//! * [`pareto`] — deterministic {topology × scheduler × distribution}
//!   sweep reports: the Pareto front of (makespan, cross-rack bytes)
//!   against the analytic lower bound, rendered byte-identically across
//!   runs.
//!
//! This crate deliberately depends only on `sbc-taskgraph`: the simulator,
//! planner and runtime all layer on top of it without cycles.

#![warn(missing_docs)]

pub mod pareto;
pub mod sched;
pub mod topology;

pub use pareto::{render_report, SweepPoint};
pub use sched::{zoo, CriticalPath, Heft, SchedCtx, Scheduler, SubmissionOrder};
pub use topology::{Hop, HostId, Link, LinkId, Route, SwitchId, Topology};
