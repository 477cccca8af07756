//! # sbc-runtime — a shared-memory distributed runtime for task graphs
//!
//! The paper's experiments execute Chameleon task graphs over StarPU with
//! MPI between nodes. This crate is the functional substitute: every
//! "node" is a small pool of worker threads with *private* tile storage,
//! the "network" is a pluggable [`sbc_net::Transport`] — in-process
//! channels by default ([`Run::execute`]), real TCP/UDS sockets with one OS
//! process per rank through [`Run::execute_rank`] — and every tile that
//! crosses a node boundary is counted — so the runtime simultaneously
//!
//! 1. proves the task graphs are executable (deadlock-free, correctly
//!    ordered: results match the sequential algorithms bit-for-bit at any
//!    worker count, since the graph fully orders every conflicting tile
//!    access), and
//! 2. measures the *actual* communication volume, which must equal both
//!    the graph-derived count and the analytic count of `sbc_dist::comm`
//!    (Fig 8's "measured" series) — independently of the schedule.
//!
//! Semantics mirror StarPU-MPI (Section V-C): a producer eagerly pushes its
//! output tile to every node that needs it (one message per consumer node,
//! point-to-point, no collectives); receivers cache tiles keyed by producer
//! task, so a tile version is never transferred twice to the same node.
//!
//! ## One builder, two structs
//!
//! There is **one task engine** ([`jobs`]) and one way into it. The engine
//! reads two structs, and each decision about a job has one owner:
//!
//! | decision | owner |
//! |---|---|
//! | what a job is — graph, tile size, seeds, tile provider, priority vector | `JobSpec`, built in one place ([`Run`] fills it for a one-shot run, [`JobTable::submit`] for a resident mesh) |
//! | how engines run it — workers, watchdog deadline, kernel backend | [`JobEngineConfig`] |
//! | what the result is — which tiles, which container | the graph's `sbc_taskgraph::ResultKind`, read by [`gather`] alone |
//! | ready order | one `&dyn sbc_topo::Scheduler` (default `CriticalPath`, the StarPU list scheduler the paper runs; `SubmissionOrder` for none) |
//!
//! [`Run`] is the only builder: pick an operation ([`Run::potrf`],
//! [`Run::posv`], …), bring your own graph ([`Run::graph`]) or a planner's
//! answer ([`Run::plan`]); set tile size, seeds, workers, scheduler,
//! deadline, kernels, an optional [`sbc_obs::Recorder`] (task spans per
//! worker, per-message events, dependency waits, scheduler gauges) or a
//! custom tile provider — one setter each — then [`Run::execute`]. A
//! one-shot run is a [`JobTable`] holding one job: submit, close admission,
//! run the rank engines until they drain, [`gather`] the [`JobOutcome`]. A
//! *resident* mesh (`sbc-serve`) keeps the same engines running
//! ([`run_jobs`]) and streams jobs through [`JobTable::submit`].
//!
//! A rank engine is a state machine, not a thread. One driver steps them
//! all: the ranks a call holds — an in-process mesh, or a process's one rank
//! ([`Run::execute_rank`]) — share `min(ranks × workers, cores)` threads,
//! and a rank is stepped when its inbox, the table or a timer marks it
//! runnable. No thread blocks in an inbox.

#![warn(missing_docs)]

mod drive;
pub mod exec;
pub mod jobs;
pub mod run;

pub use exec::{CommStats, ExecError};
pub use jobs::{run_jobs, JobEngineConfig, JobId, JobOutcome, JobTable, JobUpdate, Rejection};
pub use run::{gather, Run, RunOutput, RunResult};
// the kernel-backend selector is part of the run configuration surface
pub use sbc_kernels::{KernelBackend, Kernels, KERNELS_ENV};
