//! # sbc-runtime — a shared-memory distributed runtime for task graphs
//!
//! The paper's experiments execute Chameleon task graphs over StarPU with
//! MPI between nodes. This crate is the functional substitute: every
//! "node" is a small pool of worker threads with *private* tile storage,
//! the "network" is a pluggable [`sbc_net::Transport`] — in-process
//! channels by default ([`Executor::try_run`]), real TCP/UDS sockets with
//! one OS process per rank through [`Executor::run_rank`] /
//! [`Run::execute_rank`] — and every tile that crosses a node boundary is
//! counted — so the runtime simultaneously
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
//! Within a node, ready tasks drain through a shared heap ordered by
//! critical-path priorities ([`Policy::CriticalPath`]) — the StarPU list
//! scheduler the paper runs — by any `sbc_topo::Scheduler`, or in
//! submission order.
//!
//! There is **one task engine** ([`jobs`]): a [`JobTable`] hands jobs to one
//! rank engine per rank, which schedules, executes, sends, receives and
//! watches for stalls. It has two front ends. A *one-shot* run —
//! [`Executor`], hence [`Run`] and [`PlannedExecutor`] — is a table holding
//! one job: submit, close admission, run the engines until they drain,
//! convert the [`JobOutcome`] into an [`ExecOutcome`]. A *resident* mesh
//! (`sbc-serve`) keeps the same engines running ([`run_jobs_rank`]) and
//! streams jobs through [`JobTable::submit`].
//!
//! The high-level entry point is the [`Run`] builder: pick a workload
//! ([`Run::potrf`], [`Run::posv`], …), set tile size, seeds, worker count,
//! policy, an optional [`sbc_obs::Recorder`] (task spans per worker,
//! per-message events, dependency waits, scheduler gauges) or a custom
//! tile provider, then [`Run::execute`]. Lower-level control — your own
//! graph, your own gather — goes through [`Executor::builder`];
//! planner-produced plans run via [`PlannedExecutor`].

#![warn(missing_docs)]

pub mod executor;
pub mod jobs;
pub mod planned;
pub mod run;

pub use executor::{
    CommStats, ExecError, ExecOutcome, Executor, ExecutorBuilder, FaultPolicy, Policy, TileProvider,
};
pub use jobs::{
    run_jobs_rank, JobEngineConfig, JobId, JobOutcome, JobSpec, JobTable, Rejection,
    JOB_LATENCY_BOUNDS,
};
pub use planned::{run_plan, PlannedExecutor};
pub use run::{gather_symmetric, Run, RunOutput, RunResult, Workload};
// the kernel-backend selector is part of the run configuration surface
pub use sbc_kernels::{KernelBackend, Kernels, KERNELS_ENV};
