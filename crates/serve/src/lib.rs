//! # sbc-serve — a resident multi-job factorization service
//!
//! A one-shot `sbc_runtime::Run` meshes its ranks up, factorizes one
//! matrix, gathers, exits. For a stream of small and mid-size problems that
//! shape is backwards — mesh setup, session handshakes and distribution
//! planning dominate the actual factorization. This crate keeps all of it
//! **warm**, on the same task engine a one-shot run uses:
//!
//! - [`Service`] owns a resident in-process mesh (its rank engines stepped
//!   by [`sbc_runtime::jobs::run_jobs`] on a small shared pool of
//!   threads, told of each admission), a shared
//!   [`sbc_planner::Planner`] whose cache makes the second job of any
//!   shape skip the search and share the first one's task graph. Jobs
//!   stream through the mesh
//!   concurrently — tile traffic is namespaced by job id — with admission
//!   control bounding the in-flight set and `(job priority, task
//!   priority)` ordering the shared ready heap.
//! - [`serve`] exposes a service over the existing CRC-checked wire
//!   protocol (UDS or TCP): clients speak
//!   [`sbc_net::wire::Frame::JobSubmit`] / `JobTiles` / `JobResult` /
//!   `JobStatus` / `Shutdown` from separate OS processes. A job's factor
//!   streams back while the job runs: each tile leaves in a `JobTiles`
//!   frame once its last writer ran, and the closing `JobResult` carries
//!   the rest.
//! - [`Client`] is the matching blocking client, plus bit-exact
//!   validation helpers ([`potrf_reference`], [`factor_matches`]) so
//!   every caller can check the returned factor against the sequential
//!   algorithm.
//!
//! Observability is first-class and **wire-scrapeable**: the service's
//! [`sbc_obs::Metrics`] registry carries `serve.jobs.*` counters,
//! `serve.reply.{streamed,tail}` (factor tiles sent during and after their
//! jobs), the
//! `serve.job.latency` histogram, `obs.drift.*` comm-drift alarms,
//! `planner.cache.{hit,miss}` from the planner, per-rank engine gauges
//! (`jobs.rank<r>.{ready,inflight,busy}`) and a sliding-window
//! [`Service::jobs_per_sec`] throughput figure. Any client can scrape it
//! live over the same socket — [`Client::stats`] /
//! [`Client::stats_text`] return a Prometheus-style exposition
//! ([`sbc_obs::expo`]) answered from an atomically-taken snapshot, and
//! [`Client::events`] tails the structured job-lifecycle
//! [`sbc_obs::EventLog`]; neither path touches a lock the engine hot loop
//! holds. Per-job trace spans rotate in a bounded ring and export as a
//! Chrome trace ([`Service::chrome_trace`]).

#![warn(missing_docs)]

mod client;
mod server;
mod service;

pub use client::{factor_matches, potrf_reference, Client, ClientError, JobReply, JobRequest};
pub use sbc_net::wire::EventRecord;
pub use server::{serve, serve_on};
pub use service::{ServeConfig, Service, Submitted};
