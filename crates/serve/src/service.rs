//! The resident service core: a warm mesh of rank engines, a warm planner
//! (whose cache holds each shape's plan; the task graph comes from
//! `sbc_taskgraph::memo`, built once per placement),
//! admission-controlled job submission and first-class observability.
//!
//! Telemetry is split in two planes. The *job path* (engines, job table)
//! updates `Arc`'d atomics and a cold-path event ring; the *scrape path*
//! ([`Service::stats_text`], [`Service::events_tail`]) reads those atomics
//! and renders text — it never takes the job-table state mutex, the ready
//! heap, or any engine lock, so a `paper top` polling the service costs
//! the job path nothing measurable.

use sbc_matrix::SymmetricTiledMatrix;
use sbc_net::{inproc_mesh, BufferPool, PoolStats};
use sbc_obs::{
    chrome_trace_from_spans, expo, Counter, EventLog, Gauge, Metrics, MetricsSnapshot, ObsEvent,
    SpanRing, TraceEvent,
};
use sbc_planner::{Op, Planner, PlannerConfig};
use sbc_runtime::jobs::{run_jobs, JobEngineConfig, JobId, JobOutcome, JobTable, Rejection};
use sbc_runtime::{gather, ExecError, KernelBackend, RunResult};
use sbc_simgrid::Platform;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-job trace spans retained (newest-first rotation); bounds the memory
/// a week-long service spends on [`Service::chrome_trace`].
const TRACE_SPANS: usize = 4096;

/// Lifecycle events retained in the structured event ring.
const EVENTS_CAPACITY: usize = 1024;

/// Sliding window for [`Service::jobs_per_sec`]: the rate decays to zero
/// this long after traffic stops.
const RATE_WINDOW: Duration = Duration::from_secs(30);

/// Shape of a resident service.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Mesh size: ranks kept resident (the planner plans for exactly this
    /// platform, so its cache stays valid for the service lifetime).
    pub nodes: usize,
    /// Steppers per rank: the most of the service's pooled threads one
    /// rank holds at once.
    pub workers: usize,
    /// Admission bound: jobs admitted and not yet finished.
    pub max_inflight: usize,
    /// Per-job no-progress watchdog (never fires on an idle rank).
    pub deadline: Option<Duration>,
    /// Planner tunables; the planner's cache is the service's only
    /// per-shape state, so its capacity bounds how many shapes keep their
    /// plan warm (graphs live in the process-wide `sbc_taskgraph::memo`,
    /// bounded by its own task budget).
    pub planner: PlannerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            nodes: 6,
            workers: 1,
            max_inflight: 16,
            deadline: None,
            planner: PlannerConfig::default(),
        }
    }
}

/// An admitted job's ticket.
#[derive(Debug, Clone, Copy)]
pub struct Submitted {
    /// Table-assigned job id, for [`Service::wait`].
    pub id: JobId,
    /// Whether planning was served from the warm plan cache.
    pub plan_cached: bool,
}

/// A resident factorization service: submit jobs from any thread, wait for
/// their outcomes, read the metrics, shut down once.
pub struct Service {
    pub(crate) table: Arc<JobTable<'static>>,
    planner: Planner,
    metrics: Arc<Metrics>,
    events: Arc<EventLog>,
    /// The thread that drives the resident mesh (and spawned the rest of
    /// its pool); `None` once joined.
    engines: Mutex<Option<JoinHandle<Result<(), ExecError>>>>,
    spans: SpanRing,
    throughput: Arc<Gauge>,
    started: Instant,
    /// Send-buffer pool the wire front encodes its replies through.
    reply_pool: BufferPool,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    pool_outstanding: Arc<Gauge>,
    /// Pool totals already folded into the counters (scrape-path only).
    pool_seen: Mutex<PoolStats>,
}

impl Service {
    /// Starts the resident mesh — its ranks stepped on `min(nodes ×
    /// workers, cores)` pooled threads, the only threads the mesh keeps —
    /// and binds the observability registry: `serve.jobs.*` counters, the
    /// `serve.job.latency` histogram, the `obs.drift.*` alarm counters and
    /// per-rank engine gauges all register eagerly here.
    pub fn start(cfg: ServeConfig) -> Arc<Service> {
        let metrics = Arc::new(Metrics::new());
        let events = Arc::new(EventLog::with_capacity(EVENTS_CAPACITY));
        let planner =
            Planner::with_config(Platform::bora(cfg.nodes), cfg.planner).with_metrics(&metrics);
        let table = Arc::new(JobTable::new(cfg.nodes, cfg.max_inflight));
        // the throughput ring must remember at least a window's worth of
        // completions at any rate worth telling apart
        table.bind_obs(&metrics, Arc::clone(&events), 4096);
        let engine_cfg = JobEngineConfig {
            workers: cfg.workers,
            deadline: cfg.deadline,
            // the default backend unless `SBC_KERNELS` names another; all
            // backends are bit-identical, so this only changes job latency
            kernels: KernelBackend::resolve(KernelBackend::default()),
        };
        let engines = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || run_jobs(&inproc_mesh(cfg.nodes), &table, engine_cfg))
        };
        Arc::new(Service {
            table,
            planner,
            throughput: metrics.gauge("serve.jobs_per_sec"),
            // registered eagerly so an idle scrape still shows the pool
            // plane at zero, exactly like the serve.jobs.* counters
            pool_hits: metrics.counter("net.pool.hit"),
            pool_misses: metrics.counter("net.pool.miss"),
            pool_outstanding: metrics.gauge("net.pool.outstanding"),
            pool_seen: Mutex::new(PoolStats::default()),
            reply_pool: BufferPool::default(),
            metrics,
            events,
            engines: Mutex::new(Some(engines)),
            spans: SpanRing::with_capacity(TRACE_SPANS),
            started: Instant::now(),
        })
    }

    /// Plans (warm cache first), takes the shape's shared task graph from
    /// the planner, and submits one job, which every rank picks up at once.
    /// The ticket reports whether the plan was cached. Admission counters
    /// and lifecycle events are recorded by the job table itself.
    pub fn submit(
        &self,
        op: Op,
        nt: usize,
        b: usize,
        seed: u64,
        seed_rhs: u64,
        prio: u8,
    ) -> Result<Submitted, Rejection> {
        let (plan, graph) = self.planner.plan_with_graph(op, nt, b);
        let id = self.table.submit(graph, b, seed, seed_rhs, prio)?;
        Ok(Submitted {
            id,
            plan_cached: plan.cached,
        })
    }

    /// Blocks until `id` finishes. Completion counters, latency and drift
    /// are recorded by the job table the moment the last rank reports; this
    /// method only adds the per-job trace span and refreshes the
    /// throughput gauge.
    pub fn wait(&self, id: JobId) -> Result<JobOutcome, ExecError> {
        let out = self.table.wait(id)?;
        self.throughput.set(self.jobs_per_sec());
        let end = self.started.elapsed().as_secs_f64();
        self.spans.push(TraceEvent {
            task: id,
            node: 0,
            start: (end - out.elapsed.as_secs_f64()).max(0.0),
            end,
        });
        Ok(out)
    }

    /// Assembles a POTRF job's lower-triangular factor from its outcome; the
    /// job's own graph (2.5D slices included) says where each tile is.
    ///
    /// # Panics
    /// Panics if `out` is not the outcome of a symmetric-result job of
    /// `nt` tiles.
    pub fn gather_potrf(
        &self,
        nt: usize,
        b: usize,
        out: &JobOutcome,
    ) -> Result<SymmetricTiledMatrix, ExecError> {
        assert_eq!(out.graph().nt, nt, "job {} is not of this shape", out.id);
        match gather(out.graph(), &out.tiles, b)? {
            RunResult::Factor(factor) => Ok(factor),
            other => panic!("job {} produced {other:?}, not a factor", out.id),
        }
    }

    /// The service's metrics registry (`serve.jobs.*`, `serve.job.latency`,
    /// `obs.drift.*`, `planner.cache.{hit,miss}`, `jobs.rank<r>.*`,
    /// `serve.jobs_per_sec`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The shared planner (its cache statistics are also in the metrics).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Jobs completed since start (lock-free).
    pub fn completed(&self) -> u64 {
        self.table.completed()
    }

    /// Completed jobs per second over the sliding window — an
    /// idle-overnight service reads `0`, not a forever-decaying average.
    pub fn jobs_per_sec(&self) -> f64 {
        self.table.completion_rate(RATE_WINDOW)
    }

    /// The send-buffer pool the wire front ([`crate::serve`]) encodes its
    /// replies through. Its checkout accounting surfaces as the
    /// `net.pool.{hit,miss,outstanding}` metrics.
    pub(crate) fn reply_pool(&self) -> &BufferPool {
        &self.reply_pool
    }

    /// Folds the reply pool's checkout totals into the `net.pool.*`
    /// instruments (delta adds — counters stay monotone across scrapes).
    fn refresh_pool_metrics(&self) {
        let s = self.reply_pool.stats();
        let mut seen = lock(&self.pool_seen);
        self.pool_hits.add(s.hits.saturating_sub(seen.hits));
        self.pool_misses.add(s.misses.saturating_sub(seen.misses));
        *seen = s;
        drop(seen);
        self.pool_outstanding.set(s.outstanding as f64);
    }

    /// An atomically-taken snapshot of every instrument, with the
    /// throughput gauge and the `net.pool.*` instruments refreshed first
    /// (so a scrape sees the current sliding-window rate and pool state,
    /// not the last `wait`'s). Touches no lock shared with the engine hot
    /// loop.
    pub(crate) fn stats(&self) -> MetricsSnapshot {
        self.throughput.set(self.jobs_per_sec());
        self.refresh_pool_metrics();
        self.metrics.snapshot()
    }

    /// [`Service::stats`] rendered as Prometheus-style exposition text —
    /// what a [`sbc_net::wire::Frame::StatsReply`] carries.
    pub(crate) fn stats_text(&self) -> String {
        expo::render(&self.stats())
    }

    /// The newest `max` lifecycle events, oldest first.
    pub(crate) fn events_tail(&self, max: usize) -> Vec<ObsEvent> {
        self.events.tail(max)
    }

    /// One span per completed job (the newest 4096 of them), as a Chrome
    /// trace JSON string.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.snapshot();
        chrome_trace_from_spans(&spans, |e| format!("job {}", e.task))
    }

    /// Drains admitted jobs, stops the engines and joins them. Returns the
    /// first failing rank's error, if any.
    pub fn shutdown(&self) -> Result<(), ExecError> {
        self.table.shutdown();
        match lock(&self.engines).take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(e),
            Some(Err(_)) => Err(ExecError::Remote),
        }
    }
}
