//! The task engine: the one scheduler in `sbc-runtime`.
//!
//! Every execution — a one-shot [`crate::Run`] or a resident `sbc-serve`
//! mesh streaming jobs for days — is a [`JobTable`] plus one rank engine per
//! rank. What a job *is* lives in `JobSpec`, how engines run it in
//! [`JobEngineConfig`]; every front end writes into those two:
//!
//! - A [`JobTable`] is the in-process control plane: clients submit
//!   `JobSpec`s (admission-controlled), rank engines pick them up, and
//!   finished [`JobOutcome`]s are published back with exact per-job
//!   [`CommStats`]. Only tile payloads ever cross the transport; control
//!   stays in shared memory because every deployment shape (in-process
//!   mesh, a socket mesh held in one process, one process per rank with a
//!   rank-local table) keeps a rank and its table in one process.
//! - A rank engine is a state machine over a ready heap keyed by **(job
//!   priority, task priority)**, with per-job tile stores namespaced by the
//!   job id that [`sbc_net::Payload`] carries, so concurrent jobs share the
//!   mesh without clobbering each other. Its one entry point, `Engine::step`,
//!   picks up admissions, absorbs arrivals and runs a bounded number of
//!   ready steps, then returns; it never blocks, and the engine lock is held
//!   only for heap and counter updates, never during kernels or sends.
//!   Threads are the driver's business (`crate::drive`): [`run_jobs`] steps
//!   the ranks of the endpoints it is given on one shared pool.
//!
//! A one-shot run is the degenerate table: the front end submits its single
//! job, closes admission, then starts the engines, which register the job
//! on their first step and drain once it is done.
//!
//! The liveness watchdog arms **per job** and reads only the table's
//! injected [`Clock`]: the no-progress clock runs while this rank has jobs
//! in flight and is re-armed at every job registration, so an idle resident
//! rank waiting for its next job never trips [`ExecError::Stalled`].

use crate::drive;
use crate::exec::{default_original, run_kernel, CommStats, ExecError, TileProvider};
use sbc_dist::comm::messages_to_bytes;
use sbc_kernels::{KernelBackend, KernelError, Tile};
use sbc_net::{Clock, Message, NodeId, Payload, RealClock, Transport};
use sbc_obs::{
    Counter, EventKind, EventLog, FaultKind, Gauge, GaugeKind, Histogram, Metrics, NodeRecorder,
    RateWindow, Recorder, Severity,
};
use sbc_taskgraph::{Input, RankView, Source, TaskGraph, TaskId, TaskKind, TileRef, TileSpace};
use sbc_topo::{CriticalPath, SchedCtx, Scheduler};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

/// Identifies one job across the table, the engines and the wire.
pub type JobId = u32;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What a job is, shared between the table and every rank engine: the one
/// description [`crate::Run`] and [`JobTable::submit`] both fill.
pub(crate) struct JobSpec<'a> {
    /// Table-assigned id; also the namespace tag on every payload.
    pub id: JobId,
    /// The task graph to execute, shared between same-shape jobs.
    pub(crate) graph: Arc<TaskGraph>,
    /// Tile dimension.
    pub b: usize,
    /// SPD input seed.
    pub seed: u64,
    /// Right-hand-side seed.
    pub seed_rhs: u64,
    /// Job priority: higher jumps the shared ready heap.
    pub prio: u8,
    /// Ready-heap task priorities as raw f32 bits (non-negative floats
    /// order like their bit patterns).
    pub(crate) prio_bits: Vec<u32>,
    /// Original-tile contents; `None` is the seeded generators.
    pub(crate) provider: Option<&'a TileProvider<'a>>,
}

impl<'a> JobSpec<'a> {
    /// Describes a job, its tasks ranked by `sched`. Task costs are flop
    /// counts at tile size `b` and the communication cost is one GEMM's
    /// flops (a dimensionless surrogate: only relative magnitudes matter for
    /// ordering). `provider: None` is the seeded generators. The table
    /// assigns the id at admission.
    pub(crate) fn new(
        graph: Arc<TaskGraph>,
        b: usize,
        (seed, seed_rhs): (u64, u64),
        prio: u8,
        sched: &dyn Scheduler,
        provider: Option<&'a TileProvider<'a>>,
    ) -> Self {
        let costs: Vec<f64> = graph.tasks().iter().map(|t| t.kind.flops(b)).collect();
        let ctx = SchedCtx {
            graph: &graph,
            task_cost: &costs,
            comm_cost: sbc_kernels::flops::flops_gemm(b),
        };
        let prio_bits = sched.ranks(&ctx).into_iter().map(f32::to_bits).collect();
        JobSpec {
            id: 0,
            graph,
            b,
            seed,
            seed_rhs,
            prio,
            prio_bits,
            provider,
        }
    }

    fn task_prio(&self, t: TaskId) -> u32 {
        self.prio_bits.get(t as usize).copied().unwrap_or(0)
    }

    /// The original (input) content of tile `r`; a provider's tile of the
    /// wrong dimension is the caller's error, not a panic.
    fn original(&self, r: TileRef) -> Result<Tile, KernelError> {
        let Some(provider) = self.provider else {
            return Ok(default_original(
                r,
                &self.graph,
                self.b,
                self.seed,
                self.seed_rhs,
            ));
        };
        let t = provider(r);
        if t.dim() != self.b {
            return Err(KernelError::DimensionMismatch {
                expected: self.b,
                found: t.dim(),
            });
        }
        Ok(t)
    }
}

/// One finished job: the merged tile stores of every rank plus the job's
/// own communication statistics.
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    graph: Arc<TaskGraph>,
    /// Final tile values, merged across ranks.
    pub tiles: HashMap<TileRef, Tile>,
    /// This job's communication (payloads carrying its job id only).
    pub stats: CommStats,
    /// From admission to the last rank finishing, on the table's clock.
    pub elapsed: Duration,
}

impl JobOutcome {
    /// The graph the job executed — what [`crate::gather`] reads the shape
    /// of the result from.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The in-flight bound is reached; retry after a completion.
    QueueFull {
        /// Jobs currently admitted and not yet finished.
        inflight: usize,
        /// The configured bound.
        max: usize,
    },
    /// The table is draining; no further work is accepted.
    ShuttingDown,
    /// The mesh died (a rank failed); the service must be restarted.
    Dead,
    /// The job's graph places tasks on more ranks than the mesh has.
    MeshTooSmall {
        /// Nodes the graph places tasks on.
        needs: usize,
        /// Ranks the mesh has.
        ranks: usize,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { inflight, max } => {
                write!(f, "queue full: {inflight} jobs in flight (max {max})")
            }
            Rejection::ShuttingDown => write!(f, "service is shutting down"),
            Rejection::Dead => write!(f, "mesh failed; service needs a restart"),
            Rejection::MeshTooSmall { needs, ranks } => {
                write!(f, "the job needs {needs} ranks, the mesh has {ranks}")
            }
        }
    }
}

/// Admission→completion latency buckets (seconds) for `serve.job.latency`.
pub(crate) const JOB_LATENCY_BOUNDS: [f64; 10] =
    [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0];

/// Per-rank live engine gauges, published from the engine loop as plain
/// atomic stores (the scrape side reads them without any engine lock).
struct RankObs {
    ready: Arc<Gauge>,
    pending: Arc<Gauge>,
    inflight: Arc<Gauge>,
    busy: Arc<Gauge>,
}

/// The table's telemetry bundle, bound once via [`JobTable::bind_obs`].
/// Every instrument is registered eagerly so a scrape before any traffic
/// still shows the full vocabulary at zero.
struct TableObs {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    done: Arc<Counter>,
    failed: Arc<Counter>,
    latency: Arc<Histogram>,
    drift_ok: Arc<Counter>,
    drift_messages: Arc<Counter>,
    drift_bytes: Arc<Counter>,
    inflight: Arc<Gauge>,
    rate: RateWindow,
    ranks: Vec<Arc<RankObs>>,
    events: Arc<EventLog>,
}

impl TableObs {
    /// Records one completed job: throughput, latency, lifecycle event and
    /// the continuous comm-drift check against the analytic prediction. A
    /// non-zero drift counter is a standing correctness alarm.
    fn job_done(&self, id: JobId, elapsed: Duration, measured: (u64, u64), expected: (u64, u64)) {
        self.done.inc();
        self.rate.record();
        self.latency.observe(elapsed.as_secs_f64());
        let (msgs, bytes) = measured;
        let (exp_msgs, exp_bytes) = expected;
        if msgs != exp_msgs {
            self.drift_messages.inc();
        }
        if bytes != exp_bytes {
            self.drift_bytes.inc();
        }
        if msgs == exp_msgs && bytes == exp_bytes {
            self.drift_ok.inc();
            self.events.push(
                Severity::Info,
                EventKind::Done,
                Some(id),
                format!(
                    "{msgs} msgs / {bytes} B as planned, {:.4}s",
                    elapsed.as_secs_f64()
                ),
            );
        } else {
            self.events.push(
                Severity::Warn,
                EventKind::Done,
                Some(id),
                format!(
                    "comm drift: measured {msgs} msgs / {bytes} B, planned {exp_msgs} / {exp_bytes}"
                ),
            );
        }
    }
}

/// Per-job accumulator while ranks report in.
struct JobAccum {
    graph: Arc<TaskGraph>,
    /// Each reporting rank's tile store, handed over whole.
    stores: Vec<HashMap<TileRef, Tile>>,
    sent_per_node: Vec<u64>,
    recv_per_node: Vec<u64>,
    bytes_per_node: Vec<u64>,
    admitted: Instant,
    /// Analytic `(messages, bytes)` the finished job must have measured.
    expected: (u64, u64),
    /// Whether the `Started` lifecycle event has fired (first rank pickup).
    started_emitted: bool,
}

/// A finished job as the last rank left it: the per-rank tile stores still
/// unmerged, the job's statistics and its admission-to-completion time.
struct Finished {
    graph: Arc<TaskGraph>,
    stores: Vec<HashMap<TileRef, Tile>>,
    stats: CommStats,
    elapsed: Duration,
}

struct TableState<'a> {
    next_id: JobId,
    /// Admitted specs each rank engine has not yet picked up.
    incoming: Vec<VecDeque<Arc<JobSpec<'a>>>>,
    accum: HashMap<JobId, JobAccum>,
    /// Finished jobs nobody has waited for yet.
    done: HashMap<JobId, Finished>,
    inflight: usize,
    completed: u64,
    shutdown: bool,
    /// The failure that killed the mesh; everything in flight fails with
    /// it. A causal error replaces an [`ExecError::Remote`] echo of it.
    dead: Option<ExecError>,
}

/// The in-process control plane of a mesh: admission, job hand-off to the
/// rank engines, result accumulation and completion signalling. One table
/// serves one mesh for its whole lifetime. The lifetime is that of the data
/// its jobs borrow: `'static` for a resident service.
pub struct JobTable<'a> {
    n_nodes: usize,
    /// Rank reports that complete a job: every rank of an in-process mesh,
    /// one for the rank-local table of a multi-process rank.
    reports: usize,
    max_inflight: usize,
    state: Mutex<TableState<'a>>,
    cv: Condvar,
    /// Bumped by every `submit` and `shutdown`, so a rank engine takes the
    /// state mutex only when there is something new to pick up.
    generation: AtomicU64,
    /// Told of every admission and of the shutdown: the driver that steps
    /// the table's ranks marks them runnable here.
    on_admit: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Time source of admission stamps and of every engine's watchdog.
    pub(crate) clock: Arc<dyn Clock>,
    /// Lock-free mirrors of `TableState::{inflight, completed}` so a
    /// telemetry scrape never touches the state mutex the engines use.
    inflight_now: AtomicU64,
    completed_ever: AtomicU64,
    obs: OnceLock<TableObs>,
}

impl<'a> JobTable<'a> {
    /// A table for an `n_nodes` mesh admitting at most `max_inflight`
    /// concurrent jobs (clamped to at least 1).
    pub fn new(n_nodes: usize, max_inflight: usize) -> Self {
        Self::with_clock(n_nodes, n_nodes, max_inflight, Arc::new(RealClock))
    }

    /// [`JobTable::new`] on an injected clock, completing each job after
    /// `reports` rank reports.
    pub(crate) fn with_clock(
        n_nodes: usize,
        reports: usize,
        max_inflight: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        JobTable {
            n_nodes,
            reports,
            max_inflight: max_inflight.max(1),
            state: Mutex::new(TableState {
                next_id: 0,
                incoming: (0..n_nodes).map(|_| VecDeque::new()).collect(),
                accum: HashMap::new(),
                done: HashMap::new(),
                inflight: 0,
                completed: 0,
                shutdown: false,
                dead: None,
            }),
            cv: Condvar::new(),
            generation: AtomicU64::new(0),
            on_admit: OnceLock::new(),
            clock,
            inflight_now: AtomicU64::new(0),
            completed_ever: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// The admission bound: most jobs admitted and not yet finished.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Binds the table (and every rank engine started against it) to a
    /// metrics registry and an event log. Call once, before engines start;
    /// later calls are ignored. Registers the full instrument vocabulary
    /// eagerly — `serve.jobs.{submitted,rejected,done,failed}`,
    /// `serve.jobs.inflight`, the `serve.job.latency` histogram, the
    /// `obs.drift.{ok,messages,bytes}` alarm counters and per-rank
    /// `jobs.rank<r>.{ready,pending,inflight,busy}` gauges — so a scrape
    /// before any traffic shows them all at zero. `rate_slots` bounds the
    /// sliding-window throughput ring (events remembered for
    /// [`JobTable::completion_rate`]).
    pub fn bind_obs(&self, metrics: &Metrics, events: Arc<EventLog>, rate_slots: usize) {
        let ranks = (0..self.n_nodes)
            .map(|r| {
                Arc::new(RankObs {
                    ready: metrics.gauge(&format!("jobs.rank{r}.ready")),
                    pending: metrics.gauge(&format!("jobs.rank{r}.pending")),
                    inflight: metrics.gauge(&format!("jobs.rank{r}.inflight")),
                    busy: metrics.gauge(&format!("jobs.rank{r}.busy")),
                })
            })
            .collect();
        let _ = self.obs.set(TableObs {
            submitted: metrics.counter("serve.jobs.submitted"),
            rejected: metrics.counter("serve.jobs.rejected"),
            done: metrics.counter("serve.jobs.done"),
            failed: metrics.counter("serve.jobs.failed"),
            latency: metrics.histogram("serve.job.latency", &JOB_LATENCY_BOUNDS),
            drift_ok: metrics.counter("obs.drift.ok"),
            drift_messages: metrics.counter("obs.drift.messages"),
            drift_bytes: metrics.counter("obs.drift.bytes"),
            inflight: metrics.gauge("serve.jobs.inflight"),
            rate: RateWindow::new(rate_slots.max(1)),
            ranks,
            events,
        });
    }

    /// Jobs per second over the trailing `window`, measured at completion
    /// times. Zero when [`JobTable::bind_obs`] was never called. Lock-free.
    pub fn completion_rate(&self, window: Duration) -> f64 {
        self.obs.get().map_or(0.0, |o| o.rate.rate(window))
    }

    /// Installs the admission hook: `hook` runs after every admission and
    /// after the shutdown, outside the table lock. The first hook stays.
    pub(crate) fn on_admit(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let _ = self.on_admit.set(hook);
    }

    fn admitted(&self) {
        if let Some(hook) = self.on_admit.get() {
            hook();
        }
    }

    fn rank_obs(&self, rank: NodeId) -> Option<Arc<RankObs>> {
        self.obs
            .get()
            .and_then(|o| o.ranks.get(rank as usize))
            .map(Arc::clone)
    }

    /// Submits one job, its tasks in critical-path order within the job (the
    /// graph-level half of the heap key; `prio` is the job-level half).
    /// Returns the job id, or the admission verdict when the queue is full
    /// or the table is draining.
    pub fn submit(
        &self,
        graph: Arc<TaskGraph>,
        b: usize,
        seed: u64,
        seed_rhs: u64,
        prio: u8,
    ) -> Result<JobId, Rejection> {
        // the analytic prediction the finished job is checked against: the
        // graph's exact message count (== the planner's cost model) and the
        // tile-payload bytes those messages carry
        let msgs = graph.count_messages();
        let expected = (msgs, messages_to_bytes(msgs, b));
        self.submit_expecting(graph, b, seed, seed_rhs, prio, expected)
    }

    /// [`JobTable::submit`] with an explicit `(messages, bytes)` comm
    /// prediction instead of the graph's own analytic count. The drift
    /// monitor compares the job's measured [`CommStats`] against this at
    /// completion, so planting a wrong prediction here is how tests prove
    /// the `obs.drift.*` alarms fire.
    pub(crate) fn submit_expecting(
        &self,
        graph: Arc<TaskGraph>,
        b: usize,
        seed: u64,
        seed_rhs: u64,
        prio: u8,
        expected: (u64, u64),
    ) -> Result<JobId, Rejection> {
        let spec = JobSpec::new(graph, b, (seed, seed_rhs), prio, &CriticalPath, None);
        self.submit_spec(spec, expected)
    }

    /// Admits `spec` under a table-assigned id. `expected` is the
    /// `(messages, bytes)` the drift monitor holds the finished job to;
    /// only an obs-bound table reads it.
    pub(crate) fn submit_spec(
        &self,
        mut spec: JobSpec<'a>,
        expected: (u64, u64),
    ) -> Result<JobId, Rejection> {
        let needs = spec.graph.num_nodes();
        let mut st = lock(&self.state);
        let verdict = if needs > self.n_nodes {
            Some(Rejection::MeshTooSmall {
                needs,
                ranks: self.n_nodes,
            })
        } else if st.dead.is_some() {
            Some(Rejection::Dead)
        } else if st.shutdown {
            Some(Rejection::ShuttingDown)
        } else if st.inflight >= self.max_inflight {
            Some(Rejection::QueueFull {
                inflight: st.inflight,
                max: self.max_inflight,
            })
        } else {
            None
        };
        if let Some(rej) = verdict {
            drop(st);
            if let Some(obs) = self.obs.get() {
                obs.rejected.inc();
                obs.events
                    .push(Severity::Warn, EventKind::Rejected, None, rej.to_string());
            }
            return Err(rej);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.inflight += 1;
        let inflight = st.inflight;
        spec.id = id;
        let (nt, b, prio) = (spec.graph.nt, spec.b, spec.prio);
        let spec = Arc::new(spec);
        st.accum.insert(
            id,
            JobAccum {
                graph: spec.graph.clone(),
                stores: Vec::with_capacity(self.reports),
                sent_per_node: vec![0; self.n_nodes],
                recv_per_node: vec![0; self.n_nodes],
                bytes_per_node: vec![0; self.n_nodes],
                admitted: self.clock.now(),
                expected,
                started_emitted: false,
            },
        );
        for q in &mut st.incoming {
            q.push_back(Arc::clone(&spec));
        }
        self.generation.fetch_add(1, Ordering::Release);
        drop(st);
        self.admitted();
        self.inflight_now.store(inflight as u64, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.submitted.inc();
            obs.inflight.set(inflight as f64);
            obs.events.push(
                Severity::Info,
                EventKind::Admitted,
                Some(id),
                format!("nt={nt} b={b} prio={prio}"),
            );
        }
        self.cv.notify_all();
        Ok(id)
    }

    /// Blocks until `id` finishes, returning its outcome — or the engine
    /// failure that killed the mesh while it was in flight. The ranks' tile
    /// stores are merged here, on the waiter's thread, so no rank engine
    /// holds the table lock per tile.
    pub fn wait(&self, id: JobId) -> Result<JobOutcome, ExecError> {
        let mut st = lock(&self.state);
        let Finished {
            graph,
            stores,
            stats,
            elapsed,
        } = loop {
            if let Some(finished) = st.done.remove(&id) {
                break finished;
            }
            if let Some(e) = &st.dead {
                return Err(e.clone());
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        drop(st);
        let mut tiles = HashMap::with_capacity(stores.iter().map(HashMap::len).sum());
        for (r, t) in stores.into_iter().flatten() {
            let prev = tiles.insert(r, t);
            debug_assert!(prev.is_none(), "tile {r:?} reported by two ranks");
        }
        Ok(JobOutcome {
            id,
            graph,
            tiles,
            stats,
            elapsed,
        })
    }

    /// Stops admitting jobs; engines exit once everything already admitted
    /// has drained.
    pub fn shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.generation.fetch_add(1, Ordering::Release);
        self.admitted();
        self.cv.notify_all();
    }

    /// Jobs admitted and not yet finished. Lock-free (reads an atomic
    /// mirror), so telemetry scrapes never contend with the engines.
    pub fn inflight(&self) -> usize {
        self.inflight_now.load(Ordering::Relaxed) as usize
    }

    /// Jobs completed since the table was built. Lock-free.
    pub fn completed(&self) -> u64 {
        self.completed_ever.load(Ordering::Relaxed)
    }

    /// Engine side: drains `rank`'s pending registrations and reports
    /// whether admission is closed.
    fn take_incoming(&self, rank: NodeId) -> (Vec<Arc<JobSpec<'a>>>, bool) {
        let mut st = lock(&self.state);
        let q = &mut st.incoming[rank as usize];
        let specs: Vec<Arc<JobSpec<'a>>> = q.drain(..).collect();
        // the first rank to pick a job up marks it started
        let mut started: Vec<JobId> = Vec::new();
        for spec in &specs {
            if let Some(acc) = st.accum.get_mut(&spec.id) {
                if !acc.started_emitted {
                    acc.started_emitted = true;
                    started.push(spec.id);
                }
            }
        }
        let shutdown = st.shutdown;
        drop(st);
        if let Some(obs) = self.obs.get() {
            for id in started {
                obs.events.push(
                    Severity::Info,
                    EventKind::Started,
                    Some(id),
                    format!("picked up by rank {rank}"),
                );
            }
        }
        (specs, shutdown)
    }

    /// Engine side: `rank`'s share of a job is finished. The final rank to
    /// report completes the job and wakes the waiters.
    fn rank_done(&self, rank: NodeId, c: Completion) {
        let id = c.id;
        let mut st = lock(&self.state);
        let Some(acc) = st.accum.get_mut(&id) else {
            return; // job already failed via poison
        };
        acc.sent_per_node[rank as usize] = c.sent;
        acc.bytes_per_node[rank as usize] = c.sent_bytes;
        acc.recv_per_node[rank as usize] = c.applied;
        acc.stores.push(c.tiles);
        if acc.stores.len() == self.reports {
            let acc = st.accum.remove(&id).expect("accumulator present");
            let stats =
                CommStats::from_per_node(acc.sent_per_node, acc.recv_per_node, acc.bytes_per_node);
            let measured = (stats.messages, stats.bytes);
            let expected = acc.expected;
            let elapsed = self.clock.now().saturating_duration_since(acc.admitted);
            let (graph, stores) = (acc.graph, acc.stores);
            st.done.insert(
                id,
                Finished {
                    graph,
                    stores,
                    stats,
                    elapsed,
                },
            );
            st.inflight -= 1;
            st.completed += 1;
            let inflight = st.inflight;
            drop(st);
            self.inflight_now.store(inflight as u64, Ordering::Relaxed);
            self.completed_ever.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.obs.get() {
                obs.inflight.set(inflight as f64);
                obs.job_done(id, elapsed, measured, expected);
            }
            self.cv.notify_all();
        }
    }

    /// Engine side: the mesh failed. Every in-flight job fails with the
    /// originating error; future submissions are rejected.
    fn poison(&self, e: ExecError) {
        let mut st = lock(&self.state);
        let first = st.dead.is_none();
        // a peer's `Remote` echo must never stand in for the causal error
        if first || (st.dead == Some(ExecError::Remote) && e != ExecError::Remote) {
            st.dead = Some(e.clone());
        }
        let mut failed: Vec<JobId> = st.accum.keys().copied().collect();
        failed.sort_unstable();
        st.inflight = 0;
        st.accum.clear();
        for q in &mut st.incoming {
            q.clear();
        }
        drop(st);
        self.inflight_now.store(0, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.inflight.set(0.0);
            if first {
                if let ExecError::Stalled { rank, .. } = &e {
                    obs.events.push(
                        Severity::Error,
                        EventKind::Stalled,
                        None,
                        format!("rank {rank} watchdog: {e}"),
                    );
                }
                obs.failed.add(failed.len() as u64);
                for id in failed {
                    obs.events
                        .push(Severity::Error, EventKind::Failed, Some(id), e.to_string());
                }
            }
        }
        self.cv.notify_all();
    }
}

/// One rank engine's knobs.
#[derive(Debug, Clone, Copy)]
pub struct JobEngineConfig {
    /// Steppers per rank (at least 1): the most pooled threads one rank
    /// may hold at once under [`run_jobs`].
    pub workers: usize,
    /// Per-job no-progress watchdog; `None` disables it. The clock only
    /// runs while this rank has jobs in flight.
    pub deadline: Option<Duration>,
    /// Kernel backend the pool's workers dispatch through. All backends
    /// produce bit-identical tiles; callers should pass it through
    /// [`sbc_kernels::KernelBackend::resolve`] so `SBC_KERNELS` wins.
    pub kernels: KernelBackend,
}

impl Default for JobEngineConfig {
    fn default() -> Self {
        JobEngineConfig {
            workers: 1,
            deadline: None,
            kernels: KernelBackend::default(),
        }
    }
}

/// The tiles one rank holds for one job: a table indexed by
/// [`TileSpace::slot`], as long as the job's graph says a table must be.
struct TileStore {
    space: TileSpace,
    slots: Vec<Option<Tile>>,
    occupied: usize,
}

impl TileStore {
    fn new(graph: &TaskGraph) -> Self {
        TileStore {
            space: graph.tile_space(),
            slots: vec![None; graph.tile_slots()],
            occupied: 0,
        }
    }

    fn get(&self, r: TileRef) -> Option<&Tile> {
        self.slots[self.space.slot(r)].as_ref()
    }

    fn take(&mut self, r: TileRef) -> Option<Tile> {
        let tile = self.slots[self.space.slot(r)].take();
        self.occupied -= tile.is_some() as usize;
        tile
    }

    fn put(&mut self, r: TileRef, tile: Tile) {
        let prev = self.slots[self.space.slot(r)].replace(tile);
        self.occupied += prev.is_none() as usize;
    }

    /// Empties the store into a map under the names the rest of the system
    /// uses — once per rank per job, when the rank reports.
    fn drain(&mut self) -> HashMap<TileRef, Tile> {
        let mut tiles = HashMap::with_capacity(self.occupied);
        for (slot, tile) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            if let Some(tile) = tile {
                tiles.insert(self.space.tile(slot), tile);
            }
        }
        self.occupied = 0;
        tiles
    }
}

/// What a worker needs to run a job's tasks outside the engine lock: the
/// spec, this rank's view of its graph and the job-private tile stores —
/// the namespace that lets concurrent jobs share one mesh. `local` holds
/// tiles this rank owns for the job, `cache` holds remote arrivals, one
/// slot per remote input of the view, from arrival until the input's last
/// local reader ran.
struct JobCtx<'a> {
    spec: Arc<JobSpec<'a>>,
    me: NodeId,
    local: RwLock<TileStore>,
    cache: RwLock<Vec<Option<Tile>>>,
}

impl JobCtx<'_> {
    /// This rank's share of the job's graph.
    fn view(&self) -> &RankView {
        self.spec.graph.rank_view(self.me)
    }

    /// The job-local tile `r`, generated from its original on first use.
    fn local_or_original(&self, r: TileRef) -> Result<Tile, KernelError> {
        let mut local = write(&self.local);
        if let Some(tile) = local.get(r) {
            return Ok(tile.clone());
        }
        let tile = self.spec.original(r)?;
        local.put(r, tile.clone());
        Ok(tile)
    }
}

/// One rank's in-flight share of a job. Tasks are numbered as in the rank's
/// view of the graph.
struct JobRun<'a> {
    ctx: Arc<JobCtx<'a>>,
    /// Unmet dependencies per own task.
    deps: Vec<u32>,
    /// Tasks with no dependencies left, held until this rank's originals
    /// are shipped: a local task could overwrite a tile whose original
    /// value a remote consumer still needs.
    initial_ready: Vec<u32>,
    shipped: bool,
    remaining: u64,
    sent: u64,
    sent_bytes: u64,
    /// Payloads received *and applied* (transport-injected duplicates are
    /// received but never applied).
    applied: u64,
    /// Per remote input: whether it arrived. A slot is emptied after its
    /// last reader, so this, not the slot, tells a duplicate.
    arrived: Vec<bool>,
    /// Per remote input: own tasks that read it and have not run yet.
    readers: Vec<u32>,
    /// Full slots of `ctx.cache`.
    held: usize,
}

impl JobRun<'_> {
    /// Counts own task `l`'s reads of remote inputs down, once per input,
    /// moving the tile of each input whose last reader `l` was from its
    /// cache slot into `released`, for the caller to drop after the engine
    /// lock.
    fn count_down_reads(&mut self, view: &RankView, l: u32, released: &mut Vec<Tile>) {
        let read = view.sources(l);
        for (k, &source) in read.iter().enumerate() {
            let Source::Input(i) = source else { continue };
            if read[..k].contains(&source) {
                continue;
            }
            let left = &mut self.readers[i as usize];
            *left -= 1;
            if *left == 0 {
                if let Some(tile) = write(&self.ctx.cache)[i as usize].take() {
                    self.held -= 1;
                    released.push(tile);
                }
            }
        }
    }
}

/// Ready-heap key: job priority (descending), task priority (descending),
/// then job id and task number (ascending) for determinism. `task` is the
/// rank-local number, which orders a rank's tasks as their ids do.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct ReadyKey {
    jprio: u8,
    tprio: u32,
    job: std::cmp::Reverse<JobId>,
    task: std::cmp::Reverse<u32>,
}

impl ReadyKey {
    fn new(spec: &JobSpec<'_>, view: &RankView, l: u32) -> Self {
        ReadyKey {
            jprio: spec.prio,
            tprio: spec.task_prio(view.task(l)),
            job: std::cmp::Reverse(spec.id),
            task: std::cmp::Reverse(l),
        }
    }
}

struct EngineState<'a> {
    ready: BinaryHeap<ReadyKey>,
    /// In-flight jobs, found by scanning for the id: there are at most the
    /// table's `max_inflight` of them, one in a one-shot run.
    jobs: Vec<JobRun<'a>>,
    /// Jobs whose original-tile fetches have not been shipped yet; drained
    /// before the heap so no task of a job outruns its fetch sends.
    unshipped: VecDeque<JobId>,
    /// Payloads that arrived before their job was registered on this rank
    /// (registration races remote ships).
    pending: HashMap<JobId, Vec<Payload>>,
    /// One past the last job id this rank took from the table. The table
    /// admits ids in order and a rank's queue is FIFO, so an id below it that
    /// is neither in `jobs` nor in `registering` has finished here: what
    /// arrives for it is a late duplicate. Per-job state stays O(jobs in
    /// flight) for the life of a resident rank.
    taken: JobId,
    /// Jobs taken from the table whose share is still being built outside
    /// the lock; a payload for one of them is stashed, not dropped.
    registering: Vec<JobId>,
    /// `Result`/`Done` frames that reached this rank while it was still
    /// executing — only rank 0 of a multi-process gather sees these; they
    /// are handed back to the caller.
    gather: Vec<Message>,
    /// Admission is closed: with nothing in flight the rank is drained.
    closed: bool,
    active: u32,
    poisoned: bool,
    error: Option<ExecError>,
    /// Recorder time at which the rank went idle with a job in flight; the
    /// next fresh arrival closes a dep-wait span there.
    idle_since: Option<f64>,
}

impl EngineState<'_> {
    fn drained(&self) -> bool {
        self.poisoned || (self.closed && self.registering.is_empty() && self.jobs.is_empty())
    }

    /// Tiles this rank holds across its jobs: owned tiles in the stores
    /// plus replicas in the caches.
    fn resident_tiles(&self) -> usize {
        let job = |run: &JobRun| read(&run.ctx.local).occupied + run.held;
        self.jobs.iter().map(job).sum()
    }
}

/// The in-flight job `id` (a free function, so callers can hold the ready
/// heap beside it).
fn find_job<'j, 'a>(jobs: &'j mut [JobRun<'a>], id: JobId) -> Option<&'j mut JobRun<'a>> {
    jobs.iter_mut().find(|run| run.ctx.spec.id == id)
}

/// Ship or run steps one [`Engine::step`] takes at most before it hands its
/// thread back to the driver, so the ranks sharing a pooled thread take
/// turns. Each hand-back may move the rank's working set to another core:
/// at b = 4 a budget of 8 cost a fifth more time per factorization than 64,
/// while served jobs could not tell the two apart.
const STEP_BUDGET: usize = 64;

/// What one [`Engine::step`] left behind, for its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// The step used its whole budget: step the rank again.
    Ran,
    /// Nothing is runnable until an arrival, an admission, or `next_timer`
    /// on the table's clock — the earlier of the watchdog's deadline, armed
    /// while a job is in flight, and the endpoint's own timer.
    Idle {
        /// When to step the rank again even if nothing arrives.
        next_timer: Option<Instant>,
    },
    /// Admission is closed and nothing is in flight, or the rank failed.
    Drained,
}

/// The one call an engine makes into whoever steps it.
pub(crate) trait Driver: Sync {
    /// The rank's state changed — a task readied, a job finished, the rank
    /// failed or drained, admission closed. `work` says whether ship or run
    /// steps are waiting for a stepper.
    fn nudge(&self, work: bool);
}

/// One rank's engine: its jobs, its ready heap and its end of the mesh. It
/// never blocks and owns no thread; a driver calls [`Engine::step`].
pub(crate) struct Engine<'e, 'a> {
    net: &'e dyn Transport,
    table: &'e JobTable<'a>,
    driver: &'e dyn Driver,
    cfg: JobEngineConfig,
    me: NodeId,
    /// One recording handle per stepper lane (`workers` of them), held for
    /// the length of a step; `None` when the run is not recorded.
    lanes: Option<Mutex<Vec<NodeRecorder<'e>>>>,
    state: Mutex<EngineState<'a>>,
    /// The table generation this rank last picked admissions up at.
    generation: AtomicU64,
    /// Watchdog epoch, per the table's clock.
    started: Instant,
    /// Nanoseconds after `started` at which progress (a task completed, a
    /// message applied, a job registered) last happened.
    progress_ns: AtomicU64,
    /// Nanoseconds this rank's steppers spent shipping or running tasks,
    /// summed across lanes; `busy / (workers * elapsed)` is the engine's
    /// busy fraction. Only measured when `obs` consumes it.
    busy_ns: AtomicU64,
    /// Live per-rank gauges, present when the table is obs-bound.
    obs: Option<Arc<RankObs>>,
}

/// The next unit of work a step takes.
enum Work<'a> {
    /// Ship the job's originals to their remote readers.
    Ship(Arc<JobCtx<'a>>),
    /// Run own task `l` of the job.
    Run(Arc<JobCtx<'a>>, u32),
    /// Nothing is ready.
    Idle,
    Drained,
}

/// A stepper lane's recording handle, when the run is recorded.
type Obs<'r> = Option<NodeRecorder<'r>>;

/// Runs the rank engines of `endpoints` against `table` until
/// [`JobTable::shutdown`] drains them, or returns the first failing rank's
/// error once every in-flight job failed and the peers are poisoned. The
/// ranks are stepped on `min(endpoints × cfg.workers, cores)` pooled
/// threads, the caller one of them, each when its inbox, an admission or a
/// timer marks it runnable. The table tells one driver of its admissions, so
/// every endpoint a process holds goes into one call. A session endpoint
/// must run on the table's clock.
pub fn run_jobs<T: Transport>(
    endpoints: &[T],
    table: &JobTable<'_>,
    cfg: JobEngineConfig,
) -> Result<(), ExecError> {
    let nets: Vec<&dyn Transport> = endpoints.iter().map(|t| t as &dyn Transport).collect();
    let threads = drive::pool_threads(nets.len(), cfg.workers);
    drive::run_pooled(&nets, table, cfg, None, threads).map(drop)
}

impl<'e, 'a> Engine<'e, 'a> {
    pub(crate) fn new(
        net: &'e dyn Transport,
        table: &'e JobTable<'a>,
        cfg: JobEngineConfig,
        recorder: Option<&'e Recorder>,
        driver: &'e dyn Driver,
    ) -> Self {
        let me = net.rank();
        let lanes = recorder.map(|r| {
            let lanes = (0..cfg.workers.max(1) as u32)
                .rev()
                .map(|w| r.worker(me, w));
            Mutex::new(lanes.collect())
        });
        Engine {
            net,
            table,
            driver,
            cfg,
            me,
            lanes,
            state: Mutex::new(EngineState {
                ready: BinaryHeap::new(),
                jobs: Vec::new(),
                unshipped: VecDeque::new(),
                pending: HashMap::new(),
                taken: 0,
                registering: Vec::new(),
                gather: Vec::new(),
                closed: false,
                active: 0,
                poisoned: false,
                error: None,
                idle_since: None,
            }),
            generation: AtomicU64::new(0),
            started: table.clock.now(),
            progress_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            obs: table.rank_obs(me),
        }
    }

    /// How the rank ended: its own failure, a peer's, or the gather frames
    /// that arrived while it ran.
    pub(crate) fn finish(self) -> Result<Vec<Message>, ExecError> {
        let st = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match st.error {
            Some(e) => Err(e),
            None if st.poisoned => Err(ExecError::Remote),
            None => Ok(st.gather),
        }
    }

    /// Time since the watchdog epoch, per the table's clock.
    fn elapsed(&self) -> Duration {
        self.table
            .clock
            .now()
            .saturating_duration_since(self.started)
    }

    fn touch_progress(&self) {
        if self.cfg.deadline.is_some() {
            self.progress_ns
                .store(self.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Time since this rank last made progress.
    fn stalled_for(&self) -> Duration {
        self.elapsed().saturating_sub(Duration::from_nanos(
            self.progress_ns.load(Ordering::Relaxed),
        ))
    }

    /// Publishes this rank's live gauges: ready-heap depth, early-payload
    /// stash size, jobs in flight here, and the lanes' busy fraction.
    fn publish_gauges(&self, obs: &RankObs, (ready, pending, jobs): (usize, usize, usize)) {
        obs.ready.set(ready as f64);
        obs.pending.set(pending as f64);
        obs.inflight.set(jobs as f64);
        let elapsed = self.elapsed().as_nanos() as u64;
        if elapsed > 0 {
            let pool = elapsed.saturating_mul(self.cfg.workers.max(1) as u64);
            let busy = self.busy_ns.load(Ordering::Relaxed) as f64 / pool as f64;
            obs.busy.set(busy.min(1.0));
        }
    }

    /// Runs `work`, adding its duration to `busy_ns` when the rank gauges
    /// consume it.
    fn busy(&self, work: impl FnOnce()) {
        if self.obs.is_none() {
            return work();
        }
        let from = self.elapsed();
        work();
        let spent = self.elapsed().saturating_sub(from);
        self.busy_ns
            .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Releases the engine lock after a change a stepper may act on and
    /// tells the driver, with whether ship or run steps are waiting.
    fn unlock_and_nudge(&self, st: MutexGuard<'_, EngineState<'a>>) {
        let work = !st.ready.is_empty() || !st.unshipped.is_empty();
        drop(st);
        self.driver.nudge(work);
    }

    /// One bounded, non-blocking unit of this rank's work — the only code
    /// that decides what the rank does next: pick up admitted jobs, absorb
    /// what the inbox holds, then take up to [`STEP_BUDGET`] ship or run
    /// steps. A panic below it — a task, a tile provider — is caught and
    /// turned into [`Engine::fail`]: a rank that died silently would send
    /// no poison and every peer would wait on it for good.
    pub(crate) fn step(&self) -> Progress {
        let mut lane: Obs<'e> = self.lanes.as_ref().map(|lanes| {
            lock(lanes)
                .pop()
                .expect("a driver runs at most `workers` steppers of a rank")
        });
        let body = std::panic::AssertUnwindSafe(|| self.step_on(&mut lane));
        let progress = std::panic::catch_unwind(body).unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a panic that carried no message")
                .to_string();
            self.fail(ExecError::Panicked {
                rank: self.me,
                message,
            });
            Progress::Drained
        });
        if let (Some(lanes), Some(lane)) = (&self.lanes, lane) {
            lock(lanes).push(lane);
        }
        progress
    }

    fn step_on(&self, obs: &mut Obs<'e>) -> Progress {
        self.admit();
        self.absorb(obs);
        for _ in 0..STEP_BUDGET {
            match self.take_work(obs) {
                Work::Ship(ctx) => self.busy(|| self.ship(&ctx, obs)),
                Work::Run(ctx, l) => self.busy(|| self.run_task(&ctx, l, obs)),
                Work::Idle => return self.idle(obs),
                Work::Drained => return Progress::Drained,
            }
        }
        Progress::Ran
    }

    /// Picks up new registrations when the table's generation moved. The
    /// table lock nests inside the engine lock here, so the taken ids are
    /// `registering` before any arrival for them can be judged.
    fn admit(&self) {
        let generation = self.table.generation.load(Ordering::Acquire);
        if self.generation.fetch_max(generation, Ordering::AcqRel) >= generation {
            return;
        }
        let mut st = lock(&self.state);
        let (specs, closed) = self.table.take_incoming(self.me);
        st.closed |= closed;
        if let Some(last) = specs.last() {
            st.taken = last.id + 1;
        }
        st.registering.extend(specs.iter().map(|spec| spec.id));
        self.unlock_and_nudge(st);
        for spec in specs {
            self.register(spec);
        }
    }

    /// The next ship or run step, if any, and whether the rank is drained.
    fn take_work(&self, obs: &mut Obs<'_>) -> Work<'a> {
        let mut st = lock(&self.state);
        let work = if st.drained() {
            Work::Drained
        } else if let Some(id) = st.unshipped.pop_front() {
            st.active += 1;
            let run = find_job(&mut st.jobs, id).expect("unshipped job is registered");
            Work::Ship(Arc::clone(&run.ctx))
        } else if let Some(k) = st.ready.pop() {
            st.active += 1;
            if let Some(o) = obs.as_mut() {
                o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
            }
            let run = find_job(&mut st.jobs, k.job.0).expect("a ready task's job runs");
            Work::Run(Arc::clone(&run.ctx), k.task.0)
        } else {
            Work::Idle
        };
        // depths are captured under the lock the engine already holds and
        // published as plain atomic stores after release, so scrapers never
        // take this lock
        let depths = (st.ready.len(), st.pending.len(), st.jobs.len());
        drop(st);
        if let Some(rank_obs) = &self.obs {
            self.publish_gauges(rank_obs, depths);
        }
        work
    }

    /// Nothing to run: start a dep-wait span if a job is in flight, and
    /// check the per-job watchdog. Only a rank with work in flight can
    /// stall — an idle resident rank waits for its next job indefinitely.
    /// The rank is stepped again at the watchdog's deadline or its
    /// endpoint's own timer, whichever comes first.
    fn idle(&self, obs: &mut Obs<'_>) -> Progress {
        let mut st = lock(&self.state);
        let busy = !st.jobs.is_empty();
        if busy && st.idle_since.is_none() {
            st.idle_since = obs.as_ref().map(|o| o.now());
        }
        drop(st);
        let next_timer = self.net.next_timer();
        let Some(deadline) = self.cfg.deadline.filter(|_| busy) else {
            return Progress::Idle { next_timer };
        };
        let stalled = self.stalled_for();
        if stalled > deadline {
            if let Some(o) = obs.as_mut() {
                let end = o.now();
                o.fault(FaultKind::Stall, end - stalled.as_secs_f64(), end);
            }
            self.fail(ExecError::Stalled {
                rank: self.me,
                waiting_on: self.describe_waiting(),
            });
            return Progress::Drained;
        }
        // just past the deadline, so the step it schedules finds it passed
        let watchdog = self.table.clock.now() + deadline - stalled + Duration::from_nanos(1);
        Progress::Idle {
            next_timer: Some(next_timer.map_or(watchdog, |t| t.min(watchdog))),
        }
    }

    /// Installs this rank's share of `spec` — per-job state sized by the
    /// rank's view of the graph, which the graph builds once — reporting it
    /// finished at once when the job has nothing to do here (no local tasks
    /// and no fetches to ship).
    fn register(&self, spec: Arc<JobSpec<'a>>) {
        let me = self.me;
        let view = spec.graph.rank_view(me);
        let deps = view.deps().to_vec();
        let initial_ready = (0..deps.len() as u32)
            .filter(|&l| deps[l as usize] == 0)
            .collect();
        let remaining = view.len() as u64;
        let shipped = view.ships().is_empty();
        let cache = RwLock::new(vec![None; view.inputs()]);
        let (arrived, readers) = (vec![false; view.inputs()], view.readers().to_vec());

        // arm the per-job watchdog clock: a rank that was idle until now
        // must measure no-progress from this registration, not from the
        // end of the previous job
        self.touch_progress();

        let id = spec.id;
        let run = JobRun {
            ctx: Arc::new(JobCtx {
                local: RwLock::new(TileStore::new(&spec.graph)),
                cache,
                me,
                spec,
            }),
            deps,
            initial_ready,
            shipped,
            remaining,
            sent: 0,
            sent_bytes: 0,
            applied: 0,
            arrived,
            readers,
            held: 0,
        };

        let mut st = lock(&self.state);
        st.registering.retain(|&r| r != id);
        if st.poisoned {
            return;
        }
        st.jobs.push(run);
        if shipped {
            Self::release_initial(&mut st, id);
        } else {
            st.unshipped.push_back(id);
        }
        // payloads that beat the registration
        let mut refused = None;
        for payload in st.pending.remove(&id).unwrap_or_default() {
            if let Err(e) = Self::apply_payload(&mut st, me, payload) {
                refused = Some(e);
                break;
            }
        }
        let done = Self::try_finish(&mut st, id);
        self.unlock_and_nudge(st);
        if let Some(e) = refused {
            return self.fail(e);
        }
        self.report(done);
    }

    /// Pushes a registered job's dependency-free tasks onto the shared heap
    /// (call with `shipped` already true).
    fn release_initial(st: &mut EngineState<'a>, id: JobId) {
        let EngineState { jobs, ready, .. } = st;
        let run = find_job(jobs, id).expect("job registered");
        let (spec, view) = (&run.ctx.spec, run.ctx.view());
        ready.extend(
            run.initial_ready
                .drain(..)
                .map(|l| ReadyKey::new(spec, view, l)),
        );
    }

    /// If `id` has shipped its fetches and run out of local tasks, remove
    /// it and return it for [`Engine::report`], which the caller invokes
    /// after releasing the engine lock. From here on the id is below
    /// `taken` and in neither `jobs` nor `registering`: finished.
    fn try_finish(st: &mut EngineState<'a>, id: JobId) -> Option<JobRun<'a>> {
        let at = st.jobs.iter().position(|run| run.ctx.spec.id == id)?;
        let run = &st.jobs[at];
        if !(run.shipped && run.remaining == 0) {
            return None;
        }
        st.pending.remove(&id);
        Some(st.jobs.swap_remove(at))
    }

    /// Tells the table this rank's share of a job is finished.
    fn report(&self, done: Option<JobRun<'a>>) {
        let Some(run) = done else { return };
        // no stepper is inside a finished job any more: the store is ours
        let tiles = write(&run.ctx.local).drain();
        let completion = Completion {
            id: run.ctx.spec.id,
            tiles,
            sent: run.sent,
            sent_bytes: run.sent_bytes,
            applied: run.applied,
        };
        self.table.rank_done(self.me, completion);
    }

    /// Sends one payload, tallying it into `sent` (messages, bytes) when
    /// the transport accepted it.
    fn send(&self, dest: NodeId, payload: Payload, sent: &mut (u64, u64), obs: &mut Obs<'_>) {
        let orig = payload.is_orig();
        if let Some(bytes) = self.net.send_payload(dest, payload) {
            sent.0 += 1;
            sent.1 += bytes;
            if let Some(o) = obs.as_mut() {
                o.send(dest, bytes, orig);
            }
        }
    }

    /// Ships a job's original tiles to their remote consumers, then
    /// releases the job's initial tasks. Runs outside the engine lock; the
    /// job's tasks cannot start (and thus cannot overwrite an original a
    /// remote consumer still needs) until the release below.
    fn ship(&self, ctx: &JobCtx<'a>, obs: &mut Obs<'_>) {
        let id = ctx.spec.id;
        let mut sent = (0, 0);
        for &(tile_ref, dest, task) in ctx.view().ships() {
            let tile = match ctx.local_or_original(tile_ref) {
                Ok(tile) => tile,
                Err(error) => {
                    let node = self.me;
                    return self.fail(ExecError::Kernel { task, node, error });
                }
            };
            let payload = Payload::Orig {
                job: id,
                tile_ref,
                tile,
            };
            self.send(dest, payload, &mut sent, obs);
        }
        self.touch_progress();
        let mut st = lock(&self.state);
        st.active -= 1;
        let done = match find_job(&mut st.jobs, id) {
            None => None, // engine poisoned concurrently
            Some(run) => {
                run.sent += sent.0;
                run.sent_bytes += sent.1;
                run.shipped = true;
                Self::release_initial(&mut st, id);
                Self::try_finish(&mut st, id)
            }
        };
        self.unlock_and_nudge(st);
        self.report(done);
    }

    /// Executes own task `l` of one job, publishes its output to remote
    /// consumer ranks (tagged with the job id, one message per distinct
    /// consumer rank) and resolves successors.
    fn run_task(&self, ctx: &JobCtx<'a>, l: u32, obs: &mut Obs<'_>) {
        let spec = &ctx.spec;
        let g: &TaskGraph = &spec.graph;
        let view = ctx.view();
        let t = view.task(l);
        let span_start = obs.as_ref().map(|o| o.now());
        if let Err(error) = execute_task(self.cfg.kernels, ctx, l) {
            self.fail(ExecError::Kernel {
                task: t,
                node: self.me,
                error,
            });
            return;
        }
        self.touch_progress();
        if let Some(o) = obs.as_mut() {
            let end = o.now();
            o.task(
                t,
                g.tasks()[t as usize].kind,
                span_start.unwrap_or(end),
                end,
            );
        }

        let consumer_nodes = view.dests(l);
        let mut sent = (0, 0);
        if !consumer_nodes.is_empty() {
            let tile = read(&ctx.local)
                .get(g.tasks()[t as usize].output(g.slices))
                .expect("task output in local store")
                .clone();
            for &dest in consumer_nodes {
                let payload = Payload::Data {
                    job: spec.id,
                    producer: t,
                    tile: tile.clone(),
                };
                self.send(dest, payload, &mut sent, obs);
            }
        }

        let mut st = lock(&self.state);
        st.active -= 1;
        if let Some(o) = obs.as_mut() {
            o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
        }
        let EngineState { jobs, ready, .. } = &mut *st;
        let mut released = Vec::new();
        let last = match find_job(jobs, spec.id) {
            None => false, // engine poisoned concurrently
            Some(run) => {
                run.sent += sent.0;
                run.sent_bytes += sent.1;
                run.remaining -= 1;
                for &s in view.succs(l) {
                    let d = &mut run.deps[s as usize];
                    *d -= 1;
                    if *d == 0 {
                        ready.push(ReadyKey::new(spec, view, s));
                    }
                }
                run.count_down_reads(view, l, &mut released);
                run.remaining == 0
            }
        };
        if let Some(o) = obs.as_mut().filter(|_| !released.is_empty()) {
            o.gauge(GaugeKind::TileStore, st.resident_tiles() as f64);
        }
        let done = if last {
            Self::try_finish(&mut st, spec.id)
        } else {
            None
        };
        self.unlock_and_nudge(st);
        // a replica's last handle goes back to the tile free list here,
        // outside the engine lock
        drop(released);
        self.report(done);
    }

    /// Takes everything the inbox holds and applies it under one engine
    /// lock. A fresh payload ends the rank's dep-wait span and counts as
    /// progress; a poison or a refused payload fails the rank after the lock
    /// is released.
    fn absorb(&self, obs: &mut Obs<'_>) {
        let batch: Vec<Message> = std::iter::from_fn(|| self.net.try_recv()).collect();
        if batch.is_empty() {
            return;
        }
        let (mut fresh, mut poisoned, mut refused) = (false, false, None);
        let mut st = lock(&self.state);
        for msg in batch {
            match msg {
                // a bare Seq means no session wraps this endpoint; the
                // per-input arrived bit deduplicates it regardless
                Message::Payload { src, payload } | Message::Seq { src, payload, .. } => {
                    let (bytes, orig) = (payload.payload_bytes(), payload.is_orig());
                    match Self::apply_payload(&mut st, self.me, payload) {
                        Ok(false) => {}
                        Ok(true) => {
                            fresh = true;
                            if let Some(o) = obs.as_mut() {
                                o.recv(src, bytes, orig);
                            }
                        }
                        Err(e) => {
                            refused = Some(e);
                            break;
                        }
                    }
                }
                Message::Poison => poisoned = true,
                Message::Ack { .. } => {}
                // gather traffic reaching rank 0 before its own run ends
                m @ (Message::Result { .. } | Message::Done { .. }) => st.gather.push(m),
            }
        }
        if let Some(o) = obs.as_mut() {
            if let Some(start) = st.idle_since.take().filter(|_| fresh) {
                o.dep_wait(start, o.now());
            }
            // sample scheduler state once per absorbed batch, not per task
            o.gauge(GaugeKind::TileStore, st.resident_tiles() as f64);
            o.gauge(GaugeKind::ReadyQueue, st.ready.len() as f64);
            o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
        }
        self.unlock_and_nudge(st);
        if fresh {
            self.touch_progress();
        }
        if let Some(e) = refused {
            self.fail(e);
        } else if poisoned {
            self.fail(ExecError::Remote);
        }
    }

    /// Applies one payload to its job under the engine lock: stashes the
    /// tile, then releases the tasks it unblocks. `Ok` says whether the
    /// payload was fresh (not a duplicate, not early, not late); a tile of
    /// the wrong dimension is refused before anything is applied or
    /// counted, as the error of the first local task that waits for it.
    fn apply_payload(
        st: &mut EngineState<'a>,
        me: NodeId,
        payload: Payload,
    ) -> Result<bool, ExecError> {
        let id = payload.job();
        let EngineState {
            jobs,
            ready,
            pending,
            taken,
            registering,
            ..
        } = st;
        let Some(run) = find_job(jobs, id) else {
            if id >= *taken || registering.contains(&id) {
                // registration has not happened here yet; stash for it
                pending.entry(id).or_default().push(payload);
            }
            // else a late duplicate for a job this rank finished
            return Ok(false);
        };
        let (input, tile) = match payload {
            Payload::Data { producer, tile, .. } => (Input::Task(producer), tile),
            Payload::Orig { tile_ref, tile, .. } => (Input::Orig(tile_ref), tile),
        };
        let JobRun {
            ctx,
            deps,
            initial_ready,
            shipped,
            applied,
            arrived,
            held,
            ..
        } = run;
        let view = ctx.view();
        // a tile no task of this rank waits for is not this job's traffic
        let Some(i) = view.find(input) else {
            return Ok(false);
        };
        let waiting = view.waiters(i);
        let expected = ctx.spec.b;
        if tile.dim() != expected {
            return Err(ExecError::Kernel {
                task: view.task(waiting[0]),
                node: me,
                error: KernelError::DimensionMismatch {
                    expected,
                    found: tile.dim(),
                },
            });
        }
        // each producer output / original fetch arrives at most once per
        // rank by protocol; a second one is a transport-injected duplicate
        // and must not touch counters or dependency counts — even once its
        // slot was emptied after the last reader
        if arrived[i] {
            return Ok(false);
        }
        arrived[i] = true;
        write(&ctx.cache)[i] = Some(tile);
        *held += 1;
        *applied += 1;
        for &l in waiting {
            let d = &mut deps[l as usize];
            *d -= 1;
            if *d == 0 && *shipped {
                ready.push(ReadyKey::new(&ctx.spec, view, l));
            } else if *d == 0 {
                initial_ready.push(l);
            }
        }
        Ok(true)
    }

    /// A human-readable account of the remote arrivals this rank is still
    /// missing, for [`ExecError::Stalled`].
    fn describe_waiting(&self) -> String {
        let st = lock(&self.state);
        let mut missing: Vec<String> = Vec::new();
        for run in &st.jobs {
            let (id, view) = (run.ctx.spec.id, run.ctx.view());
            for (i, _) in run.arrived.iter().enumerate().filter(|(_, &got)| !got) {
                missing.push(format!("job {id} {:?}", view.input(i)));
            }
        }
        if missing.is_empty() {
            return "no undelivered remote dependencies".to_string();
        }
        missing.sort();
        format!(
            "{} undelivered remote arrivals, first {}",
            missing.len(),
            missing[0]
        )
    }

    /// Stops this engine on failure `e`: fails every in-flight job in the
    /// table, then poisons every peer. The table hears first, so no peer's
    /// `Remote` echo of the poison can reach it ahead of the cause.
    fn fail(&self, e: ExecError) {
        let mut st = lock(&self.state);
        if st.error.is_none() {
            st.error = Some(e.clone());
        }
        st.poisoned = true;
        self.unlock_and_nudge(st);
        self.table.poison(e);
        for n in 0..self.net.num_nodes() as NodeId {
            if n != self.me {
                self.net.send_poison(n);
            }
        }
    }
}

/// One rank's finished share of a job, ready to report to the table.
struct Completion {
    id: JobId,
    tiles: HashMap<TileRef, Tile>,
    sent: u64,
    sent_bytes: u64,
    applied: u64,
}

/// Resolves read operand `r` of an own task from where the rank's view
/// says it is: a remote producer's output or a fetched original in the
/// job's cache, a local producer's output in the job-local store, or a local
/// original generated on first use.
fn resolve_read(ctx: &JobCtx<'_>, source: Source, r: TileRef) -> Result<Tile, KernelError> {
    Ok(match source {
        Source::Input(i) => read(&ctx.cache)[i as usize]
            .clone()
            .expect("dependency ensured arrival"),
        Source::Local => read(&ctx.local)
            .get(r)
            .expect("local producer wrote the tile")
            .clone(),
        Source::Original => ctx.local_or_original(r)?,
    })
}

/// Executes one task's kernel against the job's private stores.
///
/// The target tile is *removed* from the store for the kernel call and
/// reinserted afterwards; this is safe because the graph's ordering edges
/// guarantee no same-rank reader of the current version is running
/// concurrently with its writer (remote readers use received copies).
fn execute_task(kernels: KernelBackend, ctx: &JobCtx<'_>, l: u32) -> Result<(), KernelError> {
    let spec = &ctx.spec;
    let c = spec.graph.slices;
    let view = ctx.view();
    let task = spec.graph.tasks()[view.task(l) as usize];
    let reads = task.reads(c);
    let read_tiles = reads
        .as_slice()
        .iter()
        .zip(view.sources(l))
        .map(|(&r, &source)| resolve_read(ctx, source, r))
        .collect::<Result<Vec<Tile>, _>>()?;
    let target_ref = task.output(c);
    let stored = write(&ctx.local).take(target_ref);
    let mut target = match stored {
        Some(tile) => tile,
        // a Move replaces its target with a handle on its source: an empty
        // placeholder, never generated data for a later-phase tile
        None if matches!(task.kind, TaskKind::Move { .. }) => Tile::zeros(0),
        None => spec.original(target_ref)?,
    };
    let result = run_kernel(kernels, task.kind, &read_tiles, &mut target);
    write(&ctx.local).put(target_ref, target);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gather, Run, RunResult};
    use sbc_dist::comm::potrf_messages;
    use sbc_dist::{Distribution, SbcExtended, TwoDBlockCyclic};
    use sbc_matrix::{potrf_tiled, random_spd};
    use sbc_net::{inproc_mesh, InProc, RecvTimeout, TransportStats, VirtualClock};
    use sbc_taskgraph::build_potrf;
    use sbc_topo::{Heft, SubmissionOrder};
    use std::task::Waker;

    const B: usize = 8;

    fn run_mesh(table: &JobTable, n: usize, cfg: JobEngineConfig, body: impl FnOnce() + Send) {
        let mesh = inproc_mesh(n);
        std::thread::scope(|scope| {
            scope.spawn(|| run_jobs(&mesh, table, cfg));
            scope.spawn(move || {
                body();
                table.shutdown();
            });
        });
    }

    /// A seeded POTRF job over `graph`, its tasks ranked by `sched`.
    fn potrf_spec<'a>(
        graph: &Arc<TaskGraph>,
        seed: u64,
        sched: &dyn Scheduler,
        provider: Option<&'a TileProvider<'a>>,
    ) -> JobSpec<'a> {
        JobSpec::new(Arc::clone(graph), B, (seed, seed ^ 1), 0, sched, provider)
    }

    fn factor_of(out: &JobOutcome) -> sbc_matrix::SymmetricTiledMatrix {
        match gather(out.graph(), &out.tiles, B).expect("gather failed") {
            RunResult::Factor(factor) => factor,
            other => panic!("a POTRF job gathered {other:?}"),
        }
    }

    /// The oracle every job is held to: the gathered factor is the
    /// sequential `potrf_tiled` one bit for bit, and the job's own traffic
    /// is exactly the analytic count of `dist` — sent, received and in bytes.
    fn assert_sequential<D: Distribution>(out: &JobOutcome, dist: &D, nt: usize, seed: u64) {
        let mut seq = random_spd(seed, nt, B);
        potrf_tiled(&mut seq).expect("sequential factorization failed");
        let factor = factor_of(out);
        for (i, j) in seq.tile_coords() {
            assert_eq!(
                factor.tile(i, j).max_abs_diff(seq.tile(i, j)),
                0.0,
                "job {} tile ({i},{j}) differs from sequential",
                out.id
            );
        }
        let messages = potrf_messages(dist, nt);
        assert_eq!(out.stats.messages, messages, "job {} messages", out.id);
        assert_eq!(out.stats.bytes, messages_to_bytes(messages, B));
        assert_eq!(out.stats.sent_per_node.iter().sum::<u64>(), messages);
        assert_eq!(out.stats.recv_per_node.iter().sum::<u64>(), messages);
    }

    #[test]
    fn ready_heap_orders_by_job_then_task_priority() {
        let mut heap = BinaryHeap::new();
        for (jprio, tprio, job, task) in [
            (1u8, 5.0f32, 2u32, 9u32),
            (1, 5.0, 1, 3),
            (3, 0.0, 7, 0),
            (1, 9.0, 2, 4),
        ] {
            heap.push(ReadyKey {
                jprio,
                tprio: tprio.to_bits(),
                job: std::cmp::Reverse(job),
                task: std::cmp::Reverse(task),
            });
        }
        let order: Vec<(JobId, TaskId)> =
            std::iter::from_fn(|| heap.pop().map(|k| (k.job.0, k.task.0))).collect();
        // highest job priority first; within a job priority, highest task
        // priority; ties broken by ascending job then task id
        assert_eq!(order, vec![(7, 0), (2, 4), (1, 3), (2, 9)]);

        // within one job (a one-shot run): high priority first, then low
        // task id
        for (tprio, task) in [(1.0f32, 5u32), (3.0, 9), (3.0, 2), (0.0, 0)] {
            heap.push(ReadyKey {
                jprio: 0,
                tprio: tprio.to_bits(),
                job: std::cmp::Reverse(0),
                task: std::cmp::Reverse(task),
            });
        }
        let order: Vec<TaskId> = std::iter::from_fn(|| heap.pop().map(|k| k.task.0)).collect();
        assert_eq!(order, vec![2, 9, 5, 0]);
    }

    #[test]
    fn two_concurrent_jobs_match_sequential() {
        let d = SbcExtended::new(4); // 6 nodes
        let nt = 10;
        let graph = Arc::new(build_potrf(&d, nt));
        let table = JobTable::new(graph.num_nodes(), 8);
        let (ga, gb) = (Arc::clone(&graph), Arc::clone(&graph));
        let mut results = Vec::new();
        {
            let results = &mut results;
            let table_ref = &table;
            run_mesh(
                &table,
                graph.num_nodes(),
                JobEngineConfig::default(),
                move || {
                    let a = table_ref.submit(ga, B, 2022, 7, 1).unwrap();
                    let b = table_ref.submit(gb, B, 99, 100, 2).unwrap();
                    results.push(table_ref.wait(a).unwrap());
                    results.push(table_ref.wait(b).unwrap());
                },
            );
        }
        assert_sequential(&results[0], &d, nt, 2022);
        assert_sequential(&results[1], &d, nt, 99);
        // same placement, same traffic, rank by rank: sharing the mesh
        // leaks nothing from one job's counts into the other's
        assert_eq!(results[0].stats, results[1].stats);
    }

    /// The front-end conversion: `Run::execute` is a one-job table, so a job
    /// submitted by hand and the one-shot run of the same graph agree on
    /// every tile and on the whole `CommStats`.
    #[test]
    fn single_job_table_agrees_with_a_one_shot_run() {
        let d = TwoDBlockCyclic::new(3, 2);
        let graph = Arc::new(build_potrf(&d, 9));
        let one_shot = Run::graph(Arc::clone(&graph))
            .block(B)
            .seed(5)
            .seed_rhs(6)
            .workers(2)
            .execute()
            .unwrap();
        let table = JobTable::new(graph.num_nodes(), 1);
        let table_ref = &table;
        let g = Arc::clone(&graph);
        let mut got = None;
        {
            let got = &mut got;
            run_mesh(
                &table,
                graph.num_nodes(),
                JobEngineConfig::default(),
                move || {
                    let id = table_ref.submit(g, B, 5, 6, 0).unwrap();
                    *got = Some(table_ref.wait(id).unwrap());
                },
            );
        }
        let out = got.expect("job ran");
        assert_eq!(out.stats, one_shot.stats);
        let factor = factor_of(&out);
        assert_eq!(out.tiles.len(), factor.tile_coords().count());
        for (i, j) in factor.tile_coords() {
            assert_eq!(factor.tile(i, j), one_shot.factor().tile(i, j), "({i},{j})");
        }
    }

    #[test]
    fn jobs_under_different_schedulers_stay_bit_identical() {
        let d = SbcExtended::new(4); // 6 nodes
        let nt = 10;
        let graph = Arc::new(build_potrf(&d, nt));
        let table = JobTable::new(graph.num_nodes(), 8);
        let cfg = JobEngineConfig {
            workers: 2,
            ..Default::default()
        };
        let table_ref = &table;
        let g = &graph;
        let mut results = Vec::new();
        {
            let results = &mut results;
            run_mesh(&table, graph.num_nodes(), cfg, move || {
                let cp = potrf_spec(g, 31, &CriticalPath, None);
                let heft = potrf_spec(g, 32, &Heft, None);
                assert_ne!(cp.prio_bits, heft.prio_bits, "the two rankings coincide");
                let a = table_ref.submit_spec(cp, (0, 0)).unwrap();
                let b = table_ref.submit_spec(heft, (0, 0)).unwrap();
                results.push(table_ref.wait(a).unwrap());
                results.push(table_ref.wait(b).unwrap());
            });
        }
        assert_sequential(&results[0], &d, nt, 31);
        assert_sequential(&results[1], &d, nt, 32);
        assert_eq!(results[0].stats, results[1].stats);
    }

    /// `SubmissionOrder` is the scheduler form of what used to be "no
    /// priority vector": it ranks every task zero, which a [`ReadyKey`]
    /// cannot tell from the empty vector — same pop order (`TaskId` order),
    /// same factor, same `CommStats`.
    #[test]
    fn submission_order_scheduler_matches_the_empty_priority_vector() {
        let d = SbcExtended::new(4); // 6 nodes
        let nt = 10;
        let graph = Arc::new(build_potrf(&d, nt));
        let ranked = potrf_spec(&graph, 31, &SubmissionOrder, None);
        let mut empty = potrf_spec(&graph, 31, &SubmissionOrder, None);
        assert_eq!(ranked.prio_bits, vec![0; graph.len()]);
        empty.prio_bits = Vec::new();
        let view = graph.rank_view(0);
        let tasks = 0..view.len() as u32;
        let pop_order = |spec: &JobSpec| {
            let mut heap: BinaryHeap<_> = tasks
                .clone()
                .rev()
                .map(|l| ReadyKey::new(spec, view, l))
                .collect();
            std::iter::from_fn(|| heap.pop().map(|k| k.task.0)).collect::<Vec<_>>()
        };
        assert_eq!(pop_order(&ranked), pop_order(&empty));
        assert_eq!(pop_order(&ranked), tasks.clone().collect::<Vec<_>>());

        let table = JobTable::new(graph.num_nodes(), 8);
        let table_ref = &table;
        let mut results = Vec::new();
        {
            let results = &mut results;
            run_mesh(
                &table,
                graph.num_nodes(),
                JobEngineConfig::default(),
                move || {
                    let a = table_ref.submit_spec(ranked, (0, 0)).unwrap();
                    let b = table_ref.submit_spec(empty, (0, 0)).unwrap();
                    results.push(table_ref.wait(a).unwrap());
                    results.push(table_ref.wait(b).unwrap());
                },
            );
        }
        assert_sequential(&results[0], &d, nt, 31);
        assert_sequential(&results[1], &d, nt, 31);
        assert_eq!(results[0].stats, results[1].stats);
    }

    /// A recorded run has a span per task, each on the lane that ran it.
    #[test]
    fn recorded_two_job_run_has_a_span_per_task() {
        let d = SbcExtended::new(3); // 3 nodes
        let graph = Arc::new(build_potrf(&d, 8));
        let n = graph.num_nodes();
        let cfg = JobEngineConfig {
            workers: 2,
            ..Default::default()
        };
        let table = JobTable::new(n, 8);
        let recorder = Recorder::new();
        for seed in [1, 2] {
            table.submit(Arc::clone(&graph), B, seed, seed, 0).unwrap();
        }
        table.shutdown();
        let mesh = inproc_mesh(n);
        let nets: Vec<&dyn Transport> = mesh.iter().map(|t| t as &dyn Transport).collect();
        drive::run_pooled(&nets, &table, cfg, Some(&recorder), 2).unwrap();
        let recording = recorder.drain();
        let spans = sbc_obs::task_spans(&recording);
        assert_eq!(spans.len(), 2 * graph.len());
        for rank in 0..n as u32 {
            assert!(
                recording.events_on(rank) > 0,
                "rank {rank} recorded nothing"
            );
        }
        let lanes = recording.events.iter().filter_map(|e| match *e {
            sbc_obs::Event::Task { worker, .. } => Some(worker),
            _ => None,
        });
        assert!(lanes.max() < Some(2), "a task off its rank's lanes");
    }

    #[test]
    fn admission_control_bounds_inflight_jobs() {
        let d = TwoDBlockCyclic::new(2, 2);
        let graph = Arc::new(build_potrf(&d, 6));
        let table = JobTable::new(graph.num_nodes(), 1);
        // no engines are running, so the first job can never finish and
        // the second must bounce with a reason
        let first = table
            .submit(Arc::clone(&graph), B, 1, 2, 0)
            .expect("first admitted");
        let err = table
            .submit(Arc::clone(&graph), B, 3, 4, 0)
            .expect_err("second rejected");
        assert_eq!(
            err,
            Rejection::QueueFull {
                inflight: 1,
                max: 1
            }
        );
        assert!(err.to_string().contains("queue full"));
        let _ = first;
    }

    /// A graph placed on more nodes than the table's mesh has ranks is
    /// refused at the door. It used to be admitted, fail every engine with
    /// an index panic and leave the resident mesh dead for every later job;
    /// now the next job that fits runs as if nothing happened.
    #[test]
    fn a_graph_wider_than_the_mesh_is_rejected_and_the_mesh_serves_on() {
        let wide = Arc::new(build_potrf(&SbcExtended::new(4), 6));
        let d = TwoDBlockCyclic::new(2, 2);
        let fits = Arc::new(build_potrf(&d, 6));
        let table = JobTable::new(4, 2);
        let mut outcome = None;
        run_mesh(&table, 4, JobEngineConfig::default(), || {
            let rejected = table.submit(Arc::clone(&wide), B, 1, 2, 0);
            assert_eq!(
                rejected,
                Err(Rejection::MeshTooSmall { needs: 6, ranks: 4 })
            );
            assert!(rejected.unwrap_err().to_string().contains("needs 6 ranks"));
            let id = table.submit(Arc::clone(&fits), B, 7, 8, 0).unwrap();
            outcome = Some(table.wait(id).expect("the mesh is alive"));
        });
        assert_sequential(&outcome.unwrap(), &d, 6, 7);
        assert_eq!(table.inflight(), 0);
    }

    /// Remote arrivals `run` holds.
    fn cached(run: &JobRun) -> usize {
        read(&run.ctx.cache).iter().flatten().count()
    }

    /// Hand-driven engines: the test is the only stepper, so nobody needs
    /// telling.
    struct ByHand;

    impl Driver for ByHand {
        fn nudge(&self, _: bool) {}
    }

    /// Steps `engine` until a step leaves work undone no longer.
    fn settle(engine: &Engine) -> Progress {
        loop {
            match engine.step() {
                Progress::Ran => {}
                progress => return progress,
            }
        }
    }

    /// One rank of a 2x2 mesh stepped by hand on a virtual clock. Its peers
    /// never run, so a job admitted here stays in flight waiting on remote
    /// tiles: the watchdog must ignore any amount of idle time before the
    /// admission, re-arm at it, and fire only once the job itself has gone
    /// a deadline without progress.
    #[test]
    fn idle_resident_rank_does_not_trip_the_watchdog() {
        let d = TwoDBlockCyclic::new(2, 2);
        let graph = Arc::new(build_potrf(&d, 6));
        let n = graph.num_nodes();
        let clock = Arc::new(VirtualClock::new());
        let table = JobTable::with_clock(n, n, 4, Arc::clone(&clock) as Arc<dyn Clock>);
        let deadline = Duration::from_millis(80);
        let cfg = JobEngineConfig {
            deadline: Some(deadline),
            ..Default::default()
        };
        let mesh = inproc_mesh(n);
        let engine = Engine::new(&mesh[0], &table, cfg, None, &ByHand);
        let error = |engine: &Engine| lock(&engine.state).error.clone();

        // idle for several deadlines: a per-process no-progress clock would
        // declare a stall here
        clock.advance(Duration::from_millis(400));
        let idle = settle(&engine);
        assert_eq!(
            idle,
            Progress::Idle { next_timer: None },
            "no job, no timer"
        );
        assert_eq!(error(&engine), None, "an idle rank stalled");

        let id = table.submit(graph, B, 5, 6, 0).unwrap();
        let armed = settle(&engine);
        assert_eq!(error(&engine), None, "admission did not re-arm the clock");
        // the driver is asked back just past the job's deadline
        let due = clock.now() + deadline + Duration::from_nanos(1);
        assert_eq!(
            armed,
            Progress::Idle {
                next_timer: Some(due)
            }
        );

        clock.advance(Duration::from_millis(81));
        assert_eq!(settle(&engine), Progress::Drained);
        assert!(
            matches!(error(&engine), Some(ExecError::Stalled { rank: 0, .. })),
            "a stall during a job must still fire"
        );
        assert!(matches!(
            table.wait(id),
            Err(ExecError::Stalled { rank: 0, .. })
        ));
    }

    /// A remote task of `graph` that some task of rank 0 waits for, and the
    /// first such task of rank 0 (the one a payload's failure is blamed on).
    fn remote_producer(graph: &TaskGraph) -> (TaskId, TaskId) {
        let tasks = graph.tasks();
        (0..graph.len() as TaskId)
            .filter(|&p| tasks[p as usize].node != 0)
            .find_map(|p| {
                let local = graph.succs(p).map(|(s, _)| s);
                local
                    .filter(|&s| tasks[s as usize].node == 0)
                    .min()
                    .map(|s| (p, s))
            })
            .expect("rank 0 waits on some remote tile")
    }

    /// `cache` has a slot only for the remote inputs of the rank's view, so
    /// a payload for a tile no task of this rank waits for is dropped: not
    /// cached, not counted as applied.
    #[test]
    fn an_arrival_nobody_here_waits_for_is_dropped() {
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 2), 6));
        let n = graph.num_nodes();
        let table = JobTable::new(n, 1);
        let id = table.submit(Arc::clone(&graph), B, 5, 6, 0).unwrap();
        let mesh = inproc_mesh(n);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);
        settle(&engine);
        // rank 0's own first task: nobody waits for a local producer's tile
        let producer = 0;
        assert_eq!(graph.tasks()[producer as usize].node, 0);
        mesh[1].send_payload(
            0,
            Payload::Data {
                job: id,
                producer,
                tile: Tile::zeros(B),
            },
        );
        settle(&engine);
        let st = lock(&engine.state);
        assert_eq!(st.jobs[0].applied, 0);
        assert_eq!(cached(&st.jobs[0]), 0);
    }

    /// Producer ids and tile names come off the wire. A `Data` payload naming
    /// a task past the graph's end, and an `Orig` payload naming a tile
    /// outside the graph's tile space, are foreign traffic: dropped without
    /// an index panic, nothing cached or counted, and the job runs on.
    #[test]
    fn arrivals_naming_nothing_in_the_graph_are_dropped() {
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 2), 6));
        let n = graph.num_nodes();
        let table = JobTable::new(n, 1);
        let id = table.submit(Arc::clone(&graph), B, 5, 6, 0).unwrap();
        let mesh = inproc_mesh(n);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);
        settle(&engine);
        let a = |slice, i, j| TileRef::A {
            phase: 0,
            slice,
            i,
            j,
        };
        let len = graph.len() as TaskId;
        let mut foreign: Vec<Payload> = [len, len + 7, TaskId::MAX]
            .into_iter()
            .map(|producer| Payload::Data {
                job: id,
                producer,
                tile: Tile::zeros(B),
            })
            .collect();
        for tile_ref in [
            a(0, 6, 0),
            a(0, 0, 6),
            a(1, 1, 0),
            a(0, u32::MAX, u32::MAX),
            TileRef::A {
                phase: 200,
                slice: 0,
                i: 1,
                j: 0,
            },
            TileRef::Buf {
                slice: 0,
                i: 1,
                j: 0,
            },
            TileRef::B { i: 6 },
        ] {
            foreign.push(Payload::Orig {
                job: id,
                tile_ref,
                tile: Tile::zeros(B),
            });
        }
        for payload in foreign {
            mesh[1].send_payload(0, payload);
        }
        assert_eq!(settle(&engine), Progress::Idle { next_timer: None });
        let st = lock(&engine.state);
        assert_eq!(st.error, None);
        assert_eq!(st.jobs.len(), 1, "the job is still in flight");
        assert_eq!(st.jobs[0].applied, 0);
        assert_eq!(cached(&st.jobs[0]), 0);
    }

    /// A replica leaves its cache slot once its last local reader ran, so
    /// duplicates are told by the per-input `arrived` bit, not by the slot.
    /// The script: all four ranks of a 2x2 mesh stepped by hand until some
    /// input `i` of rank 0 has arrived and every task reading it has run,
    /// then `i` delivered again. Told by slot occupancy, the duplicate is
    /// taken as fresh: applied a second time, with every waiter's `deps`,
    /// already 0, decremented past it (a panic in a debug build, a count
    /// wrapped to `u32::MAX` in release). It must be dropped —
    /// `applied`, every `deps` count and the ready heap unchanged, the slot
    /// still empty — and a `Stalled` account lists only inputs that never
    /// arrived. The job then ends bit-identical with every slot empty.
    #[test]
    fn a_duplicate_after_its_replica_was_released_is_dropped() {
        let d = TwoDBlockCyclic::new(2, 2);
        let (nt, seed) = (6, 5);
        let graph = Arc::new(build_potrf(&d, nt));
        let n = graph.num_nodes();
        let table = JobTable::new(n, 1);
        let id = table
            .submit(Arc::clone(&graph), B, seed, seed + 1, 0)
            .unwrap();
        let mesh = inproc_mesh(n);
        let cfg = JobEngineConfig::default();
        let engines: Vec<Engine> = (0..n)
            .map(|r| Engine::new(&mesh[r], &table, cfg, None, &ByHand))
            .collect();
        let ctxs: Vec<Arc<JobCtx>> = engines
            .iter()
            .map(|engine| {
                settle(engine);
                Arc::clone(&lock(&engine.state).jobs[0].ctx)
            })
            .collect();
        let released =
            |run: &JobRun| (0..run.readers.len()).find(|&i| run.arrived[i] && run.readers[i] == 0);

        let mut rounds = 0;
        let i = loop {
            for engine in &engines[1..] {
                settle(engine);
            }
            settle(&engines[0]);
            if let Some(i) = released(&lock(&engines[0].state).jobs[0]) {
                break i;
            }
            rounds += 1;
            assert!(rounds < 100, "no input of rank 0 was ever released");
        };

        let view = graph.rank_view(0);
        let ready = |st: &EngineState| {
            let mut keys: Vec<(JobId, u32)> =
                st.ready.iter().map(|k| (k.job.0, k.task.0)).collect();
            keys.sort_unstable();
            keys
        };
        let (applied, deps, heap) = {
            let st = lock(&engines[0].state);
            assert_eq!(st.jobs.len(), 1, "the job is still in flight on rank 0");
            let run = &st.jobs[0];
            assert!(
                read(&run.ctx.cache)[i].is_none(),
                "the replica left its slot"
            );
            (run.applied, run.deps.clone(), ready(&st))
        };
        let duplicate = match view.input(i) {
            Input::Task(producer) => Payload::Data {
                job: id,
                producer,
                tile: Tile::zeros(B),
            },
            Input::Orig(tile_ref) => Payload::Orig {
                job: id,
                tile_ref,
                tile: Tile::zeros(B),
            },
        };
        mesh[1].send_payload(0, duplicate);
        engines[0].absorb(&mut None);
        {
            let st = lock(&engines[0].state);
            let run = &st.jobs[0];
            assert_eq!(st.error, None);
            assert_eq!(run.applied, applied, "the duplicate was applied");
            assert_eq!(run.deps, deps, "the duplicate moved a dependency count");
            assert_eq!(ready(&st), heap, "the duplicate readied a task");
            assert!(
                read(&run.ctx.cache)[i].is_none(),
                "the duplicate was cached"
            );
            let missing = run.arrived.iter().filter(|&&got| !got).count();
            drop(st);
            let account = engines[0].describe_waiting();
            let listed = if missing == 0 {
                "no undelivered remote dependencies".to_string()
            } else {
                format!("{missing} undelivered remote arrivals")
            };
            assert!(account.starts_with(&listed), "{account}");
        }

        while table.completed() == 0 {
            for engine in &engines {
                settle(engine);
            }
            rounds += 1;
            assert!(rounds < 200, "the job never finished");
        }
        assert_sequential(&table.wait(id).expect("the job finishes"), &d, nt, seed);
        for (rank, ctx) in ctxs.iter().enumerate() {
            let held = read(&ctx.cache).iter().flatten().count();
            assert_eq!(held, 0, "rank {rank} kept replicas past their readers");
        }
    }

    /// A payload's tile is checked against the job's `b` on arrival. One of
    /// the wrong size is the typed error of the first local task waiting for
    /// it — never a kernel's dimension assert, caught as a panic — the peers
    /// are poisoned, and nothing is applied or counted.
    #[test]
    fn an_arrival_of_the_wrong_dimension_is_a_typed_error() {
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 2), 6));
        let n = graph.num_nodes();
        let table = JobTable::new(n, 1);
        let id = table.submit(Arc::clone(&graph), B, 5, 6, 0).unwrap();
        let mesh = inproc_mesh(n);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);
        settle(&engine);
        let (producer, first) = remote_producer(&graph);
        let from = &mesh[graph.tasks()[producer as usize].node as usize];
        let tile = Tile::zeros(B + 1);
        from.send_payload(
            0,
            Payload::Data {
                job: id,
                producer,
                tile,
            },
        );
        assert_eq!(settle(&engine), Progress::Drained);

        let expected = ExecError::Kernel {
            task: first,
            node: 0,
            error: KernelError::DimensionMismatch {
                expected: B,
                found: B + 1,
            },
        };
        let st = lock(&engine.state);
        assert_eq!(st.error, Some(expected.clone()));
        assert_eq!(st.jobs[0].applied, 0);
        assert_eq!(cached(&st.jobs[0]), 0);
        drop(st);
        for peer in &mesh[1..] {
            let inbox: Vec<Message> = std::iter::from_fn(|| peer.try_recv()).collect();
            assert!(inbox.contains(&Message::Poison), "rank {}", peer.rank());
        }
        assert_eq!(table.wait(id).err(), Some(expected));
    }

    /// A resident rank keeps nothing of the jobs it finished: "finished" is
    /// "below the ids this rank took, and not in flight". A thousand jobs
    /// leave no per-job entry behind; then a late duplicate for an early job
    /// is dropped — not stashed, applied or counted — while an early payload
    /// for the next job is stashed and applied when that job registers.
    #[test]
    fn a_resident_rank_keeps_no_state_for_finished_jobs() {
        // rank 0 of a 2-rank mesh, completing jobs on its own report: the
        // thousand jobs stay on it, the next one waits on rank 1
        let alone = Arc::new(build_potrf(&TwoDBlockCyclic::new(1, 1), 2));
        let shared = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 1), 4));
        let table = JobTable::with_clock(2, 1, 1, Arc::new(RealClock));
        let mesh = inproc_mesh(2);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);
        for seed in 0..1000 {
            let id = table.submit(Arc::clone(&alone), B, seed, seed, 0).unwrap();
            assert_eq!(settle(&engine), Progress::Idle { next_timer: None });
            table
                .wait(id)
                .expect("a one-rank job finishes in its first steps");
        }
        {
            let st = lock(&engine.state);
            assert!(st.jobs.is_empty() && st.registering.is_empty() && st.pending.is_empty());
            assert_eq!(st.taken, 1000);
        }

        let (producer, _) = remote_producer(&shared);
        let data = |job| Payload::Data {
            job,
            producer,
            tile: Tile::zeros(B),
        };
        mesh[1].send_payload(0, data(3)); // long finished
        mesh[1].send_payload(0, data(1000)); // not admitted yet
        settle(&engine);
        {
            let st = lock(&engine.state);
            let stashed: Vec<JobId> = st.pending.keys().copied().collect();
            assert_eq!(
                stashed,
                [1000],
                "the late payload dropped, the early one stashed"
            );
            assert_eq!(st.pending[&1000].len(), 1);
        }
        let id = table.submit(shared, B, 7, 7, 0).unwrap();
        assert_eq!(id, 1000);
        settle(&engine);
        let st = lock(&engine.state);
        assert!(st.pending.is_empty());
        assert_eq!(st.jobs.len(), 1);
        assert_eq!(
            st.jobs[0].applied, 1,
            "the stashed payload applies at registration"
        );
    }

    #[test]
    fn clean_runs_feed_the_drift_ok_counter_and_the_event_log() {
        let d = SbcExtended::new(3); // 3 nodes
        let graph = Arc::new(build_potrf(&d, 8));
        let table = JobTable::new(graph.num_nodes(), 8);
        let metrics = Metrics::new();
        let events = Arc::new(EventLog::with_capacity(64));
        table.bind_obs(&metrics, Arc::clone(&events), 64);
        let table_ref = &table;
        let g = &graph;
        run_mesh(
            &table,
            graph.num_nodes(),
            JobEngineConfig::default(),
            move || {
                for s in 0..3u64 {
                    let id = table_ref
                        .submit(Arc::clone(g), B, 10 + s, 20 + s, 0)
                        .unwrap();
                    table_ref.wait(id).unwrap();
                }
            },
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(3));
        assert_eq!(snap.counter("serve.jobs.done"), Some(3));
        assert_eq!(snap.counter("serve.jobs.failed"), Some(0));
        // the acceptance invariant: on a clean run every job's measured
        // comm matches the analytic prediction
        assert_eq!(snap.counter("obs.drift.ok"), Some(3));
        assert_eq!(snap.counter("obs.drift.messages"), Some(0));
        assert_eq!(snap.counter("obs.drift.bytes"), Some(0));
        let h = snap.histogram("serve.job.latency").unwrap();
        assert_eq!(h.count, 3, "latency recorded at completion");
        assert!(table.completion_rate(Duration::from_secs(3600)) > 0.0);

        let log = events.snapshot();
        for kind in [EventKind::Admitted, EventKind::Started, EventKind::Done] {
            assert_eq!(
                log.iter().filter(|e| e.kind == kind).count(),
                3,
                "{} events",
                kind.name()
            );
        }
        assert!(log.iter().all(|e| e.severity == Severity::Info), "{log:?}");
    }

    #[test]
    fn planted_comm_miscount_fires_the_drift_alarm() {
        let d = SbcExtended::new(3);
        let graph = Arc::new(build_potrf(&d, 8));
        let table = JobTable::new(graph.num_nodes(), 8);
        let metrics = Metrics::new();
        let events = Arc::new(EventLog::with_capacity(64));
        table.bind_obs(&metrics, Arc::clone(&events), 64);
        let real_msgs = graph.count_messages();
        let table_ref = &table;
        let g = &graph;
        run_mesh(
            &table,
            graph.num_nodes(),
            JobEngineConfig::default(),
            move || {
                // a prediction that is off by one message (and its bytes)
                let planted = (real_msgs + 1, messages_to_bytes(real_msgs, B));
                let id = table_ref
                    .submit_expecting(Arc::clone(g), B, 7, 8, 0, planted)
                    .unwrap();
                table_ref.wait(id).unwrap();
            },
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("obs.drift.ok"), Some(0));
        assert_eq!(snap.counter("obs.drift.messages"), Some(1));
        assert_eq!(snap.counter("obs.drift.bytes"), Some(0));
        let done: Vec<_> = events
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::Done)
            .collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].severity, Severity::Warn);
        assert!(done[0].detail.contains("drift"), "{}", done[0].detail);
    }

    #[test]
    fn rejections_and_rank_gauges_reach_the_registry() {
        let d = TwoDBlockCyclic::new(2, 2);
        let graph = Arc::new(build_potrf(&d, 6));
        let table = JobTable::new(graph.num_nodes(), 1);
        let metrics = Metrics::new();
        let events = Arc::new(EventLog::with_capacity(8));
        table.bind_obs(&metrics, Arc::clone(&events), 8);
        // eager registration: the full vocabulary exists before traffic
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve.jobs.rejected"), Some(0));
        assert_eq!(snap.counter("obs.drift.ok"), Some(0));
        assert!(snap.gauges.iter().any(|(n, _, _)| n == "jobs.rank3.busy"));
        assert_eq!(snap.histogram("serve.job.latency").unwrap().count, 0);

        let first = table.submit(Arc::clone(&graph), B, 1, 2, 0).unwrap();
        table
            .submit(Arc::clone(&graph), B, 3, 4, 0)
            .expect_err("queue full");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serve.jobs.rejected"), Some(1));
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(1));
        assert_eq!(table.inflight(), 1);
        let rej: Vec<_> = events
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::Rejected)
            .collect();
        assert_eq!(rej.len(), 1);
        assert_eq!(rej[0].severity, Severity::Warn);
        assert!(rej[0].detail.contains("queue full"), "{}", rej[0].detail);
        let _ = first;
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let d = TwoDBlockCyclic::new(2, 2);
        let graph = Arc::new(build_potrf(&d, 6));
        let table = JobTable::new(graph.num_nodes(), 4);
        table.shutdown();
        assert_eq!(
            table.submit(graph, B, 1, 2, 0).unwrap_err(),
            Rejection::ShuttingDown
        );
    }

    #[test]
    fn high_priority_jobs_jump_the_shared_heap() {
        // behavioural smoke: many jobs at mixed priorities all complete
        // and each stays bit-identical to the sequential factor
        let d = SbcExtended::new(3); // 3 nodes
        let nt = 8;
        let graph = Arc::new(build_potrf(&d, nt));
        let table = JobTable::new(graph.num_nodes(), 8);
        let table_ref = &table;
        let g = &graph;
        let mut outs = Vec::new();
        {
            let outs = &mut outs;
            run_mesh(
                &table,
                graph.num_nodes(),
                JobEngineConfig::default(),
                move || {
                    let ids: Vec<JobId> = (0..4u64)
                        .map(|s| {
                            table_ref
                                .submit(Arc::clone(g), B, 100 + s, 200 + s, (s % 3) as u8)
                                .unwrap()
                        })
                        .collect();
                    for id in ids {
                        outs.push(table_ref.wait(id).unwrap());
                    }
                },
            );
        }
        assert_eq!(table.completed(), 4);
        for (s, out) in outs.iter().enumerate() {
            assert_sequential(out, &d, nt, 100 + s as u64);
        }
    }

    /// An endpoint that, once it has delivered a poison, holds the sender
    /// until the table has heard of *a* failure. On the `armed` rank — the
    /// one whose kernel fails — this forces the interleaving in which a
    /// peer's `Remote` echo beats the cause to the table, if the engine
    /// poisons peers before recording the cause.
    struct PoisonGate<'t, 'a> {
        inner: InProc,
        table: &'t JobTable<'a>,
        armed: bool,
    }

    impl Transport for PoisonGate<'_, '_> {
        fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
            let poison = matches!(msg, Message::Poison);
            let sent = self.inner.send(dest, msg);
            let patience = Instant::now();
            while poison
                && self.armed
                && lock(&self.table.state).dead.is_none()
                && patience.elapsed() < Duration::from_secs(5)
            {
                std::thread::yield_now();
            }
            sent
        }
        fn rank(&self) -> NodeId {
            self.inner.rank()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn set_waker(&self, waker: Option<Waker>) {
            self.inner.set_waker(waker);
        }
        fn next_timer(&self) -> Option<Instant> {
            self.inner.next_timer()
        }
        fn recv(&self) -> Option<Message> {
            self.inner.recv()
        }
        fn try_recv(&self) -> Option<Message> {
            self.inner.try_recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
            self.inner.recv_timeout(timeout)
        }
        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    /// Runs one POTRF whose diagonal tile (4,4) is not positive definite as
    /// the single job of a 6-rank table and returns what its waiter sees.
    /// `gated` puts the failing rank behind a [`PoisonGate`]; two pool
    /// threads step the mesh, so a gated step never holds the only one.
    fn failing_job(workers: usize, gated: bool) -> Result<(), ExecError> {
        let d = SbcExtended::new(4); // 6 nodes
        let nt = 9;
        let graph = Arc::new(build_potrf(&d, nt));
        let n = graph.num_nodes();
        let failing_rank = graph
            .tasks()
            .iter()
            .find(|t| t.kind == TaskKind::Potrf { k: 4 })
            .expect("the graph factors tile (4,4)")
            .node;
        let provider = |r: TileRef| match r {
            TileRef::A {
                phase: 0,
                i: 4,
                j: 4,
                ..
            } => Tile::from_fn(B, |r, c| if r == c { -1.0 } else { 0.0 }),
            r => default_original(r, &graph, B, 7, 8),
        };
        let table = JobTable::new(n, 1);
        let id = table
            .submit_spec(
                potrf_spec(&graph, 7, &CriticalPath, Some(&provider)),
                (0, 0),
            )
            .unwrap();
        table.shutdown();
        let cfg = JobEngineConfig {
            workers,
            ..Default::default()
        };
        let mesh: Vec<_> = inproc_mesh(n)
            .into_iter()
            .map(|inner| PoisonGate {
                armed: gated && inner.rank() == failing_rank,
                inner,
                table: &table,
            })
            .collect();
        let nets: Vec<&dyn Transport> = mesh.iter().map(|t| t as &dyn Transport).collect();
        let _ = drive::run_pooled(&nets, &table, cfg, None, 2);
        table.wait(id).map(drop)
    }

    fn assert_kernel_failure(got: Result<(), ExecError>, context: &str) {
        match got {
            Err(ExecError::Kernel { .. }) => {}
            Err(other) => panic!("{context}: the waiter saw {other:?}, not the kernel failure"),
            Ok(_) => panic!("{context}: a non-SPD input factorized"),
        }
    }

    /// `Engine::fail` once poisoned peers *before* telling the table, so a
    /// peer's `Remote` could be recorded first and reach the waiter instead
    /// of the cause. The gate makes that interleaving certain.
    #[test]
    fn a_peers_remote_echo_never_beats_the_cause_to_the_table() {
        for workers in [1, 4] {
            assert_kernel_failure(failing_job(workers, true), &format!("workers {workers}"));
        }
    }

    /// The same failure with nothing forcing the order: whatever the
    /// scheduler or the pool does, the waiter sees the originating kernel
    /// error.
    #[test]
    fn the_waiter_sees_the_originating_failure_on_every_repetition() {
        for workers in [1, 4] {
            for rep in 0..100 {
                assert_kernel_failure(
                    failing_job(workers, false),
                    &format!("workers {workers} repetition {rep}"),
                );
            }
        }
    }
}
