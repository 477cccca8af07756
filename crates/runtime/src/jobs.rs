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
//!   [`CommStats`]. A job admitted through [`JobTable::submit`] also
//!   streams: a rank hands each result tile (a handle, not a copy) to the
//!   table as soon as the tile's last writer ran
//!   ([`TaskGraph::writes_result`]), and [`JobTable::wait_next`] yields
//!   those tiles before the outcome. Only tile payloads ever cross the transport; control
//!   stays in shared memory because every deployment shape (in-process
//!   mesh, a socket mesh held in one process, one process per rank with a
//!   rank-local table) keeps a rank and its table in one process.
//! - A rank engine is a state machine over a ready heap keyed by **(job
//!   priority, task priority)**, with per-job tile tables namespaced by the
//!   job id that [`sbc_net::Payload`] carries, so concurrent jobs share the
//!   mesh without clobbering each other. Its one entry point, `Engine::step`,
//!   picks up admissions, absorbs arrivals and runs a bounded number of
//!   ready tasks, then returns; it never blocks, and the engine lock is held
//!   only for heap and counter updates, never during kernels or sends — with
//!   one exception, below. Threads are the driver's business
//!   (`crate::drive`): [`run_jobs`] steps the ranks of the endpoints it is
//!   given on one shared pool.
//!
//! A rank registers a job when it first needs it: when the table's
//! generation moved (`Engine::admit`) or when a payload names a job that is
//! not in flight here (`Engine::absorb`). Both take the rank's queue from
//! the table under the engine lock, and the table queues a job for every
//! rank before any peer can take it and send for it, so a payload whose job
//! is still absent after that has finished here or was never admitted: it
//! is dropped.
//!
//! Registration ships the job's originals to their remote readers, then
//! pushes its dependency-free tasks onto the heap, all under the engine
//! lock, so no local task can overwrite an original before it was sent.
//! That is the one send made under the engine lock, and it is safe: only
//! TRTRI and LAUUM graphs ship, their tasks waited for the ship anyway, and
//! no socket reader or waker takes an engine lock.
//!
//! Lock order: the engine lock (`Engine::state`) before a job's tiles
//! (`JobCtx::tiles`); the table's lock nests inside the engine lock only
//! where a rank takes its queue, which it registers under that lock.
//! `apply_payload` and `count_down_reads` write the tiles under the engine
//! lock. A task's own bookkeeping is one engine lock: its completion counts
//! successors down and picks the rank's next step under it. Its operands
//! are resolved and its target taken under one lock of the tiles, never
//! while the engine lock is held.
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
use sbc_taskgraph::{Input, RankView, Source, TaskGraph, TaskId, TaskKind, TileRef};
use sbc_topo::{CriticalPath, SchedCtx, Scheduler};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Identifies one job across the table, the engines and the wire.
pub type JobId = u32;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
    /// Ready-heap task priorities as raw f32 bits, one per task of the
    /// graph, shared by every job of one (graph, scheduler, `b`).
    pub(crate) prio_bits: Arc<[u32]>,
    /// Original-tile contents; `None` is the seeded generators.
    pub(crate) provider: Option<&'a TileProvider<'a>>,
    /// Whether each result tile goes to the table as soon as its last
    /// writer ran ([`JobTable::wait_next`]): set by [`JobTable::submit`],
    /// never by a one-shot [`crate::Run`], which gathers at the end.
    pub(crate) stream: bool,
}

impl<'a> JobSpec<'a> {
    /// Describes a job, its tasks ranked by `sched`. Task costs are flop
    /// counts at tile size `b` and the communication cost is one GEMM's
    /// flops (a dimensionless surrogate: only relative magnitudes matter for
    /// ordering); the graph ranks itself once per scheduler name and `b`.
    /// `provider: None` is the seeded generators. The table assigns the id
    /// at admission.
    pub(crate) fn new(
        graph: Arc<TaskGraph>,
        b: usize,
        (seed, seed_rhs): (u64, u64),
        prio: u8,
        sched: &dyn Scheduler,
        provider: Option<&'a TileProvider<'a>>,
    ) -> Self {
        let prio_bits = graph.priorities(sched.name(), b, |graph| {
            let costs: Vec<f64> = graph.tasks().iter().map(|t| t.kind.flops(b)).collect();
            sched.ranks(&SchedCtx {
                graph,
                task_cost: &costs,
                comm_cost: sbc_kernels::flops::flops_gemm(b),
            })
        });
        JobSpec {
            id: 0,
            graph,
            b,
            seed,
            seed_rhs,
            prio,
            prio_bits,
            provider,
            stream: false,
        }
    }

    fn task_prio(&self, t: TaskId) -> u32 {
        self.prio_bits[t as usize]
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

/// One finished job: the merged owned tiles of every rank plus the job's
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

/// What [`JobTable::wait_next`] hands its caller: a job's result tiles as
/// they become final, then its end.
pub enum JobUpdate {
    /// Result tiles whose last writer ran since the previous update, under
    /// the job graph's names ([`TaskGraph::result_tiles`]). Each tile comes
    /// once; the [`JobOutcome`] still holds it too.
    Tiles(Vec<(TileRef, Tile)>),
    /// The job ended: its outcome, or the failure that killed the mesh.
    Done(Result<JobOutcome, ExecError>),
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
    /// Each reporting rank's owned tiles, handed over whole.
    stores: Vec<HashMap<TileRef, Tile>>,
    sent_per_node: Vec<u64>,
    recv_per_node: Vec<u64>,
    bytes_per_node: Vec<u64>,
    admitted: Instant,
    /// Analytic `(messages, bytes)` the finished job must have measured.
    expected: (u64, u64),
    /// Whether the `Started` lifecycle event has fired (first rank pickup).
    started_emitted: bool,
    /// Final result tiles the job's waiter has not taken yet (streaming
    /// jobs only).
    streamed: Vec<(TileRef, Tile)>,
    /// Who sleeps on `wake`, if anyone: a push signals only a waiter for
    /// tiles, the job's end any waiter.
    waiting: Waiting,
    /// What the job's waiter sleeps on, its own, so a push wakes nobody
    /// else.
    wake: Arc<Condvar>,
}

/// What a job's sleeping waiter waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// Nobody sleeps.
    No,
    /// [`JobTable::wait_next`]: the next streamed tiles or the end.
    Tiles,
    /// [`JobTable::wait`]: the end only.
    End,
}

impl JobAccum {
    /// What wakes the job's waiter, if it sleeps and waits for `news` (a
    /// push: `Tiles`; the end: `End`, which wakes either), for the caller to
    /// signal after the table lock; from here on the waiter counts as woken.
    fn take_waiter(&mut self, news: Waiting) -> Option<Arc<Condvar>> {
        let wakes = match self.waiting {
            Waiting::No => false,
            Waiting::Tiles => true,
            Waiting::End => news == Waiting::End,
        };
        wakes.then(|| {
            self.waiting = Waiting::No;
            Arc::clone(&self.wake)
        })
    }
}

/// A finished job as the last rank left it: the per-rank owned tiles still
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
    /// Bumped by every `submit` and `shutdown`, so a rank engine takes the
    /// state mutex only when there is something new to pick up.
    generation: AtomicU64,
    /// Told of every admission and of the shutdown: the driver that steps
    /// the table's ranks marks them runnable here.
    on_admit: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Time source of admission stamps and of every engine's watchdog.
    pub(crate) clock: Arc<dyn Clock>,
    /// A lock-free mirror of the jobs in flight (`TableState::accum`'s
    /// length), so a telemetry scrape never touches the state mutex the
    /// engines use; it is written under that mutex, in its order.
    inflight_now: AtomicU64,
    /// Jobs completed since the table was built.
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
                shutdown: false,
                dead: None,
            }),
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
    /// `jobs.rank<r>.{ready,inflight,busy}` gauges — so a scrape
    /// before any traffic shows them all at zero. `rate_slots` bounds the
    /// sliding-window throughput ring (events remembered for
    /// [`JobTable::completion_rate`]).
    pub fn bind_obs(&self, metrics: &Metrics, events: Arc<EventLog>, rate_slots: usize) {
        let ranks = (0..self.n_nodes)
            .map(|r| {
                Arc::new(RankObs {
                    ready: metrics.gauge(&format!("jobs.rank{r}.ready")),
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
        let mut spec = JobSpec::new(graph, b, (seed, seed_rhs), prio, &CriticalPath, None);
        spec.stream = true;
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
        } else if st.accum.len() >= self.max_inflight {
            Some(Rejection::QueueFull {
                inflight: st.accum.len(),
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
                streamed: Vec::new(),
                waiting: Waiting::No,
                wake: Arc::new(Condvar::new()),
            },
        );
        for q in &mut st.incoming {
            q.push_back(Arc::clone(&spec));
        }
        let inflight = st.accum.len();
        self.generation.fetch_add(1, Ordering::Release);
        // the mirror is written under the lock: stored after it, a job that
        // finished first would leave it at this count for good
        self.inflight_now.store(inflight as u64, Ordering::Relaxed);
        drop(st);
        self.admitted();
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
        Ok(id)
    }

    /// Blocks until `id` has news: the result tiles that became final since
    /// the last call, when there are any, else the job's end — its outcome,
    /// or the engine failure that killed the mesh while it was in flight.
    /// Only a job admitted through [`JobTable::submit`] streams its tiles;
    /// any other answers only at its end. The waiter sleeps on a signal of
    /// its own job, which a push or the job's end sends only while it
    /// sleeps. At the end the ranks' owned tiles are merged here, on the
    /// waiter's thread, so no rank engine holds the table lock per tile.
    ///
    /// # Panics
    /// Panics if `id` is neither in flight nor finished and unclaimed: it
    /// was never admitted, or its end was already handed out.
    pub fn wait_next(&self, id: JobId) -> JobUpdate {
        self.wait_for(id, Waiting::Tiles)
    }

    /// Blocks until `id` finishes, returning its outcome — or the engine
    /// failure that killed the mesh while it was in flight. Streamed tiles
    /// are dropped under the lock (the outcome holds them all), and a push
    /// does not wake this waiter: only the job's end does.
    ///
    /// # Panics
    /// As [`JobTable::wait_next`].
    pub fn wait(&self, id: JobId) -> Result<JobOutcome, ExecError> {
        match self.wait_for(id, Waiting::End) {
            JobUpdate::Done(outcome) => outcome,
            JobUpdate::Tiles(_) => unreachable!("a wait for the end yields the end"),
        }
    }

    /// [`JobTable::wait_next`] when `news` is `Tiles`; with `End`, the
    /// job's end and nothing before it.
    fn wait_for(&self, id: JobId, news: Waiting) -> JobUpdate {
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
                return JobUpdate::Done(Err(e.clone()));
            }
            let Some(acc) = st.accum.get_mut(&id) else {
                panic!("job {id} is not in flight and has no outcome left to claim");
            };
            if news == Waiting::End {
                acc.streamed.clear();
            } else if !acc.streamed.is_empty() {
                return JobUpdate::Tiles(std::mem::take(&mut acc.streamed));
            }
            acc.waiting = news;
            let wake = Arc::clone(&acc.wake);
            st = wake
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        drop(st);
        let mut tiles = HashMap::with_capacity(stores.iter().map(HashMap::len).sum());
        for (r, t) in stores.into_iter().flatten() {
            let prev = tiles.insert(r, t);
            debug_assert!(prev.is_none(), "tile {r:?} reported by two ranks");
        }
        JobUpdate::Done(Ok(JobOutcome {
            id,
            graph,
            tiles,
            stats,
            elapsed,
        }))
    }

    /// Stops admitting jobs; engines exit once everything already admitted
    /// has drained.
    pub fn shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.generation.fetch_add(1, Ordering::Release);
        self.admitted();
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

    /// Engine side: result tile `r` of job `id` holds its final value. It
    /// waits in the job's entry for [`JobTable::wait_next`]; the waiter is
    /// signalled, after the lock, only if it sleeps waiting for tiles. A job
    /// no longer in flight (failed) drops it.
    fn push_final(&self, id: JobId, r: TileRef, tile: Tile) {
        let mut st = lock(&self.state);
        let Some(acc) = st.accum.get_mut(&id) else {
            return;
        };
        acc.streamed.push((r, tile));
        let waiter = acc.take_waiter(Waiting::Tiles);
        drop(st);
        if let Some(wake) = waiter {
            wake.notify_one();
        }
    }

    /// Engine side: `rank`'s share of a job is finished. The final rank to
    /// report completes the job and wakes its waiter, if one sleeps.
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
            let mut acc = st.accum.remove(&id).expect("accumulator present");
            let waiter = acc.take_waiter(Waiting::End);
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
            let inflight = st.accum.len();
            self.inflight_now.store(inflight as u64, Ordering::Relaxed);
            drop(st);
            self.completed_ever.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.obs.get() {
                obs.inflight.set(inflight as f64);
                obs.job_done(id, elapsed, measured, expected);
            }
            if let Some(wake) = waiter {
                wake.notify_one();
            }
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
        let waiters: Vec<Arc<Condvar>> = st
            .accum
            .values_mut()
            .filter_map(|acc| acc.take_waiter(Waiting::End))
            .collect();
        st.accum.clear();
        for q in &mut st.incoming {
            q.clear();
        }
        self.inflight_now.store(0, Ordering::Relaxed);
        drop(st);
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
        waiters.iter().for_each(|wake| wake.notify_one());
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

/// What a worker needs to run a job's tasks outside the engine lock: the
/// spec, this rank's view of its graph and the job-private tile table — the
/// namespace that lets concurrent jobs share one mesh. `tiles` is numbered
/// by the view: the tiles this rank owns for the job at `0..owned()`, then
/// remote input `i` at `owned() + i`, held from its arrival until its last
/// local reader ran.
struct JobCtx<'a> {
    spec: Arc<JobSpec<'a>>,
    me: NodeId,
    tiles: Mutex<Vec<Option<Tile>>>,
    /// Full slots of `tiles`; a task's target counts while the task runs.
    occupied: AtomicUsize,
}

impl JobCtx<'_> {
    /// This rank's share of the job's graph.
    fn view(&self) -> &RankView {
        self.spec.graph.rank_view(self.me)
    }

    /// The tile in owned slot `s` of `tiles` (this job's table, locked),
    /// generated from its original on first use.
    fn local_or_original(&self, tiles: &mut [Option<Tile>], s: u32) -> Result<Tile, KernelError> {
        if let Some(tile) = &tiles[s as usize] {
            return Ok(tile.clone());
        }
        let tile = self.spec.original(self.view().owned_tile(s))?;
        tiles[s as usize] = Some(tile.clone());
        self.occupied.fetch_add(1, Ordering::Relaxed);
        Ok(tile)
    }
}

/// One rank's in-flight share of a job. Tasks are numbered as in the rank's
/// view of the graph.
struct JobRun<'a> {
    ctx: Arc<JobCtx<'a>>,
    /// Unmet dependencies per own task.
    deps: Vec<u32>,
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
}

impl JobRun<'_> {
    /// Counts own task `l`'s reads of remote inputs down, once per input,
    /// returning the tile of each input whose last reader `l` was, taken
    /// from its slot, for the caller to drop after the engine lock.
    fn count_down_reads(&mut self, view: &RankView, l: u32) -> [Option<Tile>; 2] {
        let mut released = [None, None];
        let read = view.sources(l);
        for (k, &source) in read.iter().enumerate() {
            let Source::Input(i) = source else { continue };
            if read[..k].contains(&source) {
                continue;
            }
            let left = &mut self.readers[i as usize];
            *left -= 1;
            if *left == 0 {
                let tile = lock(&self.ctx.tiles)[view.owned() + i as usize].take();
                self.ctx
                    .occupied
                    .fetch_sub(tile.is_some() as usize, Ordering::Relaxed);
                released[k] = tile;
            }
        }
        released
    }
}

/// Ready-heap key: job priority (descending), task priority (descending),
/// then job id and task number (ascending) for determinism, packed as
/// `jprio << 96 | tprio << 64 | !job << 32 | !task` — the order of those
/// four fields compared in turn, so one heap sift step is one integer
/// compare. `tprio` is raw `f32` bits, which order like the floats only
/// when non-negative ([`TaskGraph::priorities`] refuses the rest). `task`
/// is the rank-local number, which orders a rank's tasks as their ids do.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct ReadyKey(u128);

impl ReadyKey {
    fn new(spec: &JobSpec<'_>, view: &RankView, l: u32) -> Self {
        Self::pack(spec.prio, spec.task_prio(view.task(l)), spec.id, l)
    }

    fn pack(jprio: u8, tprio: u32, job: JobId, task: u32) -> Self {
        let high = u128::from(jprio) << 96 | u128::from(tprio) << 64;
        ReadyKey(high | u128::from(!job) << 32 | u128::from(!task))
    }

    fn job(&self) -> JobId {
        !((self.0 >> 32) as u32)
    }

    fn task(&self) -> u32 {
        !(self.0 as u32)
    }
}

struct EngineState<'a> {
    ready: BinaryHeap<ReadyKey>,
    /// In-flight jobs, found by scanning for the id: there are at most the
    /// table's `max_inflight` of them, one in a one-shot run.
    jobs: Vec<JobRun<'a>>,
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
        self.poisoned || (self.closed && self.jobs.is_empty())
    }

    /// Ready-heap depth and jobs in flight.
    fn depths(&self) -> (usize, usize) {
        (self.ready.len(), self.jobs.len())
    }

    /// Tiles this rank holds across its jobs: owned tiles plus replicas.
    fn resident_tiles(&self) -> usize {
        let job = |run: &JobRun| run.ctx.occupied.load(Ordering::Relaxed);
        self.jobs.iter().map(job).sum()
    }
}

/// The in-flight job `id` (a free function, so callers can hold the ready
/// heap beside it).
fn find_job<'j, 'a>(jobs: &'j mut [JobRun<'a>], id: JobId) -> Option<&'j mut JobRun<'a>> {
    jobs.iter_mut().find(|run| run.ctx.spec.id == id)
}

/// Tasks one [`Engine::step`] runs at most before it hands its
/// thread back to the driver, so the ranks sharing a pooled thread take
/// turns. Each hand-back may move the rank's working set to another core
/// (the pool prefers the rank's home thread, but never idles for it): with
/// a FIFO pick, at b = 4 a budget of 8 cost a fifth more time per
/// factorization than 64, while served jobs could not tell the two apart.
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
    /// failed or drained, admission closed. `work` says whether ready tasks
    /// are waiting for a stepper.
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
    /// Nanoseconds this rank's steppers spent running tasks,
    /// summed across lanes; `busy / (workers * elapsed)` is the engine's
    /// busy fraction. Only measured when `obs` consumes it.
    busy_ns: AtomicU64,
    /// Live per-rank gauges, present when the table is obs-bound.
    obs: Option<Arc<RankObs>>,
}

/// The next unit of work a step takes.
enum Work<'a> {
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

    /// Publishes this rank's live gauges, when the table is obs-bound: the
    /// [`EngineState::depths`] captured under the engine lock, as plain
    /// atomic stores after its release so scrapers never take that lock,
    /// and the lanes' busy fraction.
    fn publish_gauges(&self, (ready, jobs): (usize, usize)) {
        let Some(obs) = &self.obs else { return };
        obs.ready.set(ready as f64);
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
    /// tells the driver, with whether ready tasks are waiting — after a
    /// completion's own pick, so only what another lane could take.
    fn unlock_and_nudge(&self, st: MutexGuard<'_, EngineState<'a>>) {
        let work = !st.ready.is_empty();
        drop(st);
        self.driver.nudge(work);
    }

    /// One bounded, non-blocking unit of this rank's work — the only code
    /// that decides what the rank does next: pick up admitted jobs, absorb
    /// what the inbox holds, then run up to [`STEP_BUDGET`] ready tasks. A
    /// panic below it — a task, a tile provider — is caught and
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
        self.admit(obs);
        self.absorb(obs);
        // a task's completion picks the next step under the engine lock it
        // holds anyway, except the budget's last: a step never ends holding
        // a task it popped
        let mut next = None;
        for left in (0..STEP_BUDGET).rev() {
            match next.take().unwrap_or_else(|| self.take_work(obs)) {
                Work::Run(ctx, l) => self.busy(|| next = self.run_task(&ctx, l, left > 0, obs)),
                Work::Idle => return self.idle(obs),
                Work::Drained => return Progress::Drained,
            }
        }
        Progress::Ran
    }

    /// Picks up new admissions when the table's generation moved.
    fn admit(&self, obs: &mut Obs<'_>) {
        let generation = self.table.generation.load(Ordering::Acquire);
        if self.generation.fetch_max(generation, Ordering::AcqRel) >= generation {
            return;
        }
        let mut st = lock(&self.state);
        let registered = self.register_incoming(&mut st, obs);
        self.unlock_and_nudge(st);
        match registered {
            Ok(done) => done.into_iter().for_each(|run| self.report(run)),
            Err(e) => self.fail(e),
        }
    }

    /// Takes this rank's queue from the table and registers every job in
    /// it under the engine lock the caller holds, so no arrival can be
    /// judged between the two; the table lock nests inside it here. Returns
    /// the jobs that finished at registration, for [`Engine::report`] after
    /// the engine lock; a provider's failure is the rank's.
    fn register_incoming(
        &self,
        st: &mut EngineState<'a>,
        obs: &mut Obs<'_>,
    ) -> Result<Vec<JobRun<'a>>, ExecError> {
        let (specs, closed) = self.table.take_incoming(self.me);
        st.closed |= closed;
        if !specs.is_empty() {
            // arm the per-job watchdog clock: a rank that was idle until now
            // must measure no-progress from this registration, not from the
            // end of the previous job
            self.touch_progress();
        }
        let mut done = Vec::new();
        for spec in specs {
            done.extend(self.register(st, spec, obs)?);
        }
        Ok(done)
    }

    /// The next task to run, if any, and whether the rank is drained.
    fn take_work(&self, obs: &mut Obs<'_>) -> Work<'a> {
        let mut st = lock(&self.state);
        let work = Self::pick(&mut st, obs);
        let depths = st.depths();
        drop(st);
        self.publish_gauges(depths);
        work
    }

    /// Takes the next step under the engine lock: drained first, then the
    /// ready heap. The one choice of what a rank does next, made by
    /// [`Engine::take_work`] and by a task's completion.
    fn pick(st: &mut EngineState<'a>, obs: &mut Obs<'_>) -> Work<'a> {
        if st.drained() {
            Work::Drained
        } else if let Some(k) = st.ready.pop() {
            st.active += 1;
            if let Some(o) = obs.as_mut() {
                o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
            }
            let run = find_job(&mut st.jobs, k.job()).expect("a ready task's job runs");
            Work::Run(Arc::clone(&run.ctx), k.task())
        } else {
            Work::Idle
        }
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
    /// rank's view of the graph, which the graph builds once — ships the
    /// job's originals to their remote readers and only then pushes its
    /// dependency-free tasks onto the heap: under the engine lock, no local
    /// task can overwrite an original before it was sent. Returns the share
    /// when the job has nothing left to do here (no local tasks), for
    /// [`Engine::report`] after the engine lock; a provider's failure is
    /// the error of the task the original was shipped for.
    fn register(
        &self,
        st: &mut EngineState<'a>,
        spec: Arc<JobSpec<'a>>,
        obs: &mut Obs<'_>,
    ) -> Result<Option<JobRun<'a>>, ExecError> {
        let (id, graph) = (spec.id, Arc::clone(&spec.graph));
        let view = graph.rank_view(self.me);
        let ctx = Arc::new(JobCtx {
            spec,
            me: self.me,
            tiles: Mutex::new(vec![None; view.owned() + view.inputs()]),
            occupied: AtomicUsize::new(0),
        });
        let mut sent = (0, 0);
        for &(slot, dest, task) in view.ships() {
            let tile = ctx
                .local_or_original(&mut lock(&ctx.tiles), slot)
                .map_err(|error| ExecError::Kernel {
                    task,
                    node: self.me,
                    error,
                })?;
            let payload = Payload::Orig {
                job: id,
                tile_ref: view.owned_tile(slot),
                tile,
            };
            self.send(dest, payload, &mut sent, obs);
        }
        let deps = view.deps().to_vec();
        let free = (0..deps.len() as u32).filter(|&l| deps[l as usize] == 0);
        st.ready
            .extend(free.map(|l| ReadyKey::new(&ctx.spec, view, l)));
        st.jobs.push(JobRun {
            deps,
            remaining: view.len() as u64,
            sent: sent.0,
            sent_bytes: sent.1,
            applied: 0,
            arrived: vec![false; view.inputs()],
            readers: view.readers().to_vec(),
            ctx,
        });
        Ok(Self::try_finish(st, id))
    }

    /// If `id` has run out of local tasks, remove it and return it for
    /// [`Engine::report`], which the caller invokes after releasing the
    /// engine lock.
    fn try_finish(st: &mut EngineState<'a>, id: JobId) -> Option<JobRun<'a>> {
        let at = st.jobs.iter().position(|run| run.ctx.spec.id == id)?;
        if st.jobs[at].remaining != 0 {
            return None;
        }
        Some(st.jobs.swap_remove(at))
    }

    /// Tells the table this rank's share of a job is finished, handing over
    /// its owned tiles under the names the rest of the system uses.
    fn report(&self, run: JobRun<'a>) {
        let view = run.ctx.view();
        // no stepper is inside a finished job any more: the tiles are ours
        let tiles = lock(&run.ctx.tiles)[..view.owned()]
            .iter_mut()
            .zip(0..)
            .filter_map(|(tile, s)| Some((view.owned_tile(s), tile.take()?)))
            .collect();
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

    /// Executes own task `l` of one job, publishes its output to remote
    /// consumer ranks (tagged with the job id, one message per distinct
    /// consumer rank) and resolves successors. With `pick`, the rank's next
    /// step is picked under the same engine lock and returned; `None` when
    /// not asked or when the task failed.
    fn run_task(
        &self,
        ctx: &JobCtx<'a>,
        l: u32,
        pick: bool,
        obs: &mut Obs<'_>,
    ) -> Option<Work<'a>> {
        let spec = &ctx.spec;
        let g: &TaskGraph = &spec.graph;
        let view = ctx.view();
        let t = view.task(l);
        let consumer_nodes = view.dests(l);
        // the one branch a one-shot run pays: its jobs never stream
        let is_final = spec.stream && g.writes_result(t);
        let span_start = obs.as_ref().map(|o| o.now());
        let publish = is_final || !consumer_nodes.is_empty();
        let output = match execute_task(self.cfg.kernels, ctx, l, publish) {
            Ok(output) => output,
            Err(error) => {
                self.fail(ExecError::Kernel {
                    task: t,
                    node: self.me,
                    error,
                });
                return None;
            }
        };
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

        let mut sent = (0, 0);
        if let Some(tile) = output {
            for &dest in consumer_nodes {
                let payload = Payload::Data {
                    job: spec.id,
                    producer: t,
                    tile: tile.clone(),
                };
                self.send(dest, payload, &mut sent, obs);
            }
            if is_final {
                let name = view.owned_tile(view.output(l));
                self.table.push_final(spec.id, name, tile);
            }
        }

        let mut st = lock(&self.state);
        st.active -= 1;
        if let Some(o) = obs.as_mut() {
            o.gauge(GaugeKind::ActiveWorkers, st.active as f64);
        }
        let EngineState { jobs, ready, .. } = &mut *st;
        let mut released = [None, None];
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
                released = run.count_down_reads(view, l);
                run.remaining == 0
            }
        };
        if let Some(o) = obs
            .as_mut()
            .filter(|_| released.iter().any(Option::is_some))
        {
            o.gauge(GaugeKind::TileStore, st.resident_tiles() as f64);
        }
        let done = if last {
            Self::try_finish(&mut st, spec.id)
        } else {
            None
        };
        let next = pick.then(|| Self::pick(&mut st, obs));
        let depths = st.depths();
        self.unlock_and_nudge(st);
        if next.is_some() {
            self.publish_gauges(depths);
        }
        // a replica's last handle goes back to the tile free list here,
        // outside the engine lock
        drop(released);
        if let Some(run) = done {
            self.report(run);
        }
        next
    }

    /// Takes everything the inbox holds and applies it under one engine
    /// lock, registering first the jobs a payload names that are not in
    /// flight here. A fresh payload ends the rank's dep-wait span and counts
    /// as progress; a poison, a refused payload or a failed registration
    /// fails the rank after the lock is released.
    fn absorb(&self, obs: &mut Obs<'_>) {
        let batch: Vec<Message> = std::iter::from_fn(|| self.net.try_recv()).collect();
        if batch.is_empty() {
            return;
        }
        let (mut fresh, mut poisoned, mut refused) = (false, false, None);
        let mut done = Vec::new();
        let mut st = lock(&self.state);
        for msg in batch {
            match msg {
                // a bare Seq means no session wraps this endpoint; the
                // per-input arrived bit deduplicates it regardless
                Message::Payload { src, payload } | Message::Seq { src, payload, .. } => {
                    let (bytes, orig) = (payload.payload_bytes(), payload.is_orig());
                    if find_job(&mut st.jobs, payload.job()).is_none() {
                        match self.register_incoming(&mut st, obs) {
                            Ok(registered) => done.extend(registered),
                            Err(e) => {
                                refused = Some(e);
                                break;
                            }
                        }
                    }
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
        done.into_iter().for_each(|run| self.report(run));
        if fresh {
            self.touch_progress();
        }
        if let Some(e) = refused {
            self.fail(e);
        } else if poisoned {
            self.fail(ExecError::Remote);
        }
    }

    /// Applies one payload to its job under the engine lock: holds the
    /// tile, then releases the tasks it unblocks. `Ok` says whether the
    /// payload was fresh: not a duplicate, and for a job in flight here — a
    /// registered job that is absent finished here, and an id the table
    /// never admitted names nothing. A tile of the wrong dimension is
    /// refused before anything is applied or counted, as the error of the
    /// first local task that waits for it.
    fn apply_payload(
        st: &mut EngineState<'a>,
        me: NodeId,
        payload: Payload,
    ) -> Result<bool, ExecError> {
        let EngineState { jobs, ready, .. } = st;
        let Some(run) = find_job(jobs, payload.job()) else {
            return Ok(false);
        };
        let (input, tile) = match payload {
            Payload::Data { producer, tile, .. } => (Input::Task(producer), tile),
            Payload::Orig { tile_ref, tile, .. } => (Input::Orig(tile_ref), tile),
        };
        let JobRun {
            ctx,
            deps,
            applied,
            arrived,
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
        lock(&ctx.tiles)[view.owned() + i] = Some(tile);
        ctx.occupied.fetch_add(1, Ordering::Relaxed);
        *applied += 1;
        for &l in waiting {
            let d = &mut deps[l as usize];
            *d -= 1;
            if *d == 0 {
                ready.push(ReadyKey::new(&ctx.spec, view, l));
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

/// Executes one task's kernel against the job's private tiles, returning a
/// handle on its output when `publish` asks for one to send.
///
/// Each operand is read from the slot the rank's view names: a remote
/// producer's output or a fetched original in its input slot, a local
/// producer's output in its owned slot, or a local original generated there
/// on first use. The operands are resolved and the target tile *removed*
/// from its slot under one lock, and the target is reinserted after
/// the kernel call; this is safe because the graph's ordering edges
/// guarantee no same-rank reader of the current version is running
/// concurrently with its writer (remote readers use received copies).
fn execute_task(
    kernels: KernelBackend,
    ctx: &JobCtx<'_>,
    l: u32,
    publish: bool,
) -> Result<Option<Tile>, KernelError> {
    let spec = &ctx.spec;
    let view = ctx.view();
    let task = spec.graph.tasks()[view.task(l) as usize];
    let out = view.output(l) as usize;
    let mut operands: [Option<Tile>; 2] = [None, None];
    let stored = {
        let mut tiles = lock(&ctx.tiles);
        for (operand, &source) in operands.iter_mut().zip(view.sources(l)) {
            *operand = Some(match source {
                Source::Input(i) => tiles[view.owned() + i as usize]
                    .clone()
                    .expect("dependency ensured arrival"),
                Source::Local(s) => tiles[s as usize]
                    .clone()
                    .expect("local producer wrote the tile"),
                Source::Original(s) => ctx.local_or_original(&mut tiles, s)?,
            });
        }
        tiles[out].take()
    };
    // the target counts as held while the kernel runs: only a first write
    // fills its slot
    let fresh = stored.is_none();
    let mut target = match stored {
        Some(tile) => tile,
        // a Move replaces its target with a handle on its source: an empty
        // placeholder, never generated data for a later-phase tile
        None if matches!(task.kind, TaskKind::Move { .. }) => Tile::zeros(0),
        None => spec.original(task.output(spec.graph.slices))?,
    };
    let result = run_kernel(kernels, task.kind, &operands, &mut target);
    let output = publish.then(|| target.clone());
    lock(&ctx.tiles)[out] = Some(target);
    if fresh {
        ctx.occupied.fetch_add(1, Ordering::Relaxed);
    }
    result.map(|()| output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gather, Run, RunResult};
    use sbc_dist::comm::{lauum_messages, potrf_messages, trtri_messages};
    use sbc_dist::{Distribution, SbcExtended, TwoDBlockCyclic};
    use sbc_matrix::{lauum_tiled, potrf_tiled, random_spd, trtri_tiled};
    use sbc_net::{inproc_mesh, InProc, TransportStats, VirtualClock};
    use sbc_taskgraph::build_potrf;
    use sbc_topo::{Heft, SubmissionOrder};
    use std::collections::HashSet;
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
            heap.push(ReadyKey::pack(jprio, tprio.to_bits(), job, task));
        }
        let order: Vec<(JobId, TaskId)> =
            std::iter::from_fn(|| heap.pop().map(|k| (k.job(), k.task()))).collect();
        // highest job priority first; within a job priority, highest task
        // priority; ties broken by ascending job then task id
        assert_eq!(order, vec![(7, 0), (2, 4), (1, 3), (2, 9)]);

        // within one job (a one-shot run): high priority first, then low
        // task id
        for (tprio, task) in [(1.0f32, 5u32), (3.0, 9), (3.0, 2), (0.0, 0)] {
            heap.push(ReadyKey::pack(0, tprio.to_bits(), 0, task));
        }
        let order: Vec<TaskId> = std::iter::from_fn(|| heap.pop().map(|k| k.task())).collect();
        assert_eq!(order, vec![2, 9, 5, 0]);
    }

    /// The ready key as four fields compared in turn: the order the packed
    /// [`ReadyKey`] must keep.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Fields {
        jprio: u8,
        tprio: u32,
        job: std::cmp::Reverse<JobId>,
        task: std::cmp::Reverse<u32>,
    }

    impl Fields {
        fn new(jprio: u8, tprio: u32, job: JobId, task: u32) -> Self {
            let (job, task) = (std::cmp::Reverse(job), std::cmp::Reverse(task));
            Fields {
                jprio,
                tprio,
                job,
                task,
            }
        }

        fn packed(self) -> ReadyKey {
            ReadyKey::pack(self.jprio, self.tprio, self.job.0, self.task.0)
        }
    }

    /// The packed key orders as the four fields do, and gives its job and
    /// task back: on every pair of the edge values of each field (the
    /// extremes of every width, equal task priorities) and on seeded random
    /// keys.
    #[test]
    fn the_packed_ready_key_orders_as_its_four_fields() {
        let agree = |a: Fields, b: Fields| {
            assert_eq!(a.packed().cmp(&b.packed()), a.cmp(&b), "{a:?} vs {b:?}");
        };
        let prios = [0, 1, u8::MAX - 1, u8::MAX];
        let ranks = [0.0, f32::MIN_POSITIVE, 1.0, 1.5, f32::MAX, f32::INFINITY].map(f32::to_bits);
        let ids = [0, 1, u32::MAX - 1, u32::MAX];
        let mut edges = Vec::new();
        for jprio in prios {
            for tprio in ranks {
                for job in ids {
                    for task in ids {
                        edges.push(Fields::new(jprio, tprio, job, task));
                    }
                }
            }
        }
        for &a in &edges {
            let key = a.packed();
            assert_eq!((key.job(), key.task()), (a.job.0, a.task.0));
            for &b in &edges {
                agree(a, b);
            }
        }
        // splitmix64; narrow fields make ties in the leading ones common
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut random = || {
            let narrow = next() & 1 == 0;
            let mut field = |bits: u32| match next() {
                v if narrow => v % 4,
                v => v >> (64 - bits),
            };
            let (jprio, tprio) = (field(8) as u8, field(32) as u32);
            Fields::new(jprio, tprio, field(32) as u32, field(32) as u32)
        };
        for _ in 0..100_000 {
            agree(random(), random());
        }
    }

    /// A scheduler that gives every task one rank.
    struct Flat(&'static str, f32);

    impl Scheduler for Flat {
        fn name(&self) -> &'static str {
            self.0
        }

        fn ranks(&self, ctx: &SchedCtx<'_>) -> Vec<f32> {
            vec![self.1; ctx.graph.len()]
        }
    }

    /// Rank bits compare as integers, where `-0.0` (`0x8000_0000`) would
    /// outrank every positive rank: a scheduler's `-0.0` is ranked as zero,
    /// so its tasks pop in task order as `SubmissionOrder`'s do.
    #[test]
    fn a_negative_zero_rank_ranks_as_zero() {
        let graph = Arc::new(build_potrf(&SbcExtended::new(4), 6));
        let spec = potrf_spec(&graph, 1, &Flat("minus-zero", -0.0), None);
        assert_eq!(*spec.prio_bits, *vec![0; graph.len()]);
    }

    #[test]
    #[should_panic(expected = "the below-zero scheduler ranked task 0 at -0.5")]
    fn a_negative_rank_is_refused_naming_its_scheduler() {
        let graph = Arc::new(build_potrf(&SbcExtended::new(4), 6));
        potrf_spec(&graph, 1, &Flat("below-zero", -0.5), None);
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
    /// cannot tell from a hand-made all-zero vector — same pop order
    /// (`TaskId` order), same factor, same `CommStats`.
    #[test]
    fn submission_order_scheduler_matches_the_empty_priority_vector() {
        let d = SbcExtended::new(4); // 6 nodes
        let nt = 10;
        let graph = Arc::new(build_potrf(&d, nt));
        let ranked = potrf_spec(&graph, 31, &SubmissionOrder, None);
        let mut empty = potrf_spec(&graph, 31, &SubmissionOrder, None);
        assert_eq!(*ranked.prio_bits, *vec![0; graph.len()]);
        empty.prio_bits = vec![0; graph.len()].into();
        let view = graph.rank_view(0);
        let tasks = 0..view.len() as u32;
        let pop_order = |spec: &JobSpec| {
            let mut heap: BinaryHeap<_> = tasks
                .clone()
                .rev()
                .map(|l| ReadyKey::new(spec, view, l))
                .collect();
            std::iter::from_fn(|| heap.pop().map(|k| k.task())).collect::<Vec<_>>()
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

    /// Remote arrivals `ctx` holds: its full input slots.
    fn cached(ctx: &JobCtx) -> usize {
        lock(&ctx.tiles)[ctx.view().owned()..]
            .iter()
            .flatten()
            .count()
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

    /// A job whose 120 tasks all run on the one rank of a one-rank mesh,
    /// admitted to `table`: every task is runnable without an arrival.
    fn one_rank_job(table: &JobTable) -> (JobId, usize) {
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(1, 1), 8));
        let tasks = graph.len();
        (table.submit(graph, B, 5, 6, 0).unwrap(), tasks)
    }

    /// A completion picks the rank's next step under its own engine lock,
    /// except the budget's last. So a step runs exactly `min(STEP_BUDGET,
    /// runnable)` tasks, and one that ends on its budget holds nothing: no
    /// lane is active, and every task whose dependencies are met has either
    /// run or is in the heap — none was popped and dropped.
    #[test]
    fn a_step_runs_its_budget_and_ends_holding_no_task() {
        let table = JobTable::new(1, 1);
        let (id, tasks) = one_rank_job(&table);
        assert!(tasks > STEP_BUDGET && tasks < 2 * STEP_BUDGET);
        let mesh = inproc_mesh(1);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);

        assert_eq!(engine.step(), Progress::Ran);
        {
            let st = lock(&engine.state);
            assert_eq!(st.active, 0, "the step ended holding a task");
            let run = &st.jobs[0];
            let ran = tasks - run.remaining as usize;
            assert_eq!(ran, STEP_BUDGET);
            let met = run.deps.iter().filter(|&&d| d == 0).count();
            assert_eq!(met, ran + st.ready.len(), "a popped task never ran");
        }

        // the rest is fewer than a budget: the job ends inside the step
        assert_eq!(engine.step(), Progress::Idle { next_timer: None });
        assert_eq!(lock(&engine.state).active, 0);
        let out = table.wait(id).expect("the job finishes");
        assert_sequential(&out, &TwoDBlockCyclic::new(1, 1), 8, 5);
    }

    /// A job admitted through `JobTable::submit` hands each result tile to
    /// its waiter as soon as the tile's last writer ran: after one step of
    /// the one-rank job, whose first task finishes tile (0, 0), the waiter
    /// gets that tile while tasks are still left; a job submitted as a
    /// one-shot run streams nothing. What was streamed is gathered too, each
    /// tile as its own buffer.
    #[test]
    fn a_served_job_streams_a_tile_before_its_last_task_runs() {
        let table = JobTable::new(1, 2);
        let (id, tasks) = one_rank_job(&table);
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(1, 1), 8));
        let quiet = potrf_spec(&graph, 5, &CriticalPath, None);
        let quiet = table.submit_spec(quiet, (0, 0)).unwrap();
        let mesh = inproc_mesh(1);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);

        assert_eq!(engine.step(), Progress::Ran);
        let left = |job| {
            let st = lock(&engine.state);
            st.jobs
                .iter()
                .find(|run| run.ctx.spec.id == job)
                .map(|run| run.remaining)
        };
        let first = match table.wait_next(id) {
            JobUpdate::Tiles(tiles) => tiles,
            JobUpdate::Done(_) => panic!("the job ended within one step"),
        };
        let corner = TileRef::A {
            phase: 0,
            slice: 0,
            i: 0,
            j: 0,
        };
        assert!(
            first.iter().any(|(r, _)| *r == corner),
            "(0, 0) was not streamed"
        );
        let remaining = left(id).expect("the job is still in flight");
        assert!(remaining > 0 && (remaining as usize) < tasks);
        assert!(left(quiet).is_some_and(|n| n > 0));
        assert!(lock(&table.state).accum[&quiet].streamed.is_empty());

        assert_eq!(settle(&engine), Progress::Idle { next_timer: None });
        let mut streamed = first;
        let out = loop {
            match table.wait_next(id) {
                JobUpdate::Tiles(tiles) => streamed.extend(tiles),
                JobUpdate::Done(out) => break out.expect("the job finishes"),
            }
        };
        assert_streamed_gathered(&streamed, &out);
        assert_sequential(&out, &TwoDBlockCyclic::new(1, 1), 8, 5);
        assert!(matches!(table.wait_next(quiet), JobUpdate::Done(Ok(_))));
    }

    /// A waiter that wants only the outcome is signalled once, at the end:
    /// while the hand-stepped job streams tile after tile its waiter stays
    /// asleep — still marked as sleeping for the end, so no push took it —
    /// and `wait` returns the job's outcome once the last step ran.
    #[test]
    fn a_streaming_job_waited_for_its_end_is_signalled_once() {
        let table = JobTable::new(1, 1);
        let (id, _) = one_rank_job(&table);
        let mesh = inproc_mesh(1);
        let engine = Engine::new(&mesh[0], &table, JobEngineConfig::default(), None, &ByHand);
        let waiting = || lock(&table.state).accum.get(&id).map(|acc| acc.waiting);
        let out = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| table.wait(id));
            while waiting() != Some(Waiting::End) {
                std::thread::yield_now();
            }
            let mut pushed = 0;
            while engine.step() == Progress::Ran {
                let st = lock(&table.state);
                let Some(acc) = st.accum.get(&id) else { break };
                assert_eq!(acc.waiting, Waiting::End, "a push woke the waiter");
                pushed = acc.streamed.len();
            }
            assert!(pushed > 0, "nothing was streamed while the job ran");
            waiter.join().expect("the waiter panicked")
        });
        let out = out.expect("the job finishes");
        assert_sequential(&out, &TwoDBlockCyclic::new(1, 1), 8, 5);
        assert_eq!(table.inflight(), 0);
    }

    /// `streamed` names result tiles of `out`'s graph, none twice, and each
    /// is the gathered tile bit for bit — its very buffer, since the engine
    /// hands on a handle, not a copy. (Tiles still waiting when the job
    /// ended are not streamed: the outcome holds them.)
    fn assert_streamed_gathered(streamed: &[(TileRef, Tile)], out: &JobOutcome) {
        let names: HashSet<TileRef> = streamed.iter().map(|(r, _)| *r).collect();
        assert_eq!(
            names.len(),
            streamed.len(),
            "job {}: a tile came twice",
            out.id
        );
        let wanted: HashSet<TileRef> = out.graph().result_tiles().collect();
        assert!(
            names.is_subset(&wanted),
            "job {}: streamed a non-result tile",
            out.id
        );
        for (r, tile) in streamed {
            let gathered = &out.tiles[r];
            let bits = |t: &Tile| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(tile), bits(gathered), "job {} {r:?}", out.id);
            assert_eq!(tile.as_slice().as_ptr(), gathered.as_slice().as_ptr());
        }
    }

    /// Over a six-rank mesh with two jobs in flight, each waited for on a
    /// thread of its own, every tile a job streams is a tile of its result,
    /// none twice, each equal to the gathered one bit for bit.
    #[test]
    fn streamed_tiles_are_the_gathered_ones_bit_for_bit() {
        let d = SbcExtended::new(4); // 6 nodes
        let graph = Arc::new(build_potrf(&d, 10));
        let table = JobTable::new(6, 4);
        let cfg = JobEngineConfig {
            workers: 2,
            ..Default::default()
        };
        let mut results = Vec::new();
        run_mesh(&table, 6, cfg, || {
            let ids = [11, 12].map(|seed| table.submit(Arc::clone(&graph), B, seed, 0, 0).unwrap());
            // each job has a waiter of its own, as each client connection does
            let stream = |id| {
                let mut streamed = Vec::new();
                loop {
                    match table.wait_next(id) {
                        JobUpdate::Tiles(tiles) => streamed.extend(tiles),
                        JobUpdate::Done(out) => return (streamed, out.expect("the mesh is alive")),
                    }
                }
            };
            results = std::thread::scope(|scope| {
                let waiters = ids.map(|id| scope.spawn(move || stream(id)));
                Vec::from(waiters.map(|w| w.join().expect("a waiter panicked")))
            });
        });
        for ((streamed, out), seed) in results.iter().zip([11, 12]) {
            assert_streamed_gathered(streamed, out);
            assert_sequential(out, &d, 10, seed);
        }
    }

    /// Records the `work` of every nudge.
    #[derive(Default)]
    struct Nudges(Mutex<Vec<bool>>);

    impl Driver for Nudges {
        fn nudge(&self, work: bool) {
            lock(&self.0).push(work);
        }
    }

    /// A completion nudges once, after its pick: with `work` when the heap
    /// still holds a step after the one the lane took for itself, so a
    /// two-lane rank recruits its second lane for it, and without when the
    /// lane took the last one.
    #[test]
    fn a_completion_nudges_with_the_work_its_pick_left() {
        let table = JobTable::new(1, 1);
        let (id, _) = one_rank_job(&table);
        let mesh = inproc_mesh(1);
        let nudges = Nudges::default();
        let cfg = JobEngineConfig {
            workers: 2,
            ..Default::default()
        };
        let engine = Engine::new(&mesh[0], &table, cfg, None, &nudges);
        engine.admit(&mut None);
        let mut next = engine.take_work(&mut None);
        let (mut recruited, mut alone) = (0, 0);
        while let Work::Run(ctx, l) = next {
            lock(&nudges.0).clear();
            next = engine
                .run_task(&ctx, l, true, &mut None)
                .expect("asked to pick");
            let left = !lock(&engine.state).ready.is_empty();
            assert_eq!(*lock(&nudges.0), [left]);
            if !matches!(next, Work::Run(..)) {
                break;
            }
            *if left { &mut recruited } else { &mut alone } += 1;
        }
        assert!(matches!(next, Work::Idle), "the finished job left work");
        assert!(recruited > 0 && alone > 0, "{recruited} / {alone}");
        let out = table.wait(id).expect("the job finishes");
        assert_sequential(&out, &TwoDBlockCyclic::new(1, 1), 8, 5);
    }

    /// A graph ranks its tasks once per scheduler name and `b`: the kept
    /// bits are what the scheduler returns, a second job of the same key
    /// shares them, another `b` or scheduler has its own, and they go with
    /// the graph.
    #[test]
    fn a_graph_ranks_its_tasks_once_per_scheduler_and_b() {
        let graph = Arc::new(build_potrf(&SbcExtended::new(4), 10));
        let scheds: [&dyn Scheduler; 3] = [&CriticalPath, &Heft, &SubmissionOrder];
        let mut kept: Vec<Arc<[u32]>> = Vec::new();
        for sched in scheds {
            for b in [4, 128] {
                let spec = JobSpec::new(Arc::clone(&graph), b, (1, 2), 0, sched, None);
                let costs: Vec<f64> = graph.tasks().iter().map(|t| t.kind.flops(b)).collect();
                let fresh = sched.ranks(&SchedCtx {
                    graph: &graph,
                    task_cost: &costs,
                    comm_cost: sbc_kernels::flops::flops_gemm(b),
                });
                let fresh: Vec<u32> = fresh.into_iter().map(f32::to_bits).collect();
                let key = format!("{} at b = {b}", sched.name());
                assert_eq!(*spec.prio_bits, *fresh, "{key}");
                let again = JobSpec::new(Arc::clone(&graph), b, (3, 4), 1, sched, None);
                assert!(Arc::ptr_eq(&spec.prio_bits, &again.prio_bits), "{key}");
                for other in &kept {
                    assert!(!Arc::ptr_eq(other, &spec.prio_bits), "{key} shared");
                }
                kept.push(Arc::clone(&spec.prio_bits));
            }
        }
        let freed: Vec<std::sync::Weak<[u32]>> = kept.iter().map(Arc::downgrade).collect();
        drop(kept);
        assert!(freed.iter().all(|bits| bits.upgrade().is_some()));
        drop(graph);
        assert!(freed.iter().all(|bits| bits.upgrade().is_none()));
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

    /// A job's tiles have a slot only for the remote inputs of the rank's
    /// view, so a payload for a tile no task of this rank waits for is
    /// dropped: not held, not counted as applied.
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
        assert_eq!(cached(&st.jobs[0].ctx), 0);
    }

    /// Producer ids and tile names come off the wire. A `Data` payload naming
    /// a task past the graph's end, and an `Orig` payload naming a tile
    /// outside the graph's tile space, are foreign traffic: dropped without
    /// an index panic, nothing held or counted, and the job runs on.
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
        assert_eq!(cached(&st.jobs[0].ctx), 0);
    }

    /// A replica leaves its slot once its last local reader ran, so
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
                st.ready.iter().map(|k| (k.job(), k.task())).collect();
            keys.sort_unstable();
            keys
        };
        let (applied, deps, heap) = {
            let st = lock(&engines[0].state);
            assert_eq!(st.jobs.len(), 1, "the job is still in flight on rank 0");
            let run = &st.jobs[0];
            let slot = view.owned() + i;
            assert!(
                lock(&run.ctx.tiles)[slot].is_none(),
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
            let slot = view.owned() + i;
            assert!(
                lock(&run.ctx.tiles)[slot].is_none(),
                "the duplicate was held"
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
            assert_eq!(
                cached(ctx),
                0,
                "rank {rank} kept replicas past their readers"
            );
        }
    }

    /// The tile names in the per-rank reports `table` holds for job `id`,
    /// in report order.
    fn reported(table: &JobTable, id: JobId) -> Vec<HashSet<TileRef>> {
        let st = lock(&table.state);
        let stores = match st.accum.get(&id) {
            Some(acc) => &acc.stores,
            None => &st.done[&id].stores,
        };
        stores.iter().map(|s| s.keys().copied().collect()).collect()
    }

    /// Each rank of a POTRF on `d` at nt = 4, stepped by hand, reports
    /// exactly the tiles its view owns, and holds no replica at report: no
    /// received tile leaks into the result, and none outlives the job.
    fn reports_its_owned_tiles<D: Distribution>(d: &D) {
        let (nt, seed) = (4, 5);
        let graph = Arc::new(build_potrf(d, nt));
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
                engine.admit(&mut None);
                Arc::clone(&lock(&engine.state).jobs[0].ctx)
            })
            .collect();
        let mut rounds = 0;
        let mut seen = 0;
        while seen < n {
            for (rank, engine) in engines.iter().enumerate() {
                settle(engine);
                let reports = reported(&table, id);
                if reports.len() == seen {
                    continue;
                }
                assert_eq!(reports.len(), seen + 1, "one report per step");
                seen += 1;
                let view = graph.rank_view(rank as u32);
                let owned: HashSet<TileRef> = (0..view.owned() as u32)
                    .map(|s| view.owned_tile(s))
                    .collect();
                assert_eq!(reports[seen - 1], owned, "rank {rank} reported other tiles");
                let held = lock(&ctxs[rank].tiles);
                assert_eq!(held.len(), view.owned() + view.inputs());
                assert!(held.iter().all(Option::is_none), "rank {rank} kept a tile");
            }
            rounds += 1;
            assert!(rounds < 100, "the job never finished");
        }
        assert_sequential(&table.wait(id).expect("the job finishes"), d, nt, seed);
    }

    #[test]
    fn a_rank_reports_its_owned_tiles_and_no_replica() {
        reports_its_owned_tiles(&TwoDBlockCyclic::new(2, 1));
        reports_its_owned_tiles(&SbcExtended::new(3));
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
        assert_eq!(cached(&st.jobs[0].ctx), 0);
        drop(st);
        for peer in &mesh[1..] {
            let inbox: Vec<Message> = std::iter::from_fn(|| peer.try_recv()).collect();
            assert!(inbox.contains(&Message::Poison), "rank {}", peer.rank());
        }
        assert_eq!(table.wait(id).err(), Some(expected));
    }

    /// A resident rank keeps nothing of the jobs it finished, and registers
    /// a job when it first needs it. A thousand jobs leave no per-job entry
    /// behind; a late duplicate for an early job and a payload for an id the
    /// table never admitted are dropped — nothing registered, held or
    /// counted; and a payload for an admitted job that reaches the rank
    /// before any admission step registers that job and is applied to it.
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
        assert!(lock(&engine.state).jobs.is_empty());

        let (producer, _) = remote_producer(&shared);
        let data = |job| Payload::Data {
            job,
            producer,
            tile: Tile::zeros(B),
        };
        mesh[1].send_payload(0, data(3)); // long finished
        mesh[1].send_payload(0, data(5000)); // never admitted
        assert_eq!(settle(&engine), Progress::Idle { next_timer: None });
        {
            let st = lock(&engine.state);
            assert_eq!(st.error, None);
            assert!(st.jobs.is_empty(), "a dropped payload registered a job");
        }

        // the payload beats the admission step: absorbing it registers the
        // job it names
        let id = table.submit(shared, B, 7, 7, 0).unwrap();
        mesh[1].send_payload(0, data(id));
        engine.absorb(&mut None);
        let st = lock(&engine.state);
        assert_eq!(st.error, None);
        assert_eq!(st.jobs.len(), 1);
        assert_eq!(st.jobs[0].ctx.spec.id, id);
        assert_eq!(st.jobs[0].applied, 1, "the payload was not applied");
    }

    /// TRTRI and LAUUM on `dist` at nt = 8, four lanes per rank, under
    /// critical-path and submission order: each result is the sequential
    /// one bit for bit, with exactly the analytic message count.
    fn ships_precede_overwrites<D: Distribution>(dist: &D) {
        let (nt, seed) = (8, 11);
        let mut trtri = random_spd(seed, nt, B);
        trtri_tiled(&mut trtri).expect("sequential inversion failed");
        let mut lauum = random_spd(seed, nt, B);
        lauum_tiled(&mut lauum);
        let expected = [
            (trtri, trtri_messages(dist, nt)),
            (lauum, lauum_messages(dist, nt)),
        ];
        let scheds: [Arc<dyn Scheduler + Send + Sync>; 2] =
            [Arc::new(CriticalPath), Arc::new(SubmissionOrder)];
        for sched in scheds {
            let ops = [
                ("TRTRI", Run::trtri(dist, nt)),
                ("LAUUM", Run::lauum(dist, nt)),
            ];
            for ((op, run), (seq, messages)) in ops.into_iter().zip(&expected) {
                let context = format!("{op} on {} under {}", dist.name(), sched.name());
                let out = run
                    .block(B)
                    .seed(seed)
                    .workers(4)
                    .scheduler(Arc::clone(&sched))
                    .execute()
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                for (i, j) in seq.tile_coords() {
                    let diff = out.factor().tile(i, j).max_abs_diff(seq.tile(i, j));
                    assert_eq!(diff, 0.0, "{context}: tile ({i},{j})");
                }
                assert_eq!(out.stats.messages, *messages, "{context}: messages");
            }
        }
    }

    /// Registration ships a job's originals before it pushes the job's
    /// tasks, under one engine lock. Were a task pushed first, another lane
    /// of the rank could overwrite an original before its ship sent it, and
    /// a peer would compute on the overwritten tile.
    #[test]
    fn ships_precede_overwrites_on_more_than_one_lane() {
        ships_precede_overwrites(&SbcExtended::new(4));
        ships_precede_overwrites(&TwoDBlockCyclic::new(3, 2));
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
        fn try_recv(&self) -> Option<Message> {
            self.inner.try_recv()
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
