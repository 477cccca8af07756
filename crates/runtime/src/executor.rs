//! The one-shot front end and the vocabulary every execution shares.
//!
//! [`Executor`] runs a single task graph to completion. It owns no
//! scheduler: [`Executor::try_run`] and [`Executor::run_rank`] build one job
//! from the graph, tile provider and scheduling policy, submit it to a fresh
//! [`JobTable`], close admission and start the rank engines of
//! [`crate::jobs`] — the same engines a resident service keeps warm — then
//! convert the [`crate::JobOutcome`] back into an [`ExecOutcome`].
//!
//! The interconnect is abstract: engines talk only to the
//! [`sbc_net::Transport`] trait. [`Executor::try_run`] meshes the nodes up
//! in-process over [`sbc_net::InProc`] channels, all ranks reporting to one
//! table; [`Executor::run_rank`] executes a *single* rank over any endpoint
//! — including `sbc-net`'s TCP/UDS stream backends, where each rank is a
//! separate OS process with a rank-local table — and gathers results to
//! rank 0 with the transport's `Result`/`Done` control protocol.
//!
//! Communication is *schedule-invariant*: which tiles cross node boundaries
//! is decided by placement (the data edges of the graph plus the initial
//! fetches), never by execution order, so [`CommStats`] is bit-identical at
//! any worker count, under either policy, and over every transport backend.

use crate::jobs::{
    run_engine, task_priorities, GraphRef, JobEngineConfig, JobId, JobSpec, JobTable,
};
use sbc_kernels::{KernelBackend, KernelError, Kernels, Tile, Trans};
use sbc_matrix::generate;
use sbc_net::{inproc_mesh, Clock, Message, PeerStats, RealClock, RecvTimeout, Transport};
use sbc_obs::Recorder;
use sbc_taskgraph::{TaskGraph, TaskId, TaskKind, TileRef};
use sbc_topo::Scheduler;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Communication statistics of one distributed execution.
///
/// Every payload message — producer-output tiles (`Data`) *and*
/// original-tile fetches (`Orig`) — is counted at its actual byte size on
/// the sending and the receiving side. On a clean run over a faithful
/// transport the receive total equals `messages`; after an aborted run
/// (kernel failure) it may be smaller, and under a duplicate-injecting
/// [`sbc_net::Faulty`] transport `messages` may exceed the applied count
/// (receivers deduplicate, so `recv_per_node` stays at the analytic value).
///
/// These counts depend only on the task graph (placement), not on the
/// schedule: they are identical at every `workers_per_node` and under
/// either [`Policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStats {
    /// Total inter-node messages (tiles sent).
    pub messages: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Messages sent per node.
    pub sent_per_node: Vec<u64>,
    /// Messages received (and applied) per node.
    pub recv_per_node: Vec<u64>,
    /// Bytes sent per node (sums to `bytes`).
    pub bytes_per_node: Vec<u64>,
}

impl CommStats {
    /// Assembles the totals from the three per-node vectors.
    pub fn from_per_node(
        sent_per_node: Vec<u64>,
        recv_per_node: Vec<u64>,
        bytes_per_node: Vec<u64>,
    ) -> Self {
        CommStats {
            messages: sent_per_node.iter().sum(),
            bytes: bytes_per_node.iter().sum(),
            sent_per_node,
            recv_per_node,
            bytes_per_node,
        }
    }
}

/// Result of a distributed execution: the final content of every node's
/// tile store, merged, plus communication statistics.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Final tile values keyed by logical tile. For each tile the entry
    /// comes from the single node that owned (wrote or generated) it.
    pub tiles: HashMap<TileRef, Tile>,
    /// Measured communication.
    pub stats: CommStats,
}

/// A failure during (or after) distributed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A kernel failed on a node, localized to the task and node where it
    /// occurred. All other nodes are shut down cleanly before this is
    /// returned.
    Kernel {
        /// The failing task's index in the graph.
        task: TaskId,
        /// The node executing it.
        node: u32,
        /// The kernel error (e.g. a non-SPD pivot).
        error: KernelError,
    },
    /// A tile expected in the gathered result was never produced by the
    /// execution — the graph did not cover the requested output.
    MissingTile {
        /// The absent tile.
        tile: TileRef,
    },
    /// Another rank of a multi-process run aborted (a poison arrived over
    /// the transport, or the endpoint closed). The originating error is
    /// reported by the failing rank's own process.
    Remote,
    /// The liveness watchdog fired: a rank made no progress for longer
    /// than the configured [`FaultPolicy::deadline`] while waiting on
    /// undelivered messages — the deadlock-free replacement for a silent
    /// hang over a lossy transport without a reliability session.
    Stalled {
        /// The rank whose watchdog fired.
        rank: u32,
        /// What the rank was blocked on, for diagnosis.
        waiting_on: String,
    },
}

/// Liveness policy of an execution: how long a rank may go without
/// progress (applying a message or completing a task) before its watchdog
/// aborts the run with [`ExecError::Stalled`] instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Maximum time without progress before a rank declares itself
    /// stalled; `None` (the default) disables the watchdog and restores
    /// blocking receives.
    pub deadline: Option<Duration>,
    /// How often a blocked rank wakes to check its deadline (and, under a
    /// reliability session, to drive retransmissions).
    pub heartbeat: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            deadline: None,
            heartbeat: Duration::from_millis(50),
        }
    }
}

impl FaultPolicy {
    /// A policy with the given no-progress deadline and the default
    /// heartbeat.
    pub fn with_deadline(deadline: Duration) -> Self {
        FaultPolicy {
            deadline: Some(deadline),
            ..Default::default()
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Kernel { task, node, error } => {
                write!(f, "task {task} on node {node} failed: {error}")
            }
            ExecError::MissingTile { tile } => {
                write!(f, "result tile {tile:?} was never produced")
            }
            ExecError::Remote => {
                write!(
                    f,
                    "a remote rank aborted; see its process output for the cause"
                )
            }
            ExecError::Stalled { rank, waiting_on } => {
                write!(f, "rank {rank} stalled past its deadline: {waiting_on}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Scheduling policy for each node's ready heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Pop ready tasks in submission (TaskId) order — deterministic and
    /// close to the sequential schedule; the historical behavior.
    SubmissionOrder,
    /// Pop ready tasks by upward-rank critical-path priority (flop-costed),
    /// the paper's StarPU list-scheduler configuration. The default.
    #[default]
    CriticalPath,
}

/// Provides original (input) tile contents to the executor.
///
/// The default provider generates the seeded random SPD matrix and RHS of
/// `sbc_matrix::generate`; custom providers let callers factor real data
/// or inject failures (see the failure-injection tests). Providers must be
/// pure functions of the [`TileRef`]: with several workers per node a tile
/// may be generated concurrently on overlapping paths, and every
/// generation must agree.
pub type TileProvider<'a> = dyn Fn(TileRef) -> Tile + Sync + 'a;

/// Executes a [`TaskGraph`] with a pool of worker threads per node and a
/// pluggable [`sbc_net::Transport`] as the interconnect.
///
/// Configure through [`Executor::builder`]:
///
/// ```
/// # let g = sbc_taskgraph::build_potrf(&sbc_dist::SbcExtended::new(4), 6);
/// use sbc_runtime::{Executor, Policy};
/// let out = Executor::builder(&g)
///     .block(8)
///     .seeds(42, 43)
///     .workers(2)
///     .priorities(Policy::CriticalPath)
///     .build()
///     .run();
/// assert_eq!(out.stats.messages, g.count_messages());
/// ```
pub struct Executor<'g> {
    graph: &'g TaskGraph,
    /// Tile dimension.
    pub b: usize,
    seed: u64,
    /// `None` derives the right-hand-side seed from `seed`.
    seed_rhs: Option<u64>,
    provider: Option<Box<TileProvider<'g>>>,
    recorder: Option<&'g Recorder>,
    workers: Option<usize>,
    policy: Policy,
    sched: Option<Arc<dyn Scheduler + Send + Sync>>,
    fault: FaultPolicy,
    clock: Arc<dyn Clock>,
    /// Kernel backend worker threads dispatch through.
    pub kernels: KernelBackend,
}

/// Configures and builds an [`Executor`] — the single surface for every
/// knob: block size, seeds, tile provider, recorder, worker count,
/// scheduling policy and kernel backend.
pub struct ExecutorBuilder<'g>(Executor<'g>);

impl<'g> ExecutorBuilder<'g> {
    /// Tile dimension of the matrices being executed (default 32).
    pub fn block(mut self, b: usize) -> Self {
        self.0.b = b;
        self
    }

    /// Seeds for the default input generators: `seed` for the SPD matrix,
    /// `seed_rhs` for right-hand sides. Ignored when a custom provider is
    /// set.
    pub fn seeds(mut self, seed: u64, seed_rhs: u64) -> Self {
        self.0.seed = seed;
        self.0.seed_rhs = Some(seed_rhs);
        self
    }

    /// Seed for the default SPD generator; the RHS seed is derived from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Custom original-tile provider, replacing the seeded generators. It
    /// is called on a tile's *home* node the first time the tile is needed
    /// and must be a pure function of the [`TileRef`].
    pub fn provider(mut self, provider: impl Fn(TileRef) -> Tile + Sync + 'g) -> Self {
        self.0.provider = Some(Box::new(provider));
        self
    }

    /// Attaches an [`sbc_obs::Recorder`]: every worker thread records task
    /// spans (on its own per-worker track), message sends/receives,
    /// dependency waits and scheduler gauges into it.
    pub fn recorder(mut self, recorder: &'g Recorder) -> Self {
        self.0.recorder = Some(recorder);
        self
    }

    /// Worker threads per node (clamped to at least 1). Default: available
    /// cores divided by the node count, at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.0.workers = Some(workers.max(1));
        self
    }

    /// Ready-heap ordering (default [`Policy::CriticalPath`]).
    pub fn priorities(mut self, policy: Policy) -> Self {
        self.0.policy = policy;
        self
    }

    /// Ranks the ready heaps with an `sbc-topo` [`Scheduler`] instead of
    /// [`Policy`]. Task costs are flop counts at this executor's block size
    /// and the communication cost is one GEMM's flops (a dimensionless
    /// surrogate: only relative magnitudes matter for ordering). Stealing
    /// schedulers run without stealing here — placement is fixed by the
    /// graph, so only the ranks apply. Since every scheduler assigns
    /// priorities deterministically, swapping schedulers changes execution
    /// order but never results (tested bit-exactly).
    pub fn scheduler(mut self, sched: Arc<dyn Scheduler + Send + Sync>) -> Self {
        self.0.sched = Some(sched);
        self
    }

    /// Liveness policy: watchdog deadline and heartbeat (default: no
    /// watchdog, blocking receives).
    pub fn fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.0.fault = fault;
        self
    }

    /// Shorthand: arms the watchdog with the given no-progress deadline,
    /// keeping the default heartbeat.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.0.fault.deadline = Some(deadline);
        self
    }

    /// The time source the watchdog (progress epochs, stall deadlines,
    /// gather pacing) reads — default [`RealClock`]. Injecting an
    /// [`sbc_net::VirtualClock`] makes stall detection a pure function of
    /// explicitly advanced time: deterministic tests can fire a
    /// 1000-second deadline in milliseconds of real time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.0.clock = clock;
        self
    }

    /// Kernel backend the worker threads dispatch through (default
    /// [`KernelBackend::Naive`]). The `SBC_KERNELS` environment variable,
    /// when set, overrides this value at [`build`](Self::build) time. All
    /// backends produce bit-identical tiles, so this knob changes speed,
    /// never results.
    pub fn kernels(mut self, kernels: KernelBackend) -> Self {
        self.0.kernels = kernels;
        self
    }

    /// Finalizes the configuration.
    pub fn build(mut self) -> Executor<'g> {
        self.0.kernels = KernelBackend::resolve(self.0.kernels);
        self.0
    }
}

impl<'g> Executor<'g> {
    /// Starts configuring an execution of `graph`. See
    /// [`ExecutorBuilder`] for the knobs and their defaults.
    pub fn builder(graph: &'g TaskGraph) -> ExecutorBuilder<'g> {
        ExecutorBuilder(Executor {
            graph,
            b: 32,
            seed: 42,
            seed_rhs: None,
            provider: None,
            recorder: None,
            workers: None,
            policy: Policy::default(),
            sched: None,
            fault: FaultPolicy::default(),
            clock: Arc::new(RealClock),
            kernels: KernelBackend::default(),
        })
    }

    /// Submits this execution as the single job of `table` and closes
    /// admission, so every engine started afterwards registers the job on
    /// its first iteration and exits on drain. Returns the job's id.
    fn submit_closed<'s>(&'s self, table: &JobTable<'s>) -> JobId {
        // an attached scheduler overrides the policy; the default policy is
        // the critical-path scheduler
        let sched: Option<&dyn Scheduler> = match (&self.sched, self.policy) {
            (Some(sched), _) => Some(sched.as_ref()),
            (None, Policy::CriticalPath) => Some(&sbc_topo::CriticalPath),
            (None, Policy::SubmissionOrder) => None,
        };
        let spec = JobSpec {
            id: 0,
            graph: GraphRef::Borrowed(self.graph),
            b: self.b,
            seed: self.seed,
            seed_rhs: self.seed_rhs.unwrap_or(self.seed ^ 0x05EE_D0FB),
            prio: 0,
            prio_bits: task_priorities(self.graph, self.b, sched),
            provider: self.provider.as_deref().map(|p| p as &TileProvider<'s>),
        };
        // a one-shot table is never obs-bound, so the drift monitor's
        // prediction is not computed
        let id = table
            .submit_spec(spec, (0, 0))
            .expect("a fresh table admits its first job");
        table.shutdown();
        id
    }

    /// The rank engines' configuration for an `n_nodes` mesh. Worker
    /// threads per node default to the available cores divided by the node
    /// count, at least 1.
    fn engine_config(&self, n_nodes: usize) -> JobEngineConfig {
        let workers = self.workers.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            (cores / n_nodes.max(1)).max(1)
        });
        JobEngineConfig {
            workers,
            heartbeat: self.fault.heartbeat,
            deadline: self.fault.deadline,
            kernels: self.kernels,
        }
    }

    /// Runs the graph to completion.
    ///
    /// # Panics
    /// Panics on kernel failure (e.g. a non-SPD input); use [`Self::try_run`]
    /// to handle that case.
    pub fn run(&self) -> ExecOutcome {
        self.try_run().expect("distributed execution failed")
    }

    /// Runs the graph to completion over an in-process channel mesh,
    /// propagating kernel failures.
    ///
    /// On failure every node is shut down via poison messages and the
    /// originating failure is returned.
    pub fn try_run(&self) -> Result<ExecOutcome, ExecError> {
        let n_nodes = self.graph.num_nodes();
        let table = JobTable::with_clock(n_nodes, n_nodes, 1, Arc::clone(&self.clock));
        let id = self.submit_closed(&table);
        let cfg = self.engine_config(n_nodes);
        std::thread::scope(|scope| {
            // each rank thread owns its endpoint, as a rank process would
            for net in inproc_mesh(n_nodes) {
                let table = &table;
                // a failing rank's error reaches the caller through the table
                scope.spawn(move || run_engine(&net, table, cfg, self.recorder));
            }
        });
        let out = table.wait(id)?;
        Ok(ExecOutcome {
            tiles: out.tiles,
            stats: out.stats,
        })
    }

    /// Executes *this rank's* share of the graph over `net` — the entry
    /// point for multi-process runs, where each rank is its own OS process
    /// holding one transport endpoint (see `sbc_net::launch`).
    ///
    /// Every rank of the mesh must call this with the same graph and
    /// configuration. Worker ranks (`net.rank() != 0`) ship their final
    /// tiles and a [`PeerStats`] report to rank 0 and return `Ok(None)`;
    /// rank 0 waits for every report and returns the merged
    /// [`ExecOutcome`]. A failure on any rank poisons the whole mesh: the
    /// failing rank returns its own [`ExecError`], every other rank
    /// [`ExecError::Remote`].
    pub fn run_rank(&self, net: &dyn Transport) -> Result<Option<ExecOutcome>, ExecError> {
        let n = net.num_nodes();
        let me = net.rank();
        // a rank-local table: the job completes on this rank's one report
        let table = JobTable::with_clock(n, 1, 1, Arc::clone(&self.clock));
        let id = self.submit_closed(&table);
        let early = run_engine(net, &table, self.engine_config(n), self.recorder)?;
        let out = table.wait(id)?;
        // `net` carried exactly this job, so its wire totals are the job's —
        // including copies a fault-injecting wrapper duplicated beneath the
        // engine's own per-job tally
        let wire = net.stats();
        let own = PeerStats {
            sent: wire.sent_messages,
            sent_bytes: wire.sent_payload_bytes,
            applied: out.stats.recv_per_node[me as usize],
        };

        if me != 0 {
            for (tile_ref, tile) in out.tiles {
                net.send(0, Message::Result { tile_ref, tile });
            }
            net.send(
                0,
                Message::Done {
                    src: me,
                    stats: own,
                },
            );
            return Ok(None);
        }

        // rank 0: fold in the gather frames that arrived during the run,
        // then drain the inbox until every worker rank has reported
        let mut gather = Gather {
            tiles: out.tiles,
            peer: vec![None; n],
            missing: n - 1,
        };
        gather.peer[0] = Some(own);
        for msg in early {
            gather.absorb(msg)?;
        }
        let mut last_report = self.clock.now();
        while gather.missing > 0 {
            let msg = match self.fault.deadline {
                None => net.recv(),
                Some(deadline) => match net.recv_timeout(self.fault.heartbeat) {
                    RecvTimeout::Msg(m) => Some(m),
                    RecvTimeout::Closed => None,
                    RecvTimeout::TimedOut => {
                        if self.clock.now().saturating_duration_since(last_report) <= deadline {
                            continue;
                        }
                        // the gather itself stalled: missing worker
                        // reports will never arrive — abort the mesh
                        for r in 1..n as u32 {
                            net.send_poison(r);
                        }
                        let got = n - 1 - gather.missing;
                        return Err(ExecError::Stalled {
                            rank: 0,
                            waiting_on: format!("gather: {got}/{} worker reports received", n - 1),
                        });
                    }
                },
            };
            if gather.absorb(msg.ok_or(ExecError::Remote)?)? {
                last_report = self.clock.now();
            }
        }

        let peer = || gather.peer.iter().map(|s| s.expect("every rank reported"));
        Ok(Some(ExecOutcome {
            stats: CommStats::from_per_node(
                peer().map(|s| s.sent).collect(),
                peer().map(|s| s.applied).collect(),
                peer().map(|s| s.sent_bytes).collect(),
            ),
            tiles: gather.tiles,
        }))
    }
}

/// Rank 0's side of the `Result`/`Done` gather protocol.
struct Gather {
    tiles: HashMap<TileRef, Tile>,
    peer: Vec<Option<PeerStats>>,
    /// Worker ranks that have not reported `Done` yet.
    missing: usize,
}

impl Gather {
    /// Folds one inbox message in. `Ok(true)` for gather traffic,
    /// `Ok(false)` for anything harmless, [`ExecError::Remote`] for a
    /// poison.
    fn absorb(&mut self, msg: Message) -> Result<bool, ExecError> {
        match msg {
            Message::Result { tile_ref, tile } => {
                self.tiles.insert(tile_ref, tile);
            }
            Message::Done { src, stats } => {
                if self.peer[src as usize].replace(stats).is_none() {
                    self.missing -= 1;
                }
            }
            Message::Poison => return Err(ExecError::Remote),
            // stray wakes from our own completion, a duplicate payload
            // injected after our run finished, or leftover session
            // traffic — all harmless
            Message::Wake | Message::Payload { .. } | Message::Seq { .. } | Message::Ack { .. } => {
                return Ok(false)
            }
        }
        Ok(true)
    }
}

/// Default original-tile contents: seeded SPD matrix, zero buffers, seeded
/// RHS. General (full-matrix) tiles for the LU substrate come from the
/// diagonally dominant generator.
pub(crate) fn default_original(r: TileRef, nt: usize, b: usize, seed: u64, seed_rhs: u64) -> Tile {
    match r {
        TileRef::A { phase: 0, i, j, .. } if j <= i => {
            generate::spd_tile(seed, nt, b, i as usize, j as usize)
        }
        TileRef::A { phase: 0, i, j, .. } => {
            // strictly-upper tile: only the LU (full-matrix) graphs read
            // these; mirror of the dominant generator
            generate::general_tile(seed, nt, b, i as usize, j as usize)
        }
        TileRef::A { phase, .. } => {
            panic!("phase-{phase} tiles are always produced by Move tasks")
        }
        TileRef::Buf { .. } => Tile::zeros(b),
        TileRef::B { i } => generate::rhs_tile(seed_rhs, b, i as usize),
    }
}

/// Dispatches one task kind to its kernel on the given backend.
pub(crate) fn run_kernel(
    kernels: KernelBackend,
    kind: TaskKind,
    read_tiles: &[Tile],
    target: &mut Tile,
) -> Result<(), KernelError> {
    match kind {
        TaskKind::Potrf { .. } => kernels.potrf(target)?,
        TaskKind::Trsm { .. } => kernels.trsm_right_lower_trans(1.0, &read_tiles[0], target),
        TaskKind::Syrk { .. } => kernels.syrk(Trans::No, -1.0, &read_tiles[0], 1.0, target),
        TaskKind::Gemm { .. } => kernels.gemm(
            Trans::No,
            Trans::Yes,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::Reduce { .. } => target.add_assign(&read_tiles[0]),
        TaskKind::TrsmFwd { .. } => kernels.trsm_left_lower(1.0, &read_tiles[0], target),
        TaskKind::GemmFwd { .. } => kernels.gemm(
            Trans::No,
            Trans::No,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrsmBwd { .. } => kernels.trsm_left_lower_trans(1.0, &read_tiles[0], target),
        TaskKind::GemmBwd { .. } => kernels.gemm(
            Trans::Yes,
            Trans::No,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrsmRInv { .. } => kernels.trsm_right_lower(-1.0, &read_tiles[0], target),
        TaskKind::GemmInv { .. } => kernels.gemm(
            Trans::No,
            Trans::No,
            1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrsmLInv { .. } => kernels.trsm_left_lower(1.0, &read_tiles[0], target),
        TaskKind::TrtriDiag { .. } => kernels.trtri(target)?,
        TaskKind::SyrkLu { .. } => kernels.syrk(Trans::Yes, 1.0, &read_tiles[0], 1.0, target),
        TaskKind::GemmLu { .. } => kernels.gemm(
            Trans::Yes,
            Trans::No,
            1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::TrmmLu { .. } => kernels.trmm_left_lower_trans(&read_tiles[0], target),
        TaskKind::LauumDiag { .. } => kernels.lauum(target),
        TaskKind::Getrf { .. } => kernels.getrf(target)?,
        TaskKind::TrsmRow { .. } => kernels.trsm_left_unit_lower(&read_tiles[0], target),
        TaskKind::TrsmCol { .. } => kernels.trsm_right_upper(&read_tiles[0], target),
        TaskKind::GemmTrail { .. } => kernels.gemm(
            Trans::No,
            Trans::No,
            -1.0,
            &read_tiles[0],
            &read_tiles[1],
            1.0,
            target,
        ),
        TaskKind::Move { .. } => *target = read_tiles[0].clone(),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};
    use sbc_net::{FaultConfig, Faulty};
    use sbc_taskgraph::build_potrf;

    type TileSnapshot = Vec<(TileRef, Vec<f64>)>;

    #[test]
    fn worker_counts_do_not_change_results_or_traffic() {
        let d = SbcExtended::new(5); // 10 nodes
        let g = build_potrf(&d, 12);
        let mut base: Option<(TileSnapshot, CommStats)> = None;
        for workers in [1usize, 2, 4] {
            let out = Executor::builder(&g)
                .block(8)
                .seeds(2022, 7)
                .workers(workers)
                .build()
                .run();
            let mut tiles: TileSnapshot = out
                .tiles
                .iter()
                .map(|(r, t)| (*r, t.as_slice().to_vec()))
                .collect();
            tiles.sort_by_key(|(r, _)| format!("{r:?}"));
            match &base {
                None => base = Some((tiles, out.stats)),
                Some((t0, s0)) => {
                    assert_eq!(t0, &tiles, "tiles differ at workers={workers}");
                    assert_eq!(s0, &out.stats, "stats differ at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn policies_agree_on_results_and_traffic() {
        let d = TwoDBlockCyclic::new(3, 2);
        let g = build_potrf(&d, 10);
        let run = |p: Policy| {
            Executor::builder(&g)
                .block(8)
                .seeds(1, 2)
                .workers(2)
                .priorities(p)
                .build()
                .run()
        };
        let a = run(Policy::CriticalPath);
        let b = run(Policy::SubmissionOrder);
        assert_eq!(a.stats, b.stats);
        for (r, t) in &a.tiles {
            assert_eq!(
                t.as_slice(),
                b.tiles[r].as_slice(),
                "tile {r:?} differs between policies"
            );
        }
    }

    #[test]
    fn builder_defaults_match_explicit_configuration() {
        let d = SbcExtended::new(4);
        let g = build_potrf(&d, 8);
        let a = Executor::builder(&g).block(8).seed(9).build().run();
        let b = Executor::builder(&g)
            .block(8)
            .seeds(9, 9 ^ 0x05EE_D0FB)
            .build()
            .run();
        assert_eq!(a.stats, b.stats);
        for (r, t) in &a.tiles {
            assert_eq!(t.as_slice(), b.tiles[r].as_slice());
        }
    }

    /// Drives `run_rank` over a caller-owned mesh, one thread per rank,
    /// returning rank 0's gathered outcome.
    fn run_ranks<T: Transport>(exec: &Executor<'_>, mesh: &[T]) -> ExecOutcome {
        std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| scope.spawn(move || exec.run_rank(net)))
                .collect();
            let mut out = None;
            for h in handles {
                if let Some(o) = h.join().expect("rank thread panicked").unwrap() {
                    out = Some(o);
                }
            }
            out.expect("rank 0 gathered an outcome")
        })
    }

    #[test]
    fn run_rank_gather_matches_try_run() {
        let d = SbcExtended::new(4); // 6 nodes
        let g = build_potrf(&d, 10);
        let exec = Executor::builder(&g)
            .block(8)
            .seeds(2022, 7)
            .workers(1)
            .build();
        let expected = exec.try_run().unwrap();
        let mesh = inproc_mesh(g.num_nodes());
        let outcome = run_ranks(&exec, &mesh);
        assert_eq!(outcome.stats, expected.stats);
        assert_eq!(outcome.tiles.len(), expected.tiles.len());
        for (r, t) in &expected.tiles {
            assert_eq!(outcome.tiles[r], *t, "tile {r:?} differs");
        }
    }

    #[test]
    fn duplicating_and_delaying_transport_does_not_change_the_result() {
        let d = TwoDBlockCyclic::new(2, 2);
        let g = build_potrf(&d, 8);
        let exec = Executor::builder(&g)
            .block(8)
            .seeds(3, 4)
            .workers(2)
            .build();
        let clean = exec.try_run().unwrap();
        let cfg = FaultConfig {
            dup_every: 2,
            delay: Some(std::time::Duration::from_micros(50)),
            ..Default::default()
        };
        let mesh: Vec<_> = inproc_mesh(g.num_nodes())
            .into_iter()
            .map(|t| Faulty::new(t, cfg))
            .collect();
        let outcome = run_ranks(&exec, &mesh);
        // duplicates inflate the wire counts but are never applied, so the
        // result and the applied totals stay at the clean run's values
        let injected: u64 = mesh.iter().map(|t| t.duplicated()).sum();
        assert!(injected > 0, "the fault plan injected nothing");
        assert_eq!(outcome.stats.messages, clean.stats.messages + injected);
        assert_eq!(outcome.stats.recv_per_node, clean.stats.recv_per_node);
        for (r, t) in &clean.tiles {
            assert_eq!(outcome.tiles[r], *t, "tile {r:?} differs under faults");
        }
    }
}
