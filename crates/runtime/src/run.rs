//! The one front end: a [`Run`] describes a job and how to run it, then runs
//! it once.
//!
//! ```
//! use sbc_dist::SbcExtended;
//! use sbc_runtime::Run;
//!
//! let dist = SbcExtended::new(4);
//! let out = Run::potrf(&dist, 8)
//!     .block(8)
//!     .seed(2022)
//!     .workers(2)
//!     .execute()
//!     .unwrap();
//! let l = out.factor(); // lower tiles hold L
//! assert!(out.stats.messages > 0);
//! assert_eq!(l.tile(0, 0).dim(), 8);
//! ```
//!
//! A `Run` is a builder over the two structs the engine reads. *What the job
//! is* — graph, tile size, seeds, tile provider, ready order — becomes the
//! one `JobSpec` of a fresh [`JobTable`]; *how engines run it* — workers,
//! watchdog deadline, kernel backend — is a [`JobEngineConfig`], with the
//! clock and the recorder beside it. [`Run::execute`] meshes the graph's
//! nodes up in-process over [`sbc_net::InProc`] channels, all ranks
//! reporting to one table and stepped on one shared thread pool;
//! [`Run::execute_rank`] executes a *single* rank on a pool of its own
//! over any endpoint — including `sbc-net`'s TCP/UDS stream backends, where
//! each rank is a separate OS process with a rank-local table — and gathers
//! to rank 0 with the transport's `Result`/`Done` control protocol. Either
//! way the result is assembled by [`gather`], which reads its shape off the
//! graph.

use crate::drive::{pool_threads, run_pooled};
use crate::exec::{CommStats, ExecError, TileProvider};
use crate::jobs::{JobEngineConfig, JobId, JobSpec, JobTable};
use sbc_dist::{Distribution, RowCyclic, TwoPointFiveD};
use sbc_kernels::{KernelBackend, Tile};
use sbc_matrix::{FullTiledMatrix, SymmetricTiledMatrix, TiledPanel};
use sbc_net::{inproc_mesh, wait_for, Clock, Message, PeerStats, RealClock, Transport};
use sbc_obs::Recorder;
use sbc_planner::Plan;
use sbc_taskgraph::{ResultKind, TaskGraph, TileRef, Workload};
use sbc_topo::{CriticalPath, Scheduler};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The gathered result of a job, by the shape its graph declares
/// ([`ResultKind`]).
pub enum RunResult {
    /// A symmetric tiled matrix (factor, inverse, …) — every operation
    /// except POSV and LU.
    Factor(SymmetricTiledMatrix),
    /// The solution panel of a POSV run.
    Solution(TiledPanel),
    /// The packed LU factors of an LU run.
    Full(FullTiledMatrix),
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunResult::Factor(_) => "Factor(SymmetricTiledMatrix)",
            RunResult::Solution(_) => "Solution(TiledPanel)",
            RunResult::Full(_) => "Full(FullTiledMatrix)",
        })
    }
}

/// Assembles a finished job's result from its merged tile stores. Which
/// tiles (phase, slice) and which container is decided here and nowhere
/// else, from the graph alone; a tile the execution never produced is
/// [`ExecError::MissingTile`], not a panic.
pub fn gather(
    graph: &TaskGraph,
    tiles: &HashMap<TileRef, Tile>,
    b: usize,
) -> Result<RunResult, ExecError> {
    let (nt, slices) = (graph.nt, graph.slices);
    let mut missing = None;
    // the final value of tile (i, j) lives on the 2.5D slice that ran
    // iteration j (slice 0 of a 2D graph): `ResultKind::tile` names it
    let mut fetch = |i: usize, j: usize| {
        let r = graph.result.tile(slices, i, j);
        tiles.get(&r).cloned().unwrap_or_else(|| {
            missing.get_or_insert(r);
            Tile::zeros(b)
        })
    };
    let result = match graph.result {
        ResultKind::Symmetric { .. } => {
            RunResult::Factor(SymmetricTiledMatrix::from_tile_fn(nt, b, fetch))
        }
        ResultKind::Panel => RunResult::Solution(TiledPanel::from_tile_fn(nt, b, |i| fetch(i, 0))),
        ResultKind::Full => RunResult::Full(FullTiledMatrix::from_tile_fn(nt, b, fetch)),
    };
    match missing {
        Some(tile) => Err(ExecError::MissingTile { tile }),
        None => Ok(result),
    }
}

/// What [`Run::execute`] returns: the gathered result plus the measured
/// communication.
#[derive(Debug)]
pub struct RunOutput {
    /// Measured communication statistics (schedule-invariant: identical at
    /// every worker count and under every scheduler).
    pub stats: CommStats,
    result: RunResult,
}

impl RunOutput {
    /// The symmetric result matrix.
    ///
    /// # Panics
    /// Panics if the operation was POSV or LU — use [`Self::solution`] /
    /// [`Self::lu_factors`] for those.
    pub fn factor(&self) -> &SymmetricTiledMatrix {
        match &self.result {
            RunResult::Factor(m) => m,
            other => panic!("the run produced {other:?}, not a symmetric matrix"),
        }
    }

    /// The POSV solution panel.
    ///
    /// # Panics
    /// Panics if the operation was not POSV.
    pub fn solution(&self) -> &TiledPanel {
        match &self.result {
            RunResult::Solution(x) => x,
            other => panic!("the run produced {other:?}, not a solution panel"),
        }
    }

    /// The packed LU factors.
    ///
    /// # Panics
    /// Panics if the operation was not LU.
    pub fn lu_factors(&self) -> &FullTiledMatrix {
        match &self.result {
            RunResult::Full(m) => m,
            other => panic!("the run produced {other:?}, not LU factors"),
        }
    }
}

/// A configured distributed operation, ready to execute.
///
/// Start from an operation ([`Run::potrf`], [`Run::posv`], …), from a graph
/// you built ([`Run::graph`]) or from a planner's answer ([`Run::plan`]),
/// adjust the knobs — each has exactly one setter — then [`Run::execute`].
/// Defaults: tile size 32, seed 42 (RHS seed derived), seeded input
/// generators, critical-path ready order, available cores divided by the
/// node count as workers, no watchdog, `Blocked` kernels, real time.
pub struct Run<'a> {
    // what the job is: one `JobSpec`
    graph: Arc<TaskGraph>,
    b: usize,
    seed: u64,
    seed_rhs: Option<u64>,
    provider: Option<Box<TileProvider<'a>>>,
    sched: Arc<dyn Scheduler + Send + Sync>,
    /// How engines run it. `workers: 0` is "not chosen".
    engine: JobEngineConfig,
    clock: Arc<dyn Clock>,
    recorder: Option<&'a Recorder>,
}

impl<'a> Run<'a> {
    /// Executes a task graph — one the caller built, or one shared from
    /// [`sbc_taskgraph::memo`]. Inputs, ready order and the gathered result
    /// follow the graph exactly as they do for the operation constructors.
    pub fn graph(graph: Arc<TaskGraph>) -> Self {
        Run {
            graph,
            b: 32,
            seed: 42,
            seed_rhs: None,
            provider: None,
            sched: Arc::new(CriticalPath),
            engine: JobEngineConfig {
                workers: 0,
                ..Default::default()
            },
            clock: Arc::new(RealClock),
            recorder: None,
        }
    }

    /// Executes a planner's [`Plan`]: its distribution's graph for its
    /// operation, at its tile size — from `(op, nt, b)` to a distributed
    /// execution without naming a distribution anywhere.
    pub fn plan(plan: &Plan) -> Self {
        Self::graph(plan.graph()).block(plan.b)
    }

    /// Cholesky factorization of the seeded SPD matrix under `dist`.
    ///
    /// This and the other operation constructors take the graph from
    /// [`sbc_taskgraph::memo`], so every run of one placement shares one
    /// graph, built once.
    pub fn potrf<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::graph(Workload::Potrf(dist).graph(nt))
    }

    /// 2.5D Cholesky factorization (paper Section IV). The final value of
    /// tile `(i, j)` lives on the slice that executed iteration `j`.
    pub fn potrf_25d<D: Distribution>(d25: &TwoPointFiveD<D>, nt: usize) -> Self {
        Self::graph(Workload::Potrf25d(d25).graph(nt))
    }

    /// POSV: factorize the seeded SPD matrix and solve against the seeded
    /// right-hand side distributed by `rhs_dist`.
    pub fn posv<D: Distribution>(dist: &D, rhs_dist: &RowCyclic, nt: usize) -> Self {
        Self::graph(Workload::Posv(dist, rhs_dist).graph(nt))
    }

    /// LU factorization (no pivoting) of the seeded diagonally dominant
    /// general matrix.
    pub fn lu<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::graph(Workload::Lu(dist).graph(nt))
    }

    /// TRTRI of the lower triangle of the seeded matrix.
    pub fn trtri<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::graph(Workload::Trtri(dist).graph(nt))
    }

    /// LAUUM of the lower triangle of the seeded matrix.
    pub fn lauum<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::graph(Workload::Lauum(dist).graph(nt))
    }

    /// POTRI (full SPD inverse) under one distribution.
    pub fn potri<D: Distribution>(dist: &D, nt: usize) -> Self {
        Self::graph(Workload::Potri(dist).graph(nt))
    }

    /// POTRI with the paper's "SBC remap 2DBC" strategy (Section V-F.2):
    /// factor under `sym`, remap to `bc` for the inversion, remap back.
    pub fn potri_remap<A: Distribution, B: Distribution>(sym: &A, bc: &B, nt: usize) -> Self {
        Self::graph(Workload::PotriRemap(sym, bc).graph(nt))
    }

    /// Tile dimension (default 32).
    pub fn block(mut self, b: usize) -> Self {
        self.b = b;
        self
    }

    /// Seed of the generated input matrix (default 42). The RHS seed is
    /// derived from it unless [`Self::seed_rhs`] is set.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seed of the generated right-hand-side panel (POSV).
    pub fn seed_rhs(mut self, seed_rhs: u64) -> Self {
        self.seed_rhs = Some(seed_rhs);
        self
    }

    /// Custom original-tile provider replacing the seeded generators —
    /// real data, or an injected failure. It is called on a tile's *home*
    /// node the first time the tile is needed and must be a pure function
    /// of the [`TileRef`].
    pub fn provider(mut self, provider: impl Fn(TileRef) -> Tile + Sync + 'a) -> Self {
        self.provider = Some(Box::new(provider));
        self
    }

    /// Ranks the ready heaps with an `sbc-topo` [`Scheduler`] (default
    /// [`CriticalPath`], the paper's StarPU list-scheduler configuration;
    /// `sbc_topo::SubmissionOrder` pops in `TaskId` order). Every scheduler
    /// assigns priorities deterministically, so swapping schedulers changes
    /// execution order but never results (tested bit-exactly).
    pub fn scheduler(mut self, sched: Arc<dyn Scheduler + Send + Sync>) -> Self {
        self.sched = sched;
        self
    }

    /// Steppers per node (clamped to at least 1): the most pooled threads
    /// one rank holds at once, of `min(nodes × workers, cores)` under
    /// [`Run::execute`] and `min(workers, cores)` under [`Run::execute_rank`].
    /// Default: available cores divided by the node count, at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.engine.workers = workers.max(1);
        self
    }

    /// Arms the liveness watchdog: the maximum time a rank may sit without
    /// progress (applying a message or completing a task) before the run
    /// fails with [`ExecError::Stalled`] instead of hanging; rank 0's
    /// gather under [`Run::execute_rank`] waits at most this long after the
    /// last report. Default: no deadline — nothing times out.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.engine.deadline = Some(deadline);
        self
    }

    /// Kernel backend the worker threads dispatch through (default
    /// [`KernelBackend::Blocked`], which is at every tile size at least as
    /// fast as `Naive`, the reference it is compared against); the
    /// `SBC_KERNELS` environment variable overrides it. Backends are bit-identical — factors, residuals and
    /// communication statistics do not depend on this knob, only speed
    /// does.
    pub fn kernels(mut self, kernels: KernelBackend) -> Self {
        self.engine.kernels = kernels;
        self
    }

    /// The time source the watchdog (progress epochs, stall deadlines) reads
    /// — default [`RealClock`]. Injecting an [`sbc_net::VirtualClock`] makes
    /// stall detection a pure function of explicitly advanced time, each
    /// advance waking the pool or the gather: deterministic tests can fire a
    /// 1000-second deadline in milliseconds of real time. A [`sbc_net::Session`]
    /// endpoint's timers are waited for on it too: give both one clock.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Record the execution: task spans per worker, message events,
    /// dependency waits, scheduler gauges.
    pub fn recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The task graph this run executes — inspectable before
    /// [`Self::execute`] (e.g. for message-count assertions).
    pub fn task_graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Submits this run as the single job of `table` and closes admission,
    /// so every engine started afterwards registers the job on its first
    /// iteration and exits on drain. Returns the job's id.
    fn submit_closed<'s>(&'s self, table: &JobTable<'s>) -> JobId {
        let spec = JobSpec::new(
            Arc::clone(&self.graph),
            self.b,
            (self.seed, self.seed_rhs.unwrap_or(self.seed ^ 0x05EE_D0FB)),
            0,
            self.sched.as_ref(),
            self.provider.as_deref().map(|p| p as &TileProvider<'s>),
        );
        // a one-shot table is never obs-bound, so the drift monitor's
        // prediction is not computed
        let id = table
            .submit_spec(spec, (0, 0))
            .expect("a fresh table admits its first job");
        table.shutdown();
        id
    }

    /// The rank engines' configuration for an `n_nodes` mesh.
    fn engine_config(&self, n_nodes: usize) -> JobEngineConfig {
        let mut cfg = self.engine;
        if cfg.workers == 0 {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            cfg.workers = (cores / n_nodes.max(1)).max(1);
        }
        cfg.kernels = KernelBackend::resolve(cfg.kernels);
        cfg
    }

    fn output(
        &self,
        tiles: &HashMap<TileRef, Tile>,
        stats: CommStats,
    ) -> Result<RunOutput, ExecError> {
        let result = gather(&self.graph, tiles, self.b)?;
        Ok(RunOutput { stats, result })
    }

    /// Runs the graph to completion over an in-process channel mesh and
    /// gathers its result. The ranks are stepped on `min(nodes × workers,
    /// cores)` pooled threads, the caller one of them.
    ///
    /// Kernel failures and missing result tiles surface as [`ExecError`];
    /// on failure every node is shut down via poison messages first and the
    /// originating failure is returned.
    pub fn execute(&self) -> Result<RunOutput, ExecError> {
        let n_nodes = self.graph.num_nodes();
        let cfg = self.engine_config(n_nodes);
        self.execute_pooled(pool_threads(n_nodes, cfg.workers))
    }

    /// [`Run::execute`] on exactly `threads` pooled threads.
    pub(crate) fn execute_pooled(&self, threads: usize) -> Result<RunOutput, ExecError> {
        let n_nodes = self.graph.num_nodes();
        let table = JobTable::with_clock(n_nodes, n_nodes, 1, Arc::clone(&self.clock));
        let id = self.submit_closed(&table);
        let cfg = self.engine_config(n_nodes);
        // a failing rank's error reaches the caller through the table
        let mesh = inproc_mesh(n_nodes);
        let nets: Vec<&dyn Transport> = mesh.iter().map(|t| t as &dyn Transport).collect();
        let _ = run_pooled(&nets, &table, cfg, self.recorder, threads);
        let out = table.wait(id)?;
        self.output(&out.tiles, out.stats)
    }

    /// Executes *this rank's* share of the graph over `net` — the entry
    /// point for multi-process runs, where each rank is its own OS process
    /// (or caller-managed thread) holding one transport endpoint (see
    /// `sbc_net::launch`).
    ///
    /// Every rank of the mesh must build an identical `Run` and call this
    /// with its own endpoint. The rank is stepped on `min(workers, cores)`
    /// pooled threads, the caller one of them. Worker ranks
    /// (`net.rank() != 0`) then ship their final tiles and a [`PeerStats`]
    /// report to rank 0 and return `Ok(None)`; rank 0 waits on its endpoint,
    /// on the run's clock, for every report, gathers and returns
    /// `Ok(Some(output))`. A failure on any rank poisons the whole mesh: the
    /// failing rank returns its own [`ExecError`], every other rank
    /// [`ExecError::Remote`]. A graph placed on more nodes than the mesh has
    /// ranks is [`ExecError::MeshTooSmall`] on every rank, before any runs.
    pub fn execute_rank(&self, net: &dyn Transport) -> Result<Option<RunOutput>, ExecError> {
        let n = net.num_nodes();
        let me = net.rank();
        let needs = self.graph.num_nodes();
        if needs > n {
            return Err(ExecError::MeshTooSmall { needs, ranks: n });
        }
        // a rank-local table: the job completes on this rank's one report
        let table = JobTable::with_clock(n, 1, 1, Arc::clone(&self.clock));
        let id = self.submit_closed(&table);
        let cfg = self.engine_config(n);
        let threads = pool_threads(1, cfg.workers);
        let early = run_pooled(&[net], &table, cfg, self.recorder, threads)?;
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
            b: self.b,
            tiles: out.tiles,
            peer: vec![None; n],
            missing: n - 1,
        };
        gather.peer[0] = Some(own);
        for msg in early {
            gather.absorb(msg, net)?;
        }
        // the pool is gone: this thread waits on the endpoint, on the run's
        // clock, until at most a deadline after the last report
        let mut last_report = self.clock.now();
        while gather.missing > 0 {
            let until = self.engine.deadline.map(|d| last_report + d);
            let Some(msg) = wait_for(net, &*self.clock, until, || net.try_recv()) else {
                // the gather itself stalled: missing worker reports will
                // never arrive — abort the mesh
                poison_workers(net);
                let got = n - 1 - gather.missing;
                return Err(ExecError::Stalled {
                    rank: 0,
                    waiting_on: format!("gather: {got}/{} worker reports received", n - 1),
                });
            };
            if gather.absorb(msg, net)? {
                last_report = self.clock.now();
            }
        }

        let peer = || gather.peer.iter().map(|s| s.expect("every rank reported"));
        let stats = CommStats::from_per_node(
            peer().map(|s| s.sent).collect(),
            peer().map(|s| s.applied).collect(),
            peer().map(|s| s.sent_bytes).collect(),
        );
        self.output(&gather.tiles, stats).map(Some)
    }
}

/// Rank 0 aborting a gather: every worker rank is told to stop.
fn poison_workers(net: &dyn Transport) {
    for r in 1..net.num_nodes() as u32 {
        net.send_poison(r);
    }
}

/// Rank 0's side of the `Result`/`Done` gather protocol.
struct Gather {
    /// The job's tile size, which every `Result` tile must have.
    b: usize,
    tiles: HashMap<TileRef, Tile>,
    peer: Vec<Option<PeerStats>>,
    /// Worker ranks that have not reported `Done` yet.
    missing: usize,
}

impl Gather {
    /// Folds one inbox message of rank 0's endpoint `net` in. `Ok(true)` for
    /// gather traffic, `Ok(false)` for anything harmless,
    /// [`ExecError::Remote`] for a poison — or for a report no worker of
    /// this mesh can have sent, which poisons the workers first and leaves
    /// the gather as it was.
    fn absorb(&mut self, msg: Message, net: &dyn Transport) -> Result<bool, ExecError> {
        match msg {
            Message::Result { tile_ref, tile } if tile.dim() == self.b => {
                self.tiles.insert(tile_ref, tile);
            }
            // `src` comes off the wire: rank 0's own slot holds its own
            // counts, and there is no slot past the last rank
            Message::Done { src, stats } if src != 0 && (src as usize) < self.peer.len() => {
                if self.peer[src as usize].replace(stats).is_none() {
                    self.missing -= 1;
                }
            }
            // and a result of mixed tile sizes is a panic, not a matrix
            Message::Result { .. } | Message::Done { .. } => {
                poison_workers(net);
                return Err(ExecError::Remote);
            }
            Message::Poison => return Err(ExecError::Remote),
            // a duplicate payload injected after our run finished, or
            // leftover session traffic — harmless
            Message::Payload { .. } | Message::Seq { .. } | Message::Ack { .. } => {
                return Ok(false)
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_dist::comm;
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};
    use sbc_matrix::{potrf_tiled, random_spd};
    use sbc_net::{FaultConfig, Faulty, NodeId, TransportStats, VirtualClock};
    use sbc_taskgraph::build_potrf;
    use std::task::Waker;
    use std::time::Instant;

    fn assert_same_factor(a: &RunOutput, b: &RunOutput, context: &str) {
        for (i, j) in a.factor().tile_coords() {
            assert_eq!(
                a.factor().tile(i, j),
                b.factor().tile(i, j),
                "{context}: tile ({i},{j}) differs"
            );
        }
    }

    /// Every operation's graph marks, for each tile its gather collects,
    /// exactly one final writer — the task a served job's stream hands the
    /// tile on from — and marks no task that writes anything else.
    #[test]
    fn each_result_tile_has_exactly_one_final_writer() {
        let (sym, bc) = (SbcExtended::new(4), TwoDBlockCyclic::new(3, 2));
        let d25 = TwoPointFiveD::new(sbc_dist::SbcBasic::new(4), 2);
        let nt = 7;
        let runs = [
            ("potrf", Run::potrf(&sym, nt)),
            ("potrf_25d", Run::potrf_25d(&d25, nt)),
            ("posv", Run::posv(&sym, &RowCyclic::new(6), nt)),
            ("lu", Run::lu(&bc, nt)),
            ("trtri", Run::trtri(&sym, nt)),
            ("lauum", Run::lauum(&sym, nt)),
            ("potri", Run::potri(&sym, nt)),
            ("potri_remap", Run::potri_remap(&sym, &bc, nt)),
            ("graph", Run::graph(Arc::new(build_potrf(&bc, nt)))),
        ];
        for (name, run) in runs {
            let graph = run.task_graph();
            let mut finals: Vec<TileRef> = (0..graph.len() as u32)
                .filter(|&t| graph.writes_result(t))
                .map(|t| graph.tasks()[t as usize].output(graph.slices))
                .collect();
            let mut wanted: Vec<TileRef> = graph.result_tiles().collect();
            assert!(!wanted.is_empty(), "{name}: no result tiles");
            finals.sort_unstable_by_key(|&r| graph.tile_space().slot(r));
            wanted.sort_unstable_by_key(|&r| graph.tile_space().slot(r));
            assert_eq!(finals, wanted, "{name}: final writers against result tiles");
            // and the mark is the last writer: no later task writes the tile
            for t in (0..graph.len() as u32).filter(|&t| graph.writes_result(t)) {
                let tile = graph.tasks()[t as usize].output(graph.slices);
                let later = &graph.tasks()[t as usize + 1..];
                assert!(
                    later.iter().all(|u| u.output(graph.slices) != tile),
                    "{name}: task {t} is not the last writer of {tile:?}"
                );
            }
        }
    }

    #[test]
    fn builder_run_matches_sequential_and_analytic_counts() {
        let dist = SbcExtended::new(5);
        let nt = 12;
        let run = Run::potrf(&dist, nt).block(8).seed(2022);
        let expected_messages = run.task_graph().count_messages();
        let out = run.execute().unwrap();
        assert_eq!(out.stats.messages, expected_messages);
        assert_eq!(out.stats.messages, comm::potrf_messages(&dist, nt));
        let mut seq = random_spd(2022, nt, 8);
        potrf_tiled(&mut seq).unwrap();
        for (i, j) in seq.tile_coords() {
            assert_eq!(out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)), 0.0);
        }
    }

    #[test]
    fn gather_reports_missing_tiles_instead_of_panicking() {
        // the stores of a 2-tile-wide factorization cannot fill a 3-tile one
        let produced: HashMap<TileRef, Tile> = [(0, 0), (1, 0), (1, 1)]
            .into_iter()
            .map(|(i, j)| {
                let r = TileRef::A {
                    phase: 0,
                    slice: 0,
                    i,
                    j,
                };
                (r, Tile::zeros(8))
            })
            .collect();
        let dist = TwoDBlockCyclic::new(2, 2);
        assert!(gather(&build_potrf(&dist, 2), &produced, 8).is_ok());
        match gather(&build_potrf(&dist, 3), &produced, 8).unwrap_err() {
            ExecError::MissingTile { tile } => {
                assert!(matches!(tile, TileRef::A { i: 2, .. }), "{tile:?}");
            }
            other => panic!("expected MissingTile, got {other:?}"),
        }
    }

    /// The `src` of a `Done` is wire data. Naming rank 0 it used to
    /// overwrite rank 0's own counts, past the last rank it indexed out of
    /// bounds; a `Result` tile of another size than the job's used to panic
    /// in the assembly of the result. Each is a mesh failure now — the
    /// workers are poisoned and the gather ends in `Remote` with its state
    /// untouched.
    #[test]
    fn gather_refuses_a_done_from_no_worker_of_the_mesh() {
        let stats = |sent| PeerStats {
            sent,
            sent_bytes: 8 * sent,
            applied: 0,
        };
        let done = |src, sent| Message::Done {
            src,
            stats: stats(sent),
        };
        let a_tile = TileRef::A {
            phase: 0,
            slice: 0,
            i: 1,
            j: 0,
        };
        let result = |dim| Message::Result {
            tile_ref: a_tile,
            tile: Tile::zeros(dim),
        };
        for bad in [done(0, 99), done(3, 99), done(9, 99), result(4)] {
            let mesh = inproc_mesh(3);
            let mut gather = Gather {
                b: 8,
                tiles: HashMap::new(),
                peer: vec![Some(stats(7)), None, None],
                missing: 2,
            };
            assert_eq!(gather.absorb(done(1, 5), &mesh[0]), Ok(true));
            let label = format!("{bad:?}");
            assert_eq!(
                gather.absorb(bad, &mesh[0]),
                Err(ExecError::Remote),
                "{label}"
            );
            assert_eq!(gather.peer, [Some(stats(7)), Some(stats(5)), None]);
            assert_eq!(gather.missing, 1);
            assert!(gather.tiles.is_empty(), "{label}");
            for worker in &mesh[1..] {
                assert_eq!(worker.try_recv(), Some(Message::Poison), "{label}");
            }
            assert_eq!(mesh[0].try_recv(), None);
            // a tile of the job's size is gather traffic
            assert_eq!(gather.absorb(result(8), &mesh[0]), Ok(true));
            assert_eq!(gather.tiles.len(), 1);
        }
    }

    #[test]
    fn accessor_panics_carry_the_result_shape() {
        let dist = TwoDBlockCyclic::new(1, 1);
        let out = Run::potrf(&dist, 2).block(8).execute().unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = out.solution();
        }));
        assert!(res.is_err());
        assert!(matches!(out.result, RunResult::Factor(_)));
        assert_eq!(out.stats.messages, 0);
    }

    #[test]
    fn worker_counts_do_not_change_results_or_traffic() {
        let d = SbcExtended::new(5); // 10 nodes
        let g = Arc::new(build_potrf(&d, 12));
        let run = |workers| {
            let run = Run::graph(Arc::clone(&g))
                .block(8)
                .seed(2022)
                .workers(workers);
            run.execute().unwrap()
        };
        let base = run(1);
        for workers in [2, 4] {
            let out = run(workers);
            assert_same_factor(&base, &out, &format!("workers={workers}"));
            assert_eq!(base.stats, out.stats, "stats differ at workers={workers}");
        }
    }

    #[test]
    fn the_rhs_seed_is_derived_unless_set() {
        let d = SbcExtended::new(4);
        let rhs = RowCyclic::new(6);
        let derived = Run::posv(&d, &rhs, 8).block(8).seed(9).execute().unwrap();
        let explicit = |seed_rhs| {
            let run = Run::posv(&d, &rhs, 8).block(8).seed(9).seed_rhs(seed_rhs);
            run.execute().unwrap()
        };
        let same = explicit(9 ^ 0x05EE_D0FB);
        assert_eq!(derived.stats, same.stats);
        assert_eq!(derived.solution().max_abs_diff(same.solution()), 0.0);
        assert!(derived.solution().max_abs_diff(explicit(10).solution()) > 0.0);
    }

    /// Drives `execute_rank` over a caller-owned mesh, one thread per rank,
    /// returning rank 0's gathered output.
    fn run_ranks<T: Transport>(run: &Run<'_>, mesh: &[T]) -> RunOutput {
        std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| scope.spawn(move || run.execute_rank(net)))
                .collect();
            let mut out = None;
            for h in handles {
                if let Some(o) = h.join().expect("rank thread panicked").unwrap() {
                    out = Some(o);
                }
            }
            out.expect("rank 0 gathered an output")
        })
    }

    #[test]
    fn execute_rank_gather_matches_execute() {
        let d = SbcExtended::new(4); // 6 nodes
        let g = Arc::new(build_potrf(&d, 10));
        let run = Run::graph(Arc::clone(&g)).block(8).seed(2022).workers(1);
        let expected = run.execute().unwrap();
        let mesh = inproc_mesh(g.num_nodes());
        let out = run_ranks(&run, &mesh);
        assert_eq!(out.stats, expected.stats);
        assert_same_factor(&expected, &out, "execute_rank");
    }

    /// Every rank's result of `execute_rank` over `mesh`, one thread each.
    fn rank_results<T: Transport>(
        run: &Run<'_>,
        mesh: &[T],
    ) -> Vec<Result<Option<RunOutput>, ExecError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| scope.spawn(move || run.execute_rank(net)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A 6-node graph on a 4-rank mesh used to start every rank and fail
    /// each one with an index panic in its engine. Every rank refuses it
    /// now, typed, before any of them runs.
    #[test]
    fn a_graph_wider_than_its_mesh_is_refused_on_every_rank() {
        let run = Run::potrf(&SbcExtended::new(4), 6).block(8);
        assert_eq!(run.task_graph().num_nodes(), 6);
        let mesh = inproc_mesh(4);
        for (rank, result) in rank_results(&run, &mesh).into_iter().enumerate() {
            assert_eq!(
                result.err(),
                Some(ExecError::MeshTooSmall { needs: 6, ranks: 4 }),
                "rank {rank}"
            );
        }
        for net in &mesh {
            assert_eq!(net.try_recv(), None, "a refused rank sent nothing");
        }
    }

    /// Ranks that each build their own `Run` of one shape share one graph:
    /// the memo builds it once, the racing callers wait for that build.
    #[test]
    fn six_ranks_of_one_shape_share_one_graph() {
        let (dist, nt) = (SbcExtended::new(4), 11);
        let mesh = inproc_mesh(dist.num_nodes());
        let start = std::sync::Barrier::new(mesh.len());
        let (graphs, outputs): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
            let handles: Vec<_> = mesh
                .iter()
                .map(|net| {
                    let (dist, start) = (&dist, &start);
                    scope.spawn(move || {
                        start.wait();
                        let run = Run::potrf(dist, nt).block(8).seed(5).workers(1);
                        let graph = run.task_graph() as *const TaskGraph as usize;
                        (graph, run.execute_rank(net).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).unzip()
        });
        assert!(graphs.iter().all(|&g| g == graphs[0]), "{graphs:?}");
        let out = outputs
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 gathered");
        let mut seq = random_spd(5, nt, 8);
        potrf_tiled(&mut seq).unwrap();
        for (i, j) in seq.tile_coords() {
            assert_eq!(out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)), 0.0);
        }
        assert_eq!(out.stats.messages, comm::potrf_messages(&dist, nt));
    }

    /// SBC r = 4 under its own name, every tile on the next node over.
    struct Renumbered(SbcExtended);

    impl Distribution for Renumbered {
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn owner(&self, i: usize, j: usize) -> usize {
            (self.0.owner(i, j) + 1) % self.0.num_nodes()
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    /// The memo keys a graph by where tiles live, not by what the
    /// distribution calls itself: a renamed placement runs its own graph,
    /// bit-identical to the sequential factor, with its own analytic counts.
    #[test]
    fn a_placement_under_another_ones_name_runs_its_own_graph() {
        let nt = 10;
        let (sbc, renumbered) = (SbcExtended::new(4), Renumbered(SbcExtended::new(4)));
        assert_eq!(renumbered.name(), sbc.name());
        let plain = Run::potrf(&sbc, nt);
        let run = Run::potrf(&renumbered, nt).block(8).seed(13);
        assert!(!std::ptr::eq(plain.task_graph(), run.task_graph()));
        for (t, u) in plain
            .task_graph()
            .tasks()
            .iter()
            .zip(run.task_graph().tasks())
        {
            assert_eq!((t.node + 1) % 6, u.node);
        }
        let out = run.execute().unwrap();
        let mut seq = random_spd(13, nt, 8);
        potrf_tiled(&mut seq).unwrap();
        for (i, j) in seq.tile_coords() {
            assert_eq!(out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)), 0.0);
        }
        let messages = comm::potrf_messages(&renumbered, nt);
        assert_eq!(out.stats.messages, messages);
        assert_eq!(out.stats.bytes, comm::messages_to_bytes(messages, 8));
    }

    /// Rank 1's endpoint with its `Done` report lost on the way.
    struct NoReport(sbc_net::InProc);

    impl Transport for NoReport {
        fn rank(&self) -> NodeId {
            self.0.rank()
        }
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
            match msg {
                Message::Done { .. } => Some(0),
                msg => self.0.send(dest, msg),
            }
        }
        fn set_waker(&self, waker: Option<Waker>) {
            self.0.set_waker(waker);
        }
        fn next_timer(&self) -> Option<Instant> {
            self.0.next_timer()
        }
        fn try_recv(&self) -> Option<Message> {
            self.0.try_recv()
        }
        fn stats(&self) -> TransportStats {
            self.0.stats()
        }
    }

    /// Rank 0's gather waits on the run's clock: a worker report that never
    /// comes ends it at that clock's deadline. With virtual time running
    /// 10 s per real millisecond, a 1000 s deadline is a tenth of a real
    /// second, not 1000 of them.
    #[test]
    fn the_gather_follows_the_injected_clock() {
        let (verdict, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let clock = Arc::new(VirtualClock::new());
            let dist = TwoDBlockCyclic::new(2, 1);
            let run = Run::potrf(&dist, 4)
                .block(4)
                .deadline(Duration::from_secs(1000))
                .clock(Arc::clone(&clock) as Arc<dyn Clock>);
            let mut mesh = inproc_mesh(2).into_iter();
            let (zero, one) = (mesh.next().unwrap(), NoReport(mesh.next().unwrap()));
            let _ = verdict.send(std::thread::scope(|s| {
                let worker = s.spawn(|| run.execute_rank(&one));
                let gather = s.spawn(|| run.execute_rank(&zero));
                let worker = worker.join().unwrap();
                // time runs only now, so no engine's watchdog fires first
                while !gather.is_finished() {
                    clock.advance(Duration::from_secs(10));
                    std::thread::sleep(Duration::from_millis(1));
                }
                (gather.join().unwrap(), worker)
            }));
        });
        let (gathered, worker) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the gather waited out a virtual deadline in real time");
        assert!(matches!(worker, Ok(None)), "{worker:?}");
        match gathered {
            Err(ExecError::Stalled {
                rank: 0,
                waiting_on,
            }) => {
                assert_eq!(waiting_on, "gather: 0/1 worker reports received");
            }
            other => panic!("expected the gather to stall, got {other:?}"),
        }
    }

    #[test]
    fn duplicating_and_delaying_transport_does_not_change_the_result() {
        let d = TwoDBlockCyclic::new(2, 2);
        let g = Arc::new(build_potrf(&d, 8));
        let run = Run::graph(Arc::clone(&g)).block(8).seed(3).workers(2);
        let clean = run.execute().unwrap();
        let cfg = FaultConfig {
            dup_every: 2,
            delay: Some(std::time::Duration::from_micros(50)),
            ..Default::default()
        };
        let mesh: Vec<_> = inproc_mesh(g.num_nodes())
            .into_iter()
            .map(|t| Faulty::new(t, cfg))
            .collect();
        let out = run_ranks(&run, &mesh);
        // duplicates inflate the wire counts but are never applied, so the
        // result and the applied totals stay at the clean run's values
        let injected: u64 = mesh.iter().map(|t| t.duplicated()).sum();
        assert!(injected > 0, "the fault plan injected nothing");
        assert_eq!(out.stats.messages, clean.stats.messages + injected);
        assert_eq!(out.stats.recv_per_node, clean.stats.recv_per_node);
        assert_same_factor(&clean, &out, "under faults");
    }
}
