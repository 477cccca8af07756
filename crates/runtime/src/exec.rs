//! The vocabulary every execution shares: what was communicated
//! ([`CommStats`]), how a run fails ([`ExecError`]), where input tiles come
//! from (`TileProvider` and the seeded defaults) and which kernel a task
//! kind dispatches to.
//!
//! Communication is *schedule-invariant*: which tiles cross node boundaries
//! is decided by placement (the data edges of the graph plus the initial
//! fetches), never by execution order, so [`CommStats`] is bit-identical at
//! any worker count, under every scheduler, and over every transport backend.

use sbc_kernels::{KernelBackend, KernelError, Kernels, Tile, Trans};
use sbc_matrix::generate;
use sbc_taskgraph::{ResultKind, TaskGraph, TaskId, TaskKind, TileRef};

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
/// schedule: they are identical at every worker count and under every
/// `sbc_topo::Scheduler`.
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
    pub(crate) fn from_per_node(
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
    /// than the configured deadline ([`crate::Run::deadline`],
    /// [`crate::JobEngineConfig::deadline`]) while waiting on
    /// undelivered messages — the deadlock-free replacement for a silent
    /// hang over a lossy transport without a reliability session.
    Stalled {
        /// The rank whose watchdog fired.
        rank: u32,
        /// What the rank was blocked on, for diagnosis.
        waiting_on: String,
    },
    /// A worker thread panicked inside a task or a tile provider. The rank
    /// caught it, failed its jobs and poisoned the mesh, so the run ends
    /// with this error instead of peers waiting forever on a dead rank.
    Panicked {
        /// The rank whose worker panicked.
        rank: u32,
        /// The panic's message.
        message: String,
    },
    /// The graph places tasks on more nodes than the mesh has ranks; no
    /// rank started.
    MeshTooSmall {
        /// Nodes the graph places tasks on.
        needs: usize,
        /// Ranks the mesh has.
        ranks: usize,
    },
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
            ExecError::Panicked { rank, message } => {
                write!(f, "a worker of rank {rank} panicked: {message}")
            }
            ExecError::MeshTooSmall { needs, ranks } => {
                write!(f, "the graph needs {needs} ranks, the mesh has {ranks}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Provides original (input) tile contents to the rank engine.
///
/// The default provider generates the seeded random SPD matrix and RHS of
/// `sbc_matrix::generate`; custom providers let callers factor real data
/// or inject failures (see the failure-injection tests). Providers must be
/// pure functions of the [`TileRef`]: with several workers per node a tile
/// may be generated concurrently on overlapping paths, and every
/// generation must agree.
pub(crate) type TileProvider<'a> = dyn Fn(TileRef) -> Tile + Sync + 'a;

/// Default original-tile contents: the seeded SPD matrix — or, for a graph
/// whose result is a full matrix (LU), the seeded diagonally dominant general
/// one — zero buffers and the seeded RHS.
pub(crate) fn default_original(
    r: TileRef,
    graph: &TaskGraph,
    b: usize,
    seed: u64,
    seed_rhs: u64,
) -> Tile {
    match r {
        TileRef::A { phase: 0, i, j, .. } => {
            let (i, j) = (i as usize, j as usize);
            if graph.result == ResultKind::Full {
                generate::general_tile(seed, graph.nt, b, i, j)
            } else {
                generate::spd_tile(seed, graph.nt, b, i, j)
            }
        }
        TileRef::A { phase, .. } => {
            panic!("phase-{phase} tiles are always produced by Move tasks")
        }
        TileRef::Buf { .. } => Tile::zeros(b),
        TileRef::B { i } => generate::rhs_tile(seed_rhs, b, i as usize),
    }
}

/// Dispatches one task kind to its kernel on the given backend. `operands`
/// holds the task's reads in order: a `ReadSet` has at most two.
pub(crate) fn run_kernel(
    kernels: KernelBackend,
    kind: TaskKind,
    operands: &[Option<Tile>; 2],
    target: &mut Tile,
) -> Result<(), KernelError> {
    let op = |k: usize| operands[k].as_ref().expect("the task reads this operand");
    match kind {
        TaskKind::Potrf { .. } => kernels.potrf(target)?,
        TaskKind::Trsm { .. } => kernels.trsm_right_lower_trans(1.0, op(0), target),
        TaskKind::Syrk { .. } => kernels.syrk(Trans::No, -1.0, op(0), 1.0, target),
        TaskKind::Gemm { .. } => {
            kernels.gemm(Trans::No, Trans::Yes, -1.0, op(0), op(1), 1.0, target)
        }
        TaskKind::Reduce { .. } => target.add_assign(op(0)),
        TaskKind::TrsmFwd { .. } => kernels.trsm_left_lower(1.0, op(0), target),
        TaskKind::GemmFwd { .. } => {
            kernels.gemm(Trans::No, Trans::No, -1.0, op(0), op(1), 1.0, target)
        }
        TaskKind::TrsmBwd { .. } => kernels.trsm_left_lower_trans(1.0, op(0), target),
        TaskKind::GemmBwd { .. } => {
            kernels.gemm(Trans::Yes, Trans::No, -1.0, op(0), op(1), 1.0, target)
        }
        TaskKind::TrsmRInv { .. } => kernels.trsm_right_lower(-1.0, op(0), target),
        TaskKind::GemmInv { .. } => {
            kernels.gemm(Trans::No, Trans::No, 1.0, op(0), op(1), 1.0, target)
        }
        TaskKind::TrsmLInv { .. } => kernels.trsm_left_lower(1.0, op(0), target),
        TaskKind::TrtriDiag { .. } => kernels.trtri(target)?,
        TaskKind::SyrkLu { .. } => kernels.syrk(Trans::Yes, 1.0, op(0), 1.0, target),
        TaskKind::GemmLu { .. } => {
            kernels.gemm(Trans::Yes, Trans::No, 1.0, op(0), op(1), 1.0, target)
        }
        TaskKind::TrmmLu { .. } => kernels.trmm_left_lower_trans(op(0), target),
        TaskKind::LauumDiag { .. } => kernels.lauum(target),
        TaskKind::Getrf { .. } => kernels.getrf(target)?,
        TaskKind::TrsmRow { .. } => kernels.trsm_left_unit_lower(op(0), target),
        TaskKind::TrsmCol { .. } => kernels.trsm_right_upper(op(0), target),
        TaskKind::GemmTrail { .. } => {
            kernels.gemm(Trans::No, Trans::No, -1.0, op(0), op(1), 1.0, target)
        }
        TaskKind::Move { .. } => *target = op(0).clone(),
    }
    Ok(())
}
