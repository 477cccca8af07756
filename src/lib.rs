//! # sbc — Symmetric Block-Cyclic distribution for dense Cholesky
//!
//! A from-scratch Rust reproduction of *"Symmetric Block-Cyclic
//! Distribution: Fewer Communications Leads to Faster Dense Cholesky
//! Factorization"* (Beaumont, Duchon, Eyraud-Dubois, Langou, Vérité —
//! SC 2022): the SBC data distribution, its 2.5D variant, the baselines it
//! is compared against, and the full execution stack needed to evaluate
//! them — tile kernels, tiled algorithms, task graphs, a cluster simulator
//! and a threaded distributed runtime.
//!
//! ## Quick start
//!
//! ```
//! use sbc::dist::{Distribution, SbcExtended, TwoDBlockCyclic};
//! use sbc::dist::comm::potrf_messages;
//! use sbc::runtime::Run;
//! use sbc::matrix::{cholesky_residual, random_spd};
//!
//! // The paper's r = 7 SBC distribution: P = 21 nodes.
//! let sbc = SbcExtended::new(7);
//! assert_eq!(sbc.num_nodes(), 21);
//!
//! // Factorize a 10x10-tile SPD matrix distributedly (21 virtual nodes,
//! // each a small pool of worker threads).
//! let (nt, b, seed) = (10, 8, 42);
//! let out = Run::potrf(&sbc, nt).block(b).seed(seed).execute()?;
//! assert!(cholesky_residual(&random_spd(seed, nt, b), out.factor()) < 1e-12);
//!
//! // The measured traffic equals the analytic count, and beats 2DBC's.
//! assert_eq!(out.stats.messages, potrf_messages(&sbc, nt));
//! assert!(out.stats.messages < potrf_messages(&TwoDBlockCyclic::new(7, 3), nt));
//! # Ok::<(), sbc::runtime::ExecError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`kernels`] | tile-level GEMM/SYRK/TRSM/POTRF/TRTRI/LAUUM/TRMM |
//! | [`matrix`] | tiled symmetric storage, SPD generation, sequential tiled algorithms, residual checks |
//! | [`dist`] | **SBC** (basic/extended), 2D block-cyclic, row-cyclic, 2.5D; load balance; exact communication counting; Table I |
//! | [`taskgraph`] | distributed task DAGs (POTRF/POSV/TRTRI/LAUUM/POTRI/LU, 2.5D, remap), each saying what its result is; upward-rank priorities |
//! | [`simgrid`] | discrete-event cluster simulator (the paper's `bora` platform model) |
//! | [`topo`] | network topology model (racks, switches, per-link bandwidth/latency, routing) and the `Scheduler` trait — the one selector of ready order in simulator and runtime (critical-path, HEFT, submission-order) — with Pareto sweep reports |
//! | [`net`] | pluggable transport layer: in-process channels, real TCP/UDS stream sockets with a CRC-checked wire protocol, fault injection, multi-process launcher |
//! | [`mc`] | exhaustive model checker for the ARQ session protocol: bounded exploration of all deliver/drop/duplicate/reorder interleavings on a virtual clock, exactly-once + exact-accounting + liveness invariants, replayable counterexamples (`paper mc`) |
//! | [`runtime`] | distributed runtime over [`net`]: one task engine (a job table plus a priority-scheduled worker pool per rank) and one builder, [`runtime::Run`] — an operation, your own graph ([`runtime::Run::graph`]) or a planner's [`runtime::Run::plan`], in-process ([`runtime::Run::execute`]) or one process per rank ([`runtime::Run::execute_rank`]); a resident mesh streams jobs through [`runtime::JobTable`] — with byte-exact per-job communication accounting |
//! | [`planner`] | autotuning distribution planner: candidate search, analytic cost model, simulation referee, concurrent plan cache, drift reports |
//! | [`serve`] | resident factorization service: multi-job engine over a warm mesh, job wire protocol, admission control, `paper serve`/`paper submit` |
//! | [`obs`] | observability: execution recorder, metrics registry, text Gantt and Chrome-trace/Perfetto export for measured and simulated runs |
//!
//! ## Choosing a distribution automatically
//!
//! The [`planner`] module removes the need to hard-code a distribution:
//!
//! ```
//! use sbc::planner::{Op, Planner};
//! use sbc::simgrid::Platform;
//!
//! let planner = Planner::new(Platform::bora(21));
//! let plan = planner.plan(Op::Potrf, 60, 500);
//! assert_eq!(plan.choice.describe(), "SBC ext r=7 (P=21)");
//! ```

#![warn(missing_docs)]

pub use sbc_dist as dist;
pub use sbc_kernels as kernels;
pub use sbc_matrix as matrix;
pub use sbc_mc as mc;
pub use sbc_net as net;
pub use sbc_obs as obs;
pub use sbc_planner as planner;
pub use sbc_runtime as runtime;
pub use sbc_serve as serve;
pub use sbc_simgrid as simgrid;
pub use sbc_taskgraph as taskgraph;
pub use sbc_topo as topo;
