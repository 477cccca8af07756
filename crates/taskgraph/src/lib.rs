//! # sbc-taskgraph — distributed task DAGs for the tiled symmetric kernels
//!
//! This crate turns the sequential tiled algorithms of `sbc-matrix` into
//! distributed task graphs under a data distribution, exactly the way the
//! Chameleon + StarPU stack does in the paper:
//!
//! * tasks are placed by the **owner-computes** rule — every task that
//!   *modifies* a tile runs on the node owning that tile (Section III-A);
//! * dependencies are inferred *superscalar-style* from the access modes of
//!   each submitted task (`GraphBuilder`): read-after-write edges carry
//!   data, write-after-read edges only order local storage reuse — the same
//!   inference StarPU performs from `(tile, access-mode)` declarations;
//! * an inter-node **message** exists for every distinct
//!   `(producer task, consumer node)` pair over data edges — one tile per
//!   message, no collectives (Section V-C).
//!
//! Builders are provided for 2D POTRF ([`build_potrf`]), 2.5D POTRF with
//! accumulation buffers and reduction tasks ([`build_potrf_25d`],
//! Section IV), POSV ([`build_posv`]), TRTRI, LAUUM, POTRI and the paper's
//! "SBC remap 2DBC" POTRI with explicit redistribution tasks
//! ([`build_potri_remap`], Section V-F.2).
//!
//! The [`TaskGraph::count_messages`] derivation is tested to agree exactly
//! with the independent analytic counters in `sbc_dist::comm` — two
//! implementations of the paper's communication model that must coincide.

#![warn(missing_docs)]

pub mod builders;
pub mod graph;
pub mod memo;
pub mod priority;
pub mod task;
pub mod view;

pub use builders::{
    build_lauum, build_lu, build_posv, build_potrf, build_potrf_25d, build_potri,
    build_potri_remap, build_trtri,
};
pub use graph::{EdgeKind, InitialFetch, ResultKind, TaskGraph};
pub use priority::{
    critical_path_length, critical_path_priorities, flops_priorities, upward_ranks,
};
pub use task::{Task, TaskId, TaskKind, TileRef, TileSpace};
pub use view::{Input, RankView, Source};
