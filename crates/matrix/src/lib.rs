//! # sbc-matrix — tiled matrices and sequential tiled algorithms
//!
//! This crate provides the data containers and the *sequential* ground-truth
//! algorithms of the SBC reproduction:
//!
//! * [`SymmetricTiledMatrix`] — an `N x N`-tile symmetric matrix storing only
//!   the lower-triangular tiles (the layout Cholesky works on, Section III-A
//!   of the paper: `A[i][j]` for `0 <= j <= i < N`),
//! * [`TiledPanel`] — a tall tile panel (`N x 1` tiles) for POSV right-hand
//!   sides,
//! * [`generate`] — seeded random SPD matrix and RHS generation,
//! * [`algorithms`] — sequential tiled POTRF (Algorithm 1 verbatim), the
//!   POSV forward/backward sweeps, tiled TRTRI and LAUUM, and the POTRI
//!   composition. These define the *exact* dependency structure that the
//!   task-graph crate encodes, and serve as the reference the distributed
//!   runtimes are validated against.
//! * [`verify`] — scaled residual checks.

#![warn(missing_docs)]

pub mod algorithms;
pub mod generate;
pub mod storage;
pub mod verify;

pub use algorithms::{lauum_tiled, lu_tiled, posv_tiled, potrf_tiled, potri_tiled, trtri_tiled};
pub use generate::{random_general, random_panel, random_spd};
pub use storage::{FullTiledMatrix, SymmetricTiledMatrix, TiledPanel};
pub use verify::{cholesky_residual, inverse_residual, lu_residual, solve_residual};
