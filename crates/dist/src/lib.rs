//! # sbc-dist — data distributions for distributed tiled Cholesky
//!
//! This crate implements the paper's central contribution: the **Symmetric
//! Block Cyclic (SBC)** distribution (Section III), alongside the baselines
//! it is compared to:
//!
//! * [`TwoDBlockCyclic`] — the standard ScaLAPACK-style `p x q` 2D
//!   block-cyclic distribution (Fig 1),
//! * [`SbcBasic`] — SBC with `r/2` extra diagonal nodes, even `r`
//!   (Section III-C.1, Fig 3),
//! * [`SbcExtended`] — SBC with diagonal nodes drawn from the existing
//!   `r(r-1)/2` nodes via rotating diagonal patterns (Section III-C.2,
//!   Figs 4–6), for any `r >= 3`,
//! * [`RowCyclic`] — the 1D distribution used for POSV right-hand sides
//!   (Section V-F.1),
//! * [`TwoPointFiveD`] — the `c`-slice replication wrapper of Section IV.
//!
//! The [`comm`] module counts communication volume *exactly* (one message
//! per distinct (tile version, consumer node) pair, matching the
//! StarPU/Chameleon behaviour the paper describes) by hand for each single
//! sweep, and provides the closed-form expressions of Theorem 1, Section III-D/E and IV-A/B. The
//! [`balance`] module quantifies load balance; [`table1`] regenerates
//! Table I.
//!
//! Tile coordinates `(i, j)` always refer to lower-triangular tiles
//! (`j <= i`), the only ones the symmetric algorithms touch.

#![warn(missing_docs)]

pub mod balance;
pub mod block_cyclic;
pub mod comm;
pub mod pattern;
pub mod row_cyclic;
pub mod sbc;
pub mod table1;
pub mod two_five_d;

pub use block_cyclic::TwoDBlockCyclic;
pub use pattern::PatternDistribution;
pub use row_cyclic::RowCyclic;
pub use sbc::{DiagonalCycling, SbcBasic, SbcExtended};
pub use two_five_d::TwoPointFiveD;

/// Identifier of a compute node.
pub type NodeId = usize;

/// A static assignment of lower-triangular tiles to nodes.
///
/// Implementations must be pure functions of `(i, j)`: the runtime, the
/// simulator and the analytic communication counters all call `owner`
/// independently and rely on getting identical answers.
pub trait Distribution: Send + Sync {
    /// Total number of nodes used by this distribution.
    fn num_nodes(&self) -> usize;

    /// Owner of tile `(i, j)` with `j <= i`.
    ///
    /// # Panics
    /// Implementations may panic if `j > i`.
    fn owner(&self, i: usize, j: usize) -> NodeId;

    /// Human-readable name (used by the benchmark harness output).
    fn name(&self) -> String;
}

impl<D: Distribution + ?Sized> Distribution for &D {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn owner(&self, i: usize, j: usize) -> NodeId {
        (**self).owner(i, j)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

impl Distribution for std::sync::Arc<dyn Distribution> {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn owner(&self, i: usize, j: usize) -> NodeId {
        (**self).owner(i, j)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}
