//! # sbc-bench — the paper-reproduction harness
//!
//! One function per table/figure of the paper's evaluation section
//! (Section V). Each returns a [`Figure`] — named series over a swept
//! parameter — that the `paper` binary renders as aligned text. Timing
//! the code itself is `perf/`'s job, not this crate's.
//!
//! All performance numbers come from the `sbc-simgrid` model of the `bora`
//! platform; all communication volumes are exact counts (verified elsewhere
//! to match both the task-graph derivation and the threaded runtime's
//! measured traffic). We reproduce *shapes* (who wins, by what factor,
//! where curves cross), not the testbed's absolute GFlop/s.

#![warn(missing_docs)]

pub mod figures;
pub mod render;

pub use figures::Scale;
pub use render::{render_csv, render_figure, Figure, Series};
