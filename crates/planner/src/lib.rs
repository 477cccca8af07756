//! # sbc-planner — autotuning distribution selection
//!
//! The paper's central finding is that the *choice* of data distribution —
//! SBC with parameter `r`, 2D block-cyclic `p x q`, or a 2.5D replication
//! with `c` slices — determines communication volume and therefore speed,
//! and that the winner flips with the operation, the node count and the
//! matrix size (Table I, Figs 9–14). Every other entry point in this
//! workspace asks the caller to hard-code that choice. This crate makes it
//! automatic, in the shape of a small query planner:
//!
//! * [`candidates`] enumerates the feasible distribution space for a node
//!   count `P` and an operation — every 2DBC factor pair near `P`, every
//!   SBC basic/extended `r`, 2.5D slicings, and (for POTRI) the paper's
//!   "SBC remap 2DBC" strategy;
//! * [`model`] scores each candidate with a closed-form cost model that
//!   combines the exact per-pair message count of the candidate's task
//!   stream (`sbc_taskgraph::Workload::traffic`), priced over one network topology (the platform's
//!   single switch unless `Planner::with_topology` gives another), the
//!   LAPACK flop counts of `sbc_kernels`, and the hardware constants of an
//!   `sbc_simgrid::Platform`;
//! * [`planner`] runs the search and returns a [`Plan`], the analytic
//!   winner; `Planner::simulate` runs any candidate through the
//!   discrete-event simulator as a referee;
//! * [`cache`] amortizes planning across requests: one capacity-bounded
//!   LRU map keyed by `(op, nt, b)` holds each warm shape's plan (the task
//!   graph that executes it is shared through `sbc_taskgraph::memo`);
//! * [`drift`] closes the loop: given the measured [`sbc_obs::ExecProfile`]
//!   of an instrumented run, it reports how far the model's predictions
//!   drifted from reality (communication must be exact; time yields a
//!   calibration factor).
//!
//! ```
//! use sbc_planner::{Op, Planner};
//! use sbc_simgrid::Platform;
//!
//! // 28 bora nodes, factorizing a 100k x 100k matrix in 500-wide tiles.
//! let planner = Planner::new(Platform::bora(28));
//! let plan = planner.plan(Op::Potrf, 200, 500);
//! // The paper's answer: extended SBC with r = 8 (Fig 9).
//! assert_eq!(plan.choice.describe(), "SBC ext r=8 (P=28)");
//! let again = planner.plan(Op::Potrf, 200, 500);
//! assert!(again.cached);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod candidates;
pub mod drift;
pub mod model;
pub mod planner;

pub use cache::PlanCache;
pub use candidates::{DistChoice, Op};
pub use drift::{compare, DriftReport};
pub use model::{CostBreakdown, CostModel};
pub use planner::{Plan, Planner, PlannerConfig};
