//! Automatic distribution selection: the planner picks the layout, the
//! runtime executes it — no distribution named anywhere in user code.
//!
//! The scenario is a solver service: requests arrive as `(operation,
//! matrix size)`, the cluster shape is fixed, and the service must pick
//! the best data distribution per request and amortize that decision
//! across repeats. The planner reproduces the paper's findings on its
//! own: SBC for the symmetric factorizations (Theorem 1), 2DBC for
//! TRTRI/LU, and serves the second identical request from its cache.
//!
//! Run with: `cargo run --release --example auto_solver`

use sbc::planner::{Op, Planner};
use sbc::runtime::Run;
use sbc::simgrid::Platform;

fn main() {
    // A 21-node cluster (the paper's r = 7 sweet spot) and a stream of
    // requests. Execution uses a small tile size so the demo runs real
    // kernels quickly; planning cost is independent of `b`.
    let planner = Planner::new(Platform::bora(21));
    let (nt, b, seed) = (18, 16, 11);

    for op in [Op::Potrf, Op::Trtri, Op::Lu] {
        let plan = planner.plan(op, nt, b);
        println!(
            "{}: planner chose {} ({} analytic messages, model {:.4}s)",
            op.name(),
            plan.choice.describe(),
            plan.cost.messages,
            plan.cost.total_seconds
        );

        let out = Run::plan(&plan).seed(seed).execute().unwrap();
        println!(
            "  executed on {} node-threads: {} tiles sent, {} bytes",
            plan.choice.nodes_used(),
            out.stats.messages,
            out.stats.bytes
        );
        assert_eq!(
            out.stats.messages, plan.cost.messages,
            "measured == planned traffic"
        );
    }

    // Repeat request: served from the plan cache, no re-search.
    let again = planner.plan(Op::Potrf, nt, b);
    assert!(again.cached);
    println!(
        "repeat potrf request: cache hit ({} plans cached)",
        planner.cache().len()
    );
}
