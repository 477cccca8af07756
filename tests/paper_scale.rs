//! The paper's largest factorization, executed: SBC r = 8 on P = 28 nodes
//! (its Fig 9 distribution) at nt = 200 — 1 353 400 tasks — on the real
//! engine over in-process channels. A debug build would take minutes, so
//! the test runs in release builds only:
//! `cargo test --release --test paper_scale`.

use sbc::dist::{comm, SbcExtended};
use sbc::matrix::{potrf_tiled, random_spd};
use sbc::runtime::Run;
use std::time::Duration;

#[test]
#[cfg_attr(debug_assertions, ignore = "1.35 M tasks: release builds only")]
fn sbc_r8_at_nt_200_is_sequential_bit_for_bit_with_analytic_counts() {
    let (dist, nt, b, seed) = (SbcExtended::new(8), 200, 8, 2022);
    let run = Run::potrf(&dist, nt)
        .block(b)
        .seed(seed)
        .workers(1)
        .deadline(Duration::from_secs(120));
    let graph = run.task_graph();
    assert_eq!((graph.len(), graph.num_nodes()), (1_353_400, 28));

    let out = run.execute().expect("the paper-scale run failed");
    let mut seq = random_spd(seed, nt, b);
    potrf_tiled(&mut seq).expect("sequential factorization failed");
    for (i, j) in seq.tile_coords() {
        assert_eq!(
            out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
            0.0,
            "tile ({i},{j}) differs from sequential"
        );
    }
    let messages = comm::potrf_messages(&dist, nt);
    assert_eq!(out.stats.messages, messages);
    assert_eq!(out.stats.bytes, comm::messages_to_bytes(messages, b));

    // every rank held its own share of the graph, not the graph, and one
    // tile slot per tile it owns or receives: the 20 100 tiles of the
    // triangle plus the 120 523 replicas, not nt + nt² slots per rank
    let p = graph.num_nodes();
    let views = (0..p as u32).map(|rank| graph.rank_view(rank));
    let slots: usize = views.map(|view| view.owned() + view.inputs()).sum();
    assert_eq!(slots, 20_100 + 120_523);
    for rank in 0..p as u32 {
        let view = graph.rank_view(rank);
        let bound = 2 * graph.heap_bytes() / p + view.boundary_bytes();
        assert!(
            view.heap_bytes() <= bound,
            "rank {rank}: {} > {bound}",
            view.heap_bytes()
        );
    }
}
