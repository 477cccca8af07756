//! Failure injection: kernel errors inside the distributed runtime must be
//! reported cleanly (no deadlock, no panic) via `Run::execute` — at
//! any worker count.

use sbc::dist::{SbcExtended, TwoDBlockCyclic};
use sbc::kernels::{KernelError, Tile};
use sbc::matrix::generate;
use sbc::runtime::{ExecError, Run};
use sbc::taskgraph::{build_potrf, build_trtri, TileRef};

const B: usize = 6;

/// A provider that generates the usual SPD matrix except for one poisoned
/// diagonal tile, making POTRF fail mid-flight on that tile's owner.
fn poisoned_spd(nt: usize, bad: (u32, u32)) -> impl Fn(TileRef) -> Tile + Sync {
    move |r| match r {
        TileRef::A { phase: 0, i, j, .. } if (i, j) == bad => {
            // negative diagonal => not positive definite
            Tile::from_fn(B, |r, c| if r == c { -1.0 } else { 0.0 })
        }
        TileRef::A { phase: 0, i, j, .. } => generate::spd_tile(7, nt, B, i as usize, j as usize),
        TileRef::Buf { .. } => Tile::zeros(B),
        TileRef::B { i } => generate::rhs_tile(8, B, i as usize),
        _ => unreachable!("no later phases in these graphs"),
    }
}

#[test]
fn non_spd_input_is_reported_not_deadlocked() {
    let dist = SbcExtended::new(5); // 10 nodes
    let nt = 9;
    let g = build_potrf(&dist, nt);
    for workers in [1, 4] {
        // poison a later diagonal tile so plenty of tasks run first
        let exec = Run::graph(&g)
            .block(B)
            .provider(poisoned_spd(nt, (4, 4)))
            .workers(workers);
        let err = exec.execute().expect_err("poisoned input must fail");
        match err {
            ExecError::Kernel { node, error, .. } => {
                assert!(
                    matches!(error, KernelError::NotPositiveDefinite(_)),
                    "{error}"
                );
                // the failing task is the POTRF of tile (4,4) or a downstream
                // victim on the same column; either way it runs on a real
                // node of the platform
                assert!((node as usize) < dist_nodes(&dist));
            }
            other => panic!("expected a kernel failure, got {other}"),
        }
    }
}

fn dist_nodes<D: sbc::dist::Distribution>(d: &D) -> usize {
    d.num_nodes()
}

#[test]
fn failure_on_first_tile() {
    let dist = TwoDBlockCyclic::new(2, 2);
    let nt = 6;
    let g = build_potrf(&dist, nt);
    let exec = Run::graph(&g).block(B).provider(poisoned_spd(nt, (0, 0)));
    let err = exec.execute().expect_err("must fail immediately");
    assert!(
        matches!(err, ExecError::Kernel { task: 0, .. }),
        "first POTRF is task 0, got {err}"
    );
}

#[test]
fn singular_triangle_in_trtri() {
    let dist = TwoDBlockCyclic::new(2, 2);
    let nt = 5;
    let g = build_trtri(&dist, nt);
    // provider with an exactly singular diagonal tile
    let exec = Run::graph(&g).block(B).provider(move |r| match r {
        TileRef::A { phase: 0, i, j, .. } if i == j && i == 2 => Tile::zeros(B),
        TileRef::A { phase: 0, i, j, .. } => generate::spd_tile(9, nt, B, i as usize, j as usize),
        _ => Tile::zeros(B),
    });
    let err = exec.execute().expect_err("singular triangle must fail");
    assert!(
        matches!(
            err,
            ExecError::Kernel {
                error: KernelError::SingularTriangle(_),
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn healthy_inputs_still_succeed_via_execute() {
    let dist = SbcExtended::new(4);
    let nt = 8;
    let g = build_potrf(&dist, nt);
    let exec = Run::graph(&g).block(B).seed(42).seed_rhs(43);
    let out = exec.execute().expect("healthy run succeeds");
    assert_eq!(out.stats.messages, g.count_messages());
}
