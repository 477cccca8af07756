//! Failure injection: kernel errors, malformed provider tiles and panics
//! inside the distributed runtime must be reported cleanly (no deadlock, no
//! panic) via `Run::execute` — at any worker count.

use sbc::dist::{SbcExtended, TwoDBlockCyclic};
use sbc::kernels::{KernelError, Tile};
use sbc::matrix::generate;
use sbc::runtime::{ExecError, Run};
use sbc::taskgraph::{build_potrf, build_trtri, TileRef};
use std::time::Duration;

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

/// Runs `run` on a thread of its own and fails the test if no result is back
/// in time: the bugs below were hangs, and a hung test would stall CI
/// instead of failing it.
fn within_deadline<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || tx.send(run()));
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run neither returned nor failed: it hangs");
    runner
        .join()
        .expect("runner thread")
        .expect("receiver alive");
    out
}

#[test]
fn a_wrong_dimension_provider_tile_is_a_typed_error() {
    fn check(op: &str, workers: usize, run: fn() -> Run<'static>) {
        let result = within_deadline(move || {
            run()
                .block(8)
                .workers(workers)
                .provider(|_| Tile::zeros(3))
                .execute()
        });
        let err = result.expect_err("a 3 x 3 tile cannot stand in for an 8 x 8 one");
        let expected = KernelError::DimensionMismatch {
            expected: 8,
            found: 3,
        };
        assert!(
            matches!(&err, ExecError::Kernel { error, .. } if *error == expected),
            "{op}, workers={workers}: {err}"
        );
    }
    for workers in [1, 4] {
        // POTRF meets the tile as a kernel's own target, TRTRI while
        // shipping an original to a remote consumer
        check("potrf", workers, || Run::potrf(&SbcExtended::new(4), 6));
        check("trtri", workers, || {
            Run::trtri(&TwoDBlockCyclic::new(2, 2), 5)
        });
    }
}

#[test]
fn a_panicking_provider_fails_the_run_instead_of_hanging_it() {
    for workers in [1, 4] {
        let result = within_deadline(move || {
            let nt = 6;
            Run::potrf(&SbcExtended::new(4), nt)
                .block(B)
                .workers(workers)
                // one rank's worker dies mid-run; its peers are by then
                // waiting on tiles only it can send
                .provider(move |r| match r {
                    TileRef::A { i: 3, j: 3, .. } => panic!("no data for {r:?}"),
                    TileRef::A { i, j, .. } => generate::spd_tile(7, nt, B, i as usize, j as usize),
                    _ => Tile::zeros(B),
                })
                .execute()
        });
        match result.expect_err("the provider panicked") {
            ExecError::Panicked { message, .. } => {
                assert!(message.contains("no data for"), "{message}");
            }
            other => panic!("workers={workers}: expected the panic, got {other}"),
        }
    }
}

/// A peer's tile is checked on arrival. A rank handed a payload of the wrong
/// dimension fails with the typed error of its first task waiting for that
/// tile — not a kernel's dimension assert caught as a panic — and poisons
/// its peers. A test thread plays rank 0 of a two-rank mesh here and sends
/// rank 1 a 3 x 3 tile where an 8 x 8 one belongs.
#[test]
fn a_wrong_dimension_payload_is_a_typed_error() {
    use sbc::net::{inproc_mesh, Message, Payload, Transport};

    let (outcome, poisoned, first) = within_deadline(|| {
        let g = build_potrf(&TwoDBlockCyclic::new(2, 1), 4);
        let tasks = g.tasks();
        // rank 0's first POTRF, and the first task of rank 1 that reads it
        let producer = 0;
        assert_eq!(tasks[producer as usize].node, 0);
        let on_rank1 = |&s: &u32| tasks[s as usize].node == 1;
        let first = g.succs(producer).map(|(s, _)| s).filter(on_rank1).min();
        let mut mesh = inproc_mesh(2).into_iter();
        let (rank0, rank1) = (mesh.next().unwrap(), mesh.next().unwrap());
        let tile = Tile::zeros(3);
        rank0.send_payload(
            1,
            Payload::Data {
                job: 0,
                producer,
                tile,
            },
        );
        let outcome = Run::graph(&g)
            .block(8)
            .execute_rank(&rank1)
            .map(|out| out.is_some());
        let poisoned = std::iter::from_fn(|| rank0.try_recv()).any(|m| m == Message::Poison);
        (
            outcome,
            poisoned,
            first.expect("rank 1 reads rank 0's first tile"),
        )
    });
    let expected = ExecError::Kernel {
        task: first,
        node: 1,
        error: KernelError::DimensionMismatch {
            expected: 8,
            found: 3,
        },
    };
    assert_eq!(outcome, Err(expected));
    assert!(poisoned, "the misbehaving peer was not poisoned");
}
