//! End-to-end model-checking runs: the session protocol survives an
//! exhaustive adversary, the pre-fix periodic drop gate provably
//! livelocks, and checker-found traces replay as ordinary tests.

use sbc_mc::{check, replay, Action, LossModel, Scenario, Violation};
use sbc_net::FaultConfig;

/// Two peers exchanging three payloads over a faithful network: the only
/// nondeterminism is interleaving, and every execution must terminate
/// fully delivered.
#[test]
fn clean_network_delivers_exactly_once_under_all_interleavings() {
    let sc = Scenario::scripted(2, &[(0, 1), (0, 1), (1, 0)]);
    let report = check(&sc);
    assert!(report.passed(), "violation: {:?}", report.violation);
    assert!(!report.truncated, "clean scenario must close: {report:?}");
    assert!(report.terminal_states >= 1);
    assert!(report.distinct_states > 1);
    // deterministic: the same scenario yields the identical report
    assert_eq!(report, check(&sc));
}

/// The acceptance scenario: two peers, three payloads, and an adversary
/// that may drop, duplicate, and reorder at will. The session's
/// retransmission, dedup, and reordering logic must hold every invariant
/// on every reachable interleaving. (`paper mc` runs the same shape with
/// a larger fault budget in release mode.)
#[test]
fn session_survives_exhaustive_drop_dup_reorder_adversary() {
    let sc = Scenario::scripted(2, &[(0, 1), (0, 1), (1, 0)])
        .loss(LossModel::Nondet {
            max_drops: 1,
            max_dups: 1,
            reorder: true,
        })
        .depth(12)
        .states(5_000);
    let report = check(&sc);
    assert!(report.passed(), "violation: {:?}", report.violation);
    assert!(
        report.terminal_states >= 1,
        "some execution must complete: {report:?}"
    );
    assert!(
        report.states_explored > 100,
        "the adversary must branch: {report:?}"
    );
}

/// A one-slot reorder window forces the sender to retransmit anything the
/// receiver had to discard; exactly-once delivery must still hold.
#[test]
fn window_of_one_discards_and_retransmits_without_violations() {
    let sc = Scenario::scripted(2, &[(0, 1), (0, 1)])
        .loss(LossModel::Nondet {
            max_drops: 1,
            max_dups: 0,
            reorder: true,
        })
        .window(1)
        .depth(12)
        .states(40_000);
    let report = check(&sc);
    assert!(report.passed(), "violation: {:?}", report.violation);
    assert!(report.terminal_states >= 1);
}

/// The checker proves the pre-fix strictly periodic drop filter wrong: it
/// finds an execution that revisits its own state with a payload still
/// censored — the livelock the chaos suite once hit as a wall-clock hang.
#[test]
fn periodic_drop_gate_livelocks_and_the_trace_replays() {
    let sc = Scenario::scripted(2, &[(0, 1), (0, 1)])
        .loss(LossModel::Periodic {
            drop_every: 2,
            phase: 1,
        })
        .depth(30)
        .states(60_000);
    let report = check(&sc);
    let cx = report.violation.expect("the periodic gate must be caught");
    assert!(
        matches!(cx.violation, Violation::Livelock { .. }),
        "expected a livelock, got {:?}",
        cx.violation
    );
    assert!(!cx.actions.is_empty());
    assert!(!cx.rendered.is_empty());
    // the counterexample is replayable: the same actions reproduce the
    // same violation from a fresh world
    let outcome = replay(&sc, &cx.actions);
    assert_eq!(outcome.violation, Some(cx.violation));
}

/// Degenerate periodicity — drop everything — is the latent all-drop hang:
/// the retransmission loop closes on itself once backoff saturates.
#[test]
fn all_drop_gate_is_a_short_livelock_cycle() {
    let sc = Scenario::scripted(2, &[(0, 1)])
        .loss(LossModel::Periodic {
            drop_every: 1,
            phase: 0,
        })
        .depth(10)
        .states(1_000);
    let report = check(&sc);
    let cx = report.violation.expect("all-drop must livelock");
    assert!(matches!(cx.violation, Violation::Livelock { .. }));
    // rto 10ms doubling to the 40ms cap: the cycle closes within a few
    // ticks, and breadth-first search finds the minimal trace
    assert!(
        cx.actions.len() <= 5,
        "expected a short trace, got {:?}",
        cx.actions
    );
}

/// The shipped fair-loss gate on the same counters does not livelock: the
/// splitmix hash decorrelates drops from the retransmission period, so
/// executions reach termination.
#[test]
fn fair_loss_gate_admits_termination_where_periodic_livelocked() {
    let sc = Scenario::scripted(2, &[(0, 1), (0, 1)])
        .loss(LossModel::Seeded(FaultConfig {
            drop_every: 2,
            dup_every: 0,
            delay: None,
            max_drops: 3,
            phase: 1,
        }))
        .depth(16)
        .states(60_000);
    let report = check(&sc);
    assert!(report.passed(), "violation: {:?}", report.violation);
    assert!(
        report.terminal_states >= 1,
        "the fair gate must let traffic through: {report:?}"
    );
}

/// The checker runs the paper's own traffic: the send script of a tiled
/// Cholesky factorization on a 2-node column-cyclic grid, whose length
/// equals the analytic `potrf_messages` count by construction.
#[test]
fn potrf_traffic_checks_clean_on_a_two_node_grid() {
    let dist = sbc_dist::TwoDBlockCyclic::new(1, 2);
    let sc = Scenario::potrf(&dist, 3).depth(30).states(60_000);
    assert!(!sc.sends.is_empty());
    let report = check(&sc);
    assert!(report.passed(), "violation: {:?}", report.violation);
    assert!(report.terminal_states >= 1);
}

/// A drained batch is acked once per source: three payloads handed over as
/// one batch leave exactly one ack in flight, and delivering it ends the
/// execution fully delivered.
#[test]
fn a_batch_of_three_payloads_is_covered_by_one_ack() {
    let sc = Scenario::scripted(2, &[(0, 1), (0, 1), (0, 1)]);
    let outcome = replay(
        &sc,
        &[Action::DeliverBatch { dst: 1 }, Action::Deliver { uid: 3 }],
    );
    assert_eq!(outcome.violation, None, "{}", outcome.rendered);
    assert!(outcome.terminal, "{}", outcome.rendered);
    assert!(
        outcome.rendered.contains("ack upto=3"),
        "{}",
        outcome.rendered
    );
}

/// Replaying an empty trace on an empty script is a terminal, fully
/// delivered world.
#[test]
fn empty_script_is_immediately_terminal() {
    let sc = Scenario::scripted(2, &[]);
    let report = check(&sc);
    assert!(report.passed());
    assert_eq!(report.terminal_states, 1);
    let outcome = replay(&sc, &[]);
    assert!(outcome.terminal);
    assert_eq!(outcome.violation, None);
}
