//! End-to-end workload tests over the public `Run` surface:
//! every distributed operation matches its sequential counterpart bitwise
//! (or to a tiny residual), and the measured traffic equals the analytic
//! counts of `sbc_dist::comm`.

use sbc_dist::comm;
use sbc_dist::{Distribution, RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc_matrix::{
    cholesky_residual, inverse_residual, lauum_tiled, lu_tiled, posv_tiled, potrf_tiled,
    potri_tiled, random_general, random_panel, random_spd, solve_residual, trtri_tiled,
};
use sbc_runtime::Run;
use sbc_taskgraph::Workload;
use std::sync::Arc;

const B: usize = 8;
const SEED: u64 = 2022;

#[test]
fn potrf_matches_sequential_bitwise() {
    for (dist, nt) in [
        (
            Box::new(TwoDBlockCyclic::new(2, 3)) as Box<dyn Distribution>,
            13,
        ),
        (Box::new(SbcExtended::new(5)), 12),
        (Box::new(SbcBasic::new(4)), 11),
    ] {
        let out = Run::potrf(&dist.as_ref(), nt)
            .block(B)
            .seed(SEED)
            .execute()
            .unwrap();
        let mut seq = random_spd(SEED, nt, B);
        potrf_tiled(&mut seq).unwrap();
        for (i, j) in seq.tile_coords() {
            assert!(
                out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)) == 0.0,
                "{} tile ({i},{j}) differs",
                dist.name()
            );
        }
        // measured communication equals the analytic count
        assert_eq!(
            out.stats.messages,
            comm::potrf_messages(&dist.as_ref(), nt),
            "{}",
            dist.name()
        );
    }
}

#[test]
fn potrf_residual_is_tiny() {
    let dist = SbcExtended::new(6);
    let nt = 14;
    let out = Run::potrf(&dist, nt).block(B).seed(SEED).execute().unwrap();
    let a0 = random_spd(SEED, nt, B);
    assert!(cholesky_residual(&a0, out.factor()) < 1e-12);
}

#[test]
fn potrf_25d_matches_sequential() {
    for c in [2, 3] {
        let d25 = TwoPointFiveD::new(SbcBasic::new(4), c);
        let nt = 12;
        let out = Run::potrf_25d(&d25, nt)
            .block(B)
            .seed(SEED)
            .execute()
            .unwrap();
        let a0 = random_spd(SEED, nt, B);
        assert!(cholesky_residual(&a0, out.factor()) < 1e-12, "c={c}");
        assert_eq!(
            out.stats.messages,
            comm::potrf_25d_messages(&d25, nt).total(),
            "c={c}"
        );
    }
}

#[test]
fn posv_solves_and_counts() {
    let dist = SbcExtended::new(5);
    let rhs_dist = RowCyclic::new(10);
    let nt = 11;
    let out = Run::posv(&dist, &rhs_dist, nt)
        .block(B)
        .seed(SEED)
        .execute()
        .unwrap();
    let a0 = random_spd(SEED, nt, B);
    let rhs = random_panel(SEED ^ 0x05EE_D0FB, nt, B);
    assert!(solve_residual(&a0, out.solution(), &rhs) < 1e-10);
    // sequential comparison (same kernel order => bitwise equal)
    let mut a = a0.clone();
    let mut xs = rhs.clone();
    posv_tiled(&mut a, &mut xs).unwrap();
    assert!(out.solution().max_abs_diff(&xs) == 0.0);
    // the run sends exactly what the merged task stream counts
    let exact = Workload::Posv(&dist, &rhs_dist).traffic(nt).total();
    assert_eq!(out.stats.messages, exact);
}

#[test]
fn trtri_matches_sequential() {
    let dist = TwoDBlockCyclic::new(3, 2);
    let nt = 10;
    let out = Run::trtri(&dist, nt).block(B).seed(SEED).execute().unwrap();
    let mut seq = random_spd(SEED, nt, B);
    trtri_tiled(&mut seq).unwrap();
    for (i, j) in seq.tile_coords() {
        assert!(
            out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)) == 0.0,
            "({i},{j})"
        );
    }
    assert_eq!(out.stats.messages, comm::trtri_messages(&dist, nt));
}

#[test]
fn lauum_matches_sequential() {
    let dist = SbcExtended::new(5);
    let nt = 10;
    let out = Run::lauum(&dist, nt).block(B).seed(SEED).execute().unwrap();
    let mut seq = random_spd(SEED, nt, B);
    lauum_tiled(&mut seq);
    for (i, j) in seq.tile_coords() {
        assert!(
            out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)) == 0.0,
            "({i},{j})"
        );
    }
    assert_eq!(out.stats.messages, comm::lauum_messages(&dist, nt));
}

#[test]
fn potri_inverts() {
    let dist = SbcExtended::new(5);
    let nt = 8;
    let out = Run::potri(&dist, nt).block(B).seed(SEED).execute().unwrap();
    let a0 = random_spd(SEED, nt, B);
    assert!(inverse_residual(&a0, out.factor()) < 1e-9);
}

#[test]
fn potri_remap_matches_plain_potri() {
    let sym = SbcExtended::new(5);
    let bc = TwoDBlockCyclic::new(5, 2);
    let nt = 8;
    let plain = Run::potri(&sym, nt).block(B).seed(SEED).execute().unwrap();
    let remap = Run::potri_remap(&sym, &bc, nt)
        .block(B)
        .seed(SEED)
        .execute()
        .unwrap();
    for (i, j) in plain.factor().tile_coords() {
        assert!(
            plain
                .factor()
                .tile(i, j)
                .max_abs_diff(remap.factor().tile(i, j))
                == 0.0,
            "({i},{j})"
        );
    }
}

#[test]
fn single_node_runs_without_messages() {
    let dist = TwoDBlockCyclic::new(1, 1);
    let out = Run::potrf(&dist, 9).block(B).seed(SEED).execute().unwrap();
    assert_eq!(out.stats.messages, 0);
    assert_eq!(out.stats.bytes, 0);
    assert_eq!(out.stats.recv_per_node, vec![0]);
    let a0 = random_spd(SEED, 9, B);
    assert!(cholesky_residual(&a0, out.factor()) < 1e-12);
}

#[test]
fn per_node_accounting_is_consistent() {
    let dist = SbcExtended::new(6); // 15 nodes
    let out = Run::potrf(&dist, 13).block(B).seed(SEED).execute().unwrap();
    let stats = &out.stats;
    assert_eq!(stats.sent_per_node.iter().sum::<u64>(), stats.messages);
    assert_eq!(stats.sent_per_node.len(), 15);
    // on a clean run every sent message is received and applied
    assert_eq!(stats.recv_per_node.iter().sum::<u64>(), stats.messages);
    // every payload is one b x b tile — fetches (Payload::Orig) included
    assert_eq!(stats.bytes_per_node.iter().sum::<u64>(), stats.bytes);
    assert_eq!(stats.bytes, stats.messages * (B * B * 8) as u64);
    for (sent, bytes) in stats.sent_per_node.iter().zip(&stats.bytes_per_node) {
        assert_eq!(*bytes, sent * (B * B * 8) as u64);
    }
}

#[test]
fn fetch_traffic_is_counted_in_bytes() {
    // TRTRI consumes original input tiles, so remote readers trigger
    // Payload::Orig fetches — those must appear in both messages and bytes.
    let dist = SbcExtended::new(5);
    let nt = 9;
    let g = sbc_taskgraph::build_trtri(&dist, nt);
    assert!(!g.initial_fetches().is_empty());
    let out = Run::trtri(&dist, nt).block(B).seed(SEED).execute().unwrap();
    assert_eq!(out.stats.messages, g.count_messages());
    assert_eq!(out.stats.bytes, out.stats.messages * (B * B * 8) as u64);
}

#[test]
fn recorded_run_observes_every_task_and_message() {
    use sbc_obs::{ExecProfile, Recorder};
    use sbc_taskgraph::build_potrf;

    let dist = SbcExtended::new(5); // 10 nodes
    let nt = 10;
    let g = Arc::new(build_potrf(&dist, nt));
    let rec = Recorder::new();
    let out = Run::graph(Arc::clone(&g))
        .block(B)
        .seed(SEED)
        .recorder(&rec)
        .execute()
        .unwrap();
    let recording = rec.drain();
    let profile = ExecProfile::from_recording(&recording);
    // one task span per graph task, one send event per message
    let spans = sbc_obs::task_spans(&recording);
    assert_eq!(spans.len(), g.len());
    assert_eq!(profile.messages, out.stats.messages);
    assert_eq!(profile.bytes, out.stats.bytes);
    assert_eq!(profile.nodes, 10);
    // per-kind counts: nt potrf, nt*(nt-1)/2 trsm
    assert_eq!(profile.per_kind["potrf"].count, nt as u64);
    assert_eq!(profile.per_kind["trsm"].count, (nt * (nt - 1) / 2) as u64);
    // timeline is sane: spans are within the recording's wall window
    assert!(profile.wall_seconds > 0.0);
    assert!(spans.iter().all(|s| s.end >= s.start));
}

#[test]
fn kernel_backends_do_not_change_results_or_traffic() {
    // the backend knob may only change speed: factors must stay
    // bit-identical and the communication statistics untouched. The four
    // shapes the benchmark ledger runs (tile sizes on both sides of the
    // `Blocked` small-tile rule), then the shape this test always ran. A
    // run that sets no backend — the default, `Blocked` — is held to the
    // `Naive` reference.
    use sbc_runtime::{KernelBackend, Kernels};
    let shapes = [
        (4, 12, 128),
        (4, 64, 4),
        (4, 20, 64),
        (4, 12, 32),
        (5, 12, B),
    ];
    for (r, nt, b) in shapes {
        let dist = SbcExtended::new(r);
        let mut base: Option<(Vec<Vec<f64>>, sbc_runtime::CommStats)> = None;
        for kernels in [Some(KernelBackend::Naive), None] {
            let run = Run::potrf(&dist, nt).block(b).seed(SEED).workers(2);
            let run = match kernels {
                Some(k) => run.kernels(k),
                None => run,
            };
            let out = run.execute().unwrap();
            let mut coords: Vec<_> = out.factor().tile_coords().collect();
            coords.sort_unstable();
            let tiles: Vec<Vec<f64>> = coords
                .iter()
                .map(|&(i, j)| out.factor().tile(i, j).as_slice().to_vec())
                .collect();
            match &base {
                None => base = Some((tiles, out.stats)),
                Some((t0, s0)) => {
                    // bitwise: f64 equality on every element, including signs
                    let same = t0
                        .iter()
                        .zip(&tiles)
                        .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
                    assert!(same, "factor differs under {kernels:?} at nt={nt} b={b}");
                    assert_eq!(s0, &out.stats, "comm stats differ under {kernels:?}");
                }
            }
        }
    }
    // sanity: the trait is object-safe and dispatches on the enum
    let k: &dyn Kernels = &KernelBackend::Blocked;
    let mut t = sbc_kernels_identity_probe();
    k.potrf(&mut t).unwrap();
}

/// A tiny SPD tile for the object-safety probe above.
fn sbc_kernels_identity_probe() -> sbc_kernels::Tile {
    sbc_kernels::Tile::from_fn(4, |i, j| if i == j { 4.0 } else { 1.0 })
}

/// Planner → [`Run::plan`] → gathered result, for every operation on two
/// platforms plus the 2.5D and remap choices no search at this size returns:
/// the run hands back the result *shape* the sequential `sbc-matrix`
/// algorithm produces (factor / solution panel / full LU), bit-identical to
/// it, and measures exactly the traffic of the plan's graph — the plan's own
/// analytic count — at any worker count.
#[test]
fn every_planned_operation_gathers_the_sequential_result() {
    use sbc_planner::{DistChoice, Op, Plan, Planner};
    use sbc_simgrid::Platform;

    let nt = 12;
    for nodes in [6, 15] {
        let planner = Planner::new(Platform::bora(nodes));
        let mut plans: Vec<Plan> = Op::ALL.iter().map(|&op| planner.plan(op, nt, B)).collect();
        if nodes == 15 {
            // the paper regime: extended SBC r = 6, at its analytic count
            assert_eq!(plans[0].choice, DistChoice::SbcExtended { r: 6 });
            let analytic = comm::potrf_messages(&SbcExtended::new(6), nt);
            assert_eq!(plans[0].cost.messages, analytic);
        }
        let forced = [
            (Op::Potrf, DistChoice::TwoFiveDSbc { r: 2, c: 3 }),
            (Op::Potrf, DistChoice::TwoFiveDBc { p: 2, q: 1, c: 2 }),
            (Op::Potri, DistChoice::PotriRemap { r: 4, p: 3, q: 2 }),
        ];
        for (op, choice) in forced {
            let mut plan = planner.plan(op, nt, B);
            plan.choice = choice;
            plan.cost.messages = choice.messages(op, nt);
            plans.push(plan);
        }

        for plan in plans {
            let label = format!("{} as {}", plan.op.name(), plan.choice.describe());
            let run = Run::plan(&plan).seed(SEED).workers(1);
            let expected = run.task_graph().count_messages();
            // the plan's analytic count is exact for a single sweep; for the
            // composed operations it is the sum of the parts, which the
            // merged graph undercuts by the tiles it already holds
            if matches!(plan.op, Op::Posv | Op::Potri) {
                assert!(expected <= plan.cost.messages, "{label}");
            } else {
                assert_eq!(expected, plan.cost.messages, "{label}");
            }
            let out = run.execute().unwrap();
            assert_eq!(out.stats.messages, expected, "{label}");
            let pooled = Run::plan(&plan).seed(SEED).workers(4).execute().unwrap();
            assert_eq!(out.stats, pooled.stats, "{label}: workers changed traffic");

            let a0 = random_spd(SEED, nt, B);
            let mut seq = a0.clone();
            match plan.op {
                Op::Posv => {
                    let mut xs = random_panel(SEED ^ 0x05EE_D0FB, nt, B);
                    posv_tiled(&mut seq, &mut xs).unwrap();
                    assert!(out.solution().max_abs_diff(&xs) == 0.0, "{label}");
                    continue;
                }
                Op::Lu => {
                    let mut lu = random_general(SEED, nt, B);
                    lu_tiled(&mut lu).unwrap();
                    for i in 0..nt {
                        for j in 0..nt {
                            assert_eq!(out.lu_factors().tile(i, j), lu.tile(i, j), "{label}");
                        }
                    }
                    continue;
                }
                Op::Potrf => potrf_tiled(&mut seq).unwrap(),
                Op::Trtri => trtri_tiled(&mut seq).unwrap(),
                Op::Lauum => lauum_tiled(&mut seq),
                Op::Potri => potri_tiled(&mut seq).unwrap(),
            }
            if matches!(
                plan.choice,
                DistChoice::TwoFiveDSbc { .. } | DistChoice::TwoFiveDBc { .. }
            ) {
                // 2.5D sums each tile's updates slice by slice, so the factor
                // is the sequential one up to rounding, not bit for bit
                assert!(cholesky_residual(&a0, out.factor()) < 1e-12, "{label}");
                continue;
            }
            for (i, j) in seq.tile_coords() {
                assert_eq!(out.factor().tile(i, j), seq.tile(i, j), "{label} ({i},{j})");
            }
        }
    }
}
