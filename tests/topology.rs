//! Topology-aware simulation and planning, end to end.
//!
//! Three guarantees: (1) the degenerate single-switch topology reproduces
//! the flat simulator **bit-exactly** across distributions and operations,
//! so plugging in `sbc-topo` cannot silently change any previously
//! published number; (2) on an oversubscribed rack topology the
//! topology-aware cost model picks a *different* distribution than the
//! flat model, and the simulator confirms the pick is faster — the
//! headline acceptance criterion; (3) overriding the runtime's scheduler
//! changes priorities only, never results or traffic; (4) each member of
//! the scheduler zoo is strictly faster than the other on some point.

use std::sync::Arc;

use sbc::dist::{SbcExtended, TwoDBlockCyclic};
use sbc::planner::{Op, Planner};
use sbc::runtime::Run;
use sbc::simgrid::{Platform, SimConfig, Simulator};
use sbc::taskgraph::{build_potrf, build_potri, TaskGraph};
use sbc::topo::{zoo, CriticalPath, Heft, Scheduler};

/// Flat model vs. the degenerate single-switch topology: every number in
/// the report must be bit-identical, for SBC and 2DBC, POTRF and POTRI.
#[test]
fn single_switch_topology_is_bit_exact_for_sbc_and_2dbc() {
    let b = 256;
    let nt = 12;
    let p = Platform::bora(10);
    let topo = p.single_switch_topology();

    let sbc = SbcExtended::new(5);
    let bc = TwoDBlockCyclic::new(3, 3);
    let graphs: Vec<(&str, TaskGraph)> = vec![
        ("sbc/potrf", build_potrf(&sbc, nt)),
        ("sbc/potri", build_potri(&sbc, nt)),
        ("2dbc/potrf", build_potrf(&bc, nt)),
        ("2dbc/potri", build_potri(&bc, nt)),
    ];

    for (label, g) in &graphs {
        let flat = Simulator::new(g, &p, SimConfig::chameleon(b)).run();
        let routed = Simulator::with_topology(g, &p, SimConfig::chameleon(b), &topo).run();
        assert_eq!(
            flat.makespan.to_bits(),
            routed.makespan.to_bits(),
            "{label}: makespan drifted ({} vs {})",
            flat.makespan,
            routed.makespan
        );
        assert_eq!(flat.messages, routed.messages, "{label}: message count");
        assert_eq!(flat.bytes, routed.bytes, "{label}: byte count");
        assert_eq!(routed.cross_rack_messages, 0, "{label}: single rack");
        for (n, (a, z)) in flat
            .busy_per_node
            .iter()
            .zip(&routed.busy_per_node)
            .enumerate()
        {
            assert_eq!(a.to_bits(), z.to_bits(), "{label}: busy time of node {n}");
        }
    }
}

/// The acceptance criterion of the topology work: on a rack-split,
/// heavily oversubscribed network, the topology-aware cost model ranks a
/// different distribution first than the flat model — and simulating both
/// picks *on that topology* confirms the topology-aware choice is faster.
#[test]
fn rack_aware_planner_flips_the_choice_and_the_simulator_agrees() {
    let (nt, b) = (16, 128);
    let p = Platform::bora(12);
    let racks = p.rack_topology(2, 32.0);

    let flat_planner = Planner::new(p.clone());
    let topo_planner = Planner::new(p.clone()).with_topology(racks);
    let flat_pick = flat_planner.plan(Op::Potrf, nt, b).choice;
    let topo_pick = topo_planner.plan(Op::Potrf, nt, b).choice;
    assert_ne!(
        flat_pick, topo_pick,
        "oversubscribed racks should change the ranking"
    );

    // The referee: both picks simulated on the rack topology.
    let flat_on_racks = topo_planner.simulate(flat_pick, Op::Potrf, nt, b);
    let topo_on_racks = topo_planner.simulate(topo_pick, Op::Potrf, nt, b);
    assert!(
        topo_on_racks.makespan < flat_on_racks.makespan,
        "topology-aware pick {} ({:.4}s) should beat flat pick {} ({:.4}s) on racks",
        topo_pick.describe(),
        topo_on_racks.makespan,
        flat_pick.describe(),
        flat_on_racks.makespan
    );
    // The flip is driven by cross-rack traffic: the winner keeps every
    // byte inside one rack.
    assert_eq!(topo_on_racks.cross_rack_bytes, 0);
    assert!(flat_on_racks.cross_rack_bytes > 0);
}

/// Scheduler overrides re-rank ready queues but placement, results and
/// traffic are invariant: a HEFT-scheduled run must produce the
/// bit-identical factor and the exact same communication totals as the
/// default critical-path priorities.
#[test]
fn runtime_scheduler_override_is_result_and_traffic_invariant() {
    let (nt, b, seed) = (10, 8, 42);
    let dist = SbcExtended::new(4);

    let base = Run::potrf(&dist, nt).block(b).seed(seed).execute().unwrap();
    let heft = Run::potrf(&dist, nt)
        .block(b)
        .seed(seed)
        .scheduler(Arc::new(Heft))
        .execute()
        .unwrap();

    assert_eq!(base.stats.messages, heft.stats.messages);
    assert_eq!(base.stats.bytes, heft.stats.bytes);
    let (bf, hf) = (base.factor(), heft.factor());
    for (i, j) in bf.tile_coords() {
        let (bt, ht) = (bf.tile(i, j), hf.tile(i, j));
        for r in 0..b {
            for c in 0..b {
                assert_eq!(
                    bt.get(r, c).to_bits(),
                    ht.get(r, c).to_bits(),
                    "tile ({i},{j}) element ({r},{c}) differs under HEFT"
                );
            }
        }
    }
}

/// `zoo()` keeps a scheduler only while it wins somewhere: on one switch of
/// twelve bora nodes, critical-path beats HEFT on SBC r=5 at nt = 32, and
/// HEFT beats critical-path on SBC r=4 at the paper's b = 500, nt = 40
/// (`paper topo --full`).
#[test]
fn each_zoo_scheduler_beats_the_other_somewhere() {
    let p = Platform::bora(12);
    let topo = p.single_switch_topology();
    let makespan = |sched: &dyn Scheduler, r: usize, nt: usize, b: usize| {
        let g = build_potrf(&SbcExtended::new(r), nt);
        let report = Simulator::with_topology(&g, &p, SimConfig::chameleon(b), &topo)
            .with_scheduler(sched)
            .run();
        format!("{:.6}", report.makespan)
    };
    let names: Vec<_> = zoo().iter().map(|s| s.name()).collect();
    assert_eq!(names, ["critical-path", "heft"]);

    assert_eq!(makespan(&CriticalPath, 5, 32, 256), "0.131295");
    assert_eq!(makespan(&Heft, 5, 32, 256), "0.132679");

    assert_eq!(makespan(&Heft, 4, 40, 500), "0.654646");
    assert_eq!(makespan(&CriticalPath, 4, 40, 500), "0.671131");
}
