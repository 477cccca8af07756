//! One function per table/figure of the paper's evaluation (Section V).

use crate::render::{Figure, Series};
use sbc_dist::comm;
use sbc_dist::{Distribution, RowCyclic, SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc_kernels::{flops_cholesky_total, flops_posv_total, flops_potri_total};
use sbc_simgrid::{Platform, ScheduleMode, SimConfig, Simulator};
use sbc_taskgraph::{
    build_posv, build_potrf, build_potrf_25d, build_potri, build_potri_remap, TaskGraph,
};
use sbc_topo::{CriticalPath, Scheduler, SubmissionOrder};

/// Sweep sizes: `Quick` finishes in a couple of minutes on a laptop;
/// `Full` runs the paper's n range (up to n = 300 000 for Fig 8 and
/// n = 200 000 for the performance figures) and can take tens of minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweeps (default).
    Quick,
    /// Paper-scale sweeps.
    Full,
}

/// The paper's tile size (Section V-A).
pub(crate) const TILE_B: usize = 500;

fn nts(scale: Scale) -> Vec<usize> {
    match scale {
        // n = 12.5k .. 75k
        Scale::Quick => vec![25, 50, 75, 100, 125, 150],
        // the paper sweeps n = 12.5k .. 300k; 200k for the time plots
        Scale::Full => vec![25, 50, 100, 150, 200, 250, 300, 400],
    }
}

fn simulate(
    graph: &TaskGraph,
    nodes: usize,
    b: usize,
    mode: ScheduleMode,
) -> sbc_simgrid::SimReport {
    let platform = Platform::bora(nodes);
    let cfg = SimConfig {
        tile_b: b,
        mode,
        priority_comms: false,
    };
    Simulator::new(graph, &platform, cfg).run()
}

fn gflops_potrf(graph: &TaskGraph, nodes: usize, nt: usize, mode: ScheduleMode) -> (f64, f64) {
    let r = simulate(graph, nodes, TILE_B, mode);
    let f = flops_cholesky_total(nt * TILE_B);
    (r.gflops_per_node(Some(f)), r.makespan)
}

/// Table I: sizes of the considered distributions.
pub fn table1_text() -> String {
    sbc_dist::table1::render_table1()
}

/// Fig 7: single-node Cholesky performance against tile size.
pub fn fig7(scale: Scale) -> Figure {
    let n = match scale {
        Scale::Quick => 24_000,
        Scale::Full => 50_000,
    };
    let bs: Vec<usize> = match scale {
        Scale::Quick => vec![100, 200, 300, 400, 500, 600, 750, 1000],
        Scale::Full => vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
    };
    let d = TwoDBlockCyclic::new(1, 1);
    let platform = Platform::bora(1);
    let mut points = Vec::new();
    for &b in &bs {
        let nt = n / b;
        let g = build_potrf(&d, nt);
        let r = Simulator::new(&g, &platform, SimConfig::chameleon(b)).run();
        points.push((
            b as f64,
            r.gflops_per_node(Some(flops_cholesky_total(nt * b))),
        ));
        eprintln!("  fig7: b = {b} done");
    }
    Figure {
        title: format!("Fig 7: single-node POTRF performance vs tile size (n = {n})"),
        xlabel: "tile b".into(),
        ylabel: "GFlop/s (one node, 34 cores)".into(),
        series: vec![Series {
            name: "1 node".into(),
            points,
        }],
        notes: vec!["paper: almost maximum performance reached as soon as b >= 500".into()],
    }
}

/// Fig 8: inter-node communication volume of POTRF, P = 20 and 21.
pub fn fig8(scale: Scale) -> Figure {
    let tile_gb = (TILE_B * TILE_B * 8) as f64 / 1e9;
    let schemes: Vec<(String, Box<dyn Distribution>)> = vec![
        ("SBC r=7 (P=21)".into(), Box::new(SbcExtended::new(7))),
        (
            "2DBC 5x4 (P=20)".into(),
            Box::new(TwoDBlockCyclic::new(5, 4)),
        ),
        (
            "2DBC 7x3 (P=21)".into(),
            Box::new(TwoDBlockCyclic::new(7, 3)),
        ),
    ];
    let mut series = Vec::new();
    for (name, d) in &schemes {
        let points = nts(scale)
            .into_iter()
            .map(|nt| {
                let msgs = comm::potrf_messages(&d.as_ref(), nt);
                ((nt * TILE_B) as f64, msgs as f64 * tile_gb)
            })
            .collect();
        series.push(Series {
            name: name.clone(),
            points,
        });
    }
    Figure {
        title: "Fig 8: measured communication volume during POTRF (GB)".into(),
        xlabel: "n".into(),
        ylabel: "total inter-node volume (GB)".into(),
        series,
        notes: vec![
            "exact counts; tested equal to graph-derived and runtime-measured volumes".into(),
            "paper: SBC below both 2DBC grids at every n".into(),
        ],
    }
}

/// The six schemes of Fig 9 at P ~ 28.
fn fig9_schemes(nt: usize) -> Vec<(String, TaskGraph, usize, ScheduleMode)> {
    let sbc = SbcExtended::new(8); // 28
    let bc74 = TwoDBlockCyclic::new(7, 4); // 28
    let bc65 = TwoDBlockCyclic::new(6, 5); // 30
    let sbc25 = TwoPointFiveD::new(SbcBasic::new(4), 3); // 24
    let bc25 = TwoPointFiveD::new(TwoDBlockCyclic::new(3, 3), 3); // 27
    let confchox = TwoDBlockCyclic::new(8, 4); // 32, power of two as in the paper
    vec![
        (
            "2D SBC r=8".into(),
            build_potrf(&sbc, nt),
            28,
            ScheduleMode::Async,
        ),
        (
            "2DBC 7x4".into(),
            build_potrf(&bc74, nt),
            28,
            ScheduleMode::Async,
        ),
        (
            "2DBC 6x5".into(),
            build_potrf(&bc65, nt),
            30,
            ScheduleMode::Async,
        ),
        (
            "2.5D SBC c=3".into(),
            build_potrf_25d(&sbc25, nt),
            24,
            ScheduleMode::Async,
        ),
        (
            "2.5D BC c=3".into(),
            build_potrf_25d(&bc25, nt),
            27,
            ScheduleMode::Async,
        ),
        (
            "COnfCHOX-like".into(),
            build_potrf(&confchox, nt),
            32,
            ScheduleMode::BulkSynchronous,
        ),
    ]
}

/// Fig 9: POTRF GFlop/s per node for all schemes at P ~ 28-32.
pub fn fig9(scale: Scale) -> Figure {
    let mut series: Vec<Series> = Vec::new();
    for nt in nts(scale) {
        for (name, graph, nodes, mode) in fig9_schemes(nt) {
            let (gf, _) = gflops_potrf(&graph, nodes, nt, mode);
            match series.iter_mut().find(|s| s.name == name) {
                Some(s) => s.points.push(((nt * TILE_B) as f64, gf)),
                None => series.push(Series {
                    name,
                    points: vec![((nt * TILE_B) as f64, gf)],
                }),
            }
        }
        eprintln!("  fig9: n = {} done", nt * TILE_B);
    }
    Figure {
        title: "Fig 9: POTRF performance, 2D/2.5D x BC/SBC + COnfCHOX-like (P = 24..32)".into(),
        xlabel: "n".into(),
        ylabel: "GFlop/s per node".into(),
        series,
        notes: vec![
            "paper: SBC > 2DBC in the mid band; 2.5D SBC best overall;".into(),
            "asynchronous Chameleon-style schedules beat the bulk-synchronous baseline".into(),
            "(COnfCHOX is closed-source: modelled as bulk-synchronous 2DBC, see DESIGN.md)".into(),
        ],
    }
}

/// Fig 10: SBC vs 2DBC per node count (r = 6..9 with Table I grids).
pub fn fig10(scale: Scale) -> Figure {
    let mut series: Vec<Series> = Vec::new();
    for r in 6..=9usize {
        let sbc = SbcExtended::new(r);
        let p_sbc = sbc.num_nodes();
        let grids = sbc_dist::table1::comparison_grids(p_sbc);
        for nt in nts(scale) {
            let x = (nt * TILE_B) as f64;
            let (gf, _) = gflops_potrf(&build_potrf(&sbc, nt), p_sbc, nt, ScheduleMode::Async);
            let name = format!("SBC r={r} (P={p_sbc})");
            push_point(&mut series, &name, x, gf);
            for &(p, q, pn) in &grids {
                let d = TwoDBlockCyclic::new(p, q);
                let (gf, _) = gflops_potrf(&build_potrf(&d, nt), pn, nt, ScheduleMode::Async);
                push_point(&mut series, &format!("2DBC {p}x{q} (P={pn})"), x, gf);
            }
        }
        eprintln!("  fig10: r = {r} done");
    }
    Figure {
        title: "Fig 10: POTRF GFlop/s per node, SBC vs 2DBC, P = 15..36".into(),
        xlabel: "n".into(),
        ylabel: "GFlop/s per node".into(),
        series,
        notes: vec!["paper: the SBC advantage holds for every tested P".into()],
    }
}

/// Fig 11: strong scaling at fixed n.
pub fn fig11(scale: Scale) -> Figure {
    let nt = match scale {
        Scale::Quick => 120, // n = 60 000
        Scale::Full => 400,  // n = 200 000 as in the paper
    };
    let mut sbc_pts = Vec::new();
    let mut dbc_pts = Vec::new();
    for r in 6..=9usize {
        let sbc = SbcExtended::new(r);
        let p_sbc = sbc.num_nodes();
        let (gf, _) = gflops_potrf(&build_potrf(&sbc, nt), p_sbc, nt, ScheduleMode::Async);
        sbc_pts.push((p_sbc as f64, gf));
        let (p, q) = sbc_dist::table1::best_grid(p_sbc);
        let d = TwoDBlockCyclic::new(p, q);
        let (gf, _) = gflops_potrf(&build_potrf(&d, nt), p_sbc, nt, ScheduleMode::Async);
        dbc_pts.push((p_sbc as f64, gf));
        eprintln!("  fig11: P = {p_sbc} done");
    }
    Figure {
        title: format!("Fig 11: strong scaling of POTRF at n = {}", nt * TILE_B),
        xlabel: "P (nodes)".into(),
        ylabel: "GFlop/s per node".into(),
        series: vec![
            Series {
                name: "SBC".into(),
                points: sbc_pts,
            },
            Series {
                name: "2DBC".into(),
                points: dbc_pts,
            },
        ],
        notes: vec![
            "paper: SBC with P=36 matches 2DBC with ~half the nodes per-node throughput".into(),
        ],
    }
}

/// Fig 12: total running time against matrix size (n <= 200 000).
pub fn fig12(scale: Scale) -> Figure {
    let mut series: Vec<Series> = Vec::new();
    for r in [6usize, 9] {
        let sbc = SbcExtended::new(r);
        let p_sbc = sbc.num_nodes();
        let (p, q) = sbc_dist::table1::best_grid(p_sbc);
        let dbc = TwoDBlockCyclic::new(p, q);
        for nt in nts(scale) {
            let x = (nt * TILE_B) as f64;
            let (_, t) = gflops_potrf(&build_potrf(&sbc, nt), p_sbc, nt, ScheduleMode::Async);
            push_point(&mut series, &format!("SBC r={r} (P={p_sbc})"), x, t);
            let (_, t) = gflops_potrf(&build_potrf(&dbc, nt), p_sbc, nt, ScheduleMode::Async);
            push_point(&mut series, &format!("2DBC {p}x{q} (P={p_sbc})"), x, t);
        }
        eprintln!("  fig12: r = {r} done");
    }
    Figure {
        title: "Fig 12: total POTRF running time (seconds)".into(),
        xlabel: "n".into(),
        ylabel: "time (s)".into(),
        series,
        notes: vec!["paper: overall time reduction from the SBC mapping".into()],
    }
}

/// Fig 13: POSV performance at P = 28.
pub fn fig13(scale: Scale) -> Figure {
    let mut series: Vec<Series> = Vec::new();
    let sbc = SbcExtended::new(8);
    let bc = TwoDBlockCyclic::new(7, 4);
    let rhs = RowCyclic::new(28);
    for nt in nts(scale) {
        let x = (nt * TILE_B) as f64;
        let f = flops_posv_total(nt * TILE_B, TILE_B);
        for (name, d) in [("SBC r=8", &sbc as &dyn Distribution), ("2DBC 7x4", &bc)] {
            let g = build_posv(&d, &rhs, nt);
            let r = simulate(&g, 28, TILE_B, ScheduleMode::Async);
            push_point(&mut series, name, x, r.gflops_per_node(Some(f)));
        }
        eprintln!("  fig13: n = {} done", nt * TILE_B);
    }
    Figure {
        title: "Fig 13: POSV performance (P = 28), RHS one tile wide, 1D row-cyclic".into(),
        xlabel: "n".into(),
        ylabel: "GFlop/s per node".into(),
        series,
        notes: vec![
            "paper: SBC still ahead, but by less than on POTRF (solve adds".into(),
            "distribution-independent time)".into(),
        ],
    }
}

/// Fig 14: POTRI performance at P = 28, including the remap strategy.
pub fn fig14(scale: Scale) -> Figure {
    let mut series: Vec<Series> = Vec::new();
    let sbc = SbcExtended::new(8);
    let bc = TwoDBlockCyclic::new(7, 4);
    let sweep = match scale {
        Scale::Quick => vec![25usize, 50, 75, 100],
        Scale::Full => vec![25, 50, 100, 150, 200],
    };
    for nt in sweep {
        let x = (nt * TILE_B) as f64;
        let f = flops_potri_total(nt * TILE_B);
        let runs: Vec<(&str, TaskGraph)> = vec![
            ("SBC r=8", build_potri(&sbc, nt)),
            ("2DBC 7x4", build_potri(&bc, nt)),
            ("SBC remap 2DBC", build_potri_remap(&sbc, &bc, nt)),
        ];
        for (name, g) in runs {
            let r = simulate(&g, 28, TILE_B, ScheduleMode::Async);
            push_point(&mut series, name, x, r.gflops_per_node(Some(f)));
        }
        eprintln!("  fig14: n = {} done", nt * TILE_B);
    }
    Figure {
        title: "Fig 14: POTRI performance (P = 28) with data redistribution".into(),
        xlabel: "n".into(),
        ylabel: "GFlop/s per node".into(),
        series,
        notes: vec![
            "paper: at this P the remap reduces volume by only 27/23, so curves".into(),
            "are close; SBC integrates into multi-operation workflows without loss".into(),
        ],
    }
}

/// Ablations called out in DESIGN.md: scheduling priorities, communication
/// ordering, bulk-synchronous barrier, diagonal-pattern cycling.
pub fn ablations(scale: Scale) -> Figure {
    let nt = match scale {
        Scale::Quick => 100,
        Scale::Full => 200,
    };
    let sbc = SbcExtended::new(8);
    let g = build_potrf(&sbc, nt);
    let platform = Platform::bora(28);
    let mk = |mode, pcomm| SimConfig {
        tile_b: TILE_B,
        mode,
        priority_comms: pcomm,
    };
    let (prio, fifo): (&dyn Scheduler, &dyn Scheduler) = (&CriticalPath, &SubmissionOrder);
    let configs = [
        (
            "baseline (async, prio tasks, fifo msgs)",
            mk(ScheduleMode::Async, false),
            prio,
        ),
        ("fifo ready queues", mk(ScheduleMode::Async, false), fifo),
        (
            "priority-ordered messages",
            mk(ScheduleMode::Async, true),
            prio,
        ),
        (
            "bulk-synchronous barrier",
            mk(ScheduleMode::BulkSynchronous, false),
            prio,
        ),
    ];
    let mut points = Vec::new();
    let mut notes = vec![format!("SBC r=8, nt = {nt}, P = 28; y = makespan seconds")];
    for (i, (name, cfg, sched)) in configs.iter().enumerate() {
        let r = Simulator::new(&g, &platform, *cfg)
            .with_scheduler(*sched)
            .run();
        points.push((i as f64, r.makespan));
        notes.push(format!("x={i}: {name}"));
    }
    // diagonal-cycling variant (communication identical; balance differs)
    let anti = sbc_dist::SbcExtended::with_cycling(8, sbc_dist::DiagonalCycling::AntiDiagonal);
    let g2 = build_potrf(&anti, nt);
    let r = Simulator::new(&g2, &platform, mk(ScheduleMode::Async, false)).run();
    points.push((configs.len() as f64, r.makespan));
    notes.push(format!(
        "x={}: anti-diagonal pattern cycling",
        configs.len()
    ));
    Figure {
        title: "Ablations: scheduling and construction choices".into(),
        xlabel: "variant".into(),
        ylabel: "makespan (s)".into(),
        series: vec![Series {
            name: "makespan".into(),
            points,
        }],
        notes,
    }
}

fn push_point(series: &mut Vec<Series>, name: &str, x: f64, y: f64) {
    match series.iter_mut().find(|s| s.name == name) {
        Some(s) => s.points.push((x, y)),
        None => series.push(Series {
            name: name.to_string(),
            points: vec![(x, y)],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_quick_has_expected_shape() {
        let f = fig8(Scale::Quick);
        assert_eq!(f.series.len(), 3);
        // SBC strictly below both 2DBC grids at every x
        let sbc = &f.series[0];
        for (i, &(_, v)) in sbc.points.iter().enumerate() {
            assert!(v < f.series[1].points[i].1);
            assert!(v < f.series[2].points[i].1);
        }
    }

    #[test]
    fn table1_text_contains_all_rows() {
        let t = table1_text();
        for frag in ["15", "21", "28", "36"] {
            assert!(t.contains(frag));
        }
    }

    #[test]
    fn push_point_appends_and_creates() {
        let mut s = Vec::new();
        push_point(&mut s, "a", 1.0, 2.0);
        push_point(&mut s, "a", 2.0, 3.0);
        push_point(&mut s, "b", 1.0, 4.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].points.len(), 2);
    }
}
