//! Criterion benchmarks of the discrete-event simulator itself plus
//! miniature versions of the performance figures (Fig 9's four schemes at a
//! reduced size): `cargo bench` exercises exactly the machinery the `paper`
//! binary uses at full scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbc_dist::{SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
use sbc_simgrid::{Platform, ScheduleMode, SimConfig, Simulator};
use sbc_taskgraph::{build_potrf, build_potrf_25d};

fn bench_engine_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engine");
    g.sample_size(10);
    for nt in [24usize, 48] {
        let d = SbcExtended::new(6);
        let graph = build_potrf(&d, nt);
        let p = Platform::bora(15);
        g.throughput(Throughput::Elements(graph.len() as u64));
        g.bench_with_input(BenchmarkId::new("potrf_sbc6", nt), &nt, |bench, _| {
            bench.iter(|| Simulator::new(&graph, &p, SimConfig::chameleon(500)).run());
        });
    }
    g.finish();
}

fn bench_fig9_miniature(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_miniature_nt40");
    g.sample_size(10);
    let nt = 40;
    let schemes: Vec<(&str, sbc_taskgraph::TaskGraph, usize, ScheduleMode)> = vec![
        (
            "sbc_r8",
            build_potrf(&SbcExtended::new(8), nt),
            28,
            ScheduleMode::Async,
        ),
        (
            "2dbc_7x4",
            build_potrf(&TwoDBlockCyclic::new(7, 4), nt),
            28,
            ScheduleMode::Async,
        ),
        (
            "25d_sbc_c3",
            build_potrf_25d(&TwoPointFiveD::new(SbcBasic::new(4), 3), nt),
            24,
            ScheduleMode::Async,
        ),
        (
            "confchox_like",
            build_potrf(&TwoDBlockCyclic::new(8, 4), nt),
            32,
            ScheduleMode::BulkSynchronous,
        ),
    ];
    for (name, graph, nodes, mode) in &schemes {
        let p = Platform::bora(*nodes);
        let cfg = SimConfig {
            tile_b: 500,
            mode: *mode,
            priority_comms: false,
        };
        g.bench_function(*name, |bench| {
            bench.iter(|| Simulator::new(graph, &p, cfg).run());
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_engine_throughput, bench_fig9_miniature
);
criterion_main!(benches);
