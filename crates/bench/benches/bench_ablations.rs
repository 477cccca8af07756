//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! ready-queue priorities, message ordering, the iteration barrier, and the
//! diagonal-pattern cycling strategy. Each variant simulates the same SBC
//! POTRF; differences in reported time are the simulated-makespan work the
//! engine performs (the simulated makespans themselves are printed by
//! `paper ablations`).

use criterion::{criterion_group, criterion_main, Criterion};
use sbc_dist::{DiagonalCycling, SbcExtended};
use sbc_simgrid::{Platform, ScheduleMode, SimConfig, Simulator};
use sbc_taskgraph::build_potrf;
use sbc_topo::{CriticalPath, Scheduler, SubmissionOrder};

fn bench_schedule_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_schedules");
    g.sample_size(10);
    let nt = 40;
    let d = SbcExtended::new(8);
    let graph = build_potrf(&d, nt);
    let p = Platform::bora(28);
    let (prio, fifo): (&dyn Scheduler, &dyn Scheduler) = (&CriticalPath, &SubmissionOrder);
    let variants = [
        ("prio_tasks_fifo_msgs", ScheduleMode::Async, prio, false),
        ("fifo_tasks", ScheduleMode::Async, fifo, false),
        ("prio_msgs", ScheduleMode::Async, prio, true),
        ("bulk_sync", ScheduleMode::BulkSynchronous, prio, false),
    ];
    for (name, mode, sched, pcomm) in variants {
        let cfg = SimConfig {
            tile_b: 500,
            mode,
            priority_comms: pcomm,
        };
        g.bench_function(name, |bench| {
            bench.iter(|| Simulator::new(&graph, &p, cfg).with_scheduler(sched).run());
        });
    }
    g.finish();
}

fn bench_cycling_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_diagonal_cycling");
    g.sample_size(10);
    let nt = 40;
    let p = Platform::bora(28);
    for (name, cyc) in [
        ("column_wise", DiagonalCycling::ColumnWise),
        ("anti_diagonal", DiagonalCycling::AntiDiagonal),
    ] {
        let d = SbcExtended::with_cycling(8, cyc);
        let graph = build_potrf(&d, nt);
        g.bench_function(name, |bench| {
            bench.iter(|| Simulator::new(&graph, &p, SimConfig::chameleon(500)).run());
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_schedule_variants, bench_cycling_variants
);
criterion_main!(benches);
