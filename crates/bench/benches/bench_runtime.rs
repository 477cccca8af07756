//! Criterion benchmarks of the threaded distributed runtime (the Fig 8
//! "measured volume" machinery, which also validates numerics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sbc_dist::{RowCyclic, SbcExtended, TwoDBlockCyclic};
use sbc_runtime::Run;

fn bench_distributed_potrf(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_potrf");
    g.sample_size(10);
    for (name, nt, b) in [("nt12_b16", 12usize, 16usize), ("nt16_b24", 16, 24)] {
        let d = SbcExtended::new(5); // 10 nodes
        g.bench_with_input(
            BenchmarkId::new("sbc5", name),
            &(nt, b),
            |bench, &(nt, b)| {
                bench.iter(|| Run::potrf(&d, nt).block(b).seed(42).execute().unwrap());
            },
        );
        let d2 = TwoDBlockCyclic::new(5, 2);
        g.bench_with_input(
            BenchmarkId::new("2dbc_5x2", name),
            &(nt, b),
            |bench, &(nt, b)| {
                bench.iter(|| Run::potrf(&d2, nt).block(b).seed(42).execute().unwrap());
            },
        );
    }
    g.finish();
}

/// The worker-pool scaling target: a 10-node POTRF at nt=24, executed with
/// 1, 2 and 4 workers per node under critical-path priorities. Results and
/// traffic are identical by construction (see tests/workers.rs); only
/// wall-clock may differ, and it can only improve where the host actually
/// has cores to back the workers.
fn bench_runtime_workers(c: &mut Criterion) {
    use sbc_taskgraph::build_potrf;

    let mut g = c.benchmark_group("runtime_workers");
    g.sample_size(10);
    let d = SbcExtended::new(5); // 10 nodes
    let (nt, b) = (24usize, 16usize);
    let graph = build_potrf(&d, nt);
    for workers in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("sbc5_nt24", format!("w{workers}")),
            &workers,
            |bench, &workers| {
                bench.iter(|| {
                    Run::graph(&graph)
                        .block(b)
                        .seed(42)
                        .workers(workers)
                        .execute()
                        .unwrap()
                });
            },
        );
    }
    g.finish();
}

/// Recorder overhead: the same POTRF execution bare vs. with an `sbc-obs`
/// recorder attached (acceptance: tracing costs <= 5%, disabled ~0%).
fn bench_recorded_potrf(c: &mut Criterion) {
    use sbc_obs::Recorder;
    use sbc_taskgraph::build_potrf;

    let mut g = c.benchmark_group("runtime_recorded");
    g.sample_size(10);
    let d = SbcExtended::new(5);
    let (nt, b) = (12usize, 16usize);
    let graph = build_potrf(&d, nt);
    g.bench_function("bare", |bench| {
        bench.iter(|| Run::graph(&graph).block(b).seed(42).execute().unwrap());
    });
    g.bench_function("recorded", |bench| {
        bench.iter(|| {
            let rec = Recorder::new();
            let out = Run::graph(&graph)
                .block(b)
                .seed(42)
                .recorder(&rec)
                .execute()
                .unwrap();
            (out, rec.drain())
        });
    });
    g.finish();
}

fn bench_distributed_posv(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_posv");
    g.sample_size(10);
    let d = SbcExtended::new(5);
    let rhs = RowCyclic::new(10);
    g.bench_function("sbc5_nt12_b16", |bench| {
        bench.iter(|| {
            Run::posv(&d, &rhs, 12)
                .block(16)
                .seed(42)
                .execute()
                .unwrap()
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_distributed_potrf, bench_runtime_workers, bench_recorded_potrf, bench_distributed_posv
);
criterion_main!(benches);
