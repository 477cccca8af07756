//! An in-process mesh is stepped, not threaded: `Run::execute` runs its
//! ranks on `min(ranks × workers, cores)` pooled threads, the caller one of
//! them, and a resident `Service` keeps that many — not one per rank. A
//! socket mesh runs one reader thread per connection and nothing else: a
//! frame is written by the thread that sends it. A rank of a socket mesh
//! (`Run::execute_rank`) is stepped on `min(workers, cores)` pooled
//! threads, its caller one of them.
//!
//! One `#[test]` only: the count is the process's (`/proc/self/task`), and
//! tests of one binary run on parallel threads.

use sbc::dist::SbcExtended;
use sbc::kernels::Tile;
use sbc::matrix::generate;
use sbc::net::{local_mesh, Backend};
use sbc::planner::Op;
use sbc::runtime::Run;
use sbc::serve::{ServeConfig, Service};
use sbc::taskgraph::TileRef;
use std::sync::atomic::{AtomicUsize, Ordering};

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .count()
}

/// The thread count once it reaches `want`, or after 5 s: a thread is
/// counted from its spawn until the OS has torn it down, which lags the
/// join of a scoped thread a little.
fn settled_at(want: usize) -> usize {
    let patience = std::time::Instant::now();
    while threads_now() != want && patience.elapsed().as_secs() < 5 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    threads_now()
}

const NT: usize = 8;
const B: usize = 8;

/// A factorization of 6 ranks at `workers` lanes whose tile provider — run
/// on the engine threads, mid-run — records the most threads it saw.
fn sampled<'a>(dist: &SbcExtended, workers: usize, peak: &'a AtomicUsize) -> Run<'a> {
    Run::potrf(dist, NT)
        .block(B)
        .workers(workers)
        .provider(move |r| {
            peak.fetch_max(threads_now(), Ordering::Relaxed);
            match r {
                TileRef::A { i, j, .. } => generate::spd_tile(5, NT, B, i as usize, j as usize),
                _ => Tile::zeros(B),
            }
        })
}

#[test]
fn an_in_process_mesh_keeps_one_thread_per_core_at_most() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dist = SbcExtended::new(4); // 6 ranks
    let before = threads_now();

    for workers in [1, 2] {
        let peak = AtomicUsize::new(0);
        let run = sampled(&dist, workers, &peak);
        let out = run.execute().expect("the seeded matrix factors");
        drop(run);
        assert!(out.stats.messages > 0);
        // the caller is one of the engine threads
        let engine = peak.into_inner() - before + 1;
        let most = (6 * workers).min(cores);
        assert!(
            engine <= most,
            "workers {workers}: {engine} engine threads, {most} at most"
        );
        assert_eq!(
            settled_at(before),
            before,
            "a pooled thread outlived its run"
        );
    }

    let service = Service::start(ServeConfig::default());
    let resident = ServeConfig::default().nodes.min(cores);
    let job = service.submit(Op::Potrf, NT, B, 5, 0, 0).unwrap();
    let during = threads_now();
    let out = service.wait(job.id).unwrap();
    assert!(service.gather_potrf(NT, B, &out).is_ok());
    assert!(
        during - before <= resident,
        "{} threads serve a job",
        during - before
    );
    // the pool may still be spawning when the first job is done
    let idle = settled_at(before + resident);
    assert_eq!(idle - before, resident, "threads of a served mesh");
    service.shutdown().unwrap();
    assert_eq!(
        settled_at(before),
        before,
        "a pooled thread outlived the service"
    );

    // a connected 6-rank socket mesh: n(n − 1) = 30 readers, no writers
    let mesh = local_mesh(Backend::Uds, 6).expect("uds mesh");
    assert_eq!(
        settled_at(before + 30) - before,
        30,
        "threads of a UDS mesh"
    );
    // its ranks, one caller thread each, at two lanes: at most one more
    // thread per rank, and only where there is a core for it
    let (workers, callers, readers) = (2, 6, 30);
    let peak = AtomicUsize::new(0);
    let run = sampled(&dist, workers, &peak);
    std::thread::scope(|scope| {
        for net in &mesh {
            let run = &run;
            scope.spawn(move || run.execute_rank(net).expect("the seeded matrix factors"));
        }
    });
    drop(run);
    let engine = peak.into_inner() - before - readers - callers;
    let most = callers * (workers.min(cores) - 1);
    assert!(
        engine <= most,
        "{engine} engine threads beside the callers and the readers, {most} at most"
    );
    drop(mesh);
    assert_eq!(
        settled_at(before),
        before,
        "a reader outlived its connection"
    );
}
