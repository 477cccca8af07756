//! The traced pass: where the time of a workload goes, crate by crate.
//!
//! Nothing inside the crates is instrumented by this benchmark. Each probe
//! calls a crate's public functions from outside, at the workload's own
//! `nt`/`b`, inside a benchmark-owned span; the spans, together with one
//! `Run::recorder` recording, are written as one Chrome trace per workload.

use crate::e2e::Report;
use crate::host::{nproc, SocketDir};
use crate::json::Value;
use crate::metrics::Metrics;
use crate::ops::{
    check_factor, check_run, expect, factorize, job_stream, matrix_seeds, residual, Config, Dist,
    Gate, Mesh, Mix, Reference, Shape, WireTotals, Workload, CLIENTS, POOL, RANKS, RESIDUAL_LIMIT,
    SERVE_POOL,
};
use crate::served::{closed_loop, warm_start, Pools, Sample, Served};
use crate::stats::{median, tail, SplitMix64};
use sbc_dist::{SbcExtended, TwoDBlockCyclic};
use sbc_kernels::{
    flops_gemm, flops_potrf, flops_syrk, flops_trsm, KernelBackend, Kernels, Tile, Trans,
};
use sbc_matrix::{potrf_tiled, random_spd};
use sbc_net::wire::{crc32, decode, encode_into, Frame};
use sbc_net::{inproc_mesh, local_mesh, Backend, Message, Payload, Transport};
use sbc_obs::{
    chrome_trace, chrome_trace_from_spans, merge_chrome_traces, task_spans, Event, ExecProfile,
    GaugeKind, Recorder, Recording, TraceEvent,
};
use sbc_planner::{Op, Planner};
use sbc_serve::ServeConfig;
use sbc_simgrid::{Platform, SimConfig, Simulator};
use sbc_taskgraph::{build_potrf, flops_priorities};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The crates with metrics, in trace-lane order.
const LAYERS: [&str; 10] = [
    "kernels",
    "matrix",
    "dist",
    "taskgraph",
    "runtime",
    "net",
    "planner",
    "simgrid",
    "serve",
    "obs",
];

struct Span {
    layer: usize,
    name: String,
    start: f64,
    end: f64,
    /// The span that was open when this one began.
    parent: Option<usize>,
}

/// Benchmark-owned spans, kept in memory until the pass ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span of `layer`; returns its result and seconds.
    fn time<R>(&mut self, layer: &str, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let layer = LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("span of an unlisted layer");
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans[id].end = end;
        (result, end - start)
    }

    /// One lane per layer; a span's label names the span that caused it.
    fn chrome_trace(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| TraceEvent {
                task: id as u32,
                node: s.layer as u32,
                start: s.start,
                end: s.end,
            })
            .collect();
        chrome_trace_from_spans(&events, |e| {
            let s = &self.spans[e.task as usize];
            match s.parent {
                Some(p) => format!("{}: {} < {}", LAYERS[s.layer], s.name, self.spans[p].name),
                None => format!("{}: {}", LAYERS[s.layer], s.name),
            }
        })
    }
}

/// Seconds per call of `f`: the batch size doubles until a batch lasts a
/// tenth of `budget`, then the median of seven batches is taken.
fn per_call(budget: f64, mut f: impl FnMut()) -> f64 {
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64()
    };
    let mut iters = 1;
    while batch(iters) < budget / 10.0 && iters < 1 << 30 {
        iters *= 2;
    }
    let per: Vec<f64> = (0..7).map(|_| batch(iters) / iters as f64).collect();
    median(&per)
}

/// [`per_call`] inside a span.
fn probe(spans: &mut Spans, layer: &str, name: &str, budget: f64, f: impl FnMut()) -> f64 {
    spans.time(layer, name, |_| per_call(budget, f)).0
}

fn seeded_tile(b: usize, seed: u64) -> Tile {
    let mut rng = SplitMix64::new(seed);
    Tile::from_fn(b, |_, _| rng.centered())
}

/// The time budgets of the pass, all derived from `--seconds`.
#[derive(Clone, Copy)]
struct Budget {
    /// One micro probe (a kernel, a codec call, a round trip).
    micro: f64,
    /// Interleaved whole factorizations under each configuration.
    rounds: f64,
    /// The served closed loop.
    served: f64,
    /// The same mix through `Service::submit`/`wait`, no socket.
    served_inproc: f64,
}

impl Budget {
    fn of(seconds: f64) -> Budget {
        Budget {
            micro: (seconds / 600.0).clamp(0.002, 0.03),
            rounds: seconds * 0.45,
            served: seconds * 0.22,
            served_inproc: seconds * 0.08,
        }
    }
}

// --------------------------------------------------------------- kernels

/// `steps` rounds of multiply-then-add over `LANES` independent
/// accumulators — written like the kernels (separate multiply and add,
/// never fused) and left to the compiler to vectorize as it vectorizes them.
#[inline(always)]
fn mul_add_chains<const LANES: usize>(
    acc: &mut [f64; LANES],
    scale: f64,
    shift: f64,
    steps: usize,
) {
    let mut a = *acc;
    for _ in 0..steps {
        for x in a.iter_mut() {
            *x = *x * scale + shift;
        }
    }
    *acc = a;
}

/// The same loop compiled for wider vectors, as `sbc-kernels`' `Blocked`
/// backend compiles its kernels: `#[target_feature]` only widens what the
/// autovectorizer may emit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mul_add_chains_avx2(acc: &mut [f64; 48], scale: f64, shift: f64, steps: usize) {
    mul_add_chains(acc, scale, shift, steps);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn mul_add_chains_avx512(acc: &mut [f64; 96], scale: f64, shift: f64, steps: usize) {
    mul_add_chains(acc, scale, shift, steps);
}

/// GFlop/s of [`mul_add_chains`] under `chains`.
fn chain_rate<const LANES: usize>(
    budget: f64,
    chains: impl Fn(&mut [f64; LANES], f64, f64, usize),
) -> f64 {
    const STEPS: usize = 4096;
    let mut acc = [0.5f64; LANES];
    let (scale, shift) = (black_box(0.999_999), black_box(0.000_001));
    let per = per_call(budget, || {
        chains(&mut acc, scale, shift, STEPS);
        black_box(&mut acc);
    });
    (2 * LANES * STEPS) as f64 / per / 1e9
}

/// This build's single-thread peak on this CPU: the mul+add loop at the
/// widest vector width the CPU has, with enough accumulators in flight to
/// keep that width's floating-point pipes full (24, 48 and 96 were the
/// fastest counts for 128-, 256- and 512-bit vectors on the seed host).
fn peak_gflops(budget: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU was just checked to support avx512f.
            return chain_rate(budget, |a, x, y, n| unsafe {
                mul_add_chains_avx512(a, x, y, n)
            });
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU was just checked to support avx2.
            return chain_rate(budget, |a, x, y, n| unsafe {
                mul_add_chains_avx2(a, x, y, n)
            });
        }
    }
    chain_rate(budget, mul_add_chains::<24>)
}

/// `kernels.*`: every tile kernel POTRF uses, single thread, one tile of the
/// workload's `b`, both backends. Returns GEMM's rate per backend
/// (`[naive, blocked]`), which later ratios divide by.
fn kernels(spans: &mut Spans, m: &mut Metrics, cfg: &Config, budget: f64) -> [f64; 2] {
    let b = cfg.shape.b;
    let (a, bb) = (seeded_tile(b, 1), seeded_tile(b, 2));
    // unit diagonal and small off-diagonal entries: repeated solves against
    // it neither blow up nor decay into denormals
    let lower = Tile::from_fn(b, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => 0.01 * a.get(i, j),
        std::cmp::Ordering::Less => 0.0,
    });
    let spd = Tile::from_fn(b, |i, j| {
        if i == j {
            b as f64
        } else {
            0.5 * (a.get(i, j) + a.get(j, i))
        }
    });
    const NAMES: [[&str; 2]; 4] = [
        ["kernels.gemm_gflops.naive", "kernels.gemm_gflops.blocked"],
        ["kernels.syrk_gflops.naive", "kernels.syrk_gflops.blocked"],
        ["kernels.trsm_gflops.naive", "kernels.trsm_gflops.blocked"],
        ["kernels.potrf_gflops.naive", "kernels.potrf_gflops.blocked"],
    ];
    let mut gemm = [0.0; 2];
    for (which, k) in [KernelBackend::Naive, KernelBackend::Blocked]
        .into_iter()
        .enumerate()
    {
        let mut c = Tile::zeros(b);
        // TRSM and POTRF overwrite their operand, so each call starts from
        // a reset tile: that O(b^2) copy is inside their timing
        let mut x = Tile::zeros(b);
        let per = [
            probe(
                spans,
                "kernels",
                &format!("Kernels::gemm {k}"),
                budget,
                || k.gemm(Trans::No, Trans::Yes, -1.0, &a, &bb, 1.0, black_box(&mut c)),
            ),
            probe(
                spans,
                "kernels",
                &format!("Kernels::syrk {k}"),
                budget,
                || k.syrk(Trans::No, -1.0, &a, 1.0, black_box(&mut c)),
            ),
            probe(
                spans,
                "kernels",
                &format!("Kernels::trsm_right_lower_trans {k}"),
                budget,
                || {
                    x.as_mut_slice().copy_from_slice(a.as_slice());
                    k.trsm_right_lower_trans(1.0, &lower, black_box(&mut x));
                },
            ),
            probe(
                spans,
                "kernels",
                &format!("Kernels::potrf {k}"),
                budget,
                || {
                    x.as_mut_slice().copy_from_slice(spd.as_slice());
                    k.potrf(black_box(&mut x)).expect("SPD tile factors");
                },
            ),
        ];
        let flops = [flops_gemm(b), flops_syrk(b), flops_trsm(b), flops_potrf(b)];
        for op in 0..4 {
            m.set(NAMES[op][which], flops[op] / per[op] / 1e9);
        }
        gemm[which] = flops[0] / per[0] / 1e9;
    }
    let (peak, _) = spans.time("kernels", "mul+add peak loop", |_| peak_gflops(budget));
    m.set("kernels.peak_gflops", peak);
    m.set(
        "kernels.gemm_roofline_frac",
        gemm[backend_index(cfg)] / peak,
    );
    m.set("kernels.flops", cfg.shape.flops());
    gemm
}

/// Index into `[naive, blocked]` of the backend `cfg` runs.
fn backend_index(cfg: &Config) -> usize {
    usize::from(cfg.kernels.unwrap_or_default() != KernelBackend::Naive)
}

// ---------------------------------------------------------------- matrix

/// `matrix.*`: input generation and the plain single-threaded baseline,
/// timed while building the seed pool's references. Returns them with the
/// baseline's seconds.
fn matrix(
    spans: &mut Spans,
    m: &mut Metrics,
    shape: Shape,
    seed: u64,
) -> Result<(Vec<Reference>, f64), String> {
    let mut references = Vec::with_capacity(POOL);
    let (mut generate, mut factor, mut worst) = (Vec::new(), Vec::new(), 0.0f64);
    for matrix_seed in matrix_seeds(seed, 0, POOL) {
        let (mut a, secs) = spans.time("matrix", "random_spd", |_| {
            random_spd(matrix_seed, shape.nt, shape.b)
        });
        generate.push(secs);
        let (done, secs) = spans.time("matrix", "potrf_tiled", |_| potrf_tiled(&mut a));
        done.map_err(|e| format!("sequential factorization: {e:?}"))?;
        factor.push(secs);
        let reference = Reference {
            seed: matrix_seed,
            factor: a,
        };
        worst = worst.max(residual(&reference));
        references.push(reference);
    }
    if worst >= RESIDUAL_LIMIT {
        return Err(format!("sequential factor has residual {worst}"));
    }
    let seq = median(&factor);
    m.set("matrix.random_spd_s", median(&generate));
    m.set("matrix.seq_potrf_s", seq);
    m.set("matrix.residual", worst);
    Ok((references, seq))
}

// ------------------------------------------------------------------ dist

/// Leading term of the parallel bandwidth lower bound for Cholesky, summed
/// over `p` ranks, in bytes: see the README for the formula and what was
/// dropped from it.
fn lower_bound_bytes(n: usize, p: usize) -> f64 {
    8.0 * (n as f64).powi(2) * (p as f64).sqrt() / 12.0
}

/// `dist.*` counts: analytic, so they repeat exactly.
fn dist(m: &mut Metrics, shape: Shape) {
    let (sbc, bc) = (expect(Dist::Sbc, shape), expect(Dist::Bc, shape));
    m.set("dist.messages_sbc", sbc.messages as f64);
    m.set("dist.messages_2dbc", bc.messages as f64);
    m.set(
        "dist.bytes_ratio_2dbc_over_sbc",
        bc.bytes as f64 / sbc.bytes as f64,
    );
    m.set(
        "dist.bytes_over_lower_bound",
        sbc.bytes as f64 / lower_bound_bytes(shape.n(), RANKS),
    );
}

// ------------------------------------------------------------- taskgraph

/// `taskgraph.*`; returns the task count.
fn taskgraph(spans: &mut Spans, m: &mut Metrics, shape: Shape, budget: f64) -> usize {
    let dist = SbcExtended::new(4);
    let build = probe(spans, "taskgraph", "build_potrf", budget, || {
        black_box(build_potrf(&dist, shape.nt));
    });
    let graph = build_potrf(&dist, shape.nt);
    let priorities = probe(spans, "taskgraph", "flops_priorities", budget, || {
        black_box(flops_priorities(&graph, shape.b));
    });
    let edges: usize = (0..graph.len())
        .map(|t| graph.succs(t as u32).count())
        .sum();
    m.set("taskgraph.build_s", build);
    m.set("taskgraph.priorities_s", priorities);
    m.set("taskgraph.tasks", graph.len() as f64);
    m.set("taskgraph.edges", edges as f64);
    graph.len()
}

// ------------------------------------------------------------------- net

fn payload(tile: &Tile) -> Payload {
    Payload::Data {
        job: 0,
        producer: 1,
        tile: tile.clone(),
    }
}

/// Microseconds for a payload to reach rank 1 and come back.
fn round_trip<T: Transport>(mesh: &[T], tile: &Tile, budget: f64) -> f64 {
    let (near, far) = (&mesh[0], &mesh[1]);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(Message::Payload { payload, .. }) = far.recv() {
                far.send_payload(0, payload);
            }
        });
        let per = per_call(budget, || {
            near.send_payload(1, payload(tile));
            black_box(near.recv());
        });
        near.send_poison(1); // anything but a payload ends the echo
        per * 1e6
    })
}

/// MB/s of payloads streamed one way over a two-rank UDS mesh, the
/// receiver answering once after the last one.
fn stream_mb_s(tile: &Tile) -> Result<f64, String> {
    let mesh = local_mesh(Backend::Uds, 2).map_err(|e| format!("uds mesh: {e}"))?;
    let bytes = tile.bytes();
    let count = (8_000_000 / bytes).clamp(64, 4000);
    let (near, far) = (&mesh[0], &mesh[1]);
    Ok(std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..count {
                black_box(far.recv());
            }
            far.send_payload(0, payload(&Tile::zeros(1)));
        });
        let start = Instant::now();
        for _ in 0..count {
            near.send_payload(1, payload(tile));
        }
        black_box(near.recv());
        (count * bytes) as f64 / start.elapsed().as_secs_f64() / 1e6
    }))
}

/// `net.*` micro probes on one payload frame of the workload's tile.
fn net(spans: &mut Spans, m: &mut Metrics, shape: Shape, budget: f64) -> Result<(), String> {
    let tile = seeded_tile(shape.b, 5);
    let frame = |tile: &Tile| Frame::Payload {
        src: 0,
        payload: payload(tile),
    };
    let big = frame(&tile);
    let mut buf = Vec::new();
    let len = encode_into(&big, &mut buf) as f64;
    let encode = probe(spans, "net", "wire::encode_into", budget, || {
        black_box(encode_into(&big, &mut buf));
    });
    let decoding = probe(spans, "net", "wire::decode", budget, || {
        black_box(decode(&buf).expect("own frame decodes"));
    });
    let crc = probe(spans, "net", "wire::crc32", budget, || {
        black_box(crc32(&buf));
    });
    m.set("net.encode_mb_s", len / encode / 1e6);
    m.set("net.decode_mb_s", len / decoding / 1e6);
    m.set("net.crc32_mb_s", len / crc / 1e6);

    // the fixed cost of a frame: a 512-byte payload, whatever the workload
    let small = frame(&seeded_tile(8, 6));
    let overhead = probe(spans, "net", "wire encode+decode b=8", budget, || {
        encode_into(&small, &mut buf);
        black_box(decode(&buf).expect("own frame decodes"));
    });
    m.set("net.frame_overhead_ns", overhead * 1e9);

    let (us, _) = spans.time("net", "inproc round trip", |_| {
        round_trip(&inproc_mesh(2), &tile, budget)
    });
    m.set("net.inproc_roundtrip_us", us);
    let pair = local_mesh(Backend::Uds, 2).map_err(|e| format!("uds mesh: {e}"))?;
    let (us, _) = spans.time("net", "uds round trip", |_| {
        round_trip(&pair, &tile, budget)
    });
    m.set("net.uds_roundtrip_us", us);
    drop(pair);
    let (mb_s, _) = spans.time("net", "uds stream", |_| stream_mb_s(&tile));
    m.set("net.uds_stream_mb_s", mb_s?);

    let mut connects = Vec::new();
    for _ in 0..3 {
        let (mesh, secs) = spans.time("net", "local_mesh(Uds, 6)", |_| {
            local_mesh(Backend::Uds, RANKS)
        });
        mesh.map_err(|e| format!("uds mesh: {e}"))?;
        connects.push(secs);
    }
    m.set("net.mesh_connect_s", median(&connects));
    Ok(())
}

// --------------------------------------------------------------- planner

/// `planner.*` timings; returns the model's predicted seconds for `shape`.
fn planner(spans: &mut Spans, m: &mut Metrics, shape: Shape, budget: f64) -> f64 {
    let config = ServeConfig::default();
    let fresh = || Planner::with_config(Platform::bora(config.nodes), config.planner);
    let cold: Vec<f64> = (0..5)
        .map(|_| {
            let planner = fresh();
            spans
                .time("planner", "Planner::plan cold", |_| {
                    black_box(planner.plan(Op::Potrf, shape.nt, shape.b));
                })
                .1
        })
        .collect();
    let warm = fresh();
    let predicted = warm.plan(Op::Potrf, shape.nt, shape.b).cost.total_seconds;
    let hit = probe(spans, "planner", "Planner::plan hit", budget, || {
        black_box(warm.plan(Op::Potrf, shape.nt, shape.b));
    });
    m.set("planner.plan_cold_s", median(&cold));
    m.set("planner.plan_hit_ns", hit * 1e9);
    predicted
}

// --------------------------------------------------------------- simgrid

/// `simgrid.*`: the paper-scale simulation (P=28, nt=48, b=500), the same
/// for every workload; makespans are exact repeats.
fn simgrid(spans: &mut Spans, m: &mut Metrics) {
    const NT: usize = 48;
    const B: usize = 500;
    let platform = Platform::bora(28);
    let sbc = build_potrf(&SbcExtended::new(8), NT);
    let bc = build_potrf(&TwoDBlockCyclic::new(7, 4), NT);
    let mut secs = Vec::new();
    let mut makespan = 0.0;
    for _ in 0..3 {
        let (report, s) = spans.time("simgrid", "Simulator::run SBC r=8", |_| {
            Simulator::new(&sbc, &platform, SimConfig::chameleon(B)).run()
        });
        secs.push(s);
        makespan = report.makespan;
    }
    let (report_bc, _) = spans.time("simgrid", "Simulator::run 2DBC 7x4", |_| {
        Simulator::new(&bc, &platform, SimConfig::chameleon(B)).run()
    });
    let run_s = median(&secs);
    m.set("simgrid.run_s", run_s);
    m.set("simgrid.tasks_per_s", sbc.len() as f64 / run_s);
    m.set(
        "simgrid.makespan_ratio_2dbc_over_sbc",
        report_bc.makespan / makespan,
    );
}

// ---------------------------------------- whole factorizations, compared

/// One configuration of the interleaved rounds and what it measured.
struct Variant {
    name: &'static str,
    cfg: Config,
    traced: bool,
    secs: Vec<f64>,
}

/// What the rounds leave behind beside their timings.
#[derive(Default)]
struct RoundsExtra {
    /// Per traced run: kernel seconds summed over ranks, dependency-wait
    /// seconds summed over ranks.
    busy: Vec<f64>,
    dep_wait: Vec<f64>,
    ready_queue_max: f64,
    /// Measured minus analytic messages of the last base run.
    drift: f64,
    wire: WireTotals,
    recording: Option<Recording>,
}

/// Runs the workload's factorization under each configuration a ratio
/// needs — round after round, each round starting one configuration later
/// so none always runs first — until `budget` seconds have passed (at
/// least two rounds). Every factorization is gated.
fn rounds(
    spans: &mut Spans,
    base: Config,
    references: &[Reference],
    budget: f64,
    gate: &mut Gate,
) -> Result<(Vec<Variant>, RoundsExtra), String> {
    let wanted = [
        ("base", base, false),
        ("traced", base, true),
        ("2dbc", base.with_dist(Dist::Bc), false),
        ("naive", base.with_kernels(KernelBackend::Naive), false),
        ("blocked", base.with_kernels(KernelBackend::Blocked), false),
        ("inproc", base.with_mesh(Mesh::InProc), false),
        ("uds", base.with_mesh(Mesh::Uds), false),
        ("uds-session", base.with_mesh(Mesh::UdsSession), false),
    ];
    // a configuration two names share runs once (looked up by `find`)
    let mut variants: Vec<Variant> = Vec::new();
    for (name, cfg, traced) in wanted {
        if !variants.iter().any(|v| v.cfg == cfg && v.traced == traced) {
            variants.push(Variant {
                name,
                cfg,
                traced,
                secs: Vec::new(),
            });
        }
    }
    let mut extra = RoundsExtra::default();
    let clock = Instant::now();
    let mut round = 0;
    while round < 2 || clock.elapsed().as_secs_f64() < budget {
        let reference = &references[round % references.len()];
        let count = variants.len();
        for step in 0..count {
            let v = &mut variants[(step + round) % count];
            let want = expect(v.cfg.dist, v.cfg.shape);
            let recorder = v.traced.then(Recorder::new);
            let (outcome, _) = spans.time("runtime", &format!("factorize {}", v.name), |_| {
                factorize(&v.cfg, reference.seed, recorder.as_ref())
            });
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(why) => {
                    gate.record(Err(format!("{}: {why}", v.name)));
                    continue;
                }
            };
            gate.record(check_run(&outcome.output, reference, &want));
            v.secs.push(outcome.secs);
            if v.cfg == base && !v.traced {
                extra.drift = outcome.output.stats.messages as f64 - want.messages as f64;
            }
            if let (Mesh::UdsSession, Some(wire)) = (v.cfg.mesh, outcome.wire) {
                extra.wire = wire;
            }
            if let Some(recorder) = recorder {
                let recording = recorder.drain();
                let profile = ExecProfile::from_recording(&recording);
                extra.busy.push(profile.total_busy_seconds());
                extra.dep_wait.push(profile.dep_wait_seconds);
                for e in &recording.events {
                    if let Event::Gauge {
                        gauge: GaugeKind::ReadyQueue,
                        value,
                        ..
                    } = e
                    {
                        extra.ready_queue_max = extra.ready_queue_max.max(*value);
                    }
                }
                extra.recording = Some(recording);
            }
        }
        round += 1;
    }
    match variants.iter().find(|v| v.secs.is_empty()) {
        Some(v) => Err(format!(
            "no factorization under {} completed: {:?}",
            v.name, gate.first_failure
        )),
        None => Ok((variants, extra)),
    }
}

/// Median seconds of the variant that ran `cfg` untraced.
fn seconds_of(variants: &[Variant], cfg: Config) -> f64 {
    let v = variants
        .iter()
        .find(|v| v.cfg == cfg && !v.traced)
        .expect("every wanted configuration ran");
    median(&v.secs)
}

// ----------------------------------------------------------------- serve

/// The same mix through `Service::submit`/`wait`, no socket: jobs per
/// second of `CLIENTS` closed-loop threads.
fn served_inproc(served: &Served, pools: &Pools, seed: u64, seconds: f64, gate: &mut Gate) -> f64 {
    let start = Instant::now();
    let per_thread: Vec<(f64, Gate)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let service = &served.service;
                    let mut gate = Gate::default();
                    let (mut jobs, mut busy) = (0u64, 0.0);
                    for job in job_stream(seed ^ 0x1A9, c) {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let pool = pools.of(job.large);
                        let Shape { nt, b } = pool.shape;
                        let reference = &pool.references[job.pool_index];
                        let clock = Instant::now();
                        let outcome = service
                            .submit(Op::Potrf, nt, b, reference.seed, reference.seed ^ 0x5EED, 0)
                            .map_err(|rejection| rejection.to_string())
                            .and_then(|ticket| service.wait(ticket.id).map_err(|e| e.to_string()));
                        busy += clock.elapsed().as_secs_f64();
                        gate.record(outcome.and_then(|out| {
                            let factor = service
                                .gather_potrf(nt, b, &out)
                                .map_err(|e| e.to_string())?;
                            check_factor(
                                &factor,
                                out.stats.messages,
                                out.stats.bytes,
                                reference,
                                &pool.expect,
                            )
                        }));
                        jobs += 1;
                    }
                    (if busy > 0.0 { jobs as f64 / busy } else { 0.0 }, gate)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    per_thread
        .into_iter()
        .map(|(rate, g)| {
            gate.merge(g);
            rate
        })
        .sum()
}

/// `serve.*` and the planner numbers only a running service has.
#[allow(clippy::too_many_arguments)]
fn serve(
    spans: &mut Spans,
    m: &mut Metrics,
    mix: Mix,
    seed: u64,
    budget: Budget,
    predicted: f64,
    sockets: &SocketDir,
    gate: &mut Gate,
) -> Result<Value, String> {
    let pools = Pools::prepare(mix, seed, &ServeConfig::default(), SERVE_POOL)?;
    let (warm, _) = spans.time("serve", "start + bind + connect + first jobs", |_| {
        warm_start(sockets.socket("serve.sock"), &pools, gate)
    });
    let warm = warm?;
    let first = warm.first_jobs.clone();
    let mut clients = warm.clients;
    let mut streams: Vec<_> = (0..CLIENTS).map(|c| job_stream(seed, c)).collect();
    let (per_client, _) = spans.time("serve", "closed loop over UDS", |_| {
        closed_loop(&mut clients, &mut streams, &pools, budget.served, gate)
    });
    drop(clients);
    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    if samples.is_empty() {
        // a budget too short for one more job: the first jobs stand in
        samples = first;
    }

    let mut monitor = warm.served.connect()?;
    let mut scrapes = Vec::new();
    let mut snapshot = None;
    for _ in 0..5 {
        let (scrape, secs) = spans.time("serve", "Client::stats", |_| monitor.stats());
        snapshot = Some(scrape.map_err(|e| format!("stats scrape: {e}"))?);
        scrapes.push(secs);
    }
    drop(monitor);
    let snapshot = snapshot.expect("five scrapes ran");
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let (hits, misses) = (counter("planner.cache.hit"), counter("planner.cache.miss"));

    let (inproc_rate, _) = spans.time("serve", "Service::submit + wait, no socket", |_| {
        served_inproc(&warm.served, &pools, seed, budget.served_inproc, gate)
    });
    warm.served.stop()?;

    let latency: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let engine: Vec<f64> = samples.iter().map(|s| s.engine).collect();
    let front: Vec<f64> = samples.iter().map(|s| s.latency - s.engine).collect();
    // the model's prediction is for the mix's large shape
    let mut large_engine: Vec<f64> = samples
        .iter()
        .filter(|s| pools.large.is_none() || s.large)
        .map(|s| s.engine)
        .collect();
    if large_engine.is_empty() {
        large_engine = engine.clone();
    }
    let (front_p90, p99) = (tail(&front, 0.9), tail(&latency, 0.99));
    m.set("serve.engine_p50_s", median(&engine));
    m.set("serve.front_overhead_p50_s", median(&front));
    m.set("serve.front_overhead_p90_s", front_p90.value);
    m.set("serve.inproc_jobs_per_s", inproc_rate);
    m.set("serve.job_latency_p99_s", p99.value);
    m.set("serve.first_job_s", warm.first_job_secs);
    m.set("serve.rejected", counter("serve.jobs.rejected"));
    m.set("serve.stats_scrape_s", median(&scrapes));
    m.set("planner.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.set(
        "planner.predicted_over_measured",
        predicted / median(&large_engine),
    );
    Ok(Value::obj([
        ("served_jobs", Value::Num(samples.len() as f64)),
        (
            "serve.front_overhead_p90_s_percentile",
            Value::Num(front_p90.percentile),
        ),
        (
            "serve.job_latency_p99_s_percentile",
            Value::Num(p99.percentile),
        ),
    ]))
}

// ------------------------------------------------------------------ pass

pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    sockets: &SocketDir,
    trace_file: &Path,
) -> Result<Report, String> {
    let cfg = workload.probe_config();
    let budget = Budget::of(seconds);
    let mut spans = Spans::new();
    let mut m = Metrics::default();
    let mut gate = Gate::default();

    let gemm = kernels(&mut spans, &mut m, &cfg, budget.micro);
    let (references, seq_potrf_s) = matrix(&mut spans, &mut m, cfg.shape, seed)?;
    dist(&mut m, cfg.shape);
    let tasks = taskgraph(&mut spans, &mut m, cfg.shape, budget.micro);
    net(&mut spans, &mut m, cfg.shape, budget.micro)?;
    let predicted = planner(&mut spans, &mut m, workload.probe_mix().large, budget.micro);
    simgrid(&mut spans, &mut m);

    let (variants, extra) = rounds(&mut spans, cfg, &references, budget.rounds, &mut gate)?;
    let of = |cfg: Config| seconds_of(&variants, cfg);
    let base = of(cfg);
    let traced = variants
        .iter()
        .find(|v| v.traced)
        .expect("the traced variant ran");
    // cores the rank threads can actually occupy at once
    let cores = nproc().min(RANKS) as f64;
    let kernel_seconds = cfg.shape.flops() / (gemm[backend_index(&cfg)] * 1e9);
    m.set(
        "dist.time_ratio_2dbc_over_sbc",
        of(cfg.with_dist(Dist::Bc)) / base,
    );
    m.set(
        "runtime.kernel_efficiency",
        cfg.shape.flops() / base / 1e9 / (cores * gemm[backend_index(&cfg)]),
    );
    m.set("runtime.speedup_over_seq", seq_potrf_s / base);
    m.set(
        "runtime.naive_over_blocked",
        of(cfg.with_kernels(KernelBackend::Naive)) / of(cfg.with_kernels(KernelBackend::Blocked)),
    );
    m.set(
        "runtime.per_task_overhead_us",
        (base * cores - kernel_seconds).max(0.0) / tasks as f64 * 1e6,
    );
    m.set("runtime.task_busy_s", median(&extra.busy));
    m.set("runtime.dep_wait_s", median(&extra.dep_wait));
    m.set("runtime.ready_queue_max", extra.ready_queue_max);
    m.set("runtime.comm_drift_messages", extra.drift);
    let session = of(cfg.with_mesh(Mesh::UdsSession));
    m.set(
        "net.session_overhead_ratio",
        session / of(cfg.with_mesh(Mesh::Uds)),
    );
    m.set(
        "net.wire_share",
        1.0 - of(cfg.with_mesh(Mesh::InProc)) / session,
    );
    let (wire, pool) = (extra.wire.stats, extra.wire.pool);
    m.set(
        "net.pool_hit_ratio",
        pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
    );
    m.set(
        "net.frame_bytes_over_payload",
        wire.sent_frame_bytes as f64 / wire.sent_payload_bytes.max(1) as f64,
    );
    m.set("net.retrans_messages", wire.retrans_messages as f64);
    m.set("net.control_bytes", wire.control_bytes as f64);
    m.set("obs.recorder_overhead_ratio", median(&traced.secs) / base);

    let served = serve(
        &mut spans,
        &mut m,
        workload.probe_mix(),
        seed,
        budget,
        predicted,
        sockets,
        &mut gate,
    )?;

    // the benchmark's spans and one recorded run, one Chrome trace
    let recording = extra.recording.expect("the traced variant recorded");
    m.set(
        "obs.spans",
        (spans.spans.len() + task_spans(&recording).len()) as f64,
    );
    let trace = merge_chrome_traces(&[spans.chrome_trace(), chrome_trace(&recording)]);
    std::fs::write(trace_file, trace).map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let mut details = vec![
        (
            "rounds".to_string(),
            Value::Num(variants[0].secs.len() as f64),
        ),
        (
            "trace_file".to_string(),
            Value::str(trace_file.to_string_lossy()),
        ),
        (
            "recorder_spans_include_descheduled_time".to_string(),
            Value::Bool(RANKS > nproc()),
        ),
    ];
    details.extend(
        served
            .as_object()
            .expect("serve details are an object")
            .iter()
            .cloned(),
    );
    Ok(Report {
        metrics: m,
        gate,
        details: Value::Obj(details),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_valid_chrome_trace() {
        let mut spans = Spans::new();
        spans.time("runtime", "outer", |s| {
            s.time("net", "inner \"quoted\"", |_| ());
        });
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert!(spans.spans[0].end >= spans.spans[1].end);
        let trace = spans.chrome_trace();
        sbc_obs::json::validate(&trace).unwrap();
        assert!(trace.contains("net: inner") && trace.contains("< outer"));
    }

    #[test]
    fn per_call_grows_with_the_work_per_call() {
        let spin = |n: u64| {
            move || {
                black_box((0..n).fold(0u64, |a, x| a ^ black_box(x)));
            }
        };
        let (short, long) = (per_call(0.01, spin(100)), per_call(0.01, spin(10_000)));
        assert!(long > 10.0 * short, "{short} vs {long}");
    }

    #[test]
    fn lower_bound_scales_with_n_squared_root_p() {
        let base = lower_bound_bytes(1000, 4);
        assert!((lower_bound_bytes(2000, 4) / base - 4.0).abs() < 1e-12);
        assert!((lower_bound_bytes(1000, 16) / base - 2.0).abs() < 1e-12);
        // n^2 sqrt(P) / 12 words of 8 bytes
        assert!((base - 8.0 * 1e6 * 2.0 / 12.0).abs() < 1e-6);
    }
}
