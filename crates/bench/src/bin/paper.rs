//! `paper` — regenerates every table and figure of the SBC paper.
//!
//! ```text
//! cargo run --release -p sbc-bench --bin paper -- all
//! cargo run --release -p sbc-bench --bin paper -- fig9 --full
//! ```
//!
//! Targets: `table1`, `patterns`, `fig7` … `fig14`, `ablations`, `trace`,
//! `planner`, `topo`, `obs`, `net`, `all`. `--full` switches to the paper's
//! full sweep sizes (slow); `--csv` emits figures as CSV instead of text
//! tables; `--out <path>` sets where `obs` / `net` write their Chrome-trace
//! JSON (for `topo`, the text report); `--workers <n>` sets the worker
//! threads per virtual node for `obs` (default: the runtime's own default).
//! Each target takes only its own flags (`TARGETS`): an unknown target or
//! flag, a flag the target does not take, or a value that does not parse
//! prints the usage and exits 2.
//!
//! `topo` sweeps {topology × scheduler × distribution} through the
//! simulator and prints a deterministic Pareto report of (makespan,
//! cross-rack bytes) against the analytic lower bound, then compares the
//! flat and topology-aware planners on an oversubscribed rack split
//! (`--nodes`, `--nt`, `--block` resize the sweep).
//!
//! `net` runs a real multi-process POTRF: one OS process per node over
//! localhost sockets (`--nodes <n>` ranks, `--backend tcp|uds`,
//! `--nt <tiles>`, `--block <b>`), validates the gathered factor against
//! the sequential algorithm bitwise, checks the wire traffic against the
//! analytic counts, and merges every rank's Chrome trace into one file.
//! It is deliberately excluded from `all` (it re-execs this binary).
//!
//! `--faults drop:N,dup:N,delay:MS` makes every rank's endpoint lossy and
//! wraps it in a reliability session (`--seed <s>` varies which sends the
//! schedule hits); the run must still produce the bitwise-identical factor
//! and exact analytic payload counts, with retransmissions reported
//! separately. `--deadline <secs>` arms the liveness watchdog so a stalled
//! run fails with a diagnosis instead of hanging.
//!
//! `mc` model-checks the reliability session protocol: it exhaustively
//! explores bounded executions of the real `sbc_net::Session` code under
//! all interleavings of deliver/drop/duplicate/reorder on a virtual clock
//! (`--depth`, `--states` bound the search), proves the pre-fix strictly
//! periodic drop gate livelocks — writing the minimal counterexample trace
//! to `--out` — and that the shipped fair-loss gate terminates. Exits
//! nonzero if any invariant fails or the known livelock is *not* found.
//!
//! The resident service family: `serve` keeps a warm mesh answering jobs
//! on `--addr`, `submit` is its batch client (`--stats` appends a live
//! metrics summary scraped after the batch), and `top` is a refreshing
//! text dashboard polling a running service over the same socket
//! (`--interval <secs>`, `--iters <n>`, `--events <n>`, `--once` for a
//! single frame, `--raw` to dump the exposition text verbatim).

use sbc_bench::figures::{self as fig, Scale};
use sbc_bench::{render_csv, render_figure, Figure};
use std::fmt::Display;
use std::str::FromStr;

/// Every flag `paper` knows, with the placeholder of its value (`None` for
/// a switch).
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--full", None),
    ("--csv", None),
    ("--out", Some("<path>")),
    ("--workers", Some("<n>")),
    ("--depth", Some("<n>")),
    ("--states", Some("<n>")),
    ("--nodes", Some("<n>")),
    ("--backend", Some("tcp|uds")),
    ("--nt", Some("<tiles>")),
    ("--block", Some("<b>")),
    ("--faults", Some("drop:N,dup:N,delay:MS")),
    ("--seed", Some("<s>")),
    ("--deadline", Some("<secs>")),
    ("--addr", Some("<path|host:port>")),
    ("--max-inflight", Some("<n>")),
    ("--batch", Some("<n>")),
    ("--prio", Some("<n>")),
    ("--shutdown", None),
    ("--stats", None),
    ("--interval", Some("<secs>")),
    ("--iters", Some("<n>")),
    ("--events", Some("<n>")),
    ("--once", None),
    ("--raw", None),
];

/// The flags of a figure target.
const FIG: &str = "--full --csv";

/// `(name, the flags it takes, run by all, what it does)`, in the order
/// `all` runs them. `all`, the default target, takes its targets' flags.
type Target = (&'static str, &'static str, bool, fn(&Args));

const TARGETS: &[Target] = &[
    ("table1", "", true, |_| table1()),
    ("patterns", "", true, |_| patterns()),
    ("fig7", FIG, true, |a| figure(a, "fig7", fig::fig7)),
    ("fig8", FIG, true, |a| figure(a, "fig8", fig::fig8)),
    ("fig9", FIG, true, |a| figure(a, "fig9", fig::fig9)),
    ("fig10", FIG, true, |a| figure(a, "fig10", fig::fig10)),
    ("fig11", FIG, true, |a| figure(a, "fig11", fig::fig11)),
    ("fig12", FIG, true, |a| figure(a, "fig12", fig::fig12)),
    ("fig13", FIG, true, |a| figure(a, "fig13", fig::fig13)),
    ("fig14", FIG, true, |a| figure(a, "fig14", fig::fig14)),
    ("ablations", FIG, true, |a| {
        figure(a, "ablations", fig::ablations)
    }),
    ("trace", "", true, |_| trace_demo()),
    ("planner", "--full", true, planner_report),
    ("topo", "--full --nodes --nt --block --out", true, topo_run),
    ("obs", "--full --out --workers", true, observed_run),
    // a verification target, not a paper figure
    ("mc", "--depth --states --out", false, mc_run),
    // re-execs this binary once per rank
    (
        "net",
        "--nodes --backend --nt --block --faults --seed --deadline --workers --out",
        false,
        net_run,
    ),
    // `serve` blocks until a client sends Shutdown; `submit` and `top`
    // need a running server
    (
        "serve",
        "--addr --nodes --max-inflight --deadline --workers --out",
        false,
        serve_run,
    ),
    (
        "submit",
        "--addr --nt --block --seed --batch --prio --shutdown --stats",
        false,
        submit_run,
    ),
    (
        "top",
        "--addr --interval --iters --events --once --raw",
        false,
        top_run,
    ),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (target, args) = Args::parse(argv).unwrap_or_else(|e| usage_error(&e));
    for &(name, _, in_all, run) in TARGETS {
        if name == target || (target == "all" && in_all) {
            run(&args);
        }
    }
}

/// A parsed command line: the flags given, each with its value.
struct Args {
    /// The command line as given (`net` re-execs this binary with it).
    argv: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Splits `argv` into a target (`all` when none is named) and its
    /// flags. A second target, an unknown flag, a flag the target does not
    /// take and a flag missing its value are errors.
    fn parse(argv: Vec<String>) -> Result<(&'static str, Args), String> {
        let mut target = None;
        let mut flags = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                if let Some(first) = target.replace(word) {
                    return Err(format!("two targets: '{first}' and '{word}'"));
                }
                continue;
            }
            let &(flag, value) = FLAGS
                .iter()
                .find(|(f, _)| f == word)
                .ok_or_else(|| format!("unknown flag '{word}'"))?;
            let value = match value {
                None => None,
                Some(what) => Some(
                    words
                        .next()
                        .ok_or_else(|| format!("{flag} takes {what}"))?
                        .clone(),
                ),
            };
            flags.push((flag, value));
        }
        let target = target.map_or("all", String::as_str);
        let target = TARGETS
            .iter()
            .map(|t| t.0)
            .chain(["all"])
            .find(|&name| name == target)
            .ok_or_else(|| format!("unknown target '{target}'"))?;
        let takes = |flag: &str| {
            TARGETS.iter().any(|&(name, takes, in_all, _)| {
                (name == target || (target == "all" && in_all))
                    && takes.split_whitespace().any(|f| f == flag)
            })
        };
        if let Some((flag, _)) = flags.iter().find(|(flag, _)| !takes(flag)) {
            return Err(format!("'{target}' does not take {flag}"));
        }
        Ok((target, Args { argv, flags }))
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    /// The value of `flag` read by `parse`; one it refuses is a usage
    /// error.
    fn parsed<T>(&self, flag: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let value = self.raw(flag)?;
        Some(parse(value).unwrap_or_else(|| {
            let what = placeholder(flag).unwrap_or("a value");
            usage_error(&format!("{flag} takes {what}, not '{value}'"))
        }))
    }

    fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.parsed(flag, |v| v.parse().ok())
    }

    fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// The count given by `flag`, if any; one below `min` is a usage
    /// error.
    fn opt_at_least<T: FromStr + PartialOrd + Display>(&self, flag: &str, min: T) -> Option<T> {
        let n = self.opt(flag)?;
        if n < min {
            usage_error(&format!("{flag} must be at least {min}, not {n}"));
        }
        Some(n)
    }

    /// The count given by `flag` (`default` without it); one below `min`
    /// is a usage error.
    fn at_least<T: FromStr + PartialOrd + Display>(&self, flag: &str, default: T, min: T) -> T {
        self.opt_at_least(flag, min).unwrap_or(default)
    }
}

/// The placeholder of `flag`'s value; `None` for a switch.
fn placeholder(flag: &str) -> Option<&'static str> {
    FLAGS.iter().find(|(f, _)| *f == flag).and_then(|f| f.1)
}

/// Prints `msg` and the usage, and exits 2.
fn usage_error(msg: &str) -> ! {
    let mut usage = String::from("usage: paper [target] [flags], target one of:\n");
    for &(name, flags, in_all, _) in TARGETS {
        let mut line = format!("  {name:<10}");
        for flag in flags.split_whitespace() {
            match placeholder(flag) {
                Some(what) => line.push_str(&format!(" [{flag} {what}]")),
                None => line.push_str(&format!(" [{flag}]")),
            }
        }
        if !in_all {
            line.push_str("  (not in all)");
        }
        usage.push_str(line.trim_end());
        usage.push('\n');
    }
    usage.push_str("  all        (the default) every target above not marked otherwise\n");
    eprint!("paper: {msg}\n{usage}");
    std::process::exit(2);
}

/// A figure target: the sweep at `--full` or quick scale, as an aligned
/// text table or, with `--csv`, as CSV.
fn figure(args: &Args, name: &str, f: fn(Scale) -> Figure) {
    let scale = if args.has("--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    eprintln!("running {name} ({scale:?})...");
    let fig = f(scale);
    if args.has("--csv") {
        println!("# {name}\n{}", render_csv(&fig));
    } else {
        println!("{}", render_figure(&fig));
    }
}

/// Table I: the sizes of the considered distributions.
fn table1() {
    println!("== Table I: sizes of the considered distributions ==");
    println!("{}", fig::table1_text());
}

/// `paper mc`: exhaustive model checking of the ARQ session protocol.
///
/// Four bounded explorations, each over the real `Session` state machine
/// on a virtual clock:
///
/// 1. an adversary that drops, duplicates and reorders at will over a
///    2-peer, 3-payload script — every invariant must hold on every
///    reachable interleaving;
/// 2. the send script of an actual tiled Cholesky (whose length equals
///    the analytic `potrf_messages` count) under loss;
/// 3. the pre-fix strictly periodic drop gate — the checker must *find*
///    the phase-locking livelock and emit its minimal trace;
/// 4. the shipped fair-loss gate on the same counters — no livelock, and
///    executions terminate fully delivered.
fn mc_run(args: &Args) {
    use sbc_mc::{check, LossModel, Scenario};
    use sbc_net::FaultConfig;
    use std::time::Instant;

    let depth: usize = args.get("--depth", 12);
    let states: usize = args.get("--states", 100_000);
    let trace_out = args.raw("--out").unwrap_or("mc-counterexample.txt");

    println!("== model checking the ARQ session protocol (depth {depth}, <= {states} states) ==");
    let mut failed = false;
    let mut run = |name: &str, sc: &Scenario, expect_violation: bool| {
        let start = Instant::now();
        let report = check(sc);
        let status = match (&report.violation, expect_violation) {
            (None, false) => "ok",
            (Some(_), true) => "found (expected)",
            (None, true) => {
                failed = true;
                "MISSED EXPECTED VIOLATION"
            }
            (Some(_), false) => {
                failed = true;
                "VIOLATION"
            }
        };
        println!(
            "{name:<26} {status:<26} states {:>7} explored / {:>7} distinct, {:>8} invariant checks, {:>4} terminal, depth {:>2}{}, {:.2?}",
            report.states_explored,
            report.distinct_states,
            report.invariant_checks,
            report.terminal_states,
            report.max_depth_seen,
            if report.truncated { " (truncated)" } else { "" },
            start.elapsed(),
        );
        if let Some(cx) = &report.violation {
            println!("  {}", cx.violation);
            if expect_violation {
                let body = format!("{cx}");
                std::fs::write(trace_out, &body).expect("write counterexample trace");
                println!(
                    "  minimal {}-action counterexample written to {trace_out}",
                    cx.actions.len()
                );
            } else {
                println!("{}", cx.rendered);
            }
        }
        report
    };

    let adversary = Scenario::scripted(2, &[(0, 1), (0, 1), (1, 0)])
        .loss(LossModel::Nondet {
            max_drops: 2,
            max_dups: 1,
            reorder: true,
        })
        .depth(depth)
        .states(states);
    let r1 = run("adversary 2x3", &adversary, false);
    if !r1.truncated {
        println!("  state space closed: every reachable interleaving checked");
    }

    let potrf = Scenario::potrf(&sbc_dist::TwoDBlockCyclic::new(1, 2), 3)
        .loss(LossModel::Nondet {
            max_drops: 1,
            max_dups: 0,
            reorder: false,
        })
        .depth(depth.max(16))
        .states(states);
    run("potrf nt=3 under loss", &potrf, false);

    let periodic = Scenario::scripted(2, &[(0, 1), (0, 1)])
        .loss(LossModel::Periodic {
            drop_every: 2,
            phase: 1,
        })
        .depth(depth.max(20))
        .states(states);
    run("periodic gate (pre-fix)", &periodic, true);

    let fair = Scenario::scripted(2, &[(0, 1), (0, 1)])
        .loss(LossModel::Seeded(FaultConfig {
            drop_every: 2,
            dup_every: 0,
            delay: None,
            max_drops: 3,
            phase: 1,
        }))
        .depth(depth.max(16))
        .states(states);
    let r4 = run("fair-loss gate (shipped)", &fair, false);
    if r4.terminal_states == 0 {
        failed = true;
        println!("  FAIL: the fair gate never let an execution terminate");
    }

    if failed {
        eprintln!("model checking FAILED");
        std::process::exit(1);
    }
    println!("all protocol invariants hold; the known livelock is pinned");
}

/// `paper net`: a real multi-process distributed Cholesky over localhost.
///
/// The root invocation spawns one worker process per remaining rank
/// (`sbc_net::launch` re-execs this binary with the same arguments), every
/// rank executes its share of the POTRF graph over the stream transport,
/// and rank 0 gathers, validates and reports:
///
/// * the factor matches the sequential `potrf_tiled` **bitwise**;
/// * the Cholesky residual is tiny;
/// * the messages/bytes that crossed real sockets equal the analytic
///   schedule-invariant counts of `sbc_dist::comm`;
/// * every rank's Chrome trace (written to `<out>.rank<r>`) merges into one
///   valid timeline at `<out>`, send/recv flow arrows included.
fn net_run(args: &Args) {
    use sbc_dist::{comm, Distribution, SbcExtended, TwoDBlockCyclic};
    use sbc_matrix::{cholesky_residual, potrf_tiled, random_spd};
    use sbc_net::{
        launch, wait_children, Backend, FaultConfig, Faulty, Role, Session, SessionEventKind,
        Transport,
    };
    use sbc_obs::{chrome_trace, json, merge_chrome_traces, FaultKind, Recorder};
    use sbc_runtime::Run;
    use std::time::Duration;

    let nodes = args.at_least("--nodes", 4, 1);
    let backend = args
        .parsed("--backend", Backend::parse)
        .unwrap_or(Backend::Tcp);
    let nt = args.at_least("--nt", 12, 1);
    let b = args.at_least("--block", 8, 1);
    let faults = args.parsed("--faults", |v| FaultConfig::parse(v).ok());
    let fault_seed: u64 = args.get("--seed", 42);
    let deadline: Option<f64> = args.opt("--deadline");
    let workers = args.opt_at_least("--workers", 1);
    let out_path = args.raw("--out").unwrap_or("obs-trace.json");
    let seed = 2022u64;

    // The distribution is a pure function of the rank count, so every
    // process derives the same one: SBC when P is triangular, else the
    // squarest 2DBC grid.
    let dist: Box<dyn Distribution> = match (2..=64).find(|r| r * (r - 1) / 2 == nodes) {
        Some(r) => Box::new(SbcExtended::new(r)),
        None => {
            let p = (1..=nodes)
                .filter(|p| nodes.is_multiple_of(*p))
                .fold(1, |best, p| if p <= nodes / p { p.max(best) } else { best });
            Box::new(TwoDBlockCyclic::new(p, nodes / p))
        }
    };

    let role = launch(nodes, backend, &args.argv).expect("failed to form the process mesh");
    let (raw, children) = match role {
        Role::Root { net, children } => (net, Some(children)),
        Role::Worker { net } => (net, None),
    };
    let rank = raw.rank();

    // With --faults the raw endpoint becomes lossy and a reliability
    // session recovers on top of it; the run below must behave exactly as
    // if the network were perfect.
    let mut session = None;
    let mut plain = None;
    let net: &dyn Transport = match faults {
        Some(mut cfg) => {
            // per-rank phase: the same seed reproduces the same global
            // schedule, but each rank's drops hit different sends
            cfg.phase = fault_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(rank as u64);
            &*session.insert(Session::new(Faulty::new(raw, cfg)))
        }
        None => &*plain.insert(raw),
    };

    let recorder = Recorder::new();
    let mut run = Run::potrf(&dist.as_ref(), nt)
        .block(b)
        .seed(seed)
        .recorder(&recorder);
    if let Some(w) = workers {
        run = run.workers(w);
    }
    if let Some(d) = deadline {
        run = run.deadline(Duration::from_secs_f64(d));
    }
    let out = run.execute_rank(net).expect("distributed execution failed");
    let wire = net.stats();
    if let Some(s) = &session {
        // reliability incidents into this rank's trace as fault spans
        let mut h = recorder.node(rank);
        for ev in s.take_events() {
            let kind = match ev.kind {
                SessionEventKind::Retransmit => FaultKind::Retransmit,
                SessionEventKind::AckRtt => FaultKind::AckRtt,
            };
            h.fault(kind, recorder.time_of(ev.start), recorder.time_of(ev.end));
        }
    }
    let trace = chrome_trace(&recorder.drain());
    let rank_path = format!("{out_path}.rank{rank}");
    std::fs::write(&rank_path, &trace).expect("failed to write the rank trace");

    let Some(mut children) = children else {
        return; // worker ranks are done once their trace is on disk
    };
    let out = out.expect("rank 0 gathers the outcome");
    println!(
        "== net: POTRF nt={nt} b={b} over {nodes} {} processes ({}) ==",
        backend.name(),
        dist.name()
    );

    // wire accounting vs the analytic schedule-invariant counts
    let analytic = comm::potrf_messages(&dist.as_ref(), nt);
    assert_eq!(out.stats.messages, analytic, "message count drifted");
    assert_eq!(
        out.stats.bytes,
        comm::messages_to_bytes(analytic, b),
        "byte count drifted"
    );
    println!(
        "wire traffic: {} messages, {} bytes — equal to the analytic counts",
        out.stats.messages, out.stats.bytes
    );
    if faults.is_some() {
        println!(
            "reliability (rank 0 endpoint): {} retransmits ({} bytes), {} control frames \
             ({} bytes) — recovered, excluded from the payload accounting above",
            wire.retrans_messages, wire.retrans_bytes, wire.control_messages, wire.control_bytes
        );
    }

    // bitwise equality with the sequential factorization + residual
    let mut seq = random_spd(seed, nt, b);
    potrf_tiled(&mut seq).expect("sequential factorization failed");
    for (i, j) in seq.tile_coords() {
        assert_eq!(
            out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
            0.0,
            "tile ({i},{j}) differs from the sequential factor"
        );
    }
    let residual = cholesky_residual(&random_spd(seed, nt, b), out.factor());
    assert!(residual < 1e-12, "residual {residual:e} too large");
    println!("factor: bitwise equal to sequential, residual {residual:.3e}");

    // reap the workers, then merge every rank's trace into one timeline
    let clean = wait_children(&mut children).expect("failed to wait for workers");
    assert!(clean, "a worker process exited with failure");
    let rank_traces: Vec<String> = (0..nodes)
        .map(|r| {
            std::fs::read_to_string(format!("{out_path}.rank{r}")).expect("a rank trace is missing")
        })
        .collect();
    let merged = merge_chrome_traces(&rank_traces);
    json::validate(&merged).expect("merged chrome trace must be valid JSON");
    std::fs::write(out_path, &merged).expect("failed to write the merged trace");
    println!(
        "chrome trace: {out_path} ({} bytes, {nodes} rank files merged) — load in Perfetto",
        merged.len()
    );
}

/// `paper serve`: the resident factorization service. Binds `--addr` (a
/// socket path or `host:port`), keeps `--nodes` rank engines and the plan
/// cache warm, and streams jobs submitted by `paper submit` processes
/// until one of them sends a shutdown. On exit prints the jobs/sec
/// throughput and the metrics registry and writes the per-job Chrome trace
/// to `--out`.
fn serve_run(args: &Args) {
    use sbc_serve::{serve, ServeConfig, Service};
    use std::sync::Arc;
    use std::time::Duration;

    let addr = args.raw("--addr").unwrap_or("/tmp/sbc-serve.sock");
    let out_path = args.raw("--out").unwrap_or("obs-trace.json");
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        nodes: args.at_least("--nodes", defaults.nodes, 1),
        max_inflight: args.get("--max-inflight", defaults.max_inflight),
        deadline: args
            .opt("--deadline")
            .map(Duration::from_secs_f64)
            .or(defaults.deadline),
        workers: args.at_least("--workers", defaults.workers, 1),
        ..defaults
    };
    let service = Service::start(cfg);
    println!(
        "== serve: resident factorization service on {addr} ({} nodes, {} workers/node, max {} jobs in flight) ==",
        cfg.nodes, cfg.workers, cfg.max_inflight
    );
    serve(Arc::clone(&service), addr).expect("service failed");

    let jobs = service.completed();
    let jps = service.jobs_per_sec();
    println!("drained: {jobs} jobs served, {jps:.2} jobs/sec");
    println!("{}", service.metrics().snapshot().render());
    let trace = service.chrome_trace();
    std::fs::write(out_path, &trace).expect("failed to write the per-job trace");
    println!("per-job chrome trace: {out_path} ({} bytes)", trace.len());
}

/// `paper submit`: a client process of a running `paper serve`. Submits a
/// batch of POTRF jobs, validates every returned factor bit-for-bit
/// against the sequential algorithm, prints per-job stats, and exits
/// non-zero if anything was rejected, failed or mismatched. `--shutdown`
/// asks the service to drain and exit afterwards.
fn submit_run(args: &Args) {
    use sbc_serve::{factor_matches, Client, JobReply, JobRequest};

    let addr = args.raw("--addr").unwrap_or("/tmp/sbc-serve.sock");
    let nt = args.at_least("--nt", 10, 1);
    let b = args.at_least("--block", 8, 1);
    let seed: u64 = args.get("--seed", 2022);
    let batch: u32 = args.at_least("--batch", 1, 1);
    let prio: u8 = args.get("--prio", 0);
    let shutdown = args.has("--shutdown");
    let stats = args.has("--stats");

    let mut client =
        Client::connect(addr).expect("connect to the service (is `paper serve` running?)");
    let request = JobRequest {
        nt,
        b,
        seed,
        seed_rhs: seed ^ 0x5EED,
        prio,
        batch,
    };
    let replies = client.submit(&request).expect("submission failed");
    let mut bad = 0;
    for (k, reply) in replies.iter().enumerate() {
        match reply {
            JobReply::Done {
                messages,
                bytes,
                elapsed,
                plan_cached,
                tiles,
            } => {
                let ok = factor_matches(tiles, nt, b, seed + k as u64);
                if !ok {
                    bad += 1;
                }
                println!(
                    "job {k} (nt={nt} b={b} seed={}): {messages} messages, {bytes} bytes, \
                     {elapsed:?}, plan {}, factor {}",
                    seed + k as u64,
                    if *plan_cached { "cached" } else { "computed" },
                    if ok { "bit-exact" } else { "MISMATCH" },
                );
            }
            JobReply::Rejected(info) => {
                bad += 1;
                println!("job {k}: rejected — {info}");
            }
            JobReply::Failed(info) => {
                bad += 1;
                println!("job {k}: failed — {info}");
            }
        }
    }
    if stats {
        let snap = client.stats().expect("stats scrape failed");
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        println!(
            "service: {} done / {} submitted ({} rejected, {} failed), drift ok={} msg={} bytes={}",
            c("serve.jobs.done"),
            c("serve.jobs.submitted"),
            c("serve.jobs.rejected"),
            c("serve.jobs.failed"),
            c("obs.drift.ok"),
            c("obs.drift.messages"),
            c("obs.drift.bytes"),
        );
        if let Some(h) = snap.histogram("serve.job.latency") {
            println!(
                "latency: {} jobs, mean {:.4}s, min {:.4}s, max {:.4}s",
                h.count,
                h.mean(),
                h.min,
                h.max
            );
        }
    }
    if shutdown {
        client.shutdown().expect("shutdown request failed");
        println!("shutdown requested");
    }
    if bad > 0 {
        eprintln!("{bad} of {} jobs did not validate", replies.len());
        std::process::exit(1);
    }
}

/// `paper top`: a live text dashboard over a running `paper serve`.
/// Scrapes the service's metrics and event tail over the wire every
/// `--interval` seconds and redraws; the scrape path is answered from
/// atomic snapshots, so watching a service does not slow it down.
/// `--iters <n>` stops after n frames (0 = until interrupted), `--once`
/// prints a single frame without clearing the screen, `--raw` dumps the
/// Prometheus-style exposition text verbatim and exits (the form CI
/// archives and external scrapers ingest).
fn top_run(args: &Args) {
    use sbc_obs::MetricsSnapshot;
    use sbc_serve::Client;
    use std::io::Write as _;
    use std::time::{Duration, Instant};

    let addr = args.raw("--addr").unwrap_or("/tmp/sbc-serve.sock");
    let interval: f64 = args.get("--interval", 1.0);
    let iters: u64 = args.get("--iters", 0);
    let events_shown: u32 = args.get("--events", 8);
    let once = args.has("--once");
    let raw = args.has("--raw");

    let mut client =
        Client::connect(addr).expect("connect to the service (is `paper serve` running?)");
    // a monitor whose reader went away (`paper top | head`) exits
    // quietly instead of panicking on the broken pipe
    let mut emit = {
        let mut stdout = std::io::stdout();
        move |s: &str| write!(stdout, "{s}").and_then(|()| stdout.flush()).is_ok()
    };
    if raw {
        emit(&client.stats_text().expect("stats scrape failed mid-run"));
        return;
    }

    let mut prev: Option<(MetricsSnapshot, Instant)> = None;
    let mut frame = 0u64;
    loop {
        let snap = client.stats().expect("stats scrape failed mid-run");
        let events = client
            .events(events_shown)
            .expect("event scrape failed mid-run");
        let now = Instant::now();
        frame += 1;
        if !once && frame > 1 {
            // redraw in place between frames; the first frame scrolls
            if !emit("\x1b[2J\x1b[H") {
                return;
            }
        }
        if !emit(&render_top(addr, frame, &snap, prev.as_ref(), &events)) {
            return;
        }
        prev = Some((snap, now));
        if once || (iters > 0 && frame >= iters) {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.01)));
    }
}

/// One `paper top` frame: throughput, admission counters, plan-cache hit
/// rate, drift status, latency, per-rank engine gauges and the event tail.
fn render_top(
    addr: &str,
    frame: u64,
    snap: &sbc_obs::MetricsSnapshot,
    prev: Option<&(sbc_obs::MetricsSnapshot, std::time::Instant)>,
    events: &[sbc_serve::EventRecord],
) -> String {
    use sbc_obs::{EventKind, Severity};
    use std::fmt::Write as _;

    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let g = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    };

    let mut out = String::new();
    let _ = writeln!(out, "== sbc-serve @ {addr} — frame {frame} ==");

    // the window rate comes straight off the refreshed gauge; the
    // scrape-to-scrape rate is a counter delta over the poll interval
    let window_rate = g("serve.jobs_per_sec").unwrap_or(0.0);
    let scrape_rate = prev.map(|(p, t)| {
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        snap.delta(p).counter("serve.jobs.done").unwrap_or(0) as f64 / secs
    });
    match scrape_rate {
        Some(r) => {
            let _ = writeln!(
                out,
                "throughput: {window_rate:.2} jobs/s (window), {r:.2} jobs/s since last frame"
            );
        }
        None => {
            let _ = writeln!(out, "throughput: {window_rate:.2} jobs/s (window)");
        }
    }
    let _ = writeln!(
        out,
        "jobs: {} done, {} in flight, {} submitted, {} rejected, {} failed",
        c("serve.jobs.done"),
        g("serve.jobs.inflight").unwrap_or(0.0) as u64,
        c("serve.jobs.submitted"),
        c("serve.jobs.rejected"),
        c("serve.jobs.failed"),
    );
    let (hit, miss) = (c("planner.cache.hit"), c("planner.cache.miss"));
    if hit + miss > 0 {
        let _ = writeln!(
            out,
            "plan cache: {:.0}% hit ({hit} hit / {miss} miss)",
            100.0 * hit as f64 / (hit + miss) as f64
        );
    }
    let (dm, db) = (c("obs.drift.messages"), c("obs.drift.bytes"));
    let _ = writeln!(
        out,
        "comm drift: {} ok, {dm} message drifts, {db} byte drifts  [{}]",
        c("obs.drift.ok"),
        if dm + db == 0 { "CLEAN" } else { "DRIFTING" },
    );
    if let Some(h) = snap.histogram("serve.job.latency") {
        if h.count > 0 {
            let _ = writeln!(
                out,
                "latency: {} jobs, mean {:.4}s, min {:.4}s, max {:.4}s",
                h.count,
                h.mean(),
                h.min,
                h.max
            );
        }
    }

    // per-rank engine gauges, as long as consecutive ranks are registered
    let mut ranks = String::new();
    for r in 0.. {
        let Some(ready) = g(&format!("jobs.rank{r}.ready")) else {
            break;
        };
        let _ = writeln!(
            ranks,
            "  rank {r}: ready {:>4}  inflight {:>3}  busy {:>5.1}%",
            ready as u64,
            g(&format!("jobs.rank{r}.inflight")).unwrap_or(0.0) as u64,
            100.0 * g(&format!("jobs.rank{r}.busy")).unwrap_or(0.0),
        );
    }
    if !ranks.is_empty() {
        let _ = writeln!(out, "engines:");
        out.push_str(&ranks);
    }

    if !events.is_empty() {
        let _ = writeln!(out, "events (newest last):");
        for e in events {
            let sev = Severity::from_code(e.severity).map_or("?????", Severity::name);
            let kind = EventKind::from_code(e.kind).map_or("?", EventKind::name);
            let job = if e.job == u32::MAX {
                "-".to_string()
            } else {
                format!("#{}", e.job)
            };
            let _ = writeln!(
                out,
                "  {:>9.3}s [{sev:<5}] {kind:<8} job {job:<6} {}",
                e.t, e.detail
            );
        }
    }
    out
}

/// The observability pipeline end to end: plan a POTRF, execute it on the
/// real threaded runtime with a recorder attached, then emit every export
/// `sbc-obs` offers — Chrome trace (open in Perfetto / chrome://tracing),
/// measured Gantt, metrics report, and the planner's drift report.
fn observed_run(args: &Args) {
    use sbc_obs::{
        chrome_trace, json, metrics_from_recording, render_gantt, task_spans, ExecProfile, Recorder,
    };
    use sbc_planner::{Op, Planner};
    use sbc_runtime::Run;
    use sbc_simgrid::Platform;

    let out_path = args.raw("--out").unwrap_or("obs-trace.json");
    let workers = args.opt_at_least("--workers", 1);
    let (nt, b) = if args.has("--full") {
        (40, 64)
    } else {
        (20, 32)
    };
    let p = 10;
    println!("== Observed run: POTRF nt={nt} b={b} on {p} virtual nodes ==");

    let planner = Planner::new(Platform::bora(p));
    let plan = planner.plan(Op::Potrf, nt, b);
    println!("plan: {}", plan.choice.describe());
    if let Some(w) = workers {
        println!("workers per node: {w}");
    }

    let recorder = Recorder::new();
    let mut run = Run::plan(&plan).seed(0xB10C).recorder(&recorder);
    if let Some(w) = workers {
        run = run.workers(w);
    }
    let outcome = run.execute().expect("distributed execution failed");
    let recording = recorder.drain();
    let nodes = recording.nodes();

    let trace_json = chrome_trace(&recording);
    json::validate(&trace_json).expect("chrome trace must be valid JSON");
    std::fs::write(out_path, &trace_json).expect("failed to write trace file");
    println!(
        "chrome trace: {out_path} ({} bytes, {} events over {nodes} nodes) — load in Perfetto or chrome://tracing",
        trace_json.len(),
        recording.events.len(),
    );

    println!("\nmeasured per-node occupancy:");
    let spans = task_spans(&recording);
    print!("{}", render_gantt(&spans, nodes, 1, 72));

    let profile = ExecProfile::from_recording(&recording);
    println!(
        "\n{}",
        metrics_from_recording(&recording).snapshot().render()
    );

    let report = sbc_planner::compare(&plan, &profile);
    print!("{}", report.render());
    assert_eq!(outcome.stats.messages, profile.messages);
}

/// `paper topo`: the {topology × scheduler × distribution} sweep.
///
/// Simulates a POTRF under every combination of (single-switch, mildly and
/// heavily oversubscribed 2-rack topologies) × (the `sbc-topo` scheduler
/// zoo) × (the best-fitting SBC, the squarest 2DBC, and a rack-local SBC),
/// then prints the deterministic Pareto report of (makespan, cross-rack
/// bytes) against the analytic lower bound, followed by the flat-vs-
/// topology-aware planner comparison. `--nodes`, `--nt`, `--block` resize
/// the sweep; `--out <path>` additionally writes the report to a file
/// (the CI determinism check compares two such files byte-for-byte).
fn topo_run(args: &Args) {
    use sbc_dist::table1;
    use sbc_planner::{DistChoice, Op, Planner};
    use sbc_simgrid::{Platform, SimConfig, Simulator};
    use sbc_taskgraph::priority::critical_path_length;
    use sbc_topo::{render_report, zoo, SweepPoint, Topology};

    let nodes = args.at_least("--nodes", 12, 2);
    let nt = args.at_least("--nt", if args.has("--full") { 40 } else { 24 }, 1);
    let b = args.at_least("--block", 500, 1);
    let out = args.raw("--out");

    let platform = Platform::bora(nodes);
    let topologies: Vec<Topology> = vec![
        platform.single_switch_topology(),
        platform.rack_topology(2, 4.0),
        platform.rack_topology(2, 32.0),
    ];

    // Distributions: the largest fitting extended SBC, the squarest 2DBC,
    // and the largest SBC fitting inside one rack (zero cross-rack traffic
    // under the identity host mapping).
    let largest_sbc = |budget: usize| {
        (3..)
            .take_while(|r| r * (r - 1) / 2 <= budget)
            .last()
            .map(|r| DistChoice::SbcExtended { r })
    };
    let mut dists: Vec<DistChoice> = Vec::new();
    if let Some(d) = largest_sbc(nodes) {
        dists.push(d);
    }
    let (p, q) = table1::best_grid(nodes);
    dists.push(DistChoice::TwoDbc { p, q });
    if let Some(d) = largest_sbc(nodes.div_ceil(2)) {
        if !dists.contains(&d) {
            dists.push(d);
        }
    }

    let schedulers = zoo();
    let mut points = Vec::new();
    for topo in &topologies {
        for dist in &dists {
            let graph = dist.graph(Op::Potrf, nt);
            let used = dist.nodes_used();
            let flop_bound =
                graph.total_flops(b) / (used as f64 * platform.node_peak_gflops() * 1e9);
            let cp_bound = critical_path_length(&graph, |t| platform.task_seconds(&t.kind, b));
            let lower_bound = flop_bound.max(cp_bound);
            for sched in &schedulers {
                let report =
                    Simulator::with_topology(&graph, &platform, SimConfig::chameleon(b), topo)
                        .with_scheduler(sched.as_ref())
                        .run();
                points.push(SweepPoint {
                    topology: topo.name().to_string(),
                    scheduler: sched.name().to_string(),
                    distribution: dist.describe(),
                    makespan: report.makespan,
                    messages: report.messages,
                    bytes: report.bytes,
                    cross_rack_messages: report.cross_rack_messages,
                    cross_rack_bytes: report.cross_rack_bytes,
                    lower_bound,
                });
            }
        }
    }

    let mut text = render_report(
        &format!("paper topo: POTRF nt={nt} b={b} on {nodes} bora nodes"),
        &points,
    );

    // Flat vs topology-aware planner ranking on the most oversubscribed
    // topology, with the simulator as referee.
    let racks = platform.rack_topology(2, 32.0);
    let flat_planner = Planner::new(platform.clone());
    let topo_planner = Planner::new(platform.clone()).with_topology(racks);
    let flat_pick = flat_planner.plan(Op::Potrf, nt, b).choice;
    let topo_pick = topo_planner.plan(Op::Potrf, nt, b).choice;
    let sim_on_racks = |choice: DistChoice| topo_planner.simulate(choice, Op::Potrf, nt, b);
    text.push_str("\n-- planner: flat vs topology-aware (2 racks, 32x oversubscribed) --\n");
    text.push_str(&format!(
        "flat model picks {:28} simulated on racks: {:.6}s\n",
        flat_pick.describe(),
        sim_on_racks(flat_pick).makespan
    ));
    text.push_str(&format!(
        "topo model picks {:28} simulated on racks: {:.6}s\n",
        topo_pick.describe(),
        sim_on_racks(topo_pick).makespan
    ));

    print!("{text}");
    if let Some(path) = out {
        std::fs::write(path, &text).expect("failed to write the topo report");
        eprintln!("topo report written to {path}");
    }
}

/// The `sbc-planner` subsystem vs. the paper: for each operation and node
/// count, print the automatically chosen distribution next to the winner
/// the paper reports in Figs 9-12 and Table I.
fn planner_report(args: &Args) {
    use sbc_planner::{DistChoice, Op, Planner};
    use sbc_simgrid::Platform;

    let b = 500;
    let nt = if args.has("--full") { 200 } else { 100 };
    println!(
        "== Planner: automatic distribution choice, n = {} (b = {b}) ==",
        nt * b
    );
    println!(
        "{:>4}  {:6}  {:30}  {:24}  agrees",
        "P", "op", "chosen plan", "paper winner"
    );

    // The paper's qualitative winners: SBC for the symmetric factorizations
    // (Fig 9/10), 2DBC for TRTRI and LU (Fig 12, Section VI), the remap
    // strategy for POTRI (Fig 12), SBC for POSV (Fig 11).
    let paper_family = |op: Op| match op {
        Op::Potrf | Op::Posv | Op::Lauum => "SBC",
        Op::Trtri | Op::Lu => "2DBC",
        Op::Potri => "SBC remap 2DBC",
    };
    let family = |c: DistChoice| match c {
        DistChoice::TwoDbc { .. } | DistChoice::TwoFiveDBc { .. } => "2DBC",
        DistChoice::SbcBasic { .. }
        | DistChoice::SbcExtended { .. }
        | DistChoice::TwoFiveDSbc { .. } => "SBC",
        DistChoice::PotriRemap { .. } => "SBC remap 2DBC",
    };

    for p in [15usize, 21, 28, 36] {
        let planner = Planner::new(Platform::bora(p));
        for op in Op::ALL {
            let plan = planner.plan(op, nt, b);
            let expected = paper_family(op);
            let got = family(plan.choice);
            println!(
                "{p:>4}  {:6}  {:30}  {:24}  {}",
                op.name(),
                plan.choice.describe(),
                expected,
                if got == expected { "yes" } else { "NO" },
            );
        }
    }

    println!();
    println!("POTRF candidate ranking at P = 28 (model seconds, fewer is better):");
    let planner = Planner::new(Platform::bora(28));
    for (choice, cost) in planner.scored_candidates(Op::Potrf, nt, b).iter().take(6) {
        println!(
            "  {:30} messages = {:>8}  comm = {:>7.3}s  compute = {:>7.3}s  total = {:>7.3}s",
            choice.describe(),
            cost.messages,
            cost.comm_seconds,
            cost.compute_seconds,
            cost.total_seconds
        );
    }
}

/// Gantt strips of a small POTRF under SBC vs 2DBC: visualizes where the
/// communication-induced idle time sits.
fn trace_demo() {
    use sbc_dist::{SbcExtended, TwoDBlockCyclic};
    use sbc_simgrid::{render_gantt, Platform, SimConfig, Simulator};
    use sbc_taskgraph::build_potrf;

    println!("== Trace: per-node worker occupancy, POTRF nt=40, P=15 ==");
    let p = Platform::bora(15);
    for (name, g) in [
        ("SBC r=6".to_string(), build_potrf(&SbcExtended::new(6), 40)),
        (
            "2DBC 5x3".to_string(),
            build_potrf(&TwoDBlockCyclic::new(5, 3), 40),
        ),
    ] {
        let (report, trace) = Simulator::new(&g, &p, SimConfig::chameleon(500)).run_traced();
        println!(
            "{name}: makespan {:.3}s, util {:.0}%",
            report.makespan,
            100.0 * report.utilization()
        );
        println!("{}", render_gantt(&trace, 15, p.cores_per_node, 72));
    }
}

/// Figures 1-6: the distribution patterns, as ASCII.
fn patterns() {
    use sbc_dist::sbc::pair_of;
    use sbc_dist::{Distribution, SbcBasic, SbcExtended, TwoDBlockCyclic};

    println!("== Figs 1-6: distribution patterns ==");
    let bc = TwoDBlockCyclic::new(2, 3);
    println!("Fig 1 — 2DBC 2x3 pattern (node(i,j) = (i mod 2)*3 + (j mod 3)):");
    for i in 0..2 {
        print!(" ");
        for j in 0..3 {
            // owner() is defined on the lower triangle; the pattern cell
            // (i, j) equals owner(i + 2k, j) for any row congruent to i
            // below the diagonal — use a row deep enough to be below j.
            print!(" {}", bc.owner(i + 4, j));
        }
        println!();
    }

    println!("\nFig 2/3 — basic SBC r=4 pattern (P = 8, diagonal nodes 6,7):");
    let basic = SbcBasic::new(4);
    for i in 0..4 {
        print!(" ");
        for j in 0..4 {
            let o = if j <= i {
                basic.owner(i, j)
            } else {
                basic.owner(j, i)
            };
            print!(" {o}");
        }
        println!();
    }

    for r in [5usize, 6] {
        let d = SbcExtended::new(r);
        println!(
            "\nFig {} — extended SBC r={r}: P={} with {} diagonal patterns:",
            if r == 5 { "4" } else { "5" },
            d.num_nodes(),
            d.diagonal_patterns().len()
        );
        for (i, pat) in d.diagonal_patterns().iter().enumerate() {
            let pretty: Vec<String> = pat
                .iter()
                .map(|&n| {
                    let (x, y) = pair_of(n);
                    format!("{n}{{{x},{y}}}")
                })
                .collect();
            println!("  diag pattern {i}: [{}]", pretty.join(", "));
        }
    }

    println!("\nFig 6 — extended SBC r=4 over 12x12 tiles (lower triangle):");
    let d = SbcExtended::new(4);
    for i in 0..12 {
        print!(" ");
        for j in 0..=i {
            print!(" {}", d.owner(i, j));
        }
        println!();
    }
    println!();
}
