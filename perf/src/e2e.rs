//! The untraced pass: what a user of `Run` or of `sbc-serve` sees.

use crate::host::{peak_rss_mb, SocketDir};
use crate::json::Value;
use crate::metrics::Metrics;
use crate::ops::{
    check_run, expect, factorize, job_stream, matrix_seeds, references, rep_stream, Config, Gate,
    Kind, Mix, Workload, CLIENTS, POOL, SERVE_POOL,
};
use crate::probe::Probe;
use crate::served::{closed_loop, jobs_per_second, warm_start, Pools, Sample};
use crate::stats::{median, tail};
use sbc_serve::ServeConfig;
use std::process::Command;
use std::time::Instant;

/// Fresh processes whose set-up is measured (`setup_s` is their median): at
/// least `.0`, then more while fewer than `.1` seconds have gone into them,
/// at most `.2`. One cold start is one sample of a wide distribution, so a
/// fast workload gets many.
pub const COLD_STARTS: (usize, f64, usize) = (5, 3.0, 31);

/// What one run produced, whichever pass it was.
pub struct Report {
    pub metrics: Metrics,
    pub gate: Gate,
    /// Sample counts and the percentiles actually reported.
    pub details: Value,
}

/// Program set-up, once, in this (fresh) process: everything up to and
/// including the first operation. The first cold factorization — with its
/// mesh connect on `potrf-wire` — or service start, bind, client connects
/// and the first job of each shape. Harness work (reference factors) is
/// outside the clock.
pub fn cold_setup(workload: &Workload, seed: u64, sockets: &SocketDir) -> Result<f64, String> {
    match workload.kind {
        Kind::Potrf(cfg) => {
            let matrix_seed = matrix_seeds(seed, 0, POOL)[0];
            Ok(factorize(&cfg, matrix_seed, None)?.secs)
        }
        Kind::Serve(mix) => {
            let pools = Pools::prepare(mix, seed, &ServeConfig::default(), 1)?;
            let warm = warm_start(sockets.socket("serve.sock"), &pools, &mut Gate::default())?;
            let secs = warm.setup_secs;
            drop(warm.clients);
            warm.served.stop()?;
            Ok(secs)
        }
    }
}

/// Seconds one round of the served closed loop lasts: the clients pause
/// between rounds, and the host probe is sampled while no job is in flight.
const ROUND_SECONDS: f64 = 0.5;

/// `setup_s`: the median of [`cold_setup`] over several fresh child
/// processes of this executable, run one after another, each corrected by
/// the host probe sampled between them. Also returns their count.
fn setup_seconds(
    workload: &Workload,
    seed: u64,
    (at_least, budget, at_most): (usize, f64, usize),
    sockets: &SocketDir,
    probe: &mut Probe,
) -> Result<(f64, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let clock = Instant::now();
    let (mut secs, mut slots) = (Vec::new(), Vec::new());
    while secs.len() < at_least || (secs.len() < at_most && clock.elapsed().as_secs_f64() < budget)
    {
        slots.push(probe.sample());
        let out = Command::new(&exe)
            .args([
                "cold",
                "--workload",
                workload.name,
                "--seed",
                &seed.to_string(),
            ])
            .arg("--out")
            .arg(sockets.out())
            .output()
            .map_err(|e| format!("cold start: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        secs.push(value.ok_or_else(|| {
            format!(
                "cold start failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?);
    }
    probe.sample();
    Ok((median(&corrected(&secs, &slots, probe)), secs.len()))
}

/// Each of `secs` as the undisturbed host would have run it: scaled by the
/// probe's correction for the slot it ran in.
fn corrected(secs: &[f64], slots: &[usize], probe: &Probe) -> Vec<f64> {
    secs.iter()
        .zip(slots)
        .map(|(s, &slot)| s * probe.correction(slot))
        .collect()
}

/// How the host was over the run, for the record.
fn host_details(probe: &Probe, raw: &[f64]) -> [(&'static str, Value); 3] {
    [
        ("op_raw_s", Value::Num(median(raw))),
        (
            "host_probe_samples",
            Value::Num(probe.samples().len() as f64),
        ),
        ("host_probe_median_s", Value::Num(probe.typical())),
    ]
}

pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    cold_starts: (usize, f64, usize),
    sockets: &SocketDir,
) -> Result<Report, String> {
    let mut probe = Probe::default();
    let (setup, cold_count) = setup_seconds(workload, seed, cold_starts, sockets, &mut probe)?;
    let mut report = match workload.kind {
        Kind::Potrf(cfg) => potrf(&cfg, seed, seconds, &mut probe)?,
        Kind::Serve(mix) => serve(mix, seed, seconds, sockets, &mut probe)?,
    };
    report.metrics.set("setup_s", setup);
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    if let Value::Obj(details) = &mut report.details {
        details.push(("cold_starts".to_string(), Value::Num(cold_count as f64)));
    }
    Ok(report)
}

fn potrf(cfg: &Config, seed: u64, seconds: f64, probe: &mut Probe) -> Result<Report, String> {
    let seeds = matrix_seeds(seed, 0, POOL);
    let references = references(cfg.shape, &seeds)?;
    let want = expect(cfg.dist, cfg.shape);
    let mut gate = Gate::default();
    let mut comm_bytes = 0;

    // caches fill and lazy set-up finishes before timing: two untimed,
    // gated factorizations, then as many timed ones as fit in `seconds`,
    // the host probe sampled after each
    let clock = Instant::now();
    let (mut secs, mut slots) = (Vec::new(), Vec::new());
    let mut slot = probe.sample();
    for (rep, k) in rep_stream(seed).enumerate() {
        let timed = rep >= 2;
        if timed && clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
        match factorize(cfg, seeds[k], None) {
            Ok(outcome) => {
                gate.record(check_run(&outcome.output, &references[k], &want));
                comm_bytes = outcome.output.stats.bytes;
                if timed {
                    secs.push(outcome.secs);
                    slots.push(slot);
                }
            }
            Err(why) => gate.record(Err(why)),
        }
        slot = probe.sample();
    }
    if secs.is_empty() {
        return Err(format!(
            "no factorization completed: {:?}",
            gate.first_failure
        ));
    }

    let raw = secs;
    let secs = corrected(&raw, &slots, probe);
    let p90 = tail(&secs, 0.9);
    let op_s = median(&secs);
    let mut metrics = Metrics::default();
    metrics.set("op_s", op_s);
    metrics.set("gflops", cfg.shape.flops() / op_s / 1e9);
    metrics.set("comm_bytes", comm_bytes as f64);
    let details = [
        ("timed_ops", Value::Num(secs.len() as f64)),
        (
            "ops_per_s",
            Value::Num(secs.len() as f64 / secs.iter().sum::<f64>()),
        ),
        ("op_p90_s", Value::Num(p90.value)),
        ("op_p90_s_percentile", Value::Num(p90.percentile)),
    ];
    Ok(Report {
        metrics,
        gate,
        details: Value::obj(details.into_iter().chain(host_details(probe, &raw))),
    })
}

fn serve(
    mix: Mix,
    seed: u64,
    seconds: f64,
    sockets: &SocketDir,
    probe: &mut Probe,
) -> Result<Report, String> {
    let pools = Pools::prepare(mix, seed, &ServeConfig::default(), SERVE_POOL)?;
    let mut gate = Gate::default();
    // set-up and the first job of each shape are outside the timed window
    let mut warm = warm_start(sockets.socket("serve.sock"), &pools, &mut gate)?;
    let comm_bytes: u64 = warm.first_jobs.iter().map(|s| s.bytes).sum();

    // the closed loop in rounds, the host probe sampled between them
    let mut streams: Vec<_> = (0..CLIENTS).map(|c| job_stream(seed, c)).collect();
    let mut rounds = Vec::new();
    let clock = Instant::now();
    let mut slot = probe.sample();
    while clock.elapsed().as_secs_f64() < seconds {
        let per_client = closed_loop(
            &mut warm.clients,
            &mut streams,
            &pools,
            ROUND_SECONDS,
            &mut gate,
        );
        rounds.push((slot, per_client));
        slot = probe.sample();
    }
    drop(warm.clients);
    warm.served.stop()?;

    // every job's latency corrected by the probe samples around its round
    let mut per_client = vec![Vec::new(); CLIENTS];
    let mut raw = Vec::new();
    for (slot, round) in rounds {
        let correction = probe.correction(slot);
        for (all, new) in per_client.iter_mut().zip(round) {
            raw.extend(new.iter().map(|s| s.latency));
            all.extend(new.into_iter().map(|s| Sample {
                latency: s.latency * correction,
                ..s
            }));
        }
    }
    let samples: Vec<Sample> = per_client.iter().flatten().copied().collect();
    if samples.is_empty() {
        return Err(format!("no job completed: {:?}", gate.first_failure));
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let p90 = tail(&latencies, 0.9);
    let jobs_per_s = jobs_per_second(&per_client);
    let mean_flops = samples
        .iter()
        .map(|s| pools.of(s.large).shape.flops())
        .sum::<f64>()
        / samples.len() as f64;
    let mut metrics = Metrics::default();
    metrics.set("op_s", median(&latencies));
    metrics.set("gflops", mean_flops * jobs_per_s / 1e9);
    metrics.set("comm_bytes", comm_bytes as f64);
    let details = [
        ("timed_ops", Value::Num(samples.len() as f64)),
        (
            "large_jobs",
            Value::Num(samples.iter().filter(|s| s.large).count() as f64),
        ),
        ("ops_per_s", Value::Num(jobs_per_s)),
        ("op_p90_s", Value::Num(p90.value)),
        ("op_p90_s_percentile", Value::Num(p90.percentile)),
    ];
    Ok(Report {
        metrics,
        gate,
        details: Value::obj(details.into_iter().chain(host_details(probe, &raw))),
    })
}
