//! The benchmark's vocabulary: every workload and metric name, unit,
//! direction and regression bound, in one place. `BENCHMARK.json` lists the
//! same; `perf check` fails when the two differ, and a run refuses to print
//! a result whose names differ from these.

use crate::json::Value;
use std::collections::BTreeMap;

/// Name and the reason the workload exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "potrf-compute",
        "Run::potrf SBC r=4, nt=12 b=128 in-process: 1.9x faster with Blocked kernels and few messages, so sbc-kernels sets its time and sbc-net does not",
    ),
    (
        "potrf-tasks",
        "Run::potrf SBC r=4, nt=64 b=4 in-process: 45k tasks with negligible flops, so graph build and per-task executor overhead set its time",
    ),
    (
        "potrf-wire",
        "Same call at nt=20 b=64 with Blocked kernels over a 6-rank UDS mesh under Session: encode, CRC, socket and ARQ are over half its time; 2DBC is slower here",
    ),
    (
        "serve-stream",
        "sbc-serve over UDS, one closed-loop client, seeded 80/20 mix of (nt=12,b=32) and (nt=8,b=128) jobs: the jobs.rs engine, plan cache, admission and reply stream",
    ),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 25.0;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// Every timing is corrected for the host's speed by `probe`. The wall-time
/// bounds are still the widest the contract allows: on the seed host (2
/// shared vCPUs whose speed shifts by up to 1.8x for minutes) the
/// interquartile spread of ten runs of the same code is 4-11 % of the median
/// after the correction, and a bound should be three times the spread.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_s", "s", false, 0.25),
    e2e("gflops", "GFlop/s", true, 0.25),
    // a count that must repeat exactly: one byte in a million is less than
    // any single tile, so this bound admits no real change
    e2e("comm_bytes", "bytes", false, 0.000_001),
    // 17 MB on `potrf-tasks`, where thread stacks and allocator arenas make
    // the spread of ten runs 1-5 %
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Single-layer numbers from the traced pass: `(name, unit, higher is
/// better)`. The prefix is the crate measured. They carry no bound.
pub const PER_LAYER: [(&str, &str, bool); 62] = [
    ("kernels.gemm_gflops.naive", "GFlop/s", true),
    ("kernels.gemm_gflops.blocked", "GFlop/s", true),
    ("kernels.syrk_gflops.naive", "GFlop/s", true),
    ("kernels.syrk_gflops.blocked", "GFlop/s", true),
    ("kernels.trsm_gflops.naive", "GFlop/s", true),
    ("kernels.trsm_gflops.blocked", "GFlop/s", true),
    ("kernels.potrf_gflops.naive", "GFlop/s", true),
    ("kernels.potrf_gflops.blocked", "GFlop/s", true),
    ("kernels.peak_gflops", "GFlop/s", true),
    ("kernels.gemm_roofline_frac", "ratio", true),
    ("kernels.flops", "flop", false),
    ("matrix.random_spd_s", "s", false),
    ("matrix.seq_potrf_s", "s", false),
    ("matrix.residual", "ratio", false),
    ("dist.messages_sbc", "count", false),
    ("dist.messages_2dbc", "count", false),
    ("dist.bytes_ratio_2dbc_over_sbc", "ratio", true),
    ("dist.bytes_over_lower_bound", "ratio", false),
    ("dist.time_ratio_2dbc_over_sbc", "ratio", true),
    ("taskgraph.build_s", "s", false),
    ("taskgraph.priorities_s", "s", false),
    ("taskgraph.tasks", "count", false),
    ("taskgraph.edges", "count", false),
    ("runtime.kernel_efficiency", "ratio", true),
    ("runtime.speedup_over_seq", "ratio", true),
    ("runtime.naive_over_blocked", "ratio", false),
    ("runtime.per_task_overhead_us", "us", false),
    ("runtime.task_busy_s", "s", false),
    ("runtime.dep_wait_s", "s", false),
    ("runtime.ready_queue_max", "count", false),
    ("runtime.comm_drift_messages", "count", false),
    ("net.encode_mb_s", "MB/s", true),
    ("net.decode_mb_s", "MB/s", true),
    ("net.crc32_mb_s", "MB/s", true),
    ("net.frame_overhead_ns", "ns", false),
    ("net.inproc_roundtrip_us", "us", false),
    ("net.uds_roundtrip_us", "us", false),
    ("net.uds_stream_mb_s", "MB/s", true),
    ("net.mesh_connect_s", "s", false),
    ("net.session_overhead_ratio", "ratio", false),
    ("net.wire_share", "ratio", false),
    ("net.pool_hit_ratio", "ratio", true),
    ("net.frame_bytes_over_payload", "ratio", false),
    ("net.retrans_messages", "count", false),
    ("net.control_bytes", "bytes", false),
    ("planner.plan_cold_s", "s", false),
    ("planner.plan_hit_ns", "ns", false),
    ("planner.cache_hit_ratio", "ratio", true),
    ("planner.predicted_over_measured", "ratio", true),
    ("simgrid.run_s", "s", false),
    ("simgrid.tasks_per_s", "1/s", true),
    ("simgrid.makespan_ratio_2dbc_over_sbc", "ratio", true),
    ("serve.engine_p50_s", "s", false),
    ("serve.front_overhead_p50_s", "s", false),
    ("serve.front_overhead_p90_s", "s", false),
    ("serve.inproc_jobs_per_s", "1/s", true),
    ("serve.job_latency_p99_s", "s", false),
    ("serve.first_job_s", "s", false),
    ("serve.rejected", "count", false),
    ("serve.stats_scrape_s", "s", false),
    ("obs.recorder_overhead_ratio", "ratio", false),
    ("obs.spans", "count", false),
];

pub fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The unit registered for `name`, end-to-end or per-layer.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// The metrics of one run, keyed by registered name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// On a name the registry does not list, or one set twice — both are
    /// bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// `Err` naming what is missing or extra unless exactly the `expected`
    /// names are present, every value finite.
    pub fn check_names<'a>(&self, expected: impl Iterator<Item = &'a str>) -> Result<(), String> {
        let expected: Vec<&str> = expected.collect();
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|n| !self.0.contains_key(n))
            .collect();
        let extra: Vec<&str> = self
            .0
            .keys()
            .copied()
            .filter(|n| !expected.contains(n))
            .collect();
        let bad: Vec<&str> = self
            .0
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect();
        if missing.is_empty() && extra.is_empty() && bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "emitted metric names differ from the registry: missing {missing:?}, extra {extra:?}, not finite {bad:?}"
            ))
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the contract's shape.
    pub fn to_json(&self) -> Value {
        Value::obj(self.0.iter().map(|(name, value)| {
            let unit = unit_of(name).expect("set() only admits registered names");
            (
                *name,
                Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]),
            )
        }))
    }

    /// One `name value unit` line per metric.
    pub fn to_text(&self) -> String {
        self.0
            .iter()
            .map(|(name, value)| format!("{name} {value} {}\n", unit_of(name).unwrap_or("")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn every_registered_name_and_unit_fits_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit}");
        }
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn check_names_reports_missing_and_extra() {
        let mut m = Metrics::default();
        m.set("op_s", 1.0);
        m.set("obs.spans", 3.0);
        let err = m.check_names(["op_s", "setup_s"].into_iter()).unwrap_err();
        assert!(
            err.contains("setup_s") && err.contains("obs.spans"),
            "{err}"
        );
        assert!(m.check_names(["op_s", "obs.spans"].into_iter()).is_ok());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn an_unregistered_name_is_refused() {
        Metrics::default().set("made_up", 1.0);
    }
}
