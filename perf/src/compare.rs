//! `perf compare` and `perf check`: judging two sets of runs by each
//! metric's own bound and direction, and holding `BENCHMARK.json` to the
//! registry in `metrics.rs`.

use crate::json::{parse, Value};
use crate::metrics::{better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// The runs of one result file, by workload.
#[derive(Debug, Default)]
pub struct RunSet {
    /// workload -> metric -> one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> (attempted, failed) summed over its runs.
    gate: BTreeMap<String, (f64, f64)>,
}

impl RunSet {
    /// Reads a file holding one run record or `{"runs": [records]}`.
    pub fn load(path: &str) -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunSet::from_json(&parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }

    pub fn from_json(doc: &Value) -> Result<RunSet, String> {
        let one = std::slice::from_ref(doc);
        let runs = doc.get("runs").and_then(Value::as_array).unwrap_or(one);
        let mut set = RunSet::default();
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("a run record has no workload")?;
            let number = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let gate = set.gate.entry(workload.to_string()).or_default();
            gate.0 += number("attempted");
            gate.1 += number("failed");
            let metrics = run
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("a run record has no metrics")?;
            let by_metric = set.values.entry(workload.to_string()).or_default();
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload}/{name} has no value"))?;
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
        Ok(set)
    }

    fn failed_ratio(&self, workload: &str) -> f64 {
        self.gate
            .get(workload)
            .map_or(0.0, |(attempted, failed)| failed / attempted.max(1.0))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// A side's own run-to-run spread is wider than the bound, so the two
    /// medians cannot be told apart at that bound.
    Unresolved,
}

/// Interquartile range over median; zero for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// `b` against `a` for one metric: the share of `a`'s median by which `b`'s
/// median is worse (negative when better), and the verdict at `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by =
        if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worse_by, verdict)
}

/// Prints one row per (workload, metric) both sets hold; `true` when no
/// end-to-end metric is worse and no workload's failed ratio rose.
pub fn compare(a: &RunSet, b: &RunSet) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<38} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound"
    );
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            continue;
        };
        for (name, va) in metrics_a {
            let Some(vb) = metrics_b.get(name) else {
                continue;
            };
            let row = |worse_by: f64, bound: String, verdict: &str| {
                println!(
                    "{workload:<14} {name:<38} {:>14.6} {:>14.6} {:>8.2}% {bound:>8}  {verdict}",
                    median(va),
                    median(vb),
                    worse_by * 100.0
                );
            };
            if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                let (worse_by, verdict) = judge(va, vb, m.higher_is_better, m.bound);
                ok &= verdict != Verdict::Worse;
                let bound = format!("{:.4}%", m.bound * 100.0);
                row(worse_by, bound, &format!("{verdict:?}").to_lowercase());
            } else if let Some(m) = PER_LAYER.iter().find(|m| m.0 == name) {
                // single-layer numbers carry no bound: shown, never judged
                let (worse_by, _) = judge(va, vb, m.2, f64::INFINITY);
                row(worse_by, "-".to_string(), "-");
            }
        }
        let (fa, fb) = (a.failed_ratio(workload), b.failed_ratio(workload));
        let verdict = if fb > fa { "worse" } else { "within" };
        ok &= fb <= fa;
        println!(
            "{workload:<14} {:<38} {fa:>14.6} {fb:>14.6} {:>9} {:>8}  {verdict}",
            "failed_ratio", "", "0"
        );
    }
    ok
}

/// Every difference between `BENCHMARK.json` and the registry.
pub fn check(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect_keys = |what: &str, v: &Value, keys: &[&str]| {
        let have: Vec<&str> = v
            .as_object()
            .unwrap_or(&[])
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if have != keys {
            problems.push(format!("{what} has keys {have:?}, wanted {keys:?}"));
        }
    };
    expect_keys(
        "BENCHMARK.json",
        doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap_or(&[]);
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

    let listed: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let wanted: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    if listed != wanted {
        problems.push(format!(
            "workloads differ: file {listed:?}, registry {wanted:?}"
        ));
    }

    let listed: Vec<String> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
            format!(
                "{} [{}] {} {bound}",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better")
            )
        })
        .collect();
    let wanted: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{} [{}] {} {}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    diff("end_to_end", &listed, &wanted, &mut problems);

    let listed: Vec<String> = list("per_layer")
        .iter()
        .map(|m| {
            format!(
                "{} [{}] {}",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better")
            )
        })
        .collect();
    let wanted: Vec<String> = PER_LAYER
        .iter()
        .map(|m| format!("{} [{}] {}", m.0, m.1, better(m.2)))
        .collect();
    diff("per_layer", &listed, &wanted, &mut problems);

    if doc.get("run_seconds").and_then(Value::as_f64) != Some(RUN_SECONDS) {
        problems.push(format!("run_seconds is not {RUN_SECONDS}"));
    }
    problems
}

fn diff(what: &str, listed: &[String], wanted: &[String], problems: &mut Vec<String>) {
    for m in wanted.iter().filter(|m| !listed.contains(m)) {
        problems.push(format!("{what}: registry has `{m}`, the file does not"));
    }
    for m in listed.iter().filter(|m| !wanted.contains(m)) {
        problems.push(format!("{what}: the file has `{m}`, the registry does not"));
    }
}

/// `BENCHMARK.json` as the registry would write it.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["perf"])),
        ("run_seconds", Value::Num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(better(m.higher_is_better))),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.0)),
                            ("unit", Value::str(m.1)),
                            ("better", Value::str(better(m.2))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_direction() {
        let a = [1.0, 1.01, 0.99, 1.0];
        // lower is better: 20 % slower is worse, 20 % faster is better
        assert_eq!(
            judge(&a, &[1.2, 1.21, 1.19, 1.2], false, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[1.2, 1.21, 1.19, 1.2], false, 0.25).1,
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &[0.8, 0.81, 0.79, 0.8], false, 0.1).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[1.05, 1.04, 1.06, 1.05], false, 0.1).1,
            Verdict::Within
        );
        // higher is better flips it
        assert_eq!(
            judge(&a, &[1.2, 1.21, 1.19, 1.2], true, 0.1).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[0.8, 0.81, 0.79, 0.8], true, 0.1).1,
            Verdict::Worse
        );
        let (worse_by, _) = judge(&[2.0], &[2.5], false, 0.1);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [1.0, 1.3, 0.7, 1.0, 1.4, 0.6];
        assert_eq!(
            judge(&noisy, &[1.0, 1.0], false, 0.1).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[1.0, 1.0], &noisy, false, 0.1).1,
            Verdict::Unresolved
        );
        // an exact count with a tiny bound resolves
        assert_eq!(
            judge(&[5e6, 5e6], &[5e6, 5e6], false, 1e-6).1,
            Verdict::Within
        );
        assert_eq!(
            judge(&[5e6, 5e6], &[5e6 + 512.0, 5e6 + 512.0], false, 1e-6).1,
            Verdict::Worse
        );
    }

    fn record(workload: &str, op_s: f64, failed: f64) -> Value {
        Value::obj([
            ("workload", Value::str(workload)),
            ("attempted", Value::Num(100.0)),
            ("failed", Value::Num(failed)),
            (
                "metrics",
                Value::obj([(
                    "op_s",
                    Value::obj([("value", Value::Num(op_s)), ("unit", Value::str("s"))]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_fails_on_a_worse_metric_or_a_higher_failed_ratio() {
        let set = |runs: Vec<Value>| {
            RunSet::from_json(&Value::obj([("runs", Value::Arr(runs))])).unwrap()
        };
        let a = set(vec![
            record("potrf-tasks", 0.10, 0.0),
            record("potrf-tasks", 0.101, 0.0),
        ]);
        let same = set(vec![
            record("potrf-tasks", 0.102, 0.0),
            record("potrf-tasks", 0.100, 0.0),
        ]);
        let slow = set(vec![
            record("potrf-tasks", 0.14, 0.0),
            record("potrf-tasks", 0.141, 0.0),
        ]);
        let failing = set(vec![
            record("potrf-tasks", 0.10, 1.0),
            record("potrf-tasks", 0.101, 0.0),
        ]);
        assert!(compare(&a, &same) && compare(&same, &a));
        assert!(!compare(&a, &slow));
        assert!(compare(&slow, &a));
        assert!(!compare(&a, &failing));
        // a single record is a set of one
        let one = RunSet::from_json(&record("potrf-tasks", 0.10, 0.0)).unwrap();
        assert!(compare(&one, &a));
    }

    #[test]
    fn check_accepts_the_registry_and_names_any_difference() {
        let good = benchmark_json();
        assert_eq!(check(&good), Vec::<String>::new());
        // the file the registry renders parses back to itself
        assert_eq!(parse(&good.render()).unwrap(), good);

        let text = good.render();
        let renamed = parse(&text.replace("\"gflops\"", "\"tflops\"")).unwrap();
        let problems = check(&renamed);
        assert!(
            problems.iter().any(|p| p.contains("gflops")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("tflops")),
            "{problems:?}"
        );

        let dropped = parse(&text.replace(
            "{\"name\": \"obs.spans\", \"unit\": \"count\", \"better\": \"lower\"}",
            "{\"name\": \"obs.events\", \"unit\": \"count\", \"better\": \"lower\"}",
        ))
        .unwrap();
        assert!(check(&dropped).iter().any(|p| p.contains("obs.spans")));

        let rebound = parse(&text.replace("\"bound\": 0.25", "\"bound\": 0.2")).unwrap();
        assert!(!check(&rebound).is_empty());
        let missing_key = parse(&text.replace("\"run_seconds\": 25, ", "")).unwrap();
        assert!(!check(&missing_key).is_empty());
    }
}
