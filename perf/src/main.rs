//! `perf`: the repository's benchmark. Four workloads through `Run` and
//! `sbc-serve`, measured end to end with tracing off and layer by layer in
//! a separate traced pass. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! perf --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--out dir] [--quick]
//! perf all [--seeds a,b,..] [--seconds s] [--trace 0|1|both] [--out dir] [--quick]
//! perf compare <a.json> <b.json>
//! perf check [BENCHMARK.json] | perf check --print
//! ```

mod compare;
mod e2e;
mod host;
mod json;
mod layers;
mod metrics;
mod ops;
mod probe;
mod served;
mod stats;

use json::Value;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use ops::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perf --workload <potrf-compute|potrf-tasks|potrf-wire|serve-stream> \
[--seed n] [--seconds s] [--trace 0|1] [--out dir] [--quick]\n       \
perf all [--seeds a,b,..] [--seconds s] [--trace 0|1|both] [--out dir] [--quick]\n       \
perf compare <a.json> <b.json>\n       \
perf check [BENCHMARK.json] | perf check --print";

/// Seconds each pass of a `--quick` smoke run measures.
const QUICK_SECONDS: f64 = 1.0;

/// Options shared by `run`, `all` and `cold`.
struct Options {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: Option<f64>,
    trace: String,
    out: PathBuf,
    quick: bool,
    /// `check --print`: render the registry instead of checking a file.
    print: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seeds: vec![1],
        seconds: None,
        trace: String::new(),
        out: PathBuf::from("perf/out"),
        quick: false,
        print: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" | "--seeds" => {
                o.seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => o.trace = value()?,
            "--out" => o.out = PathBuf::from(value()?),
            "--quick" => o.quick = true,
            "--print" => o.print = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// One run of one workload, either pass. Prints every metric as
/// `name value unit`, writes the full record to `<out>/<workload>.json`
/// (`.layers.json` for the traced pass), and ends standard output with the
/// one-line result the driver reads.
fn run(o: &Options) -> Result<bool, String> {
    let workload = o.workload()?;
    let traced = match o.trace.as_str() {
        "" | "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let (seed, seconds) = (o.seeds[0], o.seconds());
    // the library default backend must be what runs: an inherited override
    // would silently change every workload that does not pin its kernels
    let kernels_env_was_set = std::env::var_os(sbc_kernels::KERNELS_ENV).is_some();
    std::env::remove_var(sbc_kernels::KERNELS_ENV);
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let sockets = host::SocketDir::create(&o.out).map_err(|e| format!("socket dir: {e}"))?;
    std::env::set_var("TMPDIR", sockets.path());

    let report = if traced {
        let trace_file = o.out.join(format!("{}.trace.json", workload.name));
        layers::run(&workload, seed, seconds, &sockets, &trace_file)?
    } else {
        let cold_starts = if o.quick {
            (1, 0.0, 1)
        } else {
            e2e::COLD_STARTS
        };
        e2e::run(&workload, seed, seconds, cold_starts, &sockets)?
    };
    let expected: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    report.metrics.check_names(expected.into_iter())?;

    let gate = &report.gate;
    let correct = gate.failed == 0;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(gate.attempted as f64)),
        ("failed", Value::Num(gate.failed as f64)),
        ("metrics", report.metrics.to_json()),
    ]);
    let details_line = report.details.render();
    let mut record = vec![
        ("workload".to_string(), Value::str(workload.name)),
        ("seed".to_string(), Value::Num(seed as f64)),
        ("seconds".to_string(), Value::Num(seconds)),
        ("trace".to_string(), Value::Num(f64::from(u8::from(traced)))),
        // a --quick run is a smoke test: never compare it with anything
        ("comparable".to_string(), Value::Bool(!o.quick)),
        ("host".to_string(), host::describe()),
        (
            "kernels_env".to_string(),
            Value::str(if kernels_env_was_set {
                "was set, unset by perf"
            } else {
                "unset"
            }),
        ),
        ("details".to_string(), report.details),
        (
            "first_failure".to_string(),
            gate.first_failure.clone().map_or(Value::Null, Value::Str),
        ),
    ];
    record.extend(result.as_object().expect("an object").iter().cloned());
    let file = o.out.join(format!(
        "{}{}.json",
        workload.name,
        if traced { ".layers" } else { "" }
    ));
    std::fs::write(&file, Value::Obj(record).render() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;

    print!("{}", report.metrics.to_text());
    println!("ops_attempted {} count", gate.attempted);
    println!("ops_failed {} count", gate.failed);
    println!(
        "failed_ratio {} ratio",
        gate.failed as f64 / gate.attempted.max(1) as f64
    );
    if let Some(why) = &gate.first_failure {
        eprintln!("first failure: {why}");
    }
    eprintln!("details: {}", details_line);
    eprintln!("record: {}", file.display());
    println!("{}", result.render());
    Ok(correct)
}

/// Every workload (and every seed) in a process of its own, so peak RSS and
/// warm state never leak from one into the next; the runs' results are
/// gathered into `<out>/set.json`, the file `perf compare` takes.
fn all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let passes: &[&str] = match o.trace.as_str() {
        "" | "both" => &["0", "1"],
        "0" => &["0"],
        "1" => &["1"],
        other => return Err(format!("--trace takes 0, 1 or both, not {other:?}")),
    };
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let (mut runs, mut ok) = (Vec::new(), true);
    for &seed in &o.seeds {
        for workload in ops::WORKLOADS {
            for &pass in passes {
                eprintln!("== {} seed {seed} trace {pass}", workload.name);
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &o.seconds().to_string(), "--trace", pass])
                    .arg("--out")
                    .arg(&o.out);
                if o.quick {
                    cmd.arg("--quick");
                }
                let out = cmd.output().map_err(|e| format!("re-exec: {e}"))?;
                let text = String::from_utf8_lossy(&out.stdout);
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                print!("{text}");
                ok &= out.status.success();
                let Some(result) = text.lines().last().and_then(|l| json::parse(l).ok()) else {
                    eprintln!("{} printed no result", workload.name);
                    ok = false;
                    continue;
                };
                let mut run = vec![
                    ("workload".to_string(), Value::str(workload.name)),
                    ("seed".to_string(), Value::Num(seed as f64)),
                    ("trace".to_string(), Value::str(pass)),
                ];
                run.extend(result.as_object().unwrap_or(&[]).iter().cloned());
                runs.push(Value::Obj(run));
            }
        }
    }
    let set = Value::obj([
        ("comparable", Value::Bool(!o.quick)),
        ("seconds", Value::Num(o.seconds())),
        ("host", host::describe()),
        ("runs", Value::Arr(runs)),
    ]);
    let file = o.out.join("set.json");
    std::fs::write(&file, set.render() + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("set: {}", file.display());
    Ok(ok)
}

/// Internal: program set-up in this fresh process, printed as seconds.
fn cold(o: &Options) -> Result<bool, String> {
    std::env::remove_var(sbc_kernels::KERNELS_ENV);
    let sockets = host::SocketDir::create(&o.out).map_err(|e| format!("socket dir: {e}"))?;
    std::env::set_var("TMPDIR", sockets.path());
    println!("{}", e2e::cold_setup(&o.workload()?, o.seeds[0], &sockets)?);
    Ok(true)
}

fn compare(o: &Options) -> Result<bool, String> {
    let [a, b] = o.positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    Ok(compare::compare(
        &compare::RunSet::load(a)?,
        &compare::RunSet::load(b)?,
    ))
}

fn check(o: &Options) -> Result<bool, String> {
    if o.print {
        print!("{}", pretty(&compare::benchmark_json()));
        return Ok(true);
    }
    let path = o
        .positional
        .first()
        .map_or("BENCHMARK.json", String::as_str);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let problems = compare::check(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?);
    for p in &problems {
        eprintln!("{path}: {p}");
    }
    if problems.is_empty() {
        println!(
            "{path} lists the {} + {} metrics perf emits",
            END_TO_END.len(),
            PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}

/// A top-level object with one array element per line.
fn pretty(doc: &Value) -> String {
    let mut out = String::from("{\n");
    let fields = doc.as_object().expect("an object");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        match value
            .as_array()
            .filter(|a| a.iter().any(|v| v.as_object().is_some()))
        {
            Some(items) => {
                out += &format!("  \"{key}\": [\n");
                for (k, item) in items.iter().enumerate() {
                    let comma = if k + 1 < items.len() { "," } else { "" };
                    out += &format!("    {}{comma}\n", item.render());
                }
                out += &format!("  ]{comma}\n");
            }
            None => out += &format!("  \"{key}\": {}{comma}\n", value.render()),
        }
    }
    out + "}\n"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest): (&str, &[String]) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "compare" | "check" | "cold" | "run")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = parse_options(rest).and_then(|o| match command {
        "all" => all(&o),
        "compare" => compare(&o),
        "check" => check(&o),
        "cold" => cold(&o),
        _ => run(&o),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let o = options(&[
            "--workload",
            "potrf-wire",
            "--seed",
            "41",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload().unwrap().name, "potrf-wire");
        assert_eq!(
            (o.seeds.clone(), o.seconds(), o.trace.as_str()),
            (vec![41], 20.0, "1")
        );
        assert!(options(&["--workload"]).is_err());
        assert!(options(&["--seconds", "0"]).is_err());
        assert!(options(&["--frobnicate"]).is_err());
        assert!(options(&["--workload", "nope"])
            .unwrap()
            .workload()
            .is_err());
    }

    #[test]
    fn quick_shortens_the_run_unless_seconds_is_given() {
        assert_eq!(options(&["--quick"]).unwrap().seconds(), QUICK_SECONDS);
        assert_eq!(options(&[]).unwrap().seconds(), RUN_SECONDS);
        assert_eq!(
            options(&["--quick", "--seconds", "3"]).unwrap().seconds(),
            3.0
        );
    }

    #[test]
    fn pretty_benchmark_json_parses_back_and_fits_the_contract() {
        let doc = compare::benchmark_json();
        let text = pretty(&doc);
        assert_eq!(json::parse(&text).unwrap(), doc);
        assert!(text.len() < 64 * 1024);
        let command = doc.get("command").and_then(Value::as_array).unwrap();
        assert!(command.len() <= 32);
        // the command names nothing of the repository outside `paths`
        assert!(command.iter().all(|c| {
            let c = c.as_str().unwrap();
            !c.starts_with('/') && !c.contains("..") && (!c.contains('/') || c.starts_with("perf/"))
        }));
    }

    /// The repository's own `BENCHMARK.json` (two levels up from this
    /// package when it sits in the repository) must list what is emitted.
    #[test]
    fn the_committed_benchmark_json_matches_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            compare::check(&json::parse(&text).unwrap()),
            Vec::<String>::new()
        );
    }
}
