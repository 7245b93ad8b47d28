//! The repo's end-to-end benchmark.
//!
//! * `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload and prints one JSON result line last (the `BENCHMARK.json`
//!   contract): the end-to-end metrics untraced, the per-layer ledger traced.
//! * `e2e [--seed n] [--seconds s] [--repeat k] [--trace 1] [--out file]`
//!   runs every workload, each in its own child process of this binary
//!   (`--trace 1` adds a traced pass each), prints every metric by name and
//!   writes a results file.
//! * `e2e --compare a.json b.json` diffs two results files.
//!
//! See `README.md` beside `Cargo.toml` for the workloads and the metrics.

mod compare;
mod ledger;
mod metrics;
mod planning;
mod serving;
mod spans;

use compare::{Results, Run, Stamp};
use metrics::{end_to_end, per_layer, Outcome, RunResult};
use serde::json::Value;
use serving::{err, ServingSpec};
use spans::SpanLog;
use std::process::{Command, ExitCode, Stdio};

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the run measures, set-up excluded.
    pub seconds: f64,
    /// The smoke-test scale: short warm-ups, one set-up, 20-episode plans.
    pub quick: bool,
}

enum Workload {
    Serving(&'static ServingSpec),
    Planning,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("vgg11_inproc", Workload::Serving(&serving::VGG11_INPROC)),
    ("tinyvgg_tcp", Workload::Serving(&serving::TINYVGG_TCP)),
    (
        "tinyvgg_tcp_q8",
        Workload::Serving(&serving::TINYVGG_TCP_Q8),
    ),
    ("plan_vgg16", Workload::Planning),
];

/// `run_seconds` of `BENCHMARK.json`: the default of `--seconds`.
const RUN_SECONDS: u64 = 20;
/// Where traces and the default results file go, relative to the cwd.
const OUT_DIR: &str = "target/e2e";
/// Dispatch overrides that would make results incomparable.
const FORBIDDEN_ENV: [&str; 4] = [
    "DISTREDGE_KERNEL",
    "DISTREDGE_QKERNEL",
    "DISTREDGE_FORCE_SCALAR",
    "DISTREDGE_QUANT",
];

/// Runs one workload in this process; the traced pass also writes its
/// spans as a Chrome trace.
fn run_workload(name: &str, opts: &RunOpts, traced: bool) -> Result<Outcome, String> {
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| w)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    if let Workload::Serving(_) = workload {
        let cpu = serving::pin_to_one_cpu()?;
        println!("{name}: serving on CPU {cpu} only");
    }
    if !traced {
        return match workload {
            Workload::Serving(spec) => serving::run(spec, opts),
            Workload::Planning => planning::run(opts),
        };
    }
    let mut log = SpanLog::new(true);
    let outcome = match workload {
        Workload::Serving(spec) => ledger::run_traced(spec, opts, &mut log),
        Workload::Planning => planning::run_traced(opts, &mut log),
    }?;
    std::fs::create_dir_all(OUT_DIR).map_err(err)?;
    let path = format!("{OUT_DIR}/trace-{name}.json");
    std::fs::write(&path, log.to_chrome_trace()).map_err(err)?;
    println!(
        "{name}: {} spans written to {path}; heaviest by self time:",
        log.spans().len()
    );
    println!(
        "  {:<44} {:>8} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (span, calls, total_ms, self_ms) in spans::summary(log.spans()).iter().take(12) {
        println!("  {span:<44} {calls:>8} {total_ms:>12.3} {self_ms:>12.3}");
    }
    Ok(outcome)
}

/// The contract's entry point: one workload, the result line last.
fn single(name: &str, opts: &RunOpts, traced: bool) -> Result<ExitCode, String> {
    let outcome = run_workload(name, opts, traced)?;
    let table = if traced { per_layer() } else { end_to_end() };
    let result = RunResult::from_outcome(&outcome, &table)?;
    println!("{}", result.to_value().render());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn stamp(opts: &RunOpts) -> Stamp {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Stamp {
        seed: opts.seed,
        seconds: opts.seconds as u64,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        kernel_arch: tensor::ops::kernel_arch().label().to_string(),
        qkernel_arch: tensor::ops::qkernel_arch().label().to_string(),
        commit,
    }
}

/// Runs `name` in a child process of this binary and parses its last line.
fn child(name: &str, opts: &RunOpts, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd.stderr(Stdio::inherit()).output().map_err(err)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{name}: the child printed nothing"))?;
    for line in lines {
        println!("  {line}");
    }
    let parsed: Value = serde_json::from_str(last)
        .map_err(|e| format!("{name}: no result line ({e}); last line was: {last}"))?;
    RunResult::from_value(&parsed)
}

/// Every workload, each in its own process; prints every metric by name.
fn full_run(opts: &RunOpts, repeat: usize, traced: bool, out: &str) -> Result<ExitCode, String> {
    let mut results = Results {
        stamp: stamp(opts),
        runs: Vec::new(),
    };
    println!("{:?}", results.stamp);
    let mut failed = false;
    for (name, _) in &WORKLOADS {
        let passes = std::iter::repeat_n(false, repeat).chain(traced.then_some(true));
        for pass_traced in passes {
            println!("--- {name}{}", if pass_traced { " (traced)" } else { "" });
            let result = child(name, opts, pass_traced)?;
            println!(
                "  operations: {} attempted, {} succeeded, {} failed",
                result.attempted,
                result.attempted - result.failed.min(result.attempted),
                result.failed
            );
            for (metric, value, unit) in &result.metrics {
                if !pass_traced || *value != 0.0 {
                    println!("  {metric:<44} {value:>14.4} {unit}");
                }
            }
            failed |= !result.correct;
            results.runs.push(Run {
                workload: name.to_string(),
                traced: pass_traced,
                result,
            });
        }
    }
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    std::fs::write(out, results.to_json()).map_err(err)?;
    println!("results written to {out}");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, any_worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The command line, parsed.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: String,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeat: 1,
        out: format!("{OUT_DIR}/results.json"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = number(arg, value()?)?,
            "--seconds" => parsed.seconds = number(arg, value()?)?,
            "--trace" => parsed.trace = number::<u8>(arg, value()?)? != 0,
            "--repeat" => parsed.repeat = number(arg, value()?)?,
            "--out" => parsed.out = value()?,
            "--quick" => parsed.quick = true,
            "--compare" => parsed.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", parsed.seconds));
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set: it overrides kernel dispatch, and results measured under it \
             cannot be compared with the baseline; unset it"
        ));
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: if args.quick {
            args.seconds.min(1.0)
        } else {
            args.seconds
        },
        quick: args.quick,
    };
    match &args.workload {
        Some(name) => single(name, &opts, args.trace),
        None => full_run(&opts, args.repeat, args.trace, &args.out),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let args = parse(&strings(&[
            "--workload",
            "tinyvgg_tcp",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("tinyvgg_tcp"));
        assert_eq!((args.seed, args.seconds, args.trace), (11, 20.0, true));
        assert!(parse(&strings(&["--seed"])).is_err());
        assert!(parse(&strings(&["--seed", "x"])).is_err());
        assert!(parse(&strings(&["--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--bogus"])).is_err());
    }

    /// `BENCHMARK.json` at the repo root must list exactly what the binary
    /// measures: same names, units, directions, bounds and workloads.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let list = |key: &str| match metrics::field(&v, key).unwrap() {
            Value::Array(items) => items.clone(),
            other => panic!("{key} is not an array: {other:?}"),
        };
        let text_of = |item: &Value, key: &str| match metrics::field(item, key).unwrap() {
            Value::String(s) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        };
        for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (item, d) in listed.iter().zip(&table) {
                assert_eq!(text_of(item, "name"), d.name);
                assert_eq!(text_of(item, "unit"), d.unit, "{}", d.name);
                assert_eq!(text_of(item, "better"), d.better.label(), "{}", d.name);
                let bound = metrics::field(item, "bound").ok().cloned();
                assert_eq!(bound, d.bound.map(Value::Number), "{}", d.name);
            }
        }
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
        assert_eq!(
            metrics::field(&v, "run_seconds").unwrap(),
            &Value::Number(RUN_SECONDS as f64)
        );
    }

    /// The smoke test: the TCP serving workload and a 20-episode planning
    /// workload end to end, both passes, at the `--quick` scale.
    #[test]
    fn quick_smoke_runs_serving_and_planning_end_to_end() {
        let opts = RunOpts {
            seed: 7,
            seconds: 0.6,
            quick: true,
        };
        for name in ["tinyvgg_tcp", "plan_vgg16"] {
            let outcome = run_workload(name, &opts, false).unwrap();
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{name}");
            let result = RunResult::from_outcome(&outcome, &end_to_end()).unwrap();
            assert!(
                result.metrics.iter().all(|(_, v, _)| *v > 0.0),
                "{name}: {result:?}"
            );
        }
        let mut log = SpanLog::new(true);
        let traced = ledger::run_traced(&serving::TINYVGG_TCP, &opts, &mut log).unwrap();
        assert_eq!(traced.failed, 0);
        for metric in [
            "tensor.kernel_sum_ms",
            "cnn-model.band_critical_ms",
            "edge-runtime.stage.compute_ms",
            "edge-runtime.wire_bytes_per_image",
            "edge-runtime.apply_plan_ms",
        ] {
            assert!(traced.get(metric) > 0.0, "{metric}");
        }
        assert!(log
            .spans()
            .iter()
            .any(|s| s.name == "edge-runtime.stage.compute"));
    }
}
