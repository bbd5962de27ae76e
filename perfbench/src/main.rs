//! One benchmark for the whole Corki stack, measured end to end and layer
//! by layer.  See `perfbench/README.md` for the workloads, the metrics and
//! how each layer metric maps onto an end-to-end one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <robot_loop|fleet_10k|fleet_faults|live_serve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! the human-readable report.  The exit code is non-zero when an output
//! check fails.

mod expected;
mod fleet;
mod harness;
mod live;
mod report;
mod robot_loop;
mod selftest;
mod sys;
mod trace;

use harness::RunConfig;
use report::{median, Outcome, END_TO_END};
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["robot_loop", "fleet_10k", "fleet_faults", "live_serve"];

/// Where traces and the live runs' temporary files go: inside the
/// benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    cfg: RunConfig,
    self_test: bool,
    /// Measure in this process, as part `n` of a run (see [`parts`]).
    part: Option<usize>,
}

/// A run measures in this many processes, one after another, each for
/// its share of the time, and reports the median over them of each metric,
/// so one process that meets a burst of host load moves a result by at
/// most its rank.  A live pass starts its robot and worker processes
/// afresh anyway and takes about two seconds, so `live_serve` measures in
/// one process and takes its medians over all of a run's passes.
fn parts(workload: &str) -> usize {
    if workload == "live_serve" {
        1
    } else {
        5
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_owned(),
        cfg: RunConfig { seed: expected::DEFAULT_SEED, seconds: 10.0, trace: false },
        self_test: false,
        part: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                parsed.cfg.seconds = seconds;
            }
            "--trace" => {
                parsed.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => parsed.self_test = true,
            "--part" => parsed.part = Some(value()?.parse().map_err(|e| format!("--part: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; choose one of {} or all",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn run_workload(workload: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    match workload {
        "robot_loop" => robot_loop::run(cfg, tracer),
        "fleet_10k" => fleet::run(workload, fleet::FLEET_10K, cfg, tracer),
        "fleet_faults" => fleet::run(workload, fleet::FLEET_FAULTS, cfg, tracer),
        "live_serve" => live::run(cfg, tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Runs one workload in this process and prints its report and result.
fn measure(workload: &str, cfg: &RunConfig, part: usize) -> ExitCode {
    let header = format!(
        "corki-perfbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let provenance = sys::provenance(cfg.seed);
    println!("# {header}");
    println!("# {provenance}");
    let mut tracer = Tracer::new(false);
    let mut outcome = run_workload(workload, cfg, &mut tracer);

    let (own, children) = (sys::self_usage(), sys::children_usage());
    for (who, usage) in [("self", own), ("children", children)] {
        println!(
            "# rusage {who}: user {:.3} s, sys {:.3} s, {} voluntary / {} involuntary context switches, max RSS {:.1} MiB",
            usage.user_s, usage.sys_s, usage.vol_switches, usage.invol_switches, usage.max_rss_mb
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    if cfg.trace {
        let path = out_dir().join(format!("trace-{workload}-seed{}-part{part}.jsonl", cfg.seed));
        let mut meta = Map::new();
        meta.insert("run".to_owned(), Value::String(header.clone()));
        meta.insert("host".to_owned(), Value::String(provenance.clone()));
        let meta = serde_json::to_string(&Value::Object(meta)).expect("a JSON value serialises");
        match tracer.write(&path, &meta) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => outcome.check(Some(format!("cannot write {}: {e}", path.display()))),
        }
    }

    let catalogue: Vec<(String, &str)> = if cfg.trace {
        report::per_layer()
    } else {
        END_TO_END.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &catalogue {
        let value = match outcome.metrics.get(name) {
            Some(value) => *value,
            // A layer this workload does not run did no work.
            None if cfg.trace => 0.0,
            None if outcome.failed > 0 => continue,
            None => {
                outcome.check(Some(format!("metric {name} was not measured")));
                continue;
            }
        };
        if !value.is_finite() {
            outcome.check(Some(format!("metric {name} is {value}")));
            continue;
        }
        metrics.push((name.clone(), value, (*unit).to_owned(), String::new()));
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    print_result(&metrics, correct, outcome.attempted, outcome.failed)
}

/// Prints the metric table and, as the last line, the result object.
/// `metrics` holds `(name, value, unit, remark)`.
fn print_result(
    metrics: &[(String, f64, String, String)],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> ExitCode {
    println!(
        "# error_rate = {failed} failed / {attempted} attempted = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    let mut map = Map::new();
    for (name, value, unit, remark) in metrics {
        println!("{name:<34} {value:>18.6} {unit} {remark}");
        let mut entry = Map::new();
        entry.insert("value".to_owned(), Value::Number(*value));
        entry.insert("unit".to_owned(), Value::String(unit.clone()));
        map.insert(name.clone(), Value::Object(entry));
    }
    let mut result = Map::new();
    result.insert("correct".to_owned(), Value::Bool(correct));
    result.insert("attempted".to_owned(), Value::Number(attempted as f64));
    result.insert("failed".to_owned(), Value::Number(failed as f64));
    result.insert("metrics".to_owned(), Value::Object(map));
    println!("{}", serde_json::to_string(&Value::Object(result)).expect("a JSON value serialises"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload as [`parts`] processes, one after another, each for
/// its share of `cfg.seconds`, and reports each metric's median over them.
fn measure_parts(workload: &str, cfg: &RunConfig) -> ExitCode {
    let parts = parts(workload);
    println!(
        "# corki-perfbench workload={workload} seed={} seconds={} trace={} parts={parts}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut results = Vec::new();
    let mut problems = Vec::new();
    for part in 0..parts {
        let output = std::process::Command::new(std::env::current_exe().expect("own path"))
            .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &(cfg.seconds / parts as f64).to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }, "--part", &part.to_string()])
            .output();
        let stdout = match output {
            Ok(output) => String::from_utf8_lossy(&output.stdout).into_owned(),
            Err(e) => {
                problems.push(format!("part {part} did not run: {e}"));
                continue;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("# part {part} | {}", line.trim_start_matches("# "));
        }
        match serde_json::from_str::<Value>(last) {
            Ok(Value::Object(result)) => results.push(result),
            _ => problems.push(format!("part {part} printed no result")),
        }
    }
    let sum = |key: &str| -> u64 {
        results.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>() as u64
    };
    let (attempted, mut failed) = (sum("attempted"), sum("failed"));
    let all_correct =
        results.iter().all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
    let metric = |result: &Map, name: &str| -> Option<(f64, String)> {
        let entry = result.get("metrics")?.as_object()?.get(name)?.as_object()?;
        Some((entry.get("value")?.as_f64()?, entry.get("unit")?.as_str()?.to_owned()))
    };
    let mut metrics = Vec::new();
    if let Some(first) = results.first() {
        let names = first.get("metrics").and_then(Value::as_object).map(|m| m.keys().cloned());
        for name in names.into_iter().flatten() {
            let values: Option<Vec<(f64, String)>> =
                results.iter().map(|result| metric(result, &name)).collect();
            let Some(values) = values else {
                problems.push(format!("{name} is missing from a part"));
                continue;
            };
            let unit = values[0].1.clone();
            let mut numbers: Vec<f64> = values.iter().map(|(v, _)| *v).collect();
            let remark = format!("(parts: {numbers:.6?})");
            metrics.push((name, median(&mut numbers), unit, remark));
        }
    }
    for problem in &problems {
        println!("# FAILED: {problem}");
    }
    failed += problems.len() as u64;
    let correct = all_correct && problems.is_empty() && results.len() == parts && attempted > 0;
    print_result(&metrics, correct, attempted.max(1), failed)
}

/// Runs every workload, each in a process of its own.
fn measure_all(cfg: &RunConfig) -> ExitCode {
    let mut failed = false;
    for workload in WORKLOADS {
        let status = std::process::Command::new(std::env::current_exe().expect("own path"))
            .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .status();
        failed |= !status.is_ok_and(|s| s.success());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() > 1 && (args[1] == "__live-robot" || args[1] == "__live-worker") {
        return ExitCode::from(live::child_role(&args) as u8);
    }
    let parsed = match parse_args(&args[1..]) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("corki-perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    // Live runs write their child configuration to the temporary
    // directory; keep it inside the benchmark's own directory.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("corki-perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    if parsed.self_test {
        selftest::run()
    } else if parsed.workload == "all" {
        measure_all(&parsed.cfg)
    } else if let Some(part) = parsed.part {
        measure(&parsed.workload, &parsed.cfg, part)
    } else {
        measure_parts(&parsed.workload, &parsed.cfg)
    }
}
