//! `--self-test`: runs every workload briefly, each in a process of its
//! own, and checks the result shape — every named metric present with its
//! unit, outputs correct, and identical counts from two traced runs — and,
//! when run from the repository root, that `BENCHMARK.json` declares
//! exactly this catalogue.

use crate::report::{per_layer, END_TO_END};
use crate::WORKLOADS;
use serde_json::{Map, Value};
use std::process::{Command, ExitCode};

const SELF_TEST_SECONDS: &str = "1";

fn run_child(workload: &str, trace: &str) -> Result<Map, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", "7", "--seconds", SELF_TEST_SECONDS])
        .args(["--trace", trace])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    match serde_json::from_str::<Value>(last) {
        Ok(Value::Object(result)) => Ok(result),
        _ => Err(format!("{workload} --trace {trace}: last line is not a JSON object:\n{stdout}")),
    }
}

/// Checks one result against the catalogue; returns the problems found.
fn check_result(result: &Map, catalogue: &[(String, &str)], what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        problems.push(format!("{what}: result keys are {keys:?}"));
    }
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        problems.push(format!("{what}: outputs are not correct"));
    }
    let metrics = result.get("metrics").and_then(Value::as_object);
    for (name, unit) in catalogue {
        let metric = metrics.and_then(|m| m.get(name)).and_then(Value::as_object);
        let got_unit = metric.and_then(|m| m.get("unit")).and_then(Value::as_str);
        let value = metric.and_then(|m| m.get("value")).and_then(Value::as_f64);
        if got_unit != Some(unit) || value.is_none() {
            problems.push(format!("{what}: {name} missing or not in {unit}"));
        }
    }
    if metrics.map_or(0, Map::len) != catalogue.len() {
        problems.push(format!("{what}: metrics beyond the catalogue"));
    }
    problems
}

fn value_of(result: &Map, name: &str) -> Option<f64> {
    result.get("metrics")?.as_object()?.get(name)?.as_object()?.get("value")?.as_f64()
}

/// `BENCHMARK.json` (in the working directory) must declare exactly the
/// workloads and metrics this binary reports.
fn check_declaration(problems: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("self-test: no BENCHMARK.json in the working directory; declaration not checked");
        return;
    };
    let Ok(Value::Object(decl)) = serde_json::from_str::<Value>(&text) else {
        problems.push("BENCHMARK.json is not a JSON object".to_owned());
        return;
    };
    let names = |key: &str, field: &str| -> Vec<String> {
        decl.get(key)
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|item| item.as_object()?.get(field)?.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default()
    };
    if names("workloads", "name") != WORKLOADS {
        problems.push("BENCHMARK.json workloads differ from the benchmark's".to_owned());
    }
    let declared = |key: &str| -> Vec<(String, String)> {
        names(key, "name").into_iter().zip(names(key, "unit")).collect()
    };
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
    if declared("end_to_end") != e2e {
        problems.push("BENCHMARK.json end_to_end metrics differ from the catalogue".to_owned());
    }
    let layers: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
    if declared("per_layer") != layers {
        problems.push("BENCHMARK.json per_layer metrics differ from the catalogue".to_owned());
    }
}

pub fn run() -> ExitCode {
    let e2e: Vec<(String, &str)> =
        END_TO_END.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect();
    let layers = per_layer();
    let mut problems = Vec::new();
    check_declaration(&mut problems);
    for workload in WORKLOADS {
        let runs = [run_child(workload, "0"), run_child(workload, "1"), run_child(workload, "1")];
        let [untraced, first, second] = runs;
        let mut found = Vec::new();
        match (untraced, first, second) {
            (Ok(untraced), Ok(first), Ok(second)) => {
                found.extend(check_result(&untraced, &e2e, &format!("{workload} untraced")));
                found.extend(check_result(&first, &layers, &format!("{workload} traced")));
                for (name, unit) in &layers {
                    let (a, b) = (value_of(&first, name), value_of(&second, name));
                    if *unit == "count" && a != b {
                        found.push(format!("{workload}: count {name} differs: {a:?} vs {b:?}"));
                    }
                }
                for (name, _) in &e2e {
                    if value_of(&untraced, name).is_some_and(|v| v <= 0.0) {
                        found.push(format!("{workload}: {name} is not positive"));
                    }
                }
            }
            (a, b, c) => {
                found.extend([a, b, c].into_iter().filter_map(Result::err));
            }
        }
        println!("self-test {workload}: {}", if found.is_empty() { "ok" } else { "FAILED" });
        problems.extend(found);
    }
    for problem in &problems {
        println!("  {problem}");
    }
    if problems.is_empty() {
        println!("self-test: all workloads ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
