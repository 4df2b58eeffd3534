//! `oddci-benchmark run`: a whole set of runs — every workload, `SET_RUNS`
//! seeds each, `RUN_SECONDS` per run, every run in a fresh child process —
//! printed by name and written as one stamped JSON document that `compare`
//! reads. Run count and length are constants, not flags: they decide the
//! sample counts behind every quartile, and two sets are only comparable
//! when they agree on them.

use crate::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS, SET_RUNS};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub workload: Option<Workload>,
    pub traced: bool,
    pub out: String,
}

/// One child run in the driver's own form; returns its last stdout line.
fn child(workload: Workload, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} trace {} exited with {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("child result does not parse: {e}"))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn value_of(result: &Value, name: &str) -> Option<f64> {
    result["metrics"].get(name)?.get("value")?.as_f64()
}

fn emitted_names(result: &Value) -> Vec<&str> {
    match &result["metrics"] {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Runs the set, prints it, writes `args.out`. `Err` when a child failed
/// or the emitted names differ from `BENCHMARK.json`.
pub fn run(args: &SuiteArgs) -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let declared: Value =
        serde_json::from_str(&declared).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared_names = |section: &str| -> Vec<String> {
        declared[section]
            .as_array()
            .map(|items| {
                items
                    .iter()
                    .filter_map(|m| m["name"].as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let declared_e2e = declared_names("end_to_end");
    let declared_layers = declared_names("per_layer");

    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut problems = Vec::new();
    let mut results = Vec::new();
    let mut layers = Vec::new();
    let mut failures = Vec::new();
    println!(
        "{:<14} {:<44} {:>14} {:>14} {:>14}  unit",
        "workload", "metric", "median", "q1", "q3"
    );
    for workload in workloads {
        let mut runs = Vec::new();
        for rep in 0..SET_RUNS {
            let result = child(workload, args.seed + rep, false)?;
            problems.extend(metrics::check_names(
                declared_e2e.iter().map(String::as_str),
                emitted_names(&result).into_iter(),
            ));
            runs.push(result);
        }
        let attempted: u64 = runs.iter().filter_map(|r| r["attempted"].as_u64()).sum();
        let failed: u64 = runs.iter().filter_map(|r| r["failed"].as_u64()).sum();
        let correct = runs.iter().all(|r| r["correct"].as_bool() == Some(true));
        failures.push(json!({
            "workload": workload.name(),
            "attempted": attempted,
            "failed": failed,
            "correct": correct,
        }));
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, m.name)).collect();
            if values.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&values);
            let med = median(&values);
            println!(
                "{:<14} {:<44} {:>14.4} {:>14.4} {:>14.4}  {}",
                workload.name(),
                m.name,
                med,
                q1,
                q3,
                m.unit
            );
            results.push(json!({
                "workload": workload.name(),
                "metric": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": metrics::bound(m, workload),
                "n": values.len(),
                "median": med,
                "q1": q1,
                "q3": q3,
                "values": values,
            }));
        }
        println!(
            "{:<14} {:<44} {:>14} {:>14} {:>14}  count",
            workload.name(),
            "failed / attempted",
            failed,
            attempted,
            if correct { "correct" } else { "WRONG" }
        );
        if args.traced {
            let result = child(workload, args.seed, true)?;
            problems.extend(metrics::check_names(
                declared_layers.iter().map(String::as_str),
                emitted_names(&result).into_iter(),
            ));
            for m in &PER_LAYER {
                if let Some(value) = value_of(&result, m.name) {
                    println!(
                        "{:<14} {:<44} {:>14.4} {:>14} {:>14}  {}",
                        workload.name(),
                        m.name,
                        value,
                        "",
                        "",
                        m.unit
                    );
                    layers.push(json!({
                        "workload": workload.name(),
                        "metric": m.name,
                        "unit": m.unit,
                        "value": value,
                    }));
                }
            }
        }
    }

    let document = json!({
        "stamp": {
            "git_sha": tool_line("git", &["rev-parse", "HEAD"]),
            "rustc": tool_line("rustc", &["--version"]),
            "available_parallelism": crate::cores(),
            "network": "loopback TCP, not a real link",
            "seed": args.seed,
            "reps": SET_RUNS,
            "seconds": RUN_SECONDS,
        },
        "end_to_end": results,
        "per_layer": layers,
        "failures": failures,
    });
    let text = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    if let Some(parent) = Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&args.out, text + "\n").map_err(|e| format!("{}: {e}", args.out))?;
    println!("wrote {}", args.out);

    problems.sort();
    problems.dedup();
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}
