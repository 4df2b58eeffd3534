#![forbid(unsafe_code)]

//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every `cargo run -p oddci-bench --bin <exp>` binary prints a
//! human-readable table to stdout **and** writes a machine-readable JSON
//! artifact under `results/` so EXPERIMENTS.md entries are diffable
//! against re-runs.
//!
//! # Example
//!
//! ```
//! use oddci_bench::{fmt_secs, RunInfo};
//!
//! // Every artifact carries a provenance stamp:
//! let run = RunInfo::new("demo", 42);
//! assert_eq!(run.scenario, "demo");
//! assert_eq!(run.seed, 42);
//!
//! // Table cells humanize durations:
//! assert!(!fmt_secs(0.042).is_empty());
//! ```

use oddci_telemetry::HistogramSummary;
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// Where experiment artifacts are written (`results/` at the workspace
/// root, or `$ODDCI_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("ODDCI_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serializes `value` as pretty JSON into `results/<name>.json`.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create artifact");
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    f.write_all(json.as_bytes()).expect("write artifact");
    println!("\n[artifact] {}", path.display());
}

/// Provenance stamp carried by every `*.metrics.json` artifact, so a
/// checked-in file states which scenario/seed/revision produced it.
#[derive(Debug, Clone, Serialize)]
pub struct RunInfo {
    /// Scenario name (usually the experiment/bin name).
    pub scenario: String,
    /// Master seed of the stamped run.
    pub seed: u64,
    /// `git describe` of the producing tree, or `"unknown"` outside git.
    pub git: String,
}

impl RunInfo {
    /// Stamp for `scenario` run with `seed` at the current revision.
    pub fn new(scenario: &str, seed: u64) -> RunInfo {
        RunInfo {
            scenario: scenario.to_string(),
            seed,
            git: git_describe(),
        }
    }
}

/// `git describe --always --dirty --tags` of the working tree, or
/// `"unknown"` when git (or the repo) is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serializes a world metrics snapshot into `results/<name>.metrics.json`,
/// alongside the experiment's own `results/<name>.json` artifact. Keeping
/// the full counter set (joins, heartbeats, requeues, per-fault-class
/// counts) diffable makes regressions in the control plane's behaviour
/// visible even when the headline numbers of an experiment don't move.
///
/// The artifact is an envelope — `{"run": .., "metrics": .., "phases": ..}`
/// — validated against `scripts/metrics.schema.json` by the `schema_check`
/// bin in CI. `phases` holds the per-phase latency summaries (may be
/// empty).
pub fn write_metrics<T: Serialize>(
    name: &str,
    run: &RunInfo,
    snapshot: &T,
    phases: &[(&'static str, HistogramSummary)],
) {
    let phases_value = serde_json::Value::Object(
        phases
            .iter()
            .map(|(label, s)| {
                (
                    label.to_string(),
                    serde_json::to_value(s).expect("serialize phase summary"),
                )
            })
            .collect(),
    );
    let doc = serde_json::json!({
        "run": run,
        "metrics": serde_json::to_value(snapshot).expect("serialize metrics"),
        "phases": phases_value,
    });
    let path = results_dir().join(format!("{name}.metrics.json"));
    let mut f = std::fs::File::create(&path).expect("create metrics artifact");
    let json = serde_json::to_string_pretty(&doc).expect("serialize metrics");
    f.write_all(json.as_bytes())
        .expect("write metrics artifact");
    println!("[artifact] {}", path.display());
}

/// Formats a duration in seconds with a sensible unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 2.0 * 24.0 * 3600.0 {
        format!("{:.1}d", s / (24.0 * 3600.0))
    } else if s >= 2.0 * 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 120.0 {
        format!("{:.1}min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Prints a rule-of-dashes header.
pub fn header(title: &str) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(0.5), "500ms");
        assert_eq!(fmt_secs(42.0), "42.0s");
        assert_eq!(fmt_secs(600.0), "10.0min");
        assert_eq!(fmt_secs(7200.0), "2.0h");
        assert_eq!(fmt_secs(3.0 * 24.0 * 3600.0), "3.0d");
    }

    #[test]
    fn artifacts_round_trip() {
        std::env::set_var(
            "ODDCI_RESULTS_DIR",
            std::env::temp_dir().join("oddci-test-results"),
        );
        write_artifact("unit-test", &serde_json::json!({"x": 1}));
        let path = results_dir().join("unit-test.json");
        let back: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(back["x"], 1);
    }

    #[test]
    fn metrics_artifacts_get_their_own_file_with_run_stamp() {
        std::env::set_var(
            "ODDCI_RESULTS_DIR",
            std::env::temp_dir().join("oddci-test-results"),
        );
        let run = RunInfo::new("unit-test", 7);
        write_metrics(
            "unit-test",
            &run,
            &serde_json::json!({"requeues": 3}),
            &[("task.fetch", HistogramSummary::default())],
        );
        let path = results_dir().join("unit-test.metrics.json");
        let back: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(back["metrics"]["requeues"], 3);
        assert_eq!(back["run"]["scenario"].as_str(), Some("unit-test"));
        assert_eq!(back["run"]["seed"], 7);
        assert!(back["run"]["git"].as_str().is_some());
        assert!(back["phases"]["task.fetch"]["count"].as_u64().is_some());
    }

    /// The names `--bin` takes on one doc line. A `--bin $var` inside a
    /// shell loop expands to the names of the `for var in …; do` on the
    /// line before it.
    fn bin_names(line: &str, prev: Option<&str>) -> Vec<String> {
        line.split("--bin ")
            .skip(1)
            .flat_map(|rest| {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || "_-$".contains(*c))
                    .collect();
                match name.strip_prefix('$') {
                    None => vec![name],
                    Some(var) => {
                        let head = format!("for {var} in ");
                        let names = prev
                            .and_then(|p| p.trim().strip_prefix(head.as_str()))
                            .and_then(|p| p.split(';').next())
                            .unwrap_or_else(|| panic!("`--bin ${var}` outside a for loop"));
                        names.split_whitespace().map(str::to_string).collect()
                    }
                }
            })
            .collect()
    }

    #[test]
    fn docs_name_only_existing_bins_and_list_every_artifact() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
        };

        // `ci-*` files are CI smoke outputs that scripts/ci.sh removes.
        let listing = read("results/README.md");
        let mut unlisted: Vec<String> = std::fs::read_dir(root.join("results"))
            .expect("list results/")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json") && !n.starts_with("ci-"))
            .filter(|n| !listing.contains(&format!("`{n}`")))
            .collect();
        unlisted.sort();
        assert!(unlisted.is_empty(), "results/README.md omits {unlisted:?}");

        let mut dangling = Vec::new();
        for doc in [
            "README.md",
            "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = read(doc);
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if !line.contains("-p oddci-bench") {
                    continue;
                }
                let prev = i.checked_sub(1).map(|j| lines[j]);
                for bin in bin_names(line, prev) {
                    let src = format!("crates/bench/src/bin/{bin}.rs");
                    if !root.join(&src).is_file() {
                        dangling.push(format!("{doc}:{}: --bin {bin}", i + 1));
                    }
                }
            }
        }
        assert!(dangling.is_empty(), "no such bench bin: {dangling:?}");
    }

    /// The external crates the build may link (DESIGN.md, "Dependency
    /// policy"). Locks, channels and byte buffers come from std, so a
    /// `crossbeam`, `parking_lot` or `bytes` back in the lock file fails.
    const ALLOWED_EXTERNAL: &[&str] = &["rand", "proptest", "serde", "serde_derive", "serde_json"];

    /// The first `name = "…"` of a manifest or a lock-file block.
    fn first_name(text: &str) -> Option<&str> {
        text.lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
    }

    #[test]
    fn lock_file_names_only_workspace_crates_and_the_allowed_floor() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifest_name = |path: std::path::PathBuf| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            first_name(&text)
                .unwrap_or_else(|| panic!("{}: no package name", path.display()))
                .to_string()
        };
        let mut workspace = vec![manifest_name(root.join("Cargo.toml"))];
        for entry in std::fs::read_dir(root.join("crates")).expect("list crates/") {
            workspace.push(manifest_name(
                entry.expect("crate dir").path().join("Cargo.toml"),
            ));
        }
        let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("read Cargo.lock");
        let mut foreign: Vec<&str> = lock
            .split("[[package]]")
            .skip(1)
            .filter_map(first_name)
            .filter(|name| !workspace.iter().any(|w| w == name))
            .filter(|name| !ALLOWED_EXTERNAL.contains(name))
            .collect();
        foreign.sort_unstable();
        assert!(
            foreign.is_empty(),
            "Cargo.lock names crates outside the dependency floor: {foreign:?}"
        );
    }
}
