//! `oddci-benchmark`: the repository's benchmark.
//!
//! ```text
//! oddci-benchmark --workload W --seed N --seconds S --trace 0|1
//!     One run of one workload. The last line of stdout is one JSON object
//!     {correct, attempted, failed, metrics}: the end-to-end metrics with
//!     --trace 0, the per-layer metrics with --trace 1. This is the form the
//!     driver calls (BENCHMARK.json's `command` plus these flags).
//! oddci-benchmark run --seed N [--workload W] [--traced] --out F
//!     A set of runs, each in a fresh child process: every workload (or W),
//!     seeds N..N+10 for 10 s each (both fixed, so any two sets compare),
//!     plus one traced run per workload with --traced. Prints
//!     every metric by name with its unit and writes F, stamped with git
//!     sha, rustc, core count and "loopback TCP, not a real link". Fails if
//!     the names printed differ from those BENCHMARK.json declares.
//! oddci-benchmark compare A.json B.json
//!     Verdict per (end-to-end metric, workload): same / better / worse /
//!     unresolved. Exits 1 on any `worse` or a larger failed share in B, and
//!     refuses two documents taken with different settings.
//! oddci-benchmark manifest
//!     Prints BENCHMARK.json as the metric tables in this crate define it.
//! ```
//!
//! Run it from the repository root: scratch files go to `benchmark/out/`.

mod compare;
mod gen;
mod layers;
mod metrics;
mod probe;
mod procstat;
mod run;
mod stats;
mod suite;
mod sut;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Where snapshot files and other scratch output go: inside the checkout,
/// ignored by git.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{text}`")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(name) => Workload::from_name(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            }),
        }
    }
}

fn single_run(flags: &Flags) -> Result<(), String> {
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let seed: u64 = flags.required("--seed")?;
    let seconds: f64 = flags.required("--seconds")?;
    let trace: u8 = flags.required("--trace")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be within (0, 60]".into());
    }
    // Two closed-loop clients beside a headend need two cores to mean
    // anything; on one core the numbers would be the scheduler's.
    if cores() < 2 {
        return Err(format!(
            "available_parallelism is {}; the workloads need at least 2",
            cores()
        ));
    }
    let output = match trace {
        0 => run::end_to_end(workload, seed, seconds)?,
        1 => run::per_layer(workload, seed, seconds)?,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let line = serde_json::to_string(&output.to_json()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first.to_string(), args[1..].to_vec()),
        _ => (String::new(), args),
    };
    let flags = Flags(rest);
    match command.as_str() {
        "" => single_run(&flags).map(|()| true),
        "run" => suite::run(&suite::SuiteArgs {
            seed: flags.required("--seed")?,
            workload: flags.workload()?,
            traced: flags.has("--traced"),
            out: flags.required("--out")?,
        })
        .map(|()| true),
        "compare" => match flags.0.as_slice() {
            [a, b] => compare::run(a, b),
            _ => Err("usage: oddci-benchmark compare <a.json> <b.json>".into()),
        },
        "manifest" => {
            let text =
                serde_json::to_string_pretty(&metrics::manifest()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(true)
        }
        other => Err(format!(
            "unknown command `{other}` (run, compare, manifest, or --workload … for one run)"
        )),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("oddci-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// `sut.rs` is the one place that names a workspace crate.
    #[test]
    fn only_the_adapter_names_workspace_crates() {
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(src).expect("src/ exists") {
            let path = entry.expect("readable entry").path();
            if path.file_name().is_some_and(|n| n == "sut.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            let needle = ["oddci", "_"].concat();
            let offender = text
                .lines()
                .find(|l| !l.trim_start().starts_with("//") && l.contains(&needle));
            assert_eq!(offender, None, "{} names a workspace crate", path.display());
        }
    }
}
