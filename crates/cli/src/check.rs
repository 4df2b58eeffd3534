//! `oddci check`: the concurrency gate.

use crate::args::{ArgError, CliError, Parsed};
use oddci_check::explore::Explorer;
use oddci_check::{lint, scenarios};
use std::fmt::Write;

/// The command and every flag it reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag};

    pub const CHECK: Command = Command {
        name: "check",
        about: "concurrency gate: workspace lint + bounded model checking of the headend \
            protocol scenarios (exit nonzero on any lint finding, clean-scenario failure, or \
            missed seeded bug)",
        flags: &[SEED, SCHEDULES, SCENARIO, REPLAY, SKIP_LINT, LIST],
        run: super::check,
    };
    pub const SEED: Flag = Flag::new("seed", "S", "scheduler seed", "11");
    pub const SCHEDULES: Flag = Flag::new("schedules", "N", "interleavings per scenario", "400");
    pub const SCENARIO: Flag = Flag::new("scenario", "NAME", "model just this scenario", "");
    pub const REPLAY: Flag = Flag::new("replay", "SCHED", "re-run one pinned interleaving \
        (requires --scenario; schedules print as s<seed>:t0.t1.…)", "");
    pub const SKIP_LINT: Flag = Flag::new("skip-lint", "", "model checking only", "");
    pub const LIST: Flag = Flag::new("list", "", "list the model scenarios", "");
}
pub use spec::*;

/// `oddci check`: the concurrency gate — workspace lint plus bounded
/// model checking of the scaled-down headend scenarios. With `--replay`
/// it re-executes one pinned interleaving instead (for reproducing a
/// schedule printed by an earlier run or by CI).
///
/// Any lint violation, any failure in an `expect-clean` scenario, and
/// any `expect-fail` scenario the detector stops catching (a sensitivity
/// regression) fail the gate: `check failed: …`, exit code 1. A bad
/// command line stays an argument error (exit code 2).
fn check(p: &Parsed) -> Result<String, CliError> {
    let seed: u64 = p.num(&SEED)?;
    let schedules: usize = p.positive(&SCHEDULES)?;

    if p.flag(&LIST) {
        let mut out = String::new();
        for s in scenarios::ALL {
            let kind = if s.expect_clean {
                "expect-clean"
            } else {
                "expect-fail"
            };
            let _ = writeln!(out, "{:36} {kind}", s.name);
        }
        return Ok(out);
    }

    let selected: Vec<&scenarios::Scenario> = match p.get(&SCENARIO) {
        Some(name) => {
            let s = scenarios::by_name(name).ok_or_else(|| {
                ArgError(format!(
                    "unknown scenario `{name}` — `oddci check --list` shows them"
                ))
            })?;
            vec![s]
        }
        None => scenarios::ALL.iter().collect(),
    };

    if let Some(schedule) = p.get(&REPLAY) {
        let [s] = selected[..] else {
            return Err(ArgError("--replay requires --scenario NAME".into()).into());
        };
        let outcome = Explorer::new(seed).replay(schedule, s.setup);
        let verdict = match outcome.failure {
            Some(msg) => format!("failure reproduced:\n{msg}"),
            None => "no failure under this interleaving".to_string(),
        };
        let (name, schedule, steps) = (s.name, outcome.schedule, outcome.steps);
        return Ok(format!(
            "replay {name} under {schedule} ({steps} step(s))\n{verdict}\n"
        ));
    }

    let mut out = String::new();
    if !p.flag(&SKIP_LINT) {
        let root = lint::find_root(std::path::Path::new(".")).ok_or_else(|| {
            ArgError(
                "no workspace root at or above the current directory — \
                 run from inside the repository or pass --skip-lint"
                    .into(),
            )
        })?;
        let violations = lint::run(&root).map_err(|e| ArgError(format!("lint failed: {e}")))?;
        if !violations.is_empty() {
            let mut msg = format!("lint: {} violation(s)\n", violations.len());
            for v in &violations {
                let _ = writeln!(msg, "  {v}");
            }
            return Err(failed(msg));
        }
        let _ = writeln!(out, "lint : clean");
    }

    let mut failures: Vec<String> = Vec::new();
    for s in selected {
        let result = Explorer::new(seed)
            .max_schedules(schedules)
            .explore(s.setup);
        match (&result.failure, s.expect_clean) {
            (None, true) => {
                let _ = writeln!(
                    out,
                    "ok   {:36} clean over {} schedule(s){}",
                    s.name,
                    result.schedules,
                    if result.exhausted { " (exhausted)" } else { "" },
                );
            }
            (Some(f), false) => {
                let _ = writeln!(
                    out,
                    "ok   {:36} detector caught after {} schedule(s) — replay {}",
                    s.name, result.schedules, f.schedule
                );
            }
            (Some(f), true) => {
                failures.push(format!(
                    "{}: failure in supposedly-correct protocol: {} — replay with \
                     `oddci check --scenario {} --seed {seed} --replay {}`",
                    s.name, f.message, s.name, f.schedule
                ));
            }
            (None, false) => {
                failures.push(format!(
                    "{}: detector missed the seeded bug within {} schedule(s) \
                     (sensitivity regression)",
                    s.name, result.schedules
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(failed(failures.join("\n")))
    }
}

/// A gate the command ran and did not pass.
fn failed(msg: String) -> CliError {
    CliError::Failed(format!("check failed: {msg}"))
}

#[cfg(test)]
mod tests {
    use crate::testing::{argv, oddci};

    #[test]
    fn check_lists_scenarios() {
        let out = oddci("check --list").unwrap();
        assert!(out.contains("shutdown-under-active-sink"), "{out}");
        assert!(out.contains("expect-clean"), "{out}");
        assert!(out.contains("expect-fail"), "{out}");
    }

    #[test]
    fn check_rejects_unknown_scenario_and_bare_replay() {
        let err = oddci("check --scenario no-such-thing").unwrap_err();
        assert!(err.contains("unknown scenario"));
        let err = oddci("check --replay s11:0.1").unwrap_err();
        assert!(err.contains("requires --scenario"));
    }

    /// A gate that ran and failed has its own label and exit code 1; a
    /// bad command line stays an argument error with exit code 2.
    #[test]
    fn a_failed_gate_is_not_an_argument_error() {
        let missed = [
            "check",
            "--skip-lint",
            "--scenario",
            "wake-vs-wait-late-rearm",
        ];
        let err =
            crate::execute(&argv(&[&missed[..], &["--schedules", "1"]].concat())).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        let text = err.to_string();
        assert!(
            text.starts_with("check failed: wake-vs-wait-late-rearm: detector missed"),
            "{text}"
        );
        let err = crate::execute(&argv(&["check", "--scenario", "no-such-thing"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(
            err.to_string()
                .starts_with("argument error: unknown scenario"),
            "{err}"
        );
    }

    #[test]
    fn check_models_one_buggy_scenario_and_replays_it() {
        // The torn-snapshot scenario must be caught (it is the detector
        // sensitivity canary) and its printed schedule must replay.
        let out =
            oddci("check --skip-lint --scenario sink-stats-snapshot-torn --schedules 400").unwrap();
        assert!(out.contains("detector caught"), "{out}");
        let schedule = out
            .split("replay ")
            .nth(1)
            .expect("replay schedule in output")
            .trim();
        let line = format!("check --scenario sink-stats-snapshot-torn --replay {schedule}");
        let replayed = oddci(&line).unwrap();
        assert!(replayed.contains("failure reproduced"), "{replayed}");
    }
}
