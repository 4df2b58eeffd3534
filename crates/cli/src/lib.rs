#![forbid(unsafe_code)]

//! Library behind the `oddci` command-line tool: argument parsing and the
//! subcommand implementations, factored out of `main` so they are unit- and
//! integration-testable without spawning processes.
//!
//! Subcommands:
//!
//! * `simulate` — run a full OddCI-DTV world for one job and report.
//! * `chaos` — the same world under a deterministic fault-injection plan.
//! * `trace` — record a scenario's telemetry and export a Chrome trace.
//! * `wakeup` — evaluate the §5.1 wakeup envelope for an image/β pair.
//! * `efficiency` — evaluate equations (1)/(2) for a scenario.
//! * `live` — run the thread-based live demo with real alignment work.
//! * `headend` — serve the live plane over real TCP sockets for PNA
//!   processes to join.
//! * `pna` — one Processing Node Agent process connecting to a headend.
//! * `failover` — kill a snapshotting headend mid-job and prove a standby
//!   adopts its state without losing a task.
//! * `autoscale` — the elastic-sizing drill: the desired-state reconciler
//!   scales a live instance up and back down against a queue-depth SLO
//!   while absorbing a spot-like airtime revocation.
//! * `check` — the concurrency gate: workspace lint plus the bounded
//!   schedule explorer over the scaled-down headend scenarios.
//!
//! The argument syntax is deliberately simple (`--key value` pairs after a
//! subcommand); parsing is hand-rolled to keep the dependency set at the
//! approved workspace list. Each command family has its own module whose
//! `spec` block declares the command and every flag it reads, once (see
//! [`args::Flag`]): the unknown-flag check in [`run`], [`usage`] and the
//! handlers' defaults all read that declaration.
//!
//! # Example
//!
//! ```
//! // The same entry point the binary uses, minus the process:
//! let argv: Vec<String> = ["wakeup", "--image-mb", "10", "--beta-mbps", "2"]
//!     .iter()
//!     .map(|s| s.to_string())
//!     .collect();
//! let out = oddci_cli::run(&argv).expect("valid arguments");
//! assert!(out.contains("62.9"), "mean wakeup of 10 MB @ 2 Mbps: {out}");
//! ```

pub mod args;
mod check;
mod drill;
mod live;
mod model;
mod sim;
mod socket;
mod top;

use args::Command;
pub use args::{ArgError, CliError, Parsed};

/// Every subcommand, in help order. `run` rejects a `--name` its command
/// does not declare, and [`usage`] renders the same declarations.
#[rustfmt::skip]
const COMMANDS: &[&Command] = &[
    &sim::SIMULATE, &sim::CHAOS, &sim::TRACE, &sim::TRACE_CONVERT,
    &model::WAKEUP, &model::EFFICIENCY,
    &live::LIVE, &live::SOAK,
    &socket::HEADEND, &socket::PNA,
    &drill::FAILOVER, &drill::AUTOSCALE,
    &top::TOP,
    &check::CHECK,
];

/// [`execute`] with the error rendered as `main` prints it: the entry
/// point of the tests.
pub fn run(argv: &[String]) -> Result<String, String> {
    execute(argv).map_err(|e| e.to_string())
}

/// Parses `argv[1..]`, runs the subcommand, and returns the rendered
/// output or why there is none; `main` exits with the error's
/// [`exit_code`](CliError::exit_code).
pub fn execute(argv: &[String]) -> Result<String, CliError> {
    let argv = spell_out(argv);
    let parsed =
        Parsed::parse(&argv).map_err(|e| CliError::Usage(format!("{e}\n\n{}", usage())))?;
    let command = parsed.command.as_str();
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == command) else {
        return Err(CliError::Usage(format!(
            "unknown subcommand `{command}`\n\n{}",
            usage()
        )));
    };
    // Before the command does any work: a name it never reads must not
    // parse, be ignored, and look like it worked.
    let declared = |name: &str| command.flags.iter().any(|f| f.name == name);
    if let Some(name) = parsed.names().find(|name| !declared(name)) {
        let shown = command.name.replace('-', " ");
        let hint = if name == "binary" {
            ": streams are always binary (`.trace.bin`); derive JSONL/Chrome \
             with `oddci trace convert <file>`"
        } else {
            ""
        };
        return Err(ArgError(format!("`oddci {shown}` takes no `--{name}`{hint}")).into());
    }
    (command.run)(&parsed)
}

/// A command's text report: a title line, then `  label: value` rows
/// with every label padded to one width.
pub(crate) struct Report {
    /// The report so far.
    pub text: String,
    width: usize,
}

impl Report {
    /// A report whose rows pad their labels to `width`.
    pub fn new(width: usize, title: impl std::fmt::Display) -> Report {
        let text = format!("{title}\n");
        Report { text, width }
    }

    /// Appends `  label: value`.
    pub fn row(&mut self, label: &str, value: impl std::fmt::Display) {
        let width = self.width;
        self.text += &format!("  {label:<width$}: {value}\n");
    }

    /// Appends a line as it is.
    pub fn line(&mut self, line: impl std::fmt::Display) {
        self.text += &format!("{line}\n");
    }

    /// The report, or `doc` pretty-printed instead for `--json`.
    pub fn or_json(self, json: bool, doc: &serde_json::Value) -> String {
        if json {
            serde_json::to_string_pretty(doc).expect("serialize json")
        } else {
            self.text
        }
    }
}

/// Rewrites the two shorthand forms into `--key value` form for the
/// parser: `oddci trace convert …` names the `trace-convert` command, and
/// a bare word after the command (`oddci trace small`) is the value of
/// the command's positional flag.
fn spell_out(argv: &[String]) -> Vec<String> {
    let mut argv = argv.to_vec();
    let find = |name: &str| COMMANDS.iter().find(|c| c.name == name);
    if let [first, second, ..] = &argv[..] {
        let joined = format!("{first}-{second}");
        if find(&joined).is_some() {
            argv.splice(..2, [joined]);
        }
    }
    let positional = argv
        .first()
        .and_then(|name| find(name))
        .and_then(|c| c.flags.iter().find(|f| f.positional));
    if let (Some(flag), Some(value)) = (positional, argv.get(1)) {
        if !value.starts_with("--") {
            argv.insert(1, format!("--{}", flag.name));
        }
    }
    argv
}

/// The help text, rendered from the command and flag declarations.
pub fn usage() -> String {
    let mut out = "\
oddci — On-Demand Distributed Computing Infrastructure (SC/MTAGS 2009 reproduction)

USAGE:
    oddci <COMMAND> [--key value ...]

COMMANDS:
"
    .to_string();
    for c in COMMANDS {
        let name = c.name.replace('-', " ");
        push_wrapped(&mut out, format!("    {name:<10}  "), c.about, "");
        for f in c.flags {
            let lead = format!("{:18}{:<15}  ", "", f.spec());
            push_wrapped(&mut out, lead, f.help, f.default);
        }
    }
    out.push_str("    help        show this message\n");
    out
}

/// Appends `lead` plus `text` word-wrapped at 80 columns under `lead`'s
/// width (never before a `--name`, which would read as the flag's own),
/// then `[default]` in the column 24 past that indent.
fn push_wrapped(out: &mut String, lead: String, text: &str, default: &str) {
    let indent = lead.chars().count();
    let mut line = lead;
    for word in text.split_whitespace() {
        let len = line.chars().count();
        if len > indent && len + word.chars().count() >= 80 && !word.starts_with("--") {
            *out += &format!("{line}\n");
            line = " ".repeat(indent);
        } else if len > indent {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !default.is_empty() {
        let tag = format!("[{default}]");
        let mut column = (indent + 23).max(line.chars().count());
        if column + tag.len() >= 80 {
            *out += &format!("{line}\n");
            (line, column) = (String::new(), indent - 1);
        }
        line = format!("{line:column$} {tag}");
    }
    *out += &format!("{}\n", line.trim_end());
}

/// Helpers the command modules' tests share.
#[cfg(test)]
mod testing {
    /// An argv from string slices.
    pub fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// [`run`](crate::run) on one command line, split on whitespace.
    pub fn oddci(line: &str) -> Result<String, String> {
        crate::run(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    /// `oddci LINE`, which must succeed and print a JSON document.
    pub fn oddci_json(line: &str) -> serde_json::Value {
        let out = oddci(line).unwrap_or_else(|e| panic!("oddci {line}: {e}"));
        serde_json::from_str(&out).unwrap_or_else(|e| panic!("invalid JSON {e:?}: {out}"))
    }

    /// A JSON object's keys, space-separated in document order: the
    /// machine-readable surface scripts and operators parse.
    pub fn keys(v: &serde_json::Value) -> String {
        match v {
            serde_json::Value::Object(entries) => {
                let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                names.join(" ")
            }
            other => panic!("expected a JSON object, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{argv, keys, oddci, oddci_json};
    use super::*;

    #[test]
    fn help_works() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&argv(&["--help"])).is_ok());
    }

    #[test]
    fn unknown_subcommand_errors_with_usage() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown subcommand"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn empty_argv_errors() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn simulate_small_world() {
        let out = oddci("simulate --nodes 100 --target 30 --tasks 60 --cost-secs 10 --image-mb 1");
        let out = out.unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("60 tasks"), "{out}");
    }

    #[test]
    fn chaos_runs_and_reports_faults() {
        let plan = "heartbeat-drop=0.2,direct-loss=0.1:20";
        let line =
            format!("chaos --nodes 100 --target 30 --tasks 60 --cost-secs 10 --faults {plan}");
        let out = oddci(&line).unwrap();
        assert!(out.contains("completed         : 60 tasks"), "{out}");
        assert!(out.contains("injected faults"), "{out}");
    }

    #[test]
    fn chaos_json_counts_all_tasks() {
        let v = oddci_json(
            "chaos --nodes 80 --target 20 --tasks 40 --cost-secs 5 --intensity 0.5 --json",
        );
        assert_eq!(v["tasks_completed"], 40);
    }

    #[test]
    fn chaos_rejects_bad_plan() {
        let err = oddci("chaos --faults not-a-class=0.5").unwrap_err();
        assert!(err.contains("not-a-class"), "{err}");
    }

    #[test]
    fn chaos_accepts_windowed_faults() {
        let plan = "heartbeat-drop=0.3@0..600,direct-loss=0.1:20@120..900";
        let line = format!("chaos --nodes 80 --target 20 --tasks 40 --cost-secs 5 --faults {plan}");
        let out = oddci(&line).unwrap();
        assert!(out.contains("completed         : 40 tasks"), "{out}");
        let err = oddci("chaos --faults heartbeat-drop=0.3@600").unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn trace_writes_chrome_trace_and_breakdown() {
        let dir = std::env::temp_dir().join("oddci-cli-trace-test");
        let path = dir.join("trace.json");
        let out = oddci(&format!("trace small --out {}", path.display())).unwrap();
        assert!(out.contains("wakeup (streamed trace): measured"), "{out}");
        assert_eq!(out.matches("wakeup (").count(), 1, "{out}");
        assert!(out.contains("0 dropped (0.0%)"), "{out}");
        assert!(out.contains("dve.boot"), "{out}");
        // `--out` is converted from the default stream beside it.
        let trace = oddci_telemetry::binary::read_file(&dir.join("trace.trace.bin"))
            .expect("default stream path");
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid trace JSON");
        let rows = v["traceEvents"].as_array().unwrap();
        let event_rows = rows
            .iter()
            .filter(|r| r["ph"].as_str() != Some("M"))
            .count();
        assert_eq!(event_rows, trace.events.len());
        assert!(
            out.contains(&format!("{} events ->", trace.events.len())),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_stream_recomputes_wakeup_and_converts_losslessly() {
        let dir = std::env::temp_dir().join("oddci-cli-stream-test");
        let (out_path, bin_path) = (dir.join("trace.json"), dir.join("run.trace.bin"));
        let out = oddci(&format!(
            "trace small --out {} --stream {} --lane-capacity 131072",
            out_path.display(),
            bin_path.display()
        ))
        .unwrap();
        // The wakeup check recomputes from the binary artifact.
        assert!(out.contains("wakeup (streamed trace): measured"), "{out}");
        assert!(out.contains("streamed   :"), "{out}");
        assert!(out.contains("0 dropped (0.0%)"), "{out}");
        let trace = oddci_telemetry::binary::read_file(&bin_path).expect("valid binary trace");
        assert!(trace.truncated.is_none());
        // Offline conversion re-emits both text artifacts with default
        // derived paths, and the JSONL holds exactly the decoded events,
        // in time order with ties in file order.
        let converted = oddci(&format!("trace convert {}", bin_path.display())).unwrap();
        assert!(converted.contains("converted"), "{converted}");
        let text = std::fs::read_to_string(dir.join("run.trace.jsonl")).unwrap();
        let (header, events) =
            oddci_telemetry::export::read_jsonl_events(&text).expect("valid converted stream");
        assert_eq!(header.clock, "us");
        assert!(!events.is_empty());
        let mut timed = trace.events.clone();
        timed.sort_by_key(|ev| (ev.ts_us, ev.track));
        assert_eq!(events, timed);
        assert!(
            header
                .meta
                .iter()
                .any(|(k, v)| k == "converted_from" && v == "binary"),
            "{header:?}"
        );
        let chrome = std::fs::read_to_string(dir.join("run.trace.stream.json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&chrome).expect("valid chrome doc");
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
        assert!(v["otherData"]["oddci_stream"].as_str().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_convert_requires_an_input() {
        let err = run(&argv(&["trace", "convert"])).unwrap_err();
        assert!(err.contains("trace convert"), "{err}");
    }

    /// A name a command never reads is an error naming the command,
    /// raised before the command does any work (`headend` would otherwise
    /// bind a socket and wait for PNAs).
    #[test]
    fn every_command_rejects_names_it_does_not_read() {
        for command in COMMANDS {
            let name = &command.name;
            let shown = name.replace('-', " ");
            for unknown in [&["--bogus", "1"][..], &["--bogus"][..]] {
                let mut args = vec![*name];
                args.extend(unknown);
                let err = run(&argv(&args)).unwrap_err();
                assert!(
                    err.contains(&format!("`oddci {shown}` takes no `--bogus`")),
                    "{name}: {err}"
                );
            }
        }
        for args in [
            &["trace", "small", "--binary"][..],
            &["soak", "--binary"][..],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.contains("takes no `--binary`"), "{err}");
            assert!(err.contains("oddci trace convert"), "{err}");
        }
    }

    /// Help text and parser cannot drift: the `--name`s `usage()` lists
    /// under each command are exactly that command's allow-list (plus the
    /// option `run` rewrites the command's positional into).
    #[test]
    fn usage_lists_exactly_each_commands_allow_list() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut listed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut current = None;
        let text = usage();
        let commands = text.split_once("COMMANDS:\n").expect("COMMANDS section").1;
        for line in commands.lines() {
            let body = line.trim_start();
            if line.len() - body.len() == 4 {
                let name = body.split("  ").next().unwrap().replace(' ', "-");
                listed.entry(name.clone()).or_default();
                current = Some(name);
            } else if let Some(rest) = body.strip_prefix("--") {
                let option = rest.split(' ').next().unwrap().to_string();
                let command = current.clone().expect("option under a command");
                listed.get_mut(&command).unwrap().insert(option);
            }
        }
        listed.remove("help");
        listed.get_mut("trace").unwrap().insert("scenario".into());
        listed.get_mut("trace-convert").unwrap().insert("in".into());
        let allowed: BTreeMap<String, BTreeSet<String>> = COMMANDS
            .iter()
            .map(|command| {
                let names = command.flags.iter().map(|f| f.name.to_string()).collect();
                (command.name.to_string(), names)
            })
            .collect();
        assert_eq!(listed, allowed);
    }

    /// ARCHITECTURE.md's crate table names every command `usage()` lists.
    #[test]
    fn architecture_crate_table_lists_every_command() {
        let doc = include_str!("../../../ARCHITECTURE.md");
        let row = doc.lines().find(|l| l.starts_with("| `oddci-cli` |"));
        let row = row.expect("ARCHITECTURE.md has an oddci-cli row");
        let text = usage();
        let commands = text.split_once("COMMANDS:\n").expect("COMMANDS section").1;
        for line in commands.lines() {
            let body = line.trim_start();
            let name = body.split("  ").next().unwrap();
            if line.len() - body.len() == 4 && name != "help" {
                assert!(row.contains(&format!("`{name}`")), "misses `{name}`");
            }
        }
    }

    #[test]
    fn soak_trace_out_streams_run() {
        let dir = std::env::temp_dir().join("oddci-cli-soak-stream-test");
        let stream_path = dir.join("soak.trace.bin");
        let line = "soak --nodes 2 --queries 8 --batch 4 --json --trace-out";
        let v = oddci_json(&format!("{line} {}", stream_path.display()));
        assert_eq!(v["tasks_unaccounted"], 0);
        let stream = &v["stream"];
        assert!(keys(&v).ends_with("gauges stream"), "{v:?}");
        assert_eq!(
            keys(stream),
            "emitted persisted dropped dropped_pct flushes"
        );
        assert!(stream["emitted"].as_u64().unwrap() > 0, "{v:?}");
        assert_eq!(
            stream["emitted"].as_u64().unwrap(),
            stream["persisted"].as_u64().unwrap() + stream["dropped"].as_u64().unwrap()
        );
        let trace = oddci_telemetry::binary::read_file(&stream_path).expect("valid stream");
        assert_eq!(
            trace.events.len() as u64,
            stream["persisted"].as_u64().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn soak_rejects_degenerate_pools() {
        let err = oddci("soak --batch 0").unwrap_err();
        assert!(err.contains("1..=1024"), "{err}");
        let err = oddci("soak --batch 9999").unwrap_err();
        assert!(err.contains("1..=1024"), "{err}");
        let err = oddci("soak --nodes 2 --target 5").unwrap_err();
        assert!(err.contains("--target"), "{err}");
    }

    #[test]
    fn soak_small_run_reports_throughput() {
        let v = oddci_json("soak --nodes 2 --queries 8 --batch 4 --json");
        assert_eq!(
            keys(&v),
            "batch nodes queries target makespan_secs throughput_tasks_per_sec requeues \
             tasks_unaccounted threads_failed gauges"
        );
        assert_eq!(v["queries"], 8);
        assert_eq!(v["tasks_unaccounted"], 0);
        assert!(v["throughput_tasks_per_sec"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn trace_rejects_unknown_scenario() {
        let err = oddci("trace bogus").unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn failover_drill_loses_no_tasks() {
        let v = oddci_json(
            "failover --pnas 3 --queries 48 --snapshot-interval-ms 40 \
             --faults headend-crash=1.0@0.3..30 --json",
        );
        assert_eq!(
            keys(&v),
            "listen pnas queries target crash_at_secs snapshot_epoch standby_epoch adopt_ms \
             adopted_running_job tasks_completed tasks_lost requeues tasks_unaccounted \
             threads_failed pnas_reacked pna_epochs"
        );
        assert_eq!(v["tasks_lost"], 0, "{v:?}");
        assert_eq!(v["tasks_unaccounted"], 0, "{v:?}");
        assert_eq!(v["standby_epoch"], 1, "{v:?}");
        assert_eq!(v["pnas_reacked"], 3, "{v:?}");
        // The drill snapshotted into a directory of its own and removed it.
        let dir = std::env::temp_dir().join(format!("oddci-failover-{}", std::process::id()));
        assert!(!dir.exists(), "{} left behind", dir.display());
    }

    /// `oddci headend --standby` honours the sizing and `--metrics-out`
    /// flags like a primary: the reconciler resumes from the snapshot's
    /// desired-state record, and the standby's own snapshots keep
    /// carrying it instead of overwriting it with "autoscale off".
    #[test]
    fn headend_standby_inherits_the_sizing_verdict() {
        use oddci_live::{LiveConfig, LiveOddci};

        let dir = std::env::temp_dir().join(format!(
            "oddci-cli-standby-autoscale-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join(oddci_live::SNAPSHOT_FILE);
        let metrics_path = dir.join("standby.prom");

        // An idle primary's snapshot whose reconciler had scaled 1 -> 3
        // and still owes most of a long cooldown, which fences the
        // standby's loop for the whole test.
        let primary = LiveOddci::start(LiveConfig {
            nodes: 1,
            ..Default::default()
        });
        let mut snap = primary.snapshot_now();
        primary.shutdown();
        let inherited = oddci_core::AutoscaleExport {
            desired: 3,
            cooldown_remaining_micros: 60_000_000,
            pending_replace: false,
            ticks: 7,
            scale_ups: 2,
            scale_downs: 0,
            replacements: 0,
        };
        snap.autoscale = Some(inherited);
        oddci_live::snapshot::write_file(&snap_path, &snap).unwrap();

        // No PNA ever dials in, so the standby serves out its redial
        // grace — dozens of snapshot cycles — and shuts down cleanly.
        let v = oddci_json(&format!(
            "headend --listen 127.0.0.1:0 --standby {} --pnas 1 --min-instances 1 \
             --max-instances 4 --snapshot-interval-ms 20 --metrics-out {} \
             --metrics-interval-ms 50 --json",
            dir.display(),
            metrics_path.display()
        ));
        assert_eq!(
            keys(&v),
            "listen epoch snapshot_epoch adopted_jobs tasks_completed requeues \
             tasks_unaccounted threads_failed wire connections"
        );
        assert_eq!(v["epoch"], 1, "{v:?}");
        assert_eq!(v["threads_failed"], 0, "{v:?}");

        let after = oddci_live::snapshot::read_file(&snap_path).unwrap();
        assert_eq!(after.epoch, 1, "the standby re-published the snapshot");
        let kept = after
            .autoscale
            .expect("the standby's snapshot still carries the sizing record");
        assert_eq!(kept.desired, inherited.desired);
        assert_eq!(kept.scale_ups, inherited.scale_ups);
        assert!(kept.ticks > inherited.ticks, "the reconciler is running");

        let metrics = std::fs::read_to_string(&metrics_path).expect("--metrics-out honoured");
        assert!(metrics.contains("provider_desired_size 3"), "{metrics}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failover_requires_a_crash_window() {
        let err = oddci("failover --faults heartbeat-drop=0.2").unwrap_err();
        assert!(err.contains("never crashes"), "{err}");
    }

    #[test]
    fn simulate_json_output_parses() {
        let line = "simulate --nodes 100 --target 20 --tasks 40 --cost-secs 5 --image-mb 1 --json";
        assert_eq!(oddci_json(line)["tasks_completed"], 40);
    }
}
