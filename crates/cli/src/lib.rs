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
//! approved workspace list.
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
pub mod commands;

pub use args::{ArgError, Parsed};

/// Entry point shared by `main` and the tests: parses `argv[1..]`, runs the
/// subcommand, returns the rendered output or a usage error.
pub fn run(argv: &[String]) -> Result<String, String> {
    // `trace` accepts positionals: `oddci trace convert <file>` is the
    // offline binary-to-text converter, and `oddci trace small --out
    // t.json` names a scenario; rewrite both into `--key value` form for
    // the option parser.
    let rewritten: Vec<String>;
    let argv = if argv.first().map(String::as_str) == Some("trace")
        && argv.get(1).map(String::as_str) == Some("convert")
    {
        let mut v = vec!["trace-convert".to_string()];
        match argv.get(2) {
            Some(file) if !file.starts_with("--") => {
                v.extend(["--in".to_string(), file.clone()]);
                v.extend(argv[3..].iter().cloned());
            }
            _ => v.extend(argv[2..].iter().cloned()),
        }
        rewritten = v;
        &rewritten[..]
    } else if argv.first().map(String::as_str) == Some("trace")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        let mut v = vec![argv[0].clone(), "--scenario".to_string(), argv[1].clone()];
        v.extend(argv[2..].iter().cloned());
        rewritten = v;
        &rewritten[..]
    } else {
        argv
    };
    let parsed = args::Parsed::parse(argv).map_err(|e| format!("{e}\n\n{}", usage()))?;
    let command = parsed.command.as_str();
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some((_, handler, allowed)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown subcommand `{command}`\n\n{}", usage()));
    };
    // Before the command does any work: a name it never reads must not
    // parse, be ignored, and look like it worked.
    if let Some(name) = parsed
        .names()
        .find(|name| !allowed.split(' ').any(|a| a == *name))
    {
        let shown = command.replace('-', " ");
        let hint = if name == "binary" {
            ": streams are always binary (`.trace.bin`); derive JSONL/Chrome \
             with `oddci trace convert <file>`"
        } else {
            ""
        };
        return Err(ArgError(format!("`oddci {shown}` takes no `--{name}`{hint}")).to_string());
    }
    handler(&parsed).map_err(|e| e.to_string())
}

type Handler = fn(&Parsed) -> Result<String, ArgError>;

/// Every subcommand: its handler and the one list of `--name`s (options
/// and bare flags, space-separated) it reads. `run` rejects any other
/// name, and a test holds this table equal to what [`usage`] prints.
const COMMANDS: &[(&str, Handler, &str)] = &[
    (
        "simulate",
        commands::simulate,
        "nodes target tasks cost-secs image-mb seed churn json",
    ),
    (
        "chaos",
        commands::chaos,
        "nodes target tasks cost-secs seed faults intensity json",
    ),
    (
        "trace",
        commands::trace,
        "scenario out seed stream lane-capacity",
    ),
    ("trace-convert", commands::trace_convert, "in jsonl chrome"),
    ("wakeup", commands::wakeup, "image-mb beta-mbps"),
    ("efficiency", commands::efficiency, "phi ratio nodes"),
    ("live", commands::live, "nodes queries target"),
    (
        "soak",
        commands::soak,
        "shards dispatch batch nodes queries target seed trace-out lane-capacity json",
    ),
    (
        "headend",
        commands::headend,
        "listen pnas queries target shards dispatch batch db-len seed timeout metrics-out \
         metrics-interval-ms snapshot-dir snapshot-interval-ms standby min-instances \
         max-instances slo-queue-depth cooldown-ms json",
    ),
    (
        "pna",
        commands::pna,
        "connect seed heartbeat-ms connect-timeout reconnect-ms json",
    ),
    (
        "failover",
        commands::failover,
        "listen pnas queries target seed db-len faults snapshot-dir snapshot-interval-ms \
         timeout json",
    ),
    (
        "autoscale",
        commands::autoscale,
        "listen pnas queries seed db-len min-instances max-instances slo-queue-depth \
         cooldown-ms reconcile-ms faults timeout json",
    ),
    (
        "top",
        commands::top,
        "connect interval-ms count connect-timeout json",
    ),
    (
        "check",
        commands::check,
        "seed schedules scenario replay skip-lint list",
    ),
];

/// The help text.
pub fn usage() -> String {
    "\
oddci — On-Demand Distributed Computing Infrastructure (SC/MTAGS 2009 reproduction)

USAGE:
    oddci <COMMAND> [--key value ...]

COMMANDS:
    simulate    run a full OddCI-DTV simulation for one job
                  --nodes N        channel audience        [1000]
                  --target N       instance size           [100]
                  --tasks N        job task count          [500]
                  --cost-secs S    task cost (ref. STB)    [60]
                  --image-mb M     application image MB    [4]
                  --seed S         simulation seed         [42]
                  --churn ON:OFF   mean on/off minutes     [off]
                  --json           machine-readable output
    chaos       simulate one job under deterministic fault injection
                  --nodes N        channel audience        [500]
                  --target N       instance size           [100]
                  --tasks N        job task count          [300]
                  --cost-secs S    task cost (ref. STB)    [30]
                  --seed S         simulation seed         [42]
                  --faults SPEC    class=rate[:magnitude][@start..end],...
                                   (window in seconds; default: standard mix)
                  --intensity F    scale every rate by F   [1.0]
                  --json           machine-readable output
    trace       run one scenario with event recording and export a Chrome
                trace (chrome://tracing / Perfetto), plus a per-phase table
                  [scenario]       small | standard | chaos [small]
                  --out PATH       trace file              [results/trace.json]
                  --seed S         simulation seed         [42]
                  --stream PATH    also stream every event to PATH, a binary
                                   .trace.bin, during the run; the wakeup
                                   check then uses that file instead of the
                                   ring (text forms: `trace convert`)
                  --lane-capacity N  events buffered per sink lane [65536]
    trace convert  re-emit JSONL + Chrome text from a binary trace (the only
                producer of either text form)
                  [file]           input .trace.bin          [required]
                  --jsonl PATH     JSONL output      [input with .jsonl]
                  --chrome PATH    Chrome output  [jsonl with .stream.json]
    wakeup      evaluate the wakeup envelope W = 1.5·I/β
                  --image-mb M     image size MB           [8]
                  --beta-mbps B    spare capacity Mbps     [1]
    efficiency  evaluate equations (1) and (2)
                  --phi F          suitability             [1000]
                  --ratio R        n/N                     [100]
                  --nodes N        instance size N         [1000]
    live        run the live thread demo (real alignment work)
                  --nodes N        receiver threads        [4]
                  --queries N      alignment queries       [8]
                  --target N       instance size           [3]
    soak        stress the live headend and report task throughput
                  --shards N       controller shards, 1..=64   [4]
                  --dispatch N     dispatch workers, 1..=64    [min(shards,4)]
                  --batch N        tasks per fetch, 1..=1024   [16]
                  --nodes N        receiver threads            [8]
                  --queries N      tasks in the soak job       [512]
                  --target N       instance size               [nodes]
                  --seed S         run seed                    [42]
                  --trace-out PATH stream a binary .trace.bin of the run
                                   (per-shard sink lanes; drops are counted,
                                   never blocking the headend)
                  --lane-capacity N  events buffered per sink lane [65536]
                  --json           machine-readable output
    headend     serve the live plane over TCP for `oddci pna` processes
                (runs one alignment job once the instance fills, then
                broadcasts shutdown to every connected PNA)
                  --listen ADDR    bind address (HOST:PORT)    [required]
                  --pnas N         expected PNA processes      [3]
                  --queries N      alignment queries           [8]
                  --target N       instance size               [min(pnas,3)]
                  --shards N       controller shards           [2]
                  --dispatch N     dispatch workers            [2]
                  --batch N        tasks per fetch             [8]
                  --db-len N       database bytes in the image [20000]
                  --seed S         run seed                    [42]
                  --timeout S      job deadline, seconds       [120]
                  --metrics-out PATH  rewrite a Prometheus text snapshot
                                      of the metrics registry on an interval
                  --metrics-interval-ms M  snapshot period     [1000]
                  --snapshot-dir PATH  write durability snapshots
                                       (headend.snap, atomic) here
                  --snapshot-interval-ms M  snapshot cadence   [500]
                  --standby PATH   adopt the snapshot in PATH instead of
                                   starting fresh: rebind the dead
                                   primary's address at a bumped fencing
                                   epoch and finish its in-flight jobs
                                   (same geometry, sizing, snapshot and
                                   metrics flags as a primary)
                  --min-instances N  enable elastic sizing: floor    [1]
                  --max-instances N  elastic ceiling             [pnas]
                  --slo-queue-depth N  queued tasks per member the
                                       reconciler sizes toward      [4]
                  --cooldown-ms M  min gap between scaling actions
                                   (replacements bypass it)      [2000]
                  --json           machine-readable output
    pna         one Processing Node Agent: connect to a headend, boot from
                the streamed wakeup image, work until shutdown
                  --connect ADDR   headend address (HOST:PORT) [required]
                  --seed S         node seed                   [7]
                  --heartbeat-ms M heartbeat interval          [150]
                  --connect-timeout S  dial deadline, seconds  [10]
                  --reconnect-ms M survive a dead connection: keep
                                   redialing for M ms per outage, resuming
                                   this node identity at whatever headend
                                   answers (epoch-fenced)      [0 = off]
                  --json           machine-readable output
    failover    durability drill: snapshotting headend + reconnecting
                PNAs; kill the primary at the fault plan's first
                headend-crash opportunity, adopt from the snapshot on a
                standby, prove zero tasks lost
                  --listen ADDR    bind address (HOST:PORT) [127.0.0.1:0]
                  --pnas N         in-process PNA threads      [3]
                  --queries N      alignment queries           [64]
                  --target N       instance size               [min(pnas,3)]
                  --seed S         run seed                    [42]
                  --db-len N       database bytes in the image [200000]
                  --faults SPEC    must include a headend-crash window
                                   [headend-crash=1.0@0.5..30]
                  --snapshot-dir PATH  snapshot directory      [temp dir]
                  --snapshot-interval-ms M  snapshot cadence   [50]
                  --timeout S      overall deadline, seconds   [60]
                  --json           machine-readable output
    autoscale   elastic-sizing drill: a sharded headend under the
                desired-state reconciler, submitted at the minimum
                instance size; the queue-depth SLO scales it up, the
                draining backlog scales it down, and a spot-like
                airtime revocation mid-job is absorbed as a
                cooldown-bypassing replacement; fails unless >=1
                scale-up and >=1 scale-down land with zero task loss
                  --listen ADDR    bind address (HOST:PORT) [127.0.0.1:0]
                  --pnas N         in-process PNA threads      [6]
                  --queries N      alignment queries           [64]
                  --seed S         run seed                    [42]
                  --db-len N       database bytes in the image [800000]
                  --min-instances N  reconciler floor          [2]
                  --max-instances N  reconciler ceiling        [pnas]
                  --slo-queue-depth N  queued tasks per member [8]
                  --cooldown-ms M  gap between scaling actions [400]
                  --reconcile-ms M reconciler tick period      [25]
                  --faults SPEC    fault plan
                                   [airtime-revoked=1.0@1.2..1.5]
                  --timeout S      overall deadline, seconds   [60]
                  --json           machine-readable output
    top         poll a running socket headend's live metrics plane
                (counters/gauges/histograms with deltas and rates, plus
                per-connection wire counters; no node identity consumed)
                  --connect ADDR   headend address (HOST:PORT) [required]
                  --interval-ms M  poll period                 [1000]
                  --count N        polls before exiting        [0 = forever]
                  --connect-timeout S  dial deadline, seconds  [10]
                  --json           machine-readable output (last poll)
    check       concurrency gate: workspace lint + bounded model checking
                of the headend protocol scenarios (exit nonzero on any
                lint finding, clean-scenario failure, or missed seeded bug)
                  --seed S         scheduler seed              [11]
                  --schedules N    interleavings per scenario  [400]
                  --scenario NAME  model just this scenario
                  --replay SCHED   re-run one pinned interleaving
                                   (requires --scenario; schedules print
                                   as s<seed>:t0.t1.…)
                  --skip-lint      model checking only
                  --list           list the model scenarios
    help        show this message
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

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
    fn wakeup_evaluates() {
        let out = run(&argv(&["wakeup", "--image-mb", "8", "--beta-mbps", "1"])).unwrap();
        assert!(out.contains("mean"), "{out}");
        assert!(out.contains("100.7"), "8MB@1Mbps mean is 100.66s: {out}");
    }

    #[test]
    fn efficiency_evaluates() {
        let out = run(&argv(&["efficiency", "--phi", "1000", "--ratio", "100"])).unwrap();
        assert!(out.contains("efficiency"), "{out}");
    }

    #[test]
    fn simulate_small_world() {
        let out = run(&argv(&[
            "simulate",
            "--nodes",
            "100",
            "--target",
            "30",
            "--tasks",
            "60",
            "--cost-secs",
            "10",
            "--image-mb",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("60 tasks"), "{out}");
    }

    #[test]
    fn chaos_runs_and_reports_faults() {
        let out = run(&argv(&[
            "chaos",
            "--nodes",
            "100",
            "--target",
            "30",
            "--tasks",
            "60",
            "--cost-secs",
            "10",
            "--faults",
            "heartbeat-drop=0.2,direct-loss=0.1:20",
        ]))
        .unwrap();
        assert!(out.contains("completed         : 60 tasks"), "{out}");
        assert!(out.contains("injected faults"), "{out}");
    }

    #[test]
    fn chaos_json_counts_all_tasks() {
        let out = run(&argv(&[
            "chaos",
            "--nodes",
            "80",
            "--target",
            "20",
            "--tasks",
            "40",
            "--cost-secs",
            "5",
            "--intensity",
            "0.5",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["tasks_completed"], 40);
    }

    #[test]
    fn chaos_rejects_bad_plan() {
        let err = run(&argv(&["chaos", "--faults", "not-a-class=0.5"])).unwrap_err();
        assert!(err.contains("not-a-class"), "{err}");
    }

    #[test]
    fn chaos_accepts_windowed_faults() {
        let out = run(&argv(&[
            "chaos",
            "--nodes",
            "80",
            "--target",
            "20",
            "--tasks",
            "40",
            "--cost-secs",
            "5",
            "--faults",
            "heartbeat-drop=0.3@0..600,direct-loss=0.1:20@120..900",
        ]))
        .unwrap();
        assert!(out.contains("completed         : 40 tasks"), "{out}");
        let err = run(&argv(&["chaos", "--faults", "heartbeat-drop=0.3@600"])).unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn trace_writes_chrome_trace_and_breakdown() {
        let dir = std::env::temp_dir().join("oddci-cli-trace-test");
        let path = dir.join("trace.json");
        let out = run(&argv(&["trace", "small", "--out", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("wakeup (ring): measured"), "{out}");
        assert!(out.contains("dve.boot"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid trace JSON");
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_stream_recomputes_wakeup_and_converts_losslessly() {
        let dir = std::env::temp_dir().join("oddci-cli-stream-test");
        let out_path = dir.join("trace.json");
        let bin_path = dir.join("run.trace.bin");
        let out = run(&argv(&[
            "trace",
            "small",
            "--out",
            out_path.to_str().unwrap(),
            "--stream",
            bin_path.to_str().unwrap(),
            "--lane-capacity",
            "131072",
        ]))
        .unwrap();
        // The wakeup check recomputes from the binary artifact.
        assert!(out.contains("wakeup (streamed trace): measured"), "{out}");
        assert!(out.contains("streamed   :"), "{out}");
        assert!(out.contains("0 dropped (0.0%)"), "{out}");
        let trace = oddci_telemetry::binary::read_file(&bin_path).expect("valid binary trace");
        assert!(trace.truncated.is_none());
        // Offline conversion re-emits both text artifacts with default
        // derived paths, and the JSONL holds exactly the decoded events.
        let converted = run(&argv(&["trace", "convert", bin_path.to_str().unwrap()])).unwrap();
        assert!(converted.contains("converted"), "{converted}");
        let text = std::fs::read_to_string(dir.join("run.trace.jsonl")).unwrap();
        let (header, events) =
            oddci_telemetry::export::read_jsonl_events(&text).expect("valid converted stream");
        assert_eq!(header.clock, "us");
        assert!(!events.is_empty());
        assert_eq!(events, trace.events);
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
        for (name, ..) in COMMANDS {
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
            .map(|(name, _, names)| {
                let names = names.split(' ').map(str::to_string).collect();
                (name.to_string(), names)
            })
            .collect();
        assert_eq!(listed, allowed);
    }

    #[test]
    fn soak_trace_out_streams_run() {
        let dir = std::env::temp_dir().join("oddci-cli-soak-stream-test");
        let stream_path = dir.join("soak.trace.bin");
        let out = run(&argv(&[
            "soak",
            "--nodes",
            "2",
            "--queries",
            "8",
            "--shards",
            "2",
            "--batch",
            "4",
            "--trace-out",
            stream_path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["tasks_unaccounted"], 0);
        let stream = &v["stream"];
        assert!(stream["emitted"].as_u64().unwrap() > 0, "{out}");
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
        let err = run(&argv(&["soak", "--shards", "0"])).unwrap_err();
        assert!(err.contains("1..=64"), "{err}");
        let err = run(&argv(&["soak", "--batch", "9999"])).unwrap_err();
        assert!(err.contains("1..=1024"), "{err}");
        let err = run(&argv(&["soak", "--nodes", "2", "--target", "5"])).unwrap_err();
        assert!(err.contains("--target"), "{err}");
    }

    #[test]
    fn soak_small_run_reports_throughput() {
        let out = run(&argv(&[
            "soak",
            "--nodes",
            "2",
            "--queries",
            "8",
            "--shards",
            "2",
            "--batch",
            "4",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["queries"], 8);
        assert_eq!(v["tasks_unaccounted"], 0);
        assert!(v["throughput_tasks_per_sec"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn trace_rejects_unknown_scenario() {
        let err = run(&argv(&["trace", "bogus"])).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn failover_drill_loses_no_tasks() {
        let out = run(&argv(&[
            "failover",
            "--pnas",
            "3",
            "--queries",
            "48",
            "--snapshot-interval-ms",
            "40",
            "--faults",
            "headend-crash=1.0@0.3..30",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["tasks_lost"], 0, "{out}");
        assert_eq!(v["tasks_unaccounted"], 0, "{out}");
        assert_eq!(v["standby_epoch"], 1, "{out}");
        assert_eq!(v["pnas_reacked"], 3, "{out}");
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
        let mut snap = primary.snapshot_now().expect("idle headend exports");
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
        let out = run(&argv(&[
            "headend",
            "--listen",
            "127.0.0.1:0",
            "--standby",
            dir.to_str().unwrap(),
            "--pnas",
            "1",
            "--min-instances",
            "1",
            "--max-instances",
            "4",
            "--snapshot-interval-ms",
            "20",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--metrics-interval-ms",
            "50",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["epoch"], 1, "{out}");
        assert_eq!(v["threads_failed"], 0, "{out}");

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
        let err = run(&argv(&["failover", "--faults", "heartbeat-drop=0.2"])).unwrap_err();
        assert!(err.contains("never crashes"), "{err}");
    }

    #[test]
    fn simulate_json_output_parses() {
        let out = run(&argv(&[
            "simulate",
            "--nodes",
            "100",
            "--target",
            "20",
            "--tasks",
            "40",
            "--cost-secs",
            "5",
            "--image-mb",
            "1",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["tasks_completed"], 40);
    }
}
