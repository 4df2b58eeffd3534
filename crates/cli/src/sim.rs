//! The simulated world's commands: `simulate`, `chaos`, `trace` and
//! `trace convert`, plus the streaming-sink plumbing `trace` shares with
//! `soak`.

use crate::args::{ArgError, CliError, Parsed, JSON};
use crate::Report;
use oddci_analytics::{makespan, wakeup_envelope, InstanceParams};
use oddci_core::world::MetricsSnapshot;
use oddci_core::{ChurnConfig, JobReport, World, WorldConfig};
use oddci_faults::{FaultClass, FaultPlan};
use oddci_telemetry::{binary, sink::span_durations_us, Phase, SinkSummary, StreamingSink};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::{JobGenerator, JobProfile};
use std::path::Path;
use std::sync::Arc;

/// The commands and every flag each reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag, JSON};

    pub const SIMULATE: Command = Command { name: "simulate", run: super::simulate,
        about: "run a full OddCI-DTV simulation for one job",
        flags: &[NODES, TARGET, TASKS, COST_SECS, IMAGE_MB, SEED, CHURN, JSON] };
    pub const NODES: Flag = Flag::new("nodes", "N", "channel audience", "1000");
    pub const TARGET: Flag = Flag::new("target", "N", "instance size", "100");
    pub const TASKS: Flag = Flag::new("tasks", "N", "job task count", "500");
    pub const COST_SECS: Flag = Flag::new("cost-secs", "S", "task cost (ref. STB)", "60");
    pub const IMAGE_MB: Flag = Flag::new("image-mb", "M", "application image MB", "4");
    pub const SEED: Flag = Flag::new("seed", "S", "simulation seed", "42");
    pub const CHURN: Flag = Flag::new("churn", "ON:OFF", "mean on/off minutes", "off");

    pub const CHAOS: Command = Command { name: "chaos", run: super::chaos,
        about: "simulate one job under deterministic fault injection",
        flags: &[CHAOS_NODES, TARGET, CHAOS_TASKS, CHAOS_COST_SECS, SEED, FAULTS, INTENSITY, JSON] };
    pub const CHAOS_NODES: Flag = Flag::new("nodes", "N", "channel audience", "500");
    pub const CHAOS_TASKS: Flag = Flag::new("tasks", "N", "job task count", "300");
    pub const CHAOS_COST_SECS: Flag = Flag::new("cost-secs", "S", "task cost (ref. STB)", "30");
    pub const FAULTS: Flag = Flag::new("faults", "SPEC", "class=rate[:magnitude][@start..end],... \
        (window in seconds; default: standard mix)", "");
    pub const INTENSITY: Flag = Flag::new("intensity", "F", "scale every rate by F", "1.0");

    pub const TRACE: Command = Command { name: "trace", run: super::trace,
        about: "run one scenario streaming every event to a binary trace, convert it to a \
            Chrome trace (chrome://tracing / Perfetto), and print a per-phase table and the \
            wakeup check",
        flags: &[SCENARIO, OUT, SEED, STREAM, LANE_CAPACITY] };
    pub const SCENARIO: Flag =
        Flag::new("scenario", "scenario", "small | standard | chaos", "small").positional();
    pub const OUT: Flag = Flag::new("out", "PATH", "Chrome trace file", "results/trace.json");
    pub const STREAM: Flag = Flag::new("stream", "PATH", "the binary .trace.bin the run streams \
        to", "--out stem + .trace.bin");
    pub const LANE_CAPACITY: Flag =
        Flag::new("lane-capacity", "N", "events buffered per sink lane", "65536");

    pub const TRACE_CONVERT: Command = Command { name: "trace-convert", run: super::trace_convert,
        about: "re-emit JSONL + Chrome text from a binary trace (the only producer of either \
            text form)",
        flags: &[INPUT, JSONL, CHROME] };
    pub const INPUT: Flag = Flag::new("in", "file", "input .trace.bin", "required").positional();
    pub const JSONL: Flag = Flag::new("jsonl", "PATH", "JSONL output", "input with .jsonl");
    pub const CHROME: Flag = Flag::new("chrome", "PATH", "Chrome output", "jsonl with .stream.json");
}
pub use spec::*;

/// Runs one homogeneous job — `tasks` tasks of `cost_secs` each on an
/// `image_mb` image, 500 B in and out — on a `target`-node instance of
/// `cfg`'s world, for at most a simulated year.
fn run_job(
    cfg: WorldConfig,
    seed: u64,
    image_mb: u64,
    tasks: u64,
    cost_secs: f64,
    target: u64,
) -> Result<(JobReport, MetricsSnapshot, JobProfile), CliError> {
    if target > cfg.nodes {
        let nodes = cfg.nodes;
        return Err(ArgError(format!("--target {target} exceeds --nodes {nodes}")).into());
    }
    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(image_mb),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs_f64(cost_secs),
        seed,
    )
    .generate(tasks);
    let profile = job.profile();
    let mut sim = World::simulation(cfg, seed);
    let request = sim.submit_job(job, target);
    let report = sim
        .run_request(request, SimTime::from_secs(365 * 24 * 3600))
        .ok_or_else(|| CliError::run_failed("job did not complete within a simulated year"))?;
    Ok((report, sim.world().metrics().snapshot(), profile))
}

/// `oddci simulate`: run a full world for one job.
fn simulate(p: &Parsed) -> Result<String, CliError> {
    let nodes: u64 = p.num(&NODES)?;
    let target: u64 = p.num(&TARGET)?;
    let tasks: u64 = p.num(&TASKS)?;
    let cost_secs: f64 = p.num(&COST_SECS)?;
    let image_mb: u64 = p.num(&IMAGE_MB)?;
    let seed: u64 = p.num(&SEED)?;
    let churn = p.pair(&CHURN)?;

    let cfg = WorldConfig {
        nodes,
        churn: churn.map(|(on, off)| ChurnConfig {
            mean_on: SimDuration::from_mins(on),
            mean_off: SimDuration::from_mins(off),
        }),
        ..Default::default()
    };
    let (report, metrics, profile) = run_job(cfg, seed, image_mb, tasks, cost_secs, target)?;
    let predicted = makespan(&profile, &InstanceParams::paper(target));

    let doc = serde_json::json!({
        "nodes": nodes,
        "target": target,
        "tasks_completed": report.tasks_completed,
        "makespan_secs": report.makespan.as_secs_f64(),
        "model_makespan_secs": predicted.as_secs_f64(),
        "requeues": report.requeues,
        "wakeup_broadcasts": report.wakeup_broadcasts,
        "mean_wakeup_latency_secs": metrics.wakeup_latency.mean,
        "joins": metrics.joins,
    });

    let mut r = Report::new(18, format_args!("OddCI-DTV simulation (seed {seed})"));
    r.row("audience", format_args!("{nodes} receivers"));
    r.row("instance", format_args!("{target} nodes"));
    r.row("job", format_args!("{tasks} tasks x {cost_secs}s"));
    r.row(
        "completed",
        format_args!("{} tasks", report.tasks_completed),
    );
    r.row("makespan", report.makespan);
    r.row("model (eq. 1)", predicted);
    r.row("wakeup broadcasts", report.wakeup_broadcasts);
    r.row("requeues (churn)", report.requeues);
    let (mean, joins) = (metrics.wakeup_latency.mean, metrics.joins);
    r.row(
        "mean node wakeup",
        format_args!("{mean:.1}s over {joins} joins"),
    );
    Ok(r.or_json(p.flag(&JSON), &doc))
}

/// `oddci chaos`: run one simulation under an injected-fault plan and
/// report how the control plane coped.
fn chaos(p: &Parsed) -> Result<String, CliError> {
    let nodes: u64 = p.num(&CHAOS_NODES)?;
    let target: u64 = p.num(&TARGET)?;
    let tasks: u64 = p.num(&CHAOS_TASKS)?;
    let cost_secs: f64 = p.num(&CHAOS_COST_SECS)?;
    let seed: u64 = p.num(&SEED)?;
    let intensity: f64 = p.num(&INTENSITY)?;
    if !(0.0..=10.0).contains(&intensity) {
        return Err(ArgError("--intensity must be in [0, 10]".into()).into());
    }
    let plan = match p.get(&FAULTS) {
        Some(spec) => FaultPlan::parse(spec).map_err(ArgError)?,
        None => FaultPlan::standard_mix(),
    }
    .scaled(intensity);

    let cfg = WorldConfig {
        nodes,
        faults: plan.clone(),
        ..Default::default()
    };
    let (report, metrics, _) = run_job(cfg, seed, 2, tasks, cost_secs, target)?;

    let doc = serde_json::json!({
        "nodes": nodes,
        "target": target,
        "intensity": intensity,
        "tasks_completed": report.tasks_completed,
        "makespan_secs": report.makespan.as_secs_f64(),
        "requeues": metrics.requeues,
        "task_fetch_retries": metrics.task_fetch_retries,
        "fetch_aborts": metrics.fetch_aborts,
        "faults": serde_json::to_value(&metrics.faults).expect("counters"),
    });

    let title = format_args!("OddCI chaos run (seed {seed}, intensity {intensity})");
    let mut r = Report::new(18, title);
    r.row("audience", format_args!("{nodes} receivers"));
    r.row("instance", format_args!("{target} nodes"));
    r.row("job", format_args!("{tasks} tasks x {cost_secs}s"));
    r.row(
        "completed",
        format_args!("{} tasks", report.tasks_completed),
    );
    r.row("makespan", report.makespan);
    r.row("requeues", metrics.requeues);
    r.row("fetch retries", metrics.task_fetch_retries);
    r.row("retry chains dead", metrics.fetch_aborts);
    r.row(
        "injected faults",
        format_args!("{} total", metrics.faults.total()),
    );
    for class in FaultClass::ALL {
        let n = metrics.faults.get(class);
        if n > 0 {
            r.line(format_args!("    {:<22}: {n}", class.label()));
        }
    }
    if plan.is_empty() {
        r.line("  (empty fault plan — this was a calm run)");
    }
    Ok(r.or_json(p.flag(&JSON), &doc))
}

/// `path` with its `old` suffix (if any) replaced by `new`:
/// `x.trace.jsonl` → `x.trace.stream.json`.
fn swap_suffix(path: &str, old: &str, new: &str) -> String {
    format!("{}{new}", path.strip_suffix(old).unwrap_or(path))
}

/// Creates the directory `path` is written into, if it has one.
fn create_parent_dir(path: &Path) -> Result<(), ArgError> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent)
            .map_err(|e| ArgError(format!("cannot create `{}`: {e}", parent.display()))),
        _ => Ok(()),
    }
}

/// Build a streaming sink writing the binary trace `stream_path`,
/// stamped with scenario/seed metadata (`oddci trace convert` derives
/// the JSONL and Chrome text forms offline).
pub fn open_stream_sink(
    stream_path: &str,
    lane_capacity: usize,
    scenario: &str,
    seed: u64,
    plane: &str,
) -> Result<Arc<StreamingSink>, ArgError> {
    create_parent_dir(Path::new(stream_path))?;
    StreamingSink::builder(stream_path)
        .lane_capacity(lane_capacity)
        .meta("scenario", scenario)
        .meta("seed", seed.to_string())
        .meta("plane", plane)
        .start()
        .map_err(|e| ArgError(format!("cannot open stream `{stream_path}`: {e}")))
}

/// Finishes a sink, turning a writer failure into an argument error.
pub fn finish_stream(sink: &StreamingSink) -> Result<SinkSummary, ArgError> {
    sink.finish()
        .map_err(|e| ArgError(format!("stream writer failed: {e}")))
}

/// `oddci trace`: run one scenario streaming every event to a binary
/// trace (`--stream`, default `<out stem>.trace.bin`), convert that file
/// into the Chrome `trace_event` document `--out`, and print the
/// per-phase latency breakdown plus the `W = 1.5·I/β` agreement check,
/// computed from the streamed events.
fn trace(p: &Parsed) -> Result<String, CliError> {
    use oddci_telemetry::Telemetry;

    let scenario = p.text(&SCENARIO);
    let out_path = p.text(&OUT);
    let default_stream = swap_suffix(out_path, ".json", ".trace.bin");
    let stream_path = p.get(&STREAM).unwrap_or(&default_stream);
    let seed: u64 = p.num(&SEED)?;
    let lane_capacity = p.positive(&LANE_CAPACITY)?;

    // Scenario presets sized so even `chaos` finishes in seconds.
    let (nodes, target, tasks, cost_secs, image_mb, faults) = match scenario {
        "small" => (100u64, 30u64, 60u64, 10.0f64, 1u64, FaultPlan::none()),
        "standard" => (500, 100, 300, 30.0, 4, FaultPlan::none()),
        "chaos" => (200, 50, 120, 15.0, 2, FaultPlan::standard_mix()),
        other => {
            return Err(ArgError(format!(
                "unknown scenario `{other}` (expected small | standard | chaos)"
            ))
            .into())
        }
    };

    let sink = open_stream_sink(stream_path, lane_capacity, scenario, seed, "sim")?;
    let tele = Telemetry::streaming(sink.clone());
    let cfg = WorldConfig {
        nodes,
        faults,
        telemetry: tele.clone(),
        ..Default::default()
    };
    let beta = cfg.dtv.beta;
    let (report, ..) = run_job(cfg, seed, image_mb, tasks, cost_secs, target)?;

    let summary = finish_stream(&sink)?;
    let streamed = binary::read_file(Path::new(stream_path))
        .map_err(|e| ArgError(format!("cannot read back `{stream_path}`: {e}")))?;
    let path = Path::new(out_path);
    create_parent_dir(path)?;
    binary::convert(&streamed, None, Some(path))
        .map_err(|e| ArgError(format!("cannot write `{out_path}`: {e}")))?;

    let title = format_args!("OddCI trace (scenario {scenario}, seed {seed})");
    let mut r = Report::new(11, title);
    r.row(
        "audience",
        format_args!("{nodes} receivers, instance {target}"),
    );
    r.row("job", format_args!("{tasks} tasks x {cost_secs}s"));
    r.row("makespan", report.makespan);
    r.row("streamed", summary);
    if let Some(report) = &streamed.truncated {
        r.row("truncated", report);
    }
    let events = streamed.events.len();
    r.row("trace", format_args!("{events} events -> {out_path}"));
    r.line("");
    r.line(format_args!(
        "  {:<16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "mean", "p50", "p90", "p99", "max"
    ));
    for (label, s) in tele.phase_breakdown() {
        r.line(format_args!(
            "  {:<16} {:>7} {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s",
            label, s.count, s.mean, s.p50, s.p90, s.p99, s.max
        ));
    }

    // Wakeup agreement: the measured wakeup is wait-for-config plus image
    // read; the §5.1 mean W = 1.5·I/β covers the image-only carousel, so
    // the measured mean should land inside the [best, worst] envelope
    // widened by the small PNA/config files sharing the cycle. Both
    // components come from the streamed file, which holds every event of
    // the run however long it was.
    let mean_secs = |phase: Phase| {
        let durs = span_durations_us(&streamed.events, phase);
        durs.iter().sum::<u64>() as f64 / durs.len().max(1) as f64 / 1e6
    };
    let wait_mean = mean_secs(Phase::WakeupWait);
    let boot_mean = mean_secs(Phase::DveBoot);
    let measured = wait_mean + boot_mean;
    let (_, w_mean, _) = wakeup_envelope(DataSize::from_megabytes(image_mb), beta);
    let w_mean = w_mean.as_secs_f64();
    let off_pct = 100.0 * (measured - w_mean) / w_mean;
    r.line("");
    r.line(format_args!(
        "  wakeup (streamed trace): measured {measured:.1}s (wait {wait_mean:.1}s + boot \
         {boot_mean:.1}s) vs W = 1.5·I/β = {w_mean:.1}s ({off_pct:+.0}%)"
    ));
    Ok(r.text)
}

/// `oddci trace convert`: losslessly re-emit the JSONL and Chrome text
/// artifacts from a binary trace recorded with `trace --stream PATH` or
/// `soak --trace-out PATH` — the only way either text form is produced.
fn trace_convert(p: &Parsed) -> Result<String, CliError> {
    let input = p.get(&INPUT).ok_or_else(|| {
        ArgError(
            "usage: oddci trace convert <file.trace.bin> [--jsonl PATH] [--chrome PATH]".into(),
        )
    })?;
    let default_jsonl = swap_suffix(input, ".bin", ".jsonl");
    let jsonl = p.get(&JSONL).unwrap_or(&default_jsonl);
    let default_chrome = swap_suffix(jsonl, ".jsonl", ".stream.json");
    let chrome = p.get(&CHROME).unwrap_or(&default_chrome);

    let trace = binary::read_file(Path::new(input))
        .map_err(|e| ArgError(format!("cannot read `{input}`: {e}")))?;
    let outputs = binary::convert(&trace, Some(Path::new(jsonl)), Some(Path::new(chrome)))
        .map_err(|e| ArgError(format!("cannot convert `{input}`: {e}")))?;

    let (events, lanes) = (trace.events.len(), trace.header.lanes);
    let title = format_args!("converted {input}: {events} event(s), {lanes} lane(s)");
    let mut r = Report::new(10, title);
    if let Some(report) = &trace.truncated {
        r.row("truncated", report);
    }
    for o in &outputs {
        r.line(format_args!("  -> {} ({} B)", o.path.display(), o.bytes));
    }
    Ok(r.text)
}

#[cfg(test)]
mod tests {
    use crate::testing::oddci;

    #[test]
    fn simulate_rejects_oversized_target() {
        let err = oddci("simulate --nodes 10 --target 20").unwrap_err();
        assert!(err.contains("exceeds"));
    }

    #[test]
    fn lane_capacity_default_is_the_sinks() {
        let declared: usize = super::LANE_CAPACITY.default.parse().unwrap();
        assert_eq!(declared, oddci_telemetry::sink::DEFAULT_LANE_CAPACITY);
    }
}
