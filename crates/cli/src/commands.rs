//! The subcommand implementations.

use crate::args::{ArgError, Parsed};
use oddci_analytics::{efficiency as eq2, makespan, wakeup_envelope, InstanceParams};
use oddci_core::world::ChurnConfig;
use oddci_core::{World, WorldConfig};
use oddci_types::{Bandwidth, DataSize, SimDuration, SimTime};
use oddci_workload::alignment::random_sequence;
use oddci_workload::{JobGenerator, JobProfile};
use std::fmt::Write;

/// `oddci simulate`: run a full world for one job.
pub fn simulate(p: &Parsed) -> Result<String, ArgError> {
    let nodes: u64 = p.num("nodes", 1_000)?;
    let target: u64 = p.num("target", 100)?;
    let tasks: u64 = p.num("tasks", 500)?;
    let cost_secs: f64 = p.num("cost-secs", 60.0)?;
    let image_mb: u64 = p.num("image-mb", 4)?;
    let seed: u64 = p.num("seed", 42)?;
    let churn = p.pair("churn")?;
    if target > nodes {
        return Err(ArgError(format!(
            "--target {target} exceeds --nodes {nodes}"
        )));
    }

    let cfg = WorldConfig {
        nodes,
        churn: churn.map(|(on, off)| ChurnConfig {
            mean_on: SimDuration::from_mins(on),
            mean_off: SimDuration::from_mins(off),
        }),
        ..Default::default()
    };

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
        .ok_or_else(|| ArgError("job did not complete within a simulated year".into()))?;
    let metrics = sim.world().metrics().snapshot();
    let predicted = makespan(&profile, &InstanceParams::paper(target));

    if p.flag("json") {
        let v = serde_json::json!({
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
        return Ok(serde_json::to_string_pretty(&v).expect("json"));
    }

    let mut out = String::new();
    let _ = writeln!(out, "OddCI-DTV simulation (seed {seed})");
    let _ = writeln!(out, "  audience          : {nodes} receivers");
    let _ = writeln!(out, "  instance          : {target} nodes");
    let _ = writeln!(out, "  job               : {tasks} tasks x {cost_secs}s");
    let _ = writeln!(
        out,
        "  completed         : {} tasks",
        report.tasks_completed
    );
    let _ = writeln!(out, "  makespan          : {}", report.makespan);
    let _ = writeln!(out, "  model (eq. 1)     : {predicted}");
    let _ = writeln!(out, "  wakeup broadcasts : {}", report.wakeup_broadcasts);
    let _ = writeln!(out, "  requeues (churn)  : {}", report.requeues);
    let _ = writeln!(
        out,
        "  mean node wakeup  : {:.1}s over {} joins",
        metrics.wakeup_latency.mean, metrics.joins
    );
    Ok(out)
}

/// `oddci chaos`: run one simulation under an injected-fault plan and
/// report how the control plane coped.
pub fn chaos(p: &Parsed) -> Result<String, ArgError> {
    use oddci_faults::{FaultClass, FaultPlan};

    let nodes: u64 = p.num("nodes", 500)?;
    let target: u64 = p.num("target", 100)?;
    let tasks: u64 = p.num("tasks", 300)?;
    let cost_secs: f64 = p.num("cost-secs", 30.0)?;
    let seed: u64 = p.num("seed", 42)?;
    let intensity: f64 = p.num("intensity", 1.0)?;
    if target > nodes {
        return Err(ArgError(format!(
            "--target {target} exceeds --nodes {nodes}"
        )));
    }
    if !(0.0..=10.0).contains(&intensity) {
        return Err(ArgError("--intensity must be in [0, 10]".into()));
    }
    let plan = match p.get("faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(ArgError)?,
        None => FaultPlan::standard_mix(),
    }
    .scaled(intensity);

    let cfg = WorldConfig {
        nodes,
        faults: plan.clone(),
        ..Default::default()
    };

    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(2),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs_f64(cost_secs),
        seed,
    )
    .generate(tasks);

    let mut sim = World::simulation(cfg, seed);
    let request = sim.submit_job(job, target);
    let report = sim
        .run_request(request, SimTime::from_secs(365 * 24 * 3600))
        .ok_or_else(|| ArgError("job did not complete within a simulated year".into()))?;
    let metrics = sim.world().metrics().snapshot();

    if p.flag("json") {
        let v = serde_json::json!({
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
        return Ok(serde_json::to_string_pretty(&v).expect("json"));
    }

    let mut out = String::new();
    let _ = writeln!(out, "OddCI chaos run (seed {seed}, intensity {intensity})");
    let _ = writeln!(out, "  audience          : {nodes} receivers");
    let _ = writeln!(out, "  instance          : {target} nodes");
    let _ = writeln!(out, "  job               : {tasks} tasks x {cost_secs}s");
    let _ = writeln!(
        out,
        "  completed         : {} tasks",
        report.tasks_completed
    );
    let _ = writeln!(out, "  makespan          : {}", report.makespan);
    let _ = writeln!(out, "  requeues          : {}", metrics.requeues);
    let _ = writeln!(out, "  fetch retries     : {}", metrics.task_fetch_retries);
    let _ = writeln!(out, "  retry chains dead : {}", metrics.fetch_aborts);
    let _ = writeln!(
        out,
        "  injected faults   : {} total",
        metrics.faults.total()
    );
    for class in FaultClass::ALL {
        let n = metrics.faults.get(class);
        if n > 0 {
            let _ = writeln!(out, "    {:<22}: {n}", class.label());
        }
    }
    if plan.is_empty() {
        let _ = writeln!(out, "  (empty fault plan — this was a calm run)");
    }
    Ok(out)
}

/// Companion Chrome artifact path for a converted JSONL path:
/// `x.trace.jsonl` → `x.trace.stream.json`.
fn chrome_stream_path(jsonl_path: &str) -> String {
    let stem = jsonl_path.strip_suffix(".jsonl").unwrap_or(jsonl_path);
    format!("{stem}.stream.json")
}

/// Build a streaming sink writing the binary trace `stream_path`,
/// stamped with scenario/seed metadata (`oddci trace convert` derives
/// the JSONL and Chrome text forms offline).
fn open_stream_sink(
    stream_path: &str,
    lane_capacity: Option<usize>,
    scenario: &str,
    seed: u64,
    plane: &str,
) -> Result<std::sync::Arc<oddci_telemetry::StreamingSink>, ArgError> {
    let path = std::path::Path::new(stream_path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ArgError(format!("cannot create `{}`: {e}", parent.display())))?;
        }
    }
    let mut builder = oddci_telemetry::StreamingSink::builder(stream_path);
    if let Some(capacity) = lane_capacity {
        builder = builder.lane_capacity(capacity);
    }
    builder
        .meta("scenario", scenario)
        .meta("seed", seed.to_string())
        .meta("plane", plane)
        .start()
        .map_err(|e| ArgError(format!("cannot open stream `{stream_path}`: {e}")))
}

/// Parses the optional `--lane-capacity` override (events buffered per
/// sink lane before offers drop).
fn lane_capacity_arg(p: &Parsed) -> Result<Option<usize>, ArgError> {
    match p.get("lane-capacity") {
        None => Ok(None),
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| {
                ArgError(format!("`--lane-capacity` expects a number, got `{raw}`"))
            })?;
            if n == 0 {
                return Err(ArgError("--lane-capacity must be positive".into()));
            }
            Ok(Some(n))
        }
    }
}

/// Render the one-line summary of a finished sink. Drops carry their
/// share of the emitted total: an absolute count reads as noise at
/// million-event scale when the real story is "53 % lost".
fn stream_summary_line(summary: &oddci_telemetry::SinkSummary) -> String {
    let pct = if summary.stats.emitted == 0 {
        0.0
    } else {
        100.0 * summary.stats.dropped as f64 / summary.stats.emitted as f64
    };
    format!(
        "{} emitted, {} persisted, {} dropped ({pct:.1}%), {} flushes -> {} ({} B)",
        summary.stats.emitted,
        summary.stats.persisted,
        summary.stats.dropped,
        summary.stats.flushes,
        summary.output.path.display(),
        summary.output.bytes
    )
}

/// `oddci trace`: run one scenario streaming every event to a binary
/// trace (`--stream`, default `<out stem>.trace.bin`), convert that file
/// into the Chrome `trace_event` document `--out`, and print the
/// per-phase latency breakdown plus the `W = 1.5·I/β` agreement check,
/// computed from the streamed events.
pub fn trace(p: &Parsed) -> Result<String, ArgError> {
    use oddci_faults::FaultPlan;
    use oddci_telemetry::{binary, sink::span_durations_us, Phase, Telemetry};
    use std::path::Path;

    let scenario = p.get("scenario").unwrap_or("small");
    let out_path = p.get("out").unwrap_or("results/trace.json");
    let stream_path = match p.get("stream") {
        Some(path) => path.to_string(),
        None => format!(
            "{}.trace.bin",
            out_path.strip_suffix(".json").unwrap_or(out_path)
        ),
    };
    let seed: u64 = p.num("seed", 42)?;
    let lane_capacity = lane_capacity_arg(p)?;

    // Scenario presets sized so even `chaos` finishes in seconds.
    let (nodes, target, tasks, cost_secs, image_mb, faults) = match scenario {
        "small" => (100u64, 30u64, 60u64, 10.0f64, 1u64, FaultPlan::none()),
        "standard" => (500, 100, 300, 30.0, 4, FaultPlan::none()),
        "chaos" => (200, 50, 120, 15.0, 2, FaultPlan::standard_mix()),
        other => {
            return Err(ArgError(format!(
                "unknown scenario `{other}` (expected small | standard | chaos)"
            )))
        }
    };

    let sink = open_stream_sink(&stream_path, lane_capacity, scenario, seed, "sim")?;
    let tele = Telemetry::streaming(sink.clone());
    let cfg = WorldConfig {
        nodes,
        faults,
        telemetry: tele.clone(),
        ..Default::default()
    };
    let beta = cfg.dtv.beta;

    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(image_mb),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs_f64(cost_secs),
        seed,
    )
    .generate(tasks);

    let mut sim = World::simulation(cfg, seed);
    let request = sim.submit_job(job, target);
    let report = sim
        .run_request(request, SimTime::from_secs(365 * 24 * 3600))
        .ok_or_else(|| ArgError("job did not complete within a simulated year".into()))?;

    let summary = sink
        .finish()
        .map_err(|e| ArgError(format!("stream writer failed: {e}")))?;
    let streamed = binary::read_file(Path::new(&stream_path))
        .map_err(|e| ArgError(format!("cannot read back `{stream_path}`: {e}")))?;
    let path = Path::new(out_path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ArgError(format!("cannot create `{}`: {e}", parent.display())))?;
        }
    }
    binary::convert(&streamed, None, Some(path))
        .map_err(|e| ArgError(format!("cannot write `{out_path}`: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(out, "OddCI trace (scenario {scenario}, seed {seed})");
    let _ = writeln!(out, "  audience   : {nodes} receivers, instance {target}");
    let _ = writeln!(out, "  job        : {tasks} tasks x {cost_secs}s");
    let _ = writeln!(out, "  makespan   : {}", report.makespan);
    let _ = writeln!(out, "  streamed   : {}", stream_summary_line(&summary));
    if let Some(report) = &streamed.truncated {
        let _ = writeln!(out, "  truncated  : {report}");
    }
    let _ = writeln!(
        out,
        "  trace      : {} events -> {out_path}",
        streamed.events.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "mean", "p50", "p90", "p99", "max"
    );
    for (label, s) in tele.phase_breakdown() {
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s",
            label, s.count, s.mean, s.p50, s.p90, s.p99, s.max
        );
    }

    // Wakeup agreement: the measured wakeup is wait-for-config plus image
    // read; the §5.1 mean W = 1.5·I/β covers the image-only carousel, so
    // the measured mean should land inside the [best, worst] envelope
    // widened by the small PNA/config files sharing the cycle. Both
    // components come from the streamed file, which holds every event of
    // the run however long it was.
    let mean_secs = |phase: Phase| -> f64 {
        let durs = span_durations_us(&streamed.events, phase);
        if durs.is_empty() {
            0.0
        } else {
            durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6
        }
    };
    let wait_mean = mean_secs(Phase::WakeupWait);
    let boot_mean = mean_secs(Phase::DveBoot);
    let measured = wait_mean + boot_mean;
    let (_, w_mean, _) = wakeup_envelope(DataSize::from_megabytes(image_mb), beta);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  wakeup (streamed trace): measured {measured:.1}s (wait {wait_mean:.1}s + boot {boot_mean:.1}s) vs W = 1.5·I/β = {:.1}s ({:+.0}%)",
        w_mean.as_secs_f64(),
        100.0 * (measured - w_mean.as_secs_f64()) / w_mean.as_secs_f64()
    );
    Ok(out)
}

/// `oddci trace convert`: losslessly re-emit the JSONL and Chrome text
/// artifacts from a binary trace recorded with `trace --stream PATH` or
/// `soak --trace-out PATH` — the only way either text form is produced.
pub fn trace_convert(p: &Parsed) -> Result<String, ArgError> {
    let input = p.get("in").ok_or_else(|| {
        ArgError(
            "usage: oddci trace convert <file.trace.bin> [--jsonl PATH] [--chrome PATH]".into(),
        )
    })?;
    let stem = input.strip_suffix(".bin").unwrap_or(input);
    let jsonl = p
        .get("jsonl")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{stem}.jsonl"));
    let chrome = p
        .get("chrome")
        .map(str::to_string)
        .unwrap_or_else(|| chrome_stream_path(&jsonl));

    let trace = oddci_telemetry::binary::read_file(std::path::Path::new(input))
        .map_err(|e| ArgError(format!("cannot read `{input}`: {e}")))?;
    let outputs = oddci_telemetry::binary::convert(
        &trace,
        Some(std::path::Path::new(&jsonl)),
        Some(std::path::Path::new(&chrome)),
    )
    .map_err(|e| ArgError(format!("cannot convert `{input}`: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "converted {input}: {} event(s), {} lane(s)",
        trace.events.len(),
        trace.header.lanes
    );
    if let Some(report) = &trace.truncated {
        let _ = writeln!(out, "  truncated : {report}");
    }
    for o in &outputs {
        let _ = writeln!(out, "  -> {} ({} B)", o.path.display(), o.bytes);
    }
    Ok(out)
}

/// Renders one `oddci top` refresh: the registry with deltas/rates
/// against the previous poll, then the per-connection rows.
fn render_top(
    reply_registry: &oddci_telemetry::RegistrySnapshot,
    connections: &[oddci_wire::ConnTraffic],
    prev: Option<&oddci_telemetry::RegistrySnapshot>,
    elapsed_secs: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<34} {:>12} {:>10} {:>10}",
        "counter", "value", "delta", "per sec"
    );
    for (name, value) in &reply_registry.counters {
        // A delta needs two samples *of this counter*. Counters created
        // after the previous poll (e.g. a fault class firing for the
        // first time) have no baseline — deltaing them against zero
        // would report their whole lifetime value as one interval's
        // rate, so they render as `-` until the next poll.
        let (shown_delta, rate) = match prev.and_then(|s| s.counters.get(name)) {
            Some(&before) => {
                let delta = value.saturating_sub(before);
                let rate = if elapsed_secs > 0.0 {
                    format!("{:.1}", delta as f64 / elapsed_secs)
                } else {
                    "-".to_string()
                };
                (format!("+{delta}"), rate)
            }
            None => ("-".to_string(), "-".to_string()),
        };
        let _ = writeln!(out, "  {name:<34} {value:>12} {shown_delta:>10} {rate:>10}");
    }
    for (name, value) in &reply_registry.gauges {
        let _ = writeln!(out, "  {name:<34} {value:>12.3}");
    }
    if !reply_registry.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "histogram", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &reply_registry.histograms {
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s",
                name, h.count, h.mean, h.p50, h.p99, h.max
            );
        }
    }
    if !connections.is_empty() {
        let _ = writeln!(
            out,
            "  {:<6} {:<6} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8}",
            "conn", "state", "tx fr", "tx B", "rx fr", "rx B", "rejects", "resyncs"
        );
        for c in connections {
            let _ = writeln!(
                out,
                "  #{:<5} {:<6} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8}",
                c.conn,
                if c.open { "open" } else { "closed" },
                c.tx_frames,
                c.tx_bytes,
                c.rx_frames,
                c.rx_bytes,
                c.checksum_rejects,
                c.resyncs
            );
        }
    }
    out
}

/// `oddci top`: poll a running socket headend's live metrics plane.
/// Sends [`StatsQuery`](oddci_wire::WireMsg::StatsQuery) on an interval
/// and renders the registry (with deltas/rates between polls) plus the
/// per-connection wire counters. A monitoring connection never performs
/// the hello handshake, so it does not consume a node identity.
pub fn top(p: &Parsed) -> Result<String, ArgError> {
    use oddci_wire::{ClientConfig, Integrity, WireClient, WireMsg};
    use std::time::Duration;

    let addr = socket_addr(p, "connect")?;
    let count: u64 = p.num("count", 0)?; // 0 = poll until the headend goes away
    let interval_ms: u64 = p.num("interval-ms", 1000)?;
    if interval_ms == 0 {
        return Err(ArgError("--interval-ms must be positive".into()));
    }
    let mut ccfg = ClientConfig::new(Integrity::hmac(b"live-oddci-key"));
    ccfg.connect_timeout = Duration::from_secs(p.num("connect-timeout", 10)?);
    let client =
        WireClient::connect(addr, ccfg).map_err(|e| ArgError(format!("top on {addr}: {e}")))?;

    let mut prev: Option<oddci_telemetry::RegistrySnapshot> = None;
    let mut last_poll = std::time::Instant::now();
    let mut polls: u64 = 0;
    let mut final_out = String::new();
    loop {
        let corr = polls;
        if !client.send(&WireMsg::StatsQuery { corr }) {
            if polls == 0 {
                return Err(ArgError(format!("top on {addr}: connection closed")));
            }
            break;
        }
        // The headend broadcasts wakeups/shutdown to every connection;
        // skip that traffic until our correlated reply shows up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let reply = loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(ArgError(format!("top on {addr}: no StatsReply within 5s")));
            }
            match client.receiver().recv_timeout(left) {
                Ok(WireMsg::StatsReply {
                    corr: got,
                    registry,
                    connections,
                }) if got == corr => break Some((registry, connections)),
                Ok(WireMsg::Shutdown) => break None,
                Ok(_) => continue,
                Err(_) if client.is_closed() => break None,
                Err(_) => continue,
            }
        };
        let Some((registry, connections)) = reply else {
            if polls == 0 {
                return Err(ArgError(format!("top on {addr}: headend shut down")));
            }
            break;
        };
        let elapsed = last_poll.elapsed().as_secs_f64();
        last_poll = std::time::Instant::now();
        polls += 1;
        if p.flag("json") {
            let conns: Vec<serde_json::Value> = connections
                .iter()
                .map(|c| {
                    serde_json::json!({
                        "conn": c.conn,
                        "open": c.open,
                        "tx_frames": c.tx_frames,
                        "rx_frames": c.rx_frames,
                        "tx_bytes": c.tx_bytes,
                        "rx_bytes": c.rx_bytes,
                        "checksum_rejects": c.checksum_rejects,
                        "resyncs": c.resyncs,
                    })
                })
                .collect();
            let v = serde_json::json!({
                "addr": addr.to_string(),
                "poll": polls,
                "registry": serde_json::to_value(&registry).expect("registry json"),
                "connections": conns,
            });
            final_out = serde_json::to_string_pretty(&v).expect("serialize top json");
        } else {
            let mut text = format!("oddci top — {addr}, poll {polls}\n");
            text.push_str(&render_top(&registry, &connections, prev.as_ref(), elapsed));
            final_out = text;
        }
        prev = Some(registry);
        if count > 0 && polls >= count {
            break;
        }
        // Streaming mode: show each refresh as it lands; the final one is
        // also the return value.
        println!("{final_out}");
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    client.request_close();
    Ok(final_out)
}

/// `oddci wakeup`: the §5.1 envelope.
pub fn wakeup(p: &Parsed) -> Result<String, ArgError> {
    let image_mb: u64 = p.num("image-mb", 8)?;
    let beta_mbps: f64 = p.num("beta-mbps", 1.0)?;
    if beta_mbps <= 0.0 {
        return Err(ArgError("--beta-mbps must be positive".into()));
    }
    let image = DataSize::from_megabytes(image_mb);
    let beta = Bandwidth::from_mbps(beta_mbps);
    let (best, mean, worst) = wakeup_envelope(image, beta);
    Ok(format!(
        "wakeup envelope for a {image_mb} MB image at {beta_mbps} Mbps spare capacity:\n  \
         best  (attach at image start) : {:.1}s\n  \
         mean  (W = 1.5·I/β)           : {:.1}s\n  \
         worst (just missed the start) : {:.1}s\n  \
         independent of instance size: broadcast reaches every tuned receiver at once\n",
        best.as_secs_f64(),
        mean.as_secs_f64(),
        worst.as_secs_f64()
    ))
}

/// `oddci efficiency`: equations (1) and (2) at a point.
pub fn efficiency(p: &Parsed) -> Result<String, ArgError> {
    let phi: f64 = p.num("phi", 1_000.0)?;
    let ratio: f64 = p.num("ratio", 100.0)?;
    let nodes: u64 = p.num("nodes", 1_000)?;
    if phi <= 0.0 || ratio <= 0.0 || nodes == 0 {
        return Err(ArgError(
            "--phi, --ratio and --nodes must be positive".into(),
        ));
    }
    let params = InstanceParams::paper(nodes);
    let n = (ratio * nodes as f64).round() as u64;
    let profile = JobProfile::from_suitability(
        DataSize::from_megabytes(10),
        n.max(1),
        DataSize::from_bytes(1_000),
        params.delta,
        phi,
    );
    let m = makespan(&profile, &params);
    let e = eq2(&profile, &params);
    Ok(format!(
        "paper scenario (I=10MB, β=1Mbps, δ=150Kbps, s+r=1KB):\n  \
         suitability Φ       : {phi}\n  \
         n/N                 : {ratio} ({n} tasks on {nodes} nodes)\n  \
         task cost implied   : {:.1}s\n  \
         makespan (eq. 1)    : {}\n  \
         efficiency (eq. 2)  : {e:.4}\n",
        profile.mean_cost.as_secs_f64(),
        m
    ))
}

/// `oddci live`: the thread-based demo.
pub fn live(p: &Parsed) -> Result<String, ArgError> {
    use oddci_live::{AlignmentImage, LiveConfig, LiveOddci};
    let nodes: u64 = p.num("nodes", 4)?;
    let queries: u64 = p.num("queries", 8)?;
    let target: u64 = p.num("target", 3)?;
    if nodes == 0 || queries == 0 || target == 0 {
        return Err(ArgError(
            "--nodes, --queries and --target must be positive".into(),
        ));
    }
    let live = LiveOddci::start(LiveConfig {
        nodes,
        ..Default::default()
    });
    let outcome = live
        .run_alignment_job(
            AlignmentImage::small_demo(),
            queries,
            target,
            std::time::Duration::from_secs(120),
        )
        .ok_or_else(|| ArgError("live job did not complete within 120s".into()))?;
    live.shutdown();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "live OddCI run: {} receiver threads, instance {target}",
        nodes
    );
    let _ = writeln!(out, "  makespan : {}", outcome.report.makespan);
    let _ = writeln!(out, "  task      score  kind");
    for (task, score) in &outcome.scores {
        let _ = writeln!(
            out,
            "  {:<9} {:>5}  {}",
            task.to_string(),
            score,
            if task.raw() % 2 == 0 {
                "planted homolog"
            } else {
                "random noise"
            }
        );
    }
    Ok(out)
}

/// `oddci soak`: stress the live headend and report task throughput.
///
/// Runs one alignment job with a deliberately small database so each task
/// is cheap: throughput is then dominated by headend round trips, which is
/// exactly what the batch size changes.
pub fn soak(p: &Parsed) -> Result<String, ArgError> {
    use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
    use oddci_telemetry::Telemetry;

    let batch: usize = p.num("batch", 16)?;
    let nodes: u64 = p.num("nodes", 8)?;
    let queries: u64 = p.num("queries", 512)?;
    let target: u64 = p.num("target", nodes)?;
    let seed: u64 = p.num("seed", 42)?;
    let mode = HeadendMode::Sharded {
        shards: 1,
        dispatch: 1,
        batch,
    };
    // Degenerate batches (`--batch 0`, oversized ones) must be a clear
    // argument error, never a runtime panic.
    mode.validate().map_err(ArgError)?;
    if nodes == 0 || queries == 0 {
        return Err(ArgError("--nodes and --queries must be positive".into()));
    }
    if target == 0 || target > nodes {
        return Err(ArgError(format!(
            "--target must be within 1..=--nodes ({nodes}), got {target}"
        )));
    }

    // A tiny database plus short random queries keeps each task a cheap
    // index scan (a few µs), so the soak measures headend round trips
    // rather than alignment arithmetic.
    let image = AlignmentImage {
        db_len: 400,
        ..AlignmentImage::small_demo()
    };
    let work: Vec<std::sync::Arc<Vec<u8>>> = (0..queries)
        .map(|i| std::sync::Arc::new(random_sequence(16, seed ^ i)))
        .collect();
    let lane_capacity = lane_capacity_arg(p)?;
    let sink = match p.get("trace-out") {
        Some(path) => Some(open_stream_sink(path, lane_capacity, "soak", seed, "live")?),
        None => None,
    };
    let tele = match &sink {
        Some(sink) => Telemetry::streaming(sink.clone()),
        None => Telemetry::disabled(),
    };
    let live = LiveOddci::start(LiveConfig {
        nodes,
        seed,
        telemetry: tele.clone(),
        mode,
        ..Default::default()
    });
    let outcome = live
        .run_query_job(image, work, target, std::time::Duration::from_secs(300))
        .ok_or_else(|| ArgError("soak job did not complete within 300s".into()))?;
    // shutdown() joins every thread and flushes the sink before reporting.
    let shutdown = live.shutdown();
    let stream_summary = match &sink {
        Some(sink) => Some(
            sink.finish()
                .map_err(|e| ArgError(format!("stream writer failed: {e}")))?,
        ),
        None => None,
    };

    let makespan = outcome.report.makespan.as_secs_f64();
    let throughput = queries as f64 / makespan.max(1e-9);
    let snapshot = tele.metrics_snapshot();

    if p.flag("json") {
        let mut v = serde_json::json!({
            "batch": batch,
            "nodes": nodes,
            "queries": queries,
            "target": target,
            "makespan_secs": makespan,
            "throughput_tasks_per_sec": throughput,
            "requeues": outcome.report.requeues,
            "tasks_unaccounted": shutdown.tasks_unaccounted,
            "threads_failed": shutdown.threads_failed,
            "gauges": snapshot.gauges,
        });
        if let (serde_json::Value::Object(entries), Some(s)) = (&mut v, &stream_summary) {
            let pct = if s.stats.emitted == 0 {
                0.0
            } else {
                100.0 * s.stats.dropped as f64 / s.stats.emitted as f64
            };
            entries.push((
                "stream".to_string(),
                serde_json::json!({
                    "emitted": s.stats.emitted,
                    "persisted": s.stats.persisted,
                    "dropped": s.stats.dropped,
                    "dropped_pct": pct,
                    "flushes": s.stats.flushes,
                }),
            ));
        }
        return Ok(serde_json::to_string_pretty(&v).expect("serialize soak json"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "live soak: {nodes} receiver threads, instance {target}, {queries} tasks"
    );
    let _ = writeln!(out, "  headend     : in process, batch {batch}");
    let _ = writeln!(out, "  makespan    : {:.3}s", makespan);
    let _ = writeln!(out, "  throughput  : {throughput:.1} tasks/s");
    let _ = writeln!(out, "  requeues    : {}", outcome.report.requeues);
    let _ = writeln!(out, "  unaccounted : {}", shutdown.tasks_unaccounted);
    if shutdown.threads_failed > 0 {
        let _ = writeln!(out, "  PANICKED    : {} thread(s)", shutdown.threads_failed);
    }
    if let Some(summary) = &stream_summary {
        let _ = writeln!(out, "  streamed    : {}", stream_summary_line(summary));
    }
    if let Some(lag) = snapshot.gauges.get("controller.heartbeat_lag") {
        let _ = writeln!(out, "  hb lag      : {lag:.3}s (last beat)");
    }
    Ok(out)
}

/// `oddci check`: the concurrency gate — workspace lint plus bounded
/// model checking of the scaled-down headend scenarios. With `--replay`
/// it re-executes one pinned interleaving instead (for reproducing a
/// schedule printed by an earlier run or by CI).
///
/// Any lint violation, any failure in an `expect-clean` scenario, and
/// any `expect-fail` scenario the detector stops catching (a sensitivity
/// regression) all surface as errors, so `oddci check` exits nonzero.
pub fn check(p: &Parsed) -> Result<String, ArgError> {
    use oddci_check::explore::Explorer;
    use oddci_check::{lint, scenarios};

    let seed: u64 = p.num("seed", 11)?;
    let schedules: usize = p.num("schedules", 400)?;
    if schedules == 0 {
        return Err(ArgError("--schedules must be positive".into()));
    }

    if p.flag("list") {
        let mut out = String::new();
        for s in scenarios::ALL {
            let _ = writeln!(
                out,
                "{:36} {}",
                s.name,
                if s.expect_clean {
                    "expect-clean"
                } else {
                    "expect-fail"
                }
            );
        }
        return Ok(out);
    }

    let selected: Vec<&scenarios::Scenario> = match p.get("scenario") {
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

    if let Some(schedule) = p.get("replay") {
        let [s] = selected[..] else {
            return Err(ArgError("--replay requires --scenario NAME".into()));
        };
        let outcome = Explorer::new(seed).replay(schedule, s.setup);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay {} under {} ({} step(s))",
            s.name, outcome.schedule, outcome.steps
        );
        match outcome.failure {
            Some(msg) => {
                let _ = writeln!(out, "failure reproduced:\n{msg}");
            }
            None => {
                let _ = writeln!(out, "no failure under this interleaving");
            }
        }
        return Ok(out);
    }

    let mut out = String::new();
    if !p.flag("skip-lint") {
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
            return Err(ArgError(msg));
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
        Err(ArgError(failures.join("\n")))
    }
}

/// Parses a required `--name HOST:PORT` socket address option.
fn socket_addr(p: &Parsed, name: &str) -> Result<std::net::SocketAddr, ArgError> {
    let raw = p.get(name).ok_or_else(|| {
        ArgError(format!(
            "`--{name} HOST:PORT` is required (e.g. --{name} 127.0.0.1:7800)"
        ))
    })?;
    raw.parse()
        .map_err(|_| ArgError(format!("`--{name}` expects HOST:PORT, got `{raw}`")))
}

/// The flag → [`LiveConfig`](oddci_live::LiveConfig) mapping both arms
/// of `oddci headend` share, so a standby honours exactly the geometry,
/// snapshot and elastic-sizing flags its primary did. A standby keeps
/// snapshotting into the directory it adopted from, so a second failover
/// has fresh state.
fn headend_config(
    p: &Parsed,
    listen: std::net::SocketAddr,
) -> Result<oddci_live::LiveConfig, ArgError> {
    use oddci_live::{HeadendMode, LiveConfig};

    let pnas: u64 = p.num("pnas", 3)?;
    let snapshot_interval_ms: u64 = p.num("snapshot-interval-ms", 500)?;
    if pnas == 0 || snapshot_interval_ms == 0 {
        return Err(ArgError(
            "--pnas and --snapshot-interval-ms must be positive".into(),
        ));
    }
    let mode = HeadendMode::Socket {
        listen,
        shards: 1,
        dispatch: 1,
        batch: p.num("batch", 8)?,
    };
    mode.validate().map_err(ArgError)?;
    Ok(LiveConfig {
        nodes: pnas,
        seed: p.num("seed", 42)?,
        mode,
        snapshot_dir: p
            .get("standby")
            .or(p.get("snapshot-dir"))
            .map(std::path::PathBuf::from),
        snapshot_interval: std::time::Duration::from_millis(snapshot_interval_ms),
        autoscale: autoscale_policy(p, pnas as usize)?,
        ..Default::default()
    })
}

/// `--metrics-out PATH`: a scraper-friendly Prometheus text snapshot of
/// the registry, rewritten every `--metrics-interval-ms` for as long as
/// the plane runs. Returns the closure that stops the writer, which
/// leaves one last snapshot so the file reflects the finished run.
fn start_metrics_out(
    p: &Parsed,
    tele: &oddci_telemetry::Telemetry,
) -> Result<impl FnOnce(), ArgError> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let interval_ms: u64 = p.num("metrics-interval-ms", 1000)?;
    if interval_ms == 0 {
        return Err(ArgError("--metrics-interval-ms must be positive".into()));
    }
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let thread = match p.get("metrics-out") {
        Some(path) => {
            let path = path.to_string();
            let stop = std::sync::Arc::clone(&stop);
            let tele = tele.clone();
            let interval = std::time::Duration::from_millis(interval_ms);
            let write = move || {
                let text = oddci_telemetry::export::prometheus(&tele.metrics_snapshot());
                let _ = std::fs::write(&path, text);
            };
            Some(
                std::thread::Builder::new()
                    .name("oddci-metrics-out".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            write();
                            std::thread::sleep(interval);
                        }
                        write();
                    })
                    .map_err(|e| ArgError(format!("cannot start metrics writer: {e}")))?,
            )
        }
        None => None,
    };
    Ok(move || {
        stop.store(true, Ordering::Release);
        if let Some(t) = thread {
            let _ = t.join();
        }
    })
}

/// Finishes the report of either `oddci headend` arm: after the arm's own
/// leading `fields` (JSON) or rows (`out`), the shutdown accounting and
/// the wire-transport counters, per plane and per connection.
fn headend_report(
    p: &Parsed,
    fields: serde_json::Value,
    mut out: String,
    shutdown: oddci_live::ShutdownReport,
    stats: &oddci_wire::WireStatsSnapshot,
    connections: &[oddci_wire::ConnTraffic],
) -> String {
    if p.flag("json") {
        let tail = serde_json::json!({
            "tasks_unaccounted": shutdown.tasks_unaccounted,
            "threads_failed": shutdown.threads_failed,
            "wire": {
                "accepted": stats.accepted,
                "tx_frames": stats.tx_frames,
                "rx_frames": stats.rx_frames,
                "tx_messages": stats.tx_messages,
                "rx_messages": stats.rx_messages,
                "multi_chunk_tx": stats.multi_chunk_tx,
                "checksum_rejects": stats.checksum_rejects,
                "resyncs": stats.resyncs,
                "duplicates": stats.duplicates,
                "loop_turns": stats.loop_turns,
            },
            "connections": connections.iter().map(|c| serde_json::json!({
                "conn": c.conn,
                "open": c.open,
                "tx_frames": c.tx_frames,
                "rx_frames": c.rx_frames,
                "tx_bytes": c.tx_bytes,
                "rx_bytes": c.rx_bytes,
                "checksum_rejects": c.checksum_rejects,
                "resyncs": c.resyncs,
            })).collect::<Vec<_>>(),
        });
        let (serde_json::Value::Object(mut entries), serde_json::Value::Object(tail)) =
            (fields, tail)
        else {
            unreachable!("both arms pass a json! object");
        };
        entries.extend(tail);
        return serde_json::to_string_pretty(&serde_json::Value::Object(entries))
            .expect("serialize headend json");
    }
    let _ = writeln!(out, "  unaccounted : {}", shutdown.tasks_unaccounted);
    // Always printed: a zero here is the operator's positive confirmation
    // that no headend thread panicked, not just the absence of bad news.
    let _ = writeln!(out, "  threads lost: {}", shutdown.threads_failed);
    let _ = writeln!(
        out,
        "  wire        : {} conn(s), {} tx / {} rx frames, {} multi-chunk tx",
        stats.accepted, stats.tx_frames, stats.rx_frames, stats.multi_chunk_tx
    );
    let _ = writeln!(
        out,
        "  integrity   : {} checksum reject(s), {} resync(s), {} duplicate(s)",
        stats.checksum_rejects, stats.resyncs, stats.duplicates
    );
    for c in connections {
        let _ = writeln!(
            out,
            "    conn #{:<4} {:<6} tx {} fr / {} B, rx {} fr / {} B, {} reject(s), {} resync(s)",
            c.conn,
            if c.open { "open" } else { "closed" },
            c.tx_frames,
            c.tx_bytes,
            c.rx_frames,
            c.rx_bytes,
            c.checksum_rejects,
            c.resyncs
        );
    }
    out
}

/// `oddci headend`: the socket-backed live plane's server half. Binds a
/// TCP listener, waits for `oddci pna --connect` processes to join, runs
/// one alignment job over the wire (wakeup image streamed in checksummed
/// chunks, heartbeats on the direct channels) and reports the outcome
/// plus transport counters.
pub fn headend(p: &Parsed) -> Result<String, ArgError> {
    use oddci_live::{AlignmentImage, LiveOddci};

    let listen = socket_addr(p, "listen")?;
    if p.get("standby").is_some() {
        return headend_standby(p, listen);
    }
    let config = headend_config(p, listen)?;
    let pnas = config.nodes;
    let queries: u64 = p.num("queries", 8)?;
    let target: u64 = p.num("target", pnas.min(3))?;
    let timeout_secs: u64 = p.num("timeout", 120)?;
    let db_len: usize = p.num("db-len", 20_000)?;
    if queries == 0 || db_len == 0 || timeout_secs == 0 {
        return Err(ArgError(
            "--queries, --db-len and --timeout must be positive".into(),
        ));
    }
    if target == 0 || target > pnas {
        return Err(ArgError(format!(
            "--target must be within 1..=--pnas ({pnas}), got {target}"
        )));
    }
    let stop_metrics = start_metrics_out(p, &config.telemetry)?;

    let live = LiveOddci::start(config);
    let addr = live.wire_addr().expect("socket mode exposes its address");
    let image = AlignmentImage {
        db_len,
        ..AlignmentImage::small_demo()
    };
    let outcome = match live.run_alignment_job(
        image,
        queries,
        target,
        std::time::Duration::from_secs(timeout_secs),
    ) {
        Some(outcome) => outcome,
        None => {
            live.shutdown();
            stop_metrics();
            return Err(ArgError(format!(
                "job did not complete within {timeout_secs}s — are {target}+ \
                 `oddci pna --connect {addr}` processes running?"
            )));
        }
    };
    let stats = live.wire_stats().expect("socket mode exposes wire stats");
    let connections = live.wire_conn_stats().unwrap_or_default();
    let shutdown = live.shutdown();
    stop_metrics();
    let makespan = outcome.report.makespan.as_secs_f64();

    let fields = serde_json::json!({
        "listen": addr.to_string(),
        "pnas": pnas,
        "target": target,
        "queries": queries,
        "tasks_completed": outcome.report.tasks_completed,
        "makespan_secs": makespan,
        "requeues": outcome.report.requeues,
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "socket headend on {addr}: instance {target} of {pnas} PNA(s), {queries} tasks"
    );
    let _ = writeln!(out, "  completed   : {}", outcome.report.tasks_completed);
    let _ = writeln!(out, "  makespan    : {makespan:.3}s");
    let _ = writeln!(out, "  requeues    : {}", outcome.report.requeues);
    Ok(headend_report(
        p,
        fields,
        out,
        shutdown,
        &stats,
        &connections,
    ))
}

/// The `--standby DIR` arm of `oddci headend`: instead of starting
/// fresh, adopt the snapshot in DIR — rebind the dead primary's address,
/// import its membership, heartbeat ledgers, job tables and sizing
/// verdict at a bumped fencing epoch, let the surviving PNAs redial in,
/// and wait for every adopted in-flight job to finish before the usual
/// shutdown broadcast.
fn headend_standby(p: &Parsed, listen: std::net::SocketAddr) -> Result<String, ArgError> {
    use oddci_live::LiveOddci;
    use std::time::{Duration, Instant};

    let config = headend_config(p, listen)?;
    let pnas = config.nodes;
    let timeout_secs: u64 = p.num("timeout", 120)?;
    if timeout_secs == 0 {
        return Err(ArgError("--timeout must be positive".into()));
    }
    let snap_path = std::path::Path::new(p.get("standby").expect("caller checked"))
        .join(oddci_live::SNAPSHOT_FILE);
    let snap = oddci_live::snapshot::read_file(&snap_path)
        .map_err(|e| ArgError(format!("cannot read snapshot {}: {e}", snap_path.display())))?;
    let stop_metrics = start_metrics_out(p, &config.telemetry)?;

    let standby = match LiveOddci::start_standby(config, &snap) {
        Ok(standby) => standby,
        Err(e) => {
            stop_metrics();
            return Err(ArgError(format!("standby failed to adopt: {e}")));
        }
    };
    let addr = standby
        .wire_addr()
        .expect("socket mode exposes its address");
    let epoch = standby.epoch();

    let deadline = Instant::now() + Duration::from_secs(timeout_secs);
    let jobs = standby.running_jobs();
    let mut tasks_completed = 0u64;
    let mut requeues = 0u64;
    for req in &jobs {
        match standby.wait_job(*req, deadline.saturating_duration_since(Instant::now())) {
            Some(outcome) => {
                tasks_completed += outcome.report.tasks_completed;
                requeues += outcome.report.requeues;
            }
            None => {
                standby.shutdown();
                stop_metrics();
                return Err(ArgError(format!(
                    "adopted job {req:?} did not complete within {timeout_secs}s \
                     — are the surviving PNAs redialing {addr}?"
                )));
            }
        }
    }
    // Hold the shutdown broadcast until every surviving PNA has redialed
    // and re-acked, so none is stranded against a dead address.
    let reconnect_deadline = Instant::now() + Duration::from_secs(5);
    while standby.wire_stats().is_some_and(|s| s.accepted < pnas) {
        if Instant::now() >= reconnect_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = standby
        .wire_stats()
        .expect("socket mode exposes wire stats");
    let connections = standby.wire_conn_stats().unwrap_or_default();
    let shutdown = standby.shutdown();
    stop_metrics();

    let fields = serde_json::json!({
        "listen": addr.to_string(),
        "epoch": epoch,
        "snapshot_epoch": snap.epoch,
        "adopted_jobs": jobs.len(),
        "tasks_completed": tasks_completed,
        "requeues": requeues,
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "standby headend on {addr}: adopted epoch {} -> {epoch}, {} in-flight job(s)",
        snap.epoch,
        jobs.len()
    );
    let _ = writeln!(out, "  completed   : {tasks_completed}");
    let _ = writeln!(out, "  requeues    : {requeues}");
    Ok(headend_report(
        p,
        fields,
        out,
        shutdown,
        &stats,
        &connections,
    ))
}

/// `oddci pna`: one Processing Node Agent process. Connects to a
/// `oddci headend --listen` address, handshakes, and runs the full §3.2
/// receiver loop — wakeup, boot from the streamed image, task fetch,
/// result upload, heartbeats — until the headend broadcasts shutdown.
pub fn pna(p: &Parsed) -> Result<String, ArgError> {
    use oddci_live::wire::WirePnaConfig;

    let connect = socket_addr(p, "connect")?;
    let seed: u64 = p.num("seed", 7)?;
    let heartbeat_ms: u64 = p.num("heartbeat-ms", 150)?;
    let connect_secs: u64 = p.num("connect-timeout", 10)?;
    let reconnect_ms: u64 = p.num("reconnect-ms", 0)?;
    if heartbeat_ms == 0 || connect_secs == 0 {
        return Err(ArgError(
            "--heartbeat-ms and --connect-timeout must be positive".into(),
        ));
    }
    let mut cfg = WirePnaConfig::new(connect);
    cfg.seed = seed;
    cfg.heartbeat_interval = std::time::Duration::from_millis(heartbeat_ms);
    cfg.connect_timeout = std::time::Duration::from_secs(connect_secs);
    // 0 keeps the legacy behavior: a dead connection is a shutdown. Any
    // positive window arms the redial loop that lets a standby headend
    // adopt this node after a primary crash.
    if reconnect_ms > 0 {
        cfg.reconnect = Some(std::time::Duration::from_millis(reconnect_ms));
    }
    let report =
        oddci_live::run_wire_pna(cfg).map_err(|e| ArgError(format!("pna on {connect}: {e}")))?;
    let stats = &report.stats;

    if p.flag("json") {
        let v = serde_json::json!({
            "node": report.node.raw(),
            "epoch": report.epoch,
            "wire": {
                "tx_frames": stats.tx_frames,
                "rx_frames": stats.rx_frames,
                "tx_messages": stats.tx_messages,
                "rx_messages": stats.rx_messages,
                "multi_chunk_rx": stats.multi_chunk_rx,
                "checksum_rejects": stats.checksum_rejects,
                "resyncs": stats.resyncs,
                "duplicates": stats.duplicates,
            },
        });
        return Ok(serde_json::to_string_pretty(&v).expect("serialize pna json"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "pna node {} ran to shutdown against {connect} (epoch {})",
        report.node.raw(),
        report.epoch
    );
    let _ = writeln!(
        out,
        "  wire      : {} tx / {} rx frames, {} tx / {} rx messages",
        stats.tx_frames, stats.rx_frames, stats.tx_messages, stats.rx_messages
    );
    let _ = writeln!(
        out,
        "  integrity : {} multi-chunk rx, {} checksum reject(s), {} resync(s)",
        stats.multi_chunk_rx, stats.checksum_rejects, stats.resyncs
    );
    Ok(out)
}

/// `oddci failover`: the headend-durability scenario. Boots a snapshotting
/// socket headend plus reconnecting in-process PNAs, kills the primary at
/// the first `headend-crash` opportunity in the fault plan (no goodbye —
/// the listener just dies), then boots a standby from the latest snapshot
/// on the same address and proves the job finishes with every task
/// accounted for and every PNA re-acked at the bumped epoch.
pub fn failover(p: &Parsed) -> Result<String, ArgError> {
    use oddci_faults::{FaultInjector, FaultPlan};
    use oddci_live::wire::WirePnaConfig;
    use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let listen = match p.get("listen") {
        Some(_) => socket_addr(p, "listen")?,
        None => "127.0.0.1:0".parse().expect("loopback default"),
    };
    let pnas: u64 = p.num("pnas", 3)?;
    let queries: u64 = p.num("queries", 64)?;
    let target: u64 = p.num("target", pnas.min(3))?;
    let seed: u64 = p.num("seed", 42)?;
    let timeout_secs: u64 = p.num("timeout", 60)?;
    let snapshot_interval_ms: u64 = p.num("snapshot-interval-ms", 50)?;
    let db_len: usize = p.num("db-len", 200_000)?;
    if pnas == 0 || queries == 0 || timeout_secs == 0 || snapshot_interval_ms == 0 || db_len == 0 {
        return Err(ArgError(
            "--pnas, --queries, --timeout, --snapshot-interval-ms and --db-len \
             must be positive"
                .into(),
        ));
    }
    if target == 0 || target > pnas {
        return Err(ArgError(format!(
            "--target must be within 1..=--pnas ({pnas}), got {target}"
        )));
    }
    let plan = match p.get("faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(ArgError)?,
        // Default: the primary is guaranteed dead half a second in.
        None => FaultPlan::parse("headend-crash=1.0@0.5..30").expect("default plan parses"),
    };
    // The kill time comes from the plan, the same way the live planes poll
    // the injector: scan `headend_crashed` on a 10 ms tick and take the
    // first hit.
    let injector = FaultInjector::new(plan, seed);
    let crash_at = (0..timeout_secs * 100)
        .map(|t| t as f64 / 100.0)
        .find(|&t| injector.headend_crashed(SimTime::from_secs_f64(t)))
        .ok_or_else(|| {
            ArgError(
                "the fault plan never crashes the headend — include e.g. \
                 `--faults headend-crash=1.0@0.5..30`"
                    .into(),
            )
        })?;

    let dir = match p.get("snapshot-dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("oddci-failover-{}", std::process::id())),
    };
    let mk_config = |listen: std::net::SocketAddr| LiveConfig {
        nodes: pnas,
        seed,
        heartbeat_interval: Duration::from_millis(60),
        mode: HeadendMode::Socket {
            listen,
            shards: 1,
            dispatch: 1,
            batch: 4,
        },
        snapshot_dir: Some(dir.clone()),
        snapshot_interval: Duration::from_millis(snapshot_interval_ms),
        ..Default::default()
    };
    mk_config(listen).mode.validate().map_err(ArgError)?;

    let primary = LiveOddci::start(mk_config(listen));
    let addr = primary.wire_addr().expect("socket headends listen");

    let pna_threads: Vec<_> = (0..pnas)
        .map(|i| {
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = 100 + i;
                cfg.heartbeat_interval = Duration::from_millis(60);
                cfg.reconnect = Some(Duration::from_secs(timeout_secs));
                oddci_live::run_wire_pna(cfg)
            })
        })
        .collect();
    let join_pnas = |threads: Vec<std::thread::JoinHandle<_>>| -> Vec<u64> {
        threads
            .into_iter()
            .filter_map(|h| h.join().ok().and_then(Result::ok))
            .map(|rep: oddci_live::WirePnaReport| rep.epoch)
            .collect()
    };

    // A database big enough (by default) that the kill genuinely lands
    // mid-job rather than after a sub-second sprint.
    let image = AlignmentImage {
        db_len,
        ..AlignmentImage::small_demo()
    };
    let job_queries: Vec<Arc<Vec<u8>>> = (0..queries)
        .map(|i| Arc::new(random_sequence(64, seed ^ i)))
        .collect();
    let submitted = Instant::now();
    let req = match primary.submit_query_job(image, job_queries, target) {
        Some(req) => req,
        None => {
            primary.shutdown();
            let _ = join_pnas(pna_threads);
            return Err(ArgError("job submission failed".into()));
        }
    };

    // Hold fire until the plan's kill time has passed AND a snapshot that
    // has seen the job exists — killing before the first export would just
    // demonstrate losing everything.
    let snap_path = dir.join(oddci_live::SNAPSHOT_FILE);
    let deadline = submitted + Duration::from_secs(timeout_secs);
    let snap = loop {
        if submitted.elapsed().as_secs_f64() >= crash_at {
            if let Ok(s) = oddci_live::snapshot::read_file(&snap_path) {
                if !s.job_queries.is_empty() {
                    break s;
                }
            }
        }
        if Instant::now() >= deadline {
            primary.shutdown();
            let _ = join_pnas(pna_threads);
            return Err(ArgError(format!(
                "no snapshot containing the job appeared within {timeout_secs}s"
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    primary.crash();

    let adopt_started = Instant::now();
    let standby = match LiveOddci::start_standby(mk_config(addr), &snap) {
        Ok(s) => s,
        Err(e) => {
            let _ = join_pnas(pna_threads);
            return Err(ArgError(format!("standby failed to adopt: {e}")));
        }
    };
    let adopt_ms = adopt_started.elapsed().as_secs_f64() * 1e3;
    let adopted_req = standby.running_jobs().contains(&req);
    let standby_epoch = standby.epoch();

    let outcome = standby.wait_job(req, deadline.saturating_duration_since(Instant::now()));
    // Even if the job was already complete in the snapshot, hold the
    // standby open until every PNA has redialed and re-acked: shutting
    // down before they reconnect would strand them against a dead
    // address for their whole redial window.
    let reconnect_deadline = Instant::now() + Duration::from_secs(5);
    while standby.wire_stats().is_some_and(|s| s.accepted < pnas) {
        if Instant::now() >= reconnect_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let shutdown = standby.shutdown();
    let pna_epochs = join_pnas(pna_threads);
    let outcome = match outcome {
        Some(o) => o,
        None => {
            return Err(ArgError(format!(
                "job did not complete on the standby within {timeout_secs}s"
            )))
        }
    };
    let tasks_lost = queries.saturating_sub(outcome.scores.len() as u64);
    let reacked = pna_epochs.iter().filter(|&&e| e == standby_epoch).count() as u64;

    if p.flag("json") {
        let v = serde_json::json!({
            "listen": addr.to_string(),
            "pnas": pnas,
            "queries": queries,
            "target": target,
            "crash_at_secs": crash_at,
            "snapshot_epoch": snap.epoch,
            "standby_epoch": standby_epoch,
            "adopt_ms": adopt_ms,
            "adopted_running_job": adopted_req,
            "tasks_completed": outcome.report.tasks_completed,
            "tasks_lost": tasks_lost,
            "requeues": outcome.report.requeues,
            "tasks_unaccounted": shutdown.tasks_unaccounted,
            "threads_failed": shutdown.threads_failed,
            "pnas_reacked": reacked,
            "pna_epochs": pna_epochs,
        });
        return Ok(serde_json::to_string_pretty(&v).expect("serialize failover json"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "failover on {addr}: killed primary at t={crash_at:.2}s, {queries} tasks in flight"
    );
    let _ = writeln!(
        out,
        "  adoption    : epoch {} -> {standby_epoch} in {adopt_ms:.1}ms",
        snap.epoch
    );
    let _ = writeln!(out, "  completed   : {}", outcome.report.tasks_completed);
    let _ = writeln!(out, "  tasks lost  : {tasks_lost}");
    let _ = writeln!(out, "  requeues    : {}", outcome.report.requeues);
    let _ = writeln!(out, "  unaccounted : {}", shutdown.tasks_unaccounted);
    let _ = writeln!(out, "  threads lost: {}", shutdown.threads_failed);
    let _ = writeln!(
        out,
        "  PNAs        : {reacked} of {pnas} re-acked at epoch {standby_epoch}"
    );
    if tasks_lost > 0 || shutdown.tasks_unaccounted > 0 {
        return Err(ArgError(format!(
            "failover lost work: {tasks_lost} task(s) missing, {} unaccounted\n{out}",
            shutdown.tasks_unaccounted
        )));
    }
    Ok(out)
}

/// Builds the elastic-sizing policy from the shared autoscale flags
/// (`--min-instances`, `--max-instances`, `--slo-queue-depth`,
/// `--cooldown-ms`). Returns `None` when none of them were given —
/// the headend then runs with the paper's fixed-size Provider.
fn autoscale_policy(
    p: &Parsed,
    default_max: usize,
) -> Result<Option<oddci_core::AutoscalePolicy>, ArgError> {
    let given = [
        "min-instances",
        "max-instances",
        "slo-queue-depth",
        "cooldown-ms",
    ]
    .iter()
    .any(|k| p.get(k).is_some());
    if !given {
        return Ok(None);
    }
    let policy = oddci_core::AutoscalePolicy {
        min_size: p.num("min-instances", 1)?,
        max_size: p.num("max-instances", default_max)?,
        slo_queue_depth: p.num("slo-queue-depth", 4)?,
        cooldown: SimDuration::from_millis(p.num("cooldown-ms", 2_000)?),
        ..oddci_core::AutoscalePolicy::default()
    };
    policy.validate().map_err(ArgError)?;
    Ok(Some(policy))
}

/// `oddci autoscale`: the elastic-sizing drill. Boots a socket
/// headend with the desired-state reconciler enabled, submits a job at
/// the *minimum* instance size, and lets the queue-depth SLO drive the
/// Provider up toward `--max-instances` and back down as the backlog
/// drains. The fault plan includes a spot-like `airtime-revoked` window
/// (the broadcaster reclaims the channel, evicting the whole
/// membership); the drill proves the reconciler absorbs it — tasks
/// requeue, a Replace re-requests the capacity, and the job finishes
/// with zero loss. Fails unless at least one scale-up AND one
/// scale-down happened.
pub fn autoscale(p: &Parsed) -> Result<String, ArgError> {
    use oddci_faults::FaultPlan;
    use oddci_live::wire::WirePnaConfig;
    use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let listen = match p.get("listen") {
        Some(_) => socket_addr(p, "listen")?,
        None => "127.0.0.1:0".parse().expect("loopback default"),
    };
    let pnas: u64 = p.num("pnas", 6)?;
    let queries: u64 = p.num("queries", 64)?;
    let seed: u64 = p.num("seed", 42)?;
    let timeout_secs: u64 = p.num("timeout", 60)?;
    let db_len: usize = p.num("db-len", 800_000)?;
    let reconcile_ms: u64 = p.num("reconcile-ms", 25)?;
    if pnas == 0 || queries == 0 || timeout_secs == 0 || db_len == 0 || reconcile_ms == 0 {
        return Err(ArgError(
            "--pnas, --queries, --timeout, --db-len and --reconcile-ms must be positive".into(),
        ));
    }
    // The drill defaults to a tight loop: SLO of 8 queued tasks per
    // member, a short cooldown so the scale-down fits inside one job.
    let cooldown_ms: u64 = p.num("cooldown-ms", 400)?;
    let policy = oddci_core::AutoscalePolicy {
        min_size: p.num("min-instances", 2)?,
        max_size: p.num("max-instances", pnas as usize)?,
        slo_queue_depth: p.num("slo-queue-depth", 8)?,
        cooldown: SimDuration::from_millis(cooldown_ms),
        ..oddci_core::AutoscalePolicy::default()
    };
    policy.validate().map_err(ArgError)?;
    if policy.max_size as u64 > pnas {
        return Err(ArgError(format!(
            "--max-instances {} exceeds --pnas {pnas}",
            policy.max_size
        )));
    }
    let plan = match p.get("faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(ArgError)?,
        // Default: the broadcaster reclaims the channel once, mid-job —
        // the window is narrower than the revocation gate (one cooldown),
        // so exactly one eviction fires.
        None => FaultPlan::parse("airtime-revoked=1.0@1.2..1.5").expect("default plan parses"),
    };

    let live = LiveOddci::start(LiveConfig {
        nodes: pnas,
        seed,
        heartbeat_interval: Duration::from_millis(60),
        faults: plan,
        mode: HeadendMode::Socket {
            listen,
            shards: 1,
            dispatch: 1,
            batch: 4,
        },
        autoscale: Some(policy),
        autoscale_interval: Duration::from_millis(reconcile_ms),
        ..Default::default()
    });
    let addr = live.wire_addr().expect("socket headends listen");

    let pna_threads: Vec<_> = (0..pnas)
        .map(|i| {
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = 100 + i;
                cfg.heartbeat_interval = Duration::from_millis(60);
                oddci_live::run_wire_pna(cfg)
            })
        })
        .collect();

    let image = AlignmentImage {
        db_len,
        ..AlignmentImage::small_demo()
    };
    let job_queries: Vec<Arc<Vec<u8>>> = (0..queries)
        .map(|i| Arc::new(random_sequence(64, seed ^ i)))
        .collect();
    let submitted = Instant::now();
    // Submit at the floor: the backlog against the SLO is what must pull
    // the instance up, not the operator's initial guess.
    let req = match live.submit_query_job(image, job_queries, policy.min_size as u64) {
        Some(req) => req,
        None => {
            live.shutdown();
            for t in pna_threads {
                let _ = t.join();
            }
            return Err(ArgError("job submission failed".into()));
        }
    };
    let outcome = live.wait_job(req, Duration::from_secs(timeout_secs));
    let makespan = submitted.elapsed().as_secs_f64();
    // The drained queue must pull the instance back toward the floor.
    // Completion can land inside the cooldown window, so give the
    // reconciler a few post-job windows to issue the trim before
    // declaring the run inelastic.
    let drain_deadline = Instant::now() + Duration::from_millis(cooldown_ms.saturating_mul(4));
    let export = loop {
        let export = live
            .autoscale_state()
            .expect("drill always enables the reconciler");
        if outcome.is_none() || export.scale_downs > 0 || Instant::now() >= drain_deadline {
            break export;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let revocations = live
        .telemetry()
        .registry()
        .counter("faults.airtime_revoked")
        .get();
    let shutdown = live.shutdown();
    for t in pna_threads {
        let _ = t.join();
    }
    let outcome = outcome.ok_or_else(|| {
        ArgError(format!(
            "job did not complete within {timeout_secs}s (desired {}, {} scale-up(s), \
             {} replacement(s))",
            export.desired, export.scale_ups, export.replacements
        ))
    })?;
    let tasks_lost = queries.saturating_sub(outcome.scores.len() as u64);

    if p.flag("json") {
        let v = serde_json::json!({
            "listen": addr.to_string(),
            "pnas": pnas,
            "queries": queries,
            "min_instances": policy.min_size,
            "max_instances": policy.max_size,
            "slo_queue_depth": policy.slo_queue_depth,
            "ticks": export.ticks,
            "scale_ups": export.scale_ups,
            "scale_downs": export.scale_downs,
            "replacements": export.replacements,
            "revocations": revocations,
            "final_desired": export.desired,
            "tasks_completed": outcome.report.tasks_completed,
            "tasks_lost": tasks_lost,
            "requeues": outcome.report.requeues,
            "tasks_unaccounted": shutdown.tasks_unaccounted,
            "threads_failed": shutdown.threads_failed,
            "makespan_secs": makespan,
        });
        let rendered = serde_json::to_string_pretty(&v).expect("serialize autoscale json");
        return check_drill(
            &export,
            revocations,
            tasks_lost,
            shutdown.tasks_unaccounted,
            rendered,
        );
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "autoscale on {addr}: {queries} tasks, instance {}..={} (SLO {} queued/member)",
        policy.min_size, policy.max_size, policy.slo_queue_depth
    );
    let _ = writeln!(
        out,
        "  reconciler  : {} tick(s), {} up / {} down / {} replacement(s), final desired {}",
        export.ticks, export.scale_ups, export.scale_downs, export.replacements, export.desired
    );
    let _ = writeln!(out, "  revocations : {revocations} (airtime reclaimed)");
    let _ = writeln!(out, "  completed   : {}", outcome.report.tasks_completed);
    let _ = writeln!(out, "  tasks lost  : {tasks_lost}");
    let _ = writeln!(out, "  requeues    : {}", outcome.report.requeues);
    let _ = writeln!(out, "  unaccounted : {}", shutdown.tasks_unaccounted);
    let _ = writeln!(out, "  threads lost: {}", shutdown.threads_failed);
    let _ = writeln!(out, "  makespan    : {makespan:.3}s");
    check_drill(
        &export,
        revocations,
        tasks_lost,
        shutdown.tasks_unaccounted,
        out,
    )
}

/// The autoscale drill's verdict: elastic both ways, revocation absorbed
/// (when the plan fired one), and no work lost.
fn check_drill(
    export: &oddci_core::AutoscaleExport,
    revocations: u64,
    tasks_lost: u64,
    unaccounted: u64,
    out: String,
) -> Result<String, ArgError> {
    if tasks_lost > 0 || unaccounted > 0 {
        return Err(ArgError(format!(
            "autoscale lost work: {tasks_lost} task(s) missing, {unaccounted} unaccounted\n{out}"
        )));
    }
    if export.scale_ups == 0 || export.scale_downs == 0 {
        return Err(ArgError(format!(
            "instance was not elastic: {} scale-up(s), {} scale-down(s)\n{out}",
            export.scale_ups, export.scale_downs
        )));
    }
    if revocations > 0 && export.replacements == 0 {
        return Err(ArgError(format!(
            "{revocations} revocation(s) fired but no replacement was issued\n{out}"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(parts: &[&str]) -> Parsed {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&argv).unwrap()
    }

    #[test]
    fn wakeup_matches_closed_form() {
        let out = wakeup(&parsed(&["wakeup", "--image-mb", "10", "--beta-mbps", "2"])).unwrap();
        // 10 MB @ 2 Mbps: mean = 1.5 * 10*2^20*8 / 2e6 = 62.9 s.
        assert!(out.contains("62.9"), "{out}");
    }

    #[test]
    fn wakeup_rejects_zero_beta() {
        assert!(wakeup(&parsed(&["wakeup", "--beta-mbps", "0"])).is_err());
    }

    #[test]
    fn efficiency_point_matches_paper_trend() {
        let hi = efficiency(&parsed(&[
            "efficiency",
            "--phi",
            "100000",
            "--ratio",
            "100",
        ]))
        .unwrap();
        let lo = efficiency(&parsed(&["efficiency", "--phi", "1", "--ratio", "100"])).unwrap();
        let grab = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("efficiency"))
                .and_then(|l| l.split(':').nth(1))
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(grab(&hi) > 0.99);
        assert!(grab(&lo) < 0.1);
    }

    #[test]
    fn simulate_rejects_oversized_target() {
        let err = simulate(&parsed(&["simulate", "--nodes", "10", "--target", "20"])).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn headend_and_pna_require_their_addresses() {
        let err = headend(&parsed(&["headend"])).unwrap_err();
        assert!(err.to_string().contains("--listen"), "{err}");
        let err = pna(&parsed(&["pna"])).unwrap_err();
        assert!(err.to_string().contains("--connect"), "{err}");
        let err = headend(&parsed(&["headend", "--listen", "not-an-addr"])).unwrap_err();
        assert!(err.to_string().contains("HOST:PORT"), "{err}");
    }

    #[test]
    fn headend_rejects_oversized_target() {
        let err = headend(&parsed(&[
            "headend",
            "--listen",
            "127.0.0.1:0",
            "--pnas",
            "2",
            "--target",
            "5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--target"), "{err}");
    }

    #[test]
    fn headend_and_pna_complete_a_job_over_loopback() {
        // Reserve a free loopback port, release it, and race the headend
        // onto it — the same multi-process flow scripts/ci.sh runs, here
        // in-process so the test stays hermetic.
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                headend(&parsed(&[
                    "headend",
                    "--listen",
                    &addr,
                    "--pnas",
                    "2",
                    "--target",
                    "2",
                    "--queries",
                    "4",
                    "--json",
                ]))
            })
        };
        // The listener binds inside LiveOddci::start; give it a moment
        // before the clients dial in.
        std::thread::sleep(std::time::Duration::from_millis(200));
        // A monitoring client polls the live metrics plane while the
        // fleet joins — it never performs the hello handshake, so it
        // must not consume one of the two node identities.
        let monitor = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                top(&parsed(&[
                    "top",
                    "--connect",
                    &addr,
                    "--count",
                    "1",
                    "--json",
                ]))
            })
        };
        let clients: Vec<_> = (0..2)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let seed = (100 + i).to_string();
                    pna(&parsed(&[
                        "pna",
                        "--connect",
                        &addr,
                        "--seed",
                        &seed,
                        "--heartbeat-ms",
                        "60",
                        "--json",
                    ]))
                })
            })
            .collect();

        let stats = monitor.join().unwrap().unwrap();
        let sv: serde_json::Value = serde_json::from_str(&stats).unwrap();
        match &sv["registry"]["counters"] {
            serde_json::Value::Object(entries) => assert!(!entries.is_empty(), "{stats}"),
            other => panic!("counters should be an object, got {other:?}"),
        }

        let out = server.join().unwrap().unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["tasks_completed"], 4, "{out}");
        assert_eq!(v["tasks_unaccounted"], 0, "{out}");
        assert_eq!(v["threads_failed"], 0, "{out}");
        assert!(v["wire"]["multi_chunk_tx"].as_u64().unwrap() >= 1, "{out}");
        assert_eq!(v["wire"]["checksum_rejects"], 0, "{out}");
        // Per-connection rows: at least the two PNAs plus the monitor.
        assert!(v["connections"].as_array().unwrap().len() >= 3, "{out}");

        for client in clients {
            let out = client.join().unwrap().unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert!(v["wire"]["rx_messages"].as_u64().unwrap() > 0, "{out}");
            assert!(v["wire"]["multi_chunk_rx"].as_u64().unwrap() >= 1, "{out}");
        }
    }

    #[test]
    fn top_renders_dashes_until_a_counter_has_two_samples() {
        use oddci_telemetry::RegistrySnapshot;
        let mut first = RegistrySnapshot::default();
        first.counters.insert("wire.tx_frames".into(), 1_000);

        // First poll: no previous snapshot at all — everything is `-`.
        let out = render_top(&first, &[], None, 0.0);
        let row = out.lines().find(|l| l.contains("wire.tx_frames")).unwrap();
        assert!(row.contains('-'), "{out}");
        assert!(
            !row.contains('+'),
            "first poll must not fake a delta: {out}"
        );

        // Second poll: the counter has a baseline, but a *new* counter
        // (a fault class that just fired) does not. The old one gets a
        // real delta and rate; the new one stays `-` — deltaing its
        // lifetime value against zero would print a garbage rate.
        let mut second = RegistrySnapshot::default();
        second.counters.insert("wire.tx_frames".into(), 1_500);
        second
            .counters
            .insert("faults.airtime_revoked".into(), 7_777);
        let out = render_top(&second, &[], Some(&first), 2.0);
        let old = out.lines().find(|l| l.contains("wire.tx_frames")).unwrap();
        assert!(old.contains("+500"), "{out}");
        assert!(old.contains("250.0"), "{out}");
        let fresh = out
            .lines()
            .find(|l| l.contains("faults.airtime_revoked"))
            .unwrap();
        assert!(!fresh.contains('+'), "{out}");
        assert!(
            !fresh.contains("3888"),
            "7777/2s garbage rate leaked through: {out}"
        );
    }

    #[test]
    fn autoscale_drill_scales_both_ways_without_loss() {
        let out = autoscale(&parsed(&[
            "autoscale",
            "--pnas",
            "4",
            "--queries",
            "32",
            "--db-len",
            "400000",
            "--max-instances",
            "4",
            "--cooldown-ms",
            "250",
            "--faults",
            "airtime-revoked=1.0@0.15..0.45",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert!(v["scale_ups"].as_u64().unwrap() >= 1, "{out}");
        assert!(v["scale_downs"].as_u64().unwrap() >= 1, "{out}");
        assert!(v["replacements"].as_u64().unwrap() >= 1, "{out}");
        assert_eq!(v["tasks_lost"], 0, "{out}");
        assert_eq!(v["tasks_unaccounted"], 0, "{out}");
        assert_eq!(v["tasks_completed"], 32, "{out}");
    }

    #[test]
    fn autoscale_rejects_inconsistent_bounds() {
        let err = autoscale(&parsed(&[
            "autoscale",
            "--pnas",
            "2",
            "--max-instances",
            "5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--max-instances"), "{err}");
        let err = autoscale(&parsed(&["autoscale", "--min-instances", "0"])).unwrap_err();
        assert!(err.to_string().contains("min_size"), "{err}");
    }

    #[test]
    fn check_lists_scenarios() {
        let out = check(&parsed(&["check", "--list"])).unwrap();
        assert!(out.contains("shutdown-under-active-sink"), "{out}");
        assert!(out.contains("expect-clean"), "{out}");
        assert!(out.contains("expect-fail"), "{out}");
    }

    #[test]
    fn check_rejects_unknown_scenario_and_bare_replay() {
        let err = check(&parsed(&["check", "--scenario", "no-such-thing"])).unwrap_err();
        assert!(err.to_string().contains("unknown scenario"));
        let err = check(&parsed(&["check", "--replay", "s11:0.1"])).unwrap_err();
        assert!(err.to_string().contains("requires --scenario"));
    }

    #[test]
    fn check_models_one_buggy_scenario_and_replays_it() {
        // The torn-snapshot scenario must be caught (it is the detector
        // sensitivity canary) and its printed schedule must replay.
        let out = check(&parsed(&[
            "check",
            "--skip-lint",
            "--scenario",
            "sink-stats-snapshot-torn",
            "--schedules",
            "400",
        ]))
        .unwrap();
        assert!(out.contains("detector caught"), "{out}");
        let schedule = out
            .split("replay ")
            .nth(1)
            .expect("replay schedule in output")
            .trim();
        let replayed = check(&parsed(&[
            "check",
            "--scenario",
            "sink-stats-snapshot-torn",
            "--replay",
            schedule,
        ]))
        .unwrap();
        assert!(replayed.contains("failure reproduced"), "{replayed}");
    }
}
