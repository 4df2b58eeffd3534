//! The in-process live plane's commands: `live` and `soak`.

use crate::args::{ArgError, CliError, Parsed, JSON};
use crate::sim::{finish_stream, open_stream_sink};
use crate::Report;
use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci_telemetry::Telemetry;
use oddci_workload::alignment::random_sequence;
use std::sync::Arc;
use std::time::Duration;

/// The commands and every flag each reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag, JSON};
    pub use crate::sim::LANE_CAPACITY;

    pub const LIVE: Command = Command { name: "live", run: super::live,
        about: "run the live thread demo (real alignment work)",
        flags: &[NODES, QUERIES, TARGET] };
    pub const NODES: Flag = Flag::new("nodes", "N", "receiver threads", "4");
    /// `--queries` of `live` and `headend`.
    pub const QUERIES: Flag = Flag::new("queries", "N", "alignment queries", "8");
    pub const TARGET: Flag = Flag::new("target", "N", "instance size", "3");

    pub const SOAK: Command = Command { name: "soak", run: super::soak,
        about: "stress the live headend and report task throughput",
        flags: &[BATCH, SOAK_NODES, SOAK_QUERIES, SOAK_TARGET, RUN_SEED, TRACE_OUT, LANE_CAPACITY,
            JSON] };
    pub const BATCH: Flag = Flag::new("batch", "N", "tasks per fetch, 1..=1024", "16");
    pub const SOAK_NODES: Flag = Flag::new("nodes", "N", "receiver threads", "8");
    pub const SOAK_QUERIES: Flag = Flag::new("queries", "N", "tasks in the soak job", "512");
    pub const SOAK_TARGET: Flag = Flag::new("target", "N", "instance size", "nodes");
    /// The `--seed` of every live-plane command but `pna`.
    pub const RUN_SEED: Flag = Flag::new("seed", "S", "run seed", "42");
    pub const TRACE_OUT: Flag = Flag::new("trace-out", "PATH", "stream a binary .trace.bin of the \
        run (per-track sink lanes; drops are counted, never blocking the headend)", "");
}
pub use spec::*;

/// An alignment job over a `db_len`-base database: `queries` random
/// queries of `query_len` bases, seeded from `seed`.
pub fn alignment_job(
    db_len: usize,
    queries: u64,
    query_len: usize,
    seed: u64,
) -> (AlignmentImage, Vec<Arc<Vec<u8>>>) {
    let image = AlignmentImage {
        db_len,
        ..AlignmentImage::small_demo()
    };
    let work = (0..queries)
        .map(|i| Arc::new(random_sequence(query_len, seed ^ i)))
        .collect();
    (image, work)
}

/// `oddci live`: the thread-based demo.
fn live(p: &Parsed) -> Result<String, CliError> {
    let nodes: u64 = p.positive(&NODES)?;
    let queries: u64 = p.positive(&QUERIES)?;
    let target: u64 = p.positive(&TARGET)?;
    let live = LiveOddci::start(LiveConfig {
        nodes,
        ..Default::default()
    });
    let image = AlignmentImage::small_demo();
    let outcome = live
        .run_alignment_job(image, queries, target, Duration::from_secs(120))
        .ok_or_else(|| CliError::run_failed("live job did not complete within 120s"))?;
    live.shutdown();

    let title = format_args!("live OddCI run: {nodes} receiver threads, instance {target}");
    let mut r = Report::new(9, title);
    r.row("makespan", outcome.report.makespan);
    r.line("  task      score  kind");
    for (task, score) in &outcome.scores {
        let kind = if task.raw() % 2 == 0 {
            "planted homolog"
        } else {
            "random noise"
        };
        r.line(format_args!("  {:<9} {score:>5}  {kind}", task.to_string()));
    }
    Ok(r.text)
}

/// `oddci soak`: stress the live headend and report task throughput.
///
/// Runs one alignment job with a deliberately small database so each task
/// is cheap: throughput is then dominated by headend round trips, which is
/// exactly what the batch size changes.
fn soak(p: &Parsed) -> Result<String, CliError> {
    let batch: usize = p.num(&BATCH)?;
    let mode = HeadendMode::Sharded {
        shards: 1,
        dispatch: 1,
        batch,
    };
    // Degenerate batches (`--batch 0`, oversized ones) must be a clear
    // argument error, never a runtime panic.
    mode.validate().map_err(ArgError)?;
    let nodes: u64 = p.positive(&SOAK_NODES)?;
    let queries: u64 = p.positive(&SOAK_QUERIES)?;
    let target = p.within(&SOAK_TARGET, nodes, &SOAK_NODES, nodes)?;
    let seed: u64 = p.num(&RUN_SEED)?;
    let lane_capacity = p.positive(&LANE_CAPACITY)?;

    // A tiny database plus short random queries keeps each task a cheap
    // index scan (a few µs), so the soak measures headend round trips
    // rather than alignment arithmetic.
    let (image, work) = alignment_job(400, queries, 16, seed);
    let sink = match p.get(&TRACE_OUT) {
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
        .run_query_job(image, work, target, Duration::from_secs(300))
        .ok_or_else(|| CliError::run_failed("soak job did not complete within 300s"))?;
    // shutdown() joins every thread and flushes the sink before reporting.
    let shutdown = live.shutdown();
    let stream_summary = sink.as_deref().map(finish_stream).transpose()?;

    let makespan = outcome.report.makespan.as_secs_f64();
    let throughput = queries as f64 / makespan.max(1e-9);
    let snapshot = tele.metrics_snapshot();

    let (requeues, unaccounted) = (outcome.report.requeues, shutdown.tasks_unaccounted);
    let failed = shutdown.threads_failed;
    let mut doc = serde_json::json!({
        "batch": batch,
        "nodes": nodes,
        "queries": queries,
        "target": target,
        "makespan_secs": makespan,
        "throughput_tasks_per_sec": throughput,
        "requeues": requeues,
        "tasks_unaccounted": unaccounted,
        "threads_failed": failed,
        "gauges": snapshot.gauges,
    });
    let title =
        format_args!("live soak: {nodes} receiver threads, instance {target}, {queries} tasks");
    let mut r = Report::new(12, title);
    r.row("headend", format_args!("in process, batch {batch}"));
    r.row("makespan", format_args!("{makespan:.3}s"));
    r.row("throughput", format_args!("{throughput:.1} tasks/s"));
    r.row("requeues", requeues);
    r.row("unaccounted", unaccounted);
    if failed > 0 {
        r.row("PANICKED", format_args!("{failed} thread(s)"));
    }
    if let Some(summary) = &stream_summary {
        r.row("streamed", summary);
        let s = summary.stats;
        let stream = serde_json::json!({
            "emitted": s.emitted,
            "persisted": s.persisted,
            "dropped": s.dropped,
            "dropped_pct": s.dropped_pct(),
            "flushes": s.flushes,
        });
        if let serde_json::Value::Object(entries) = &mut doc {
            entries.push(("stream".to_string(), stream));
        }
    }
    if let Some(lag) = snapshot.gauges.get("controller.heartbeat_lag") {
        r.row("hb lag", format_args!("{lag:.3}s (last beat)"));
    }
    Ok(r.or_json(p.flag(&JSON), &doc))
}
