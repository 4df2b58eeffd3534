//! Experiment X8 — live headend soak: task throughput vs architecture.
//!
//! Runs the same soak job (8 receiver threads, 40 000 cheap index-scan
//! tasks) against the headend's one-task-per-fetch baseline point
//! (1 shard, batch 1) and at 1/2/4/8 controller shards with batches of
//! 64, and records throughput for each configuration plus the per-phase
//! latency breakdown of the 8-shard run. Fetches and results run on the
//! node threads themselves, so shards and batch are the whole geometry.
//!
//! Tasks are deliberately light (16-base random queries against a 400-base
//! database — a handful of k-mer lookups each) so the measurement is
//! dominated by headend round trips, i.e. by the thing the sharded
//! architecture changes. Each configuration runs [`REPS`] times and keeps
//! the best run: the container this executes in timeshares one core, and
//! the max is the least scheduler-noise-sensitive estimator of capacity.
//!
//! ```text
//! cargo run -p oddci-bench --release --bin soak
//! ```
//!
//! After the shard sweep, two streamed-trace runs exercise the
//! telemetry sink layer end to end:
//!
//! * the X8 scenario once more with the streaming sink attached
//!   (per-headend-thread lanes) — with default settings it must drop
//!   **zero** events, and the wakeup summary in the metrics artifact is
//!   recomputed from the *streamed* trace rather than the in-memory
//!   ring (which only ever holds a bounded window);
//! * experiment X11 — a million-node discrete-event sweep whose event
//!   count far exceeds any ring, streamed through the sink's binary
//!   format, which must drop **zero** events. The binary artifact is
//!   converted to JSONL offline and the `W = 1.5·I/β` agreement check is
//!   evaluated from the *converted* trace, proving the round trip
//!   lossless at full scale. `ODDCI_SWEEP_NODES` scales the audience
//!   down for quick local iteration; `ODDCI_KEEP_TRACES=1` keeps the
//!   (large) trace files instead of deleting them after validation.
//!   (X9, the same sweep through the since-removed JSONL + Chrome text
//!   lane, shed 52.8–55.8 % of the events; its table stays in
//!   EXPERIMENTS.md as the measurement behind the removal.)
//!
//! Artifacts: `results/soak.json` (all rows), `results/soak_stream.json`
//! (streamed-run summaries) and `results/soak.metrics.json`
//! (schema-checked envelope; soak rows ride in `metrics.soak`, the X11
//! summary in `metrics.stream_sweep`).

use oddci_analytics::wakeup_envelope;
use oddci_bench::{header, results_dir, write_artifact, write_metrics, RunInfo};
use oddci_core::{World, WorldConfig};
use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci_telemetry::binary;
use oddci_telemetry::export::read_jsonl_events;
use oddci_telemetry::sink::span_durations_us;
use oddci_telemetry::{Event, EventKind, Phase, StreamingSink, Telemetry, CONTROL_TRACK};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::alignment::random_sequence;
use oddci_workload::JobGenerator;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

const NODES: u64 = 8;
const TASKS: u64 = 40_000;
const BATCH: usize = 64;
const SEED: u64 = 2024;
/// Runs per configuration; the best is kept (see module docs).
const REPS: usize = 3;

/// Sweep defaults: a million-receiver audience, enough short tasks that the
/// event stream (~13.5 M events) dwarfs the default 262 144-event ring.
const SWEEP_NODES: u64 = 1_000_000;
const SWEEP_TARGET: u64 = 4_000;
const SWEEP_TASKS: u64 = 120_000;
const SWEEP_COST_SECS: f64 = 5.0;
const SWEEP_IMAGE_MB: u64 = 2;

#[derive(Debug, Clone, Serialize)]
struct Row {
    mode: String,
    shards: usize,
    batch: usize,
    nodes: u64,
    tasks: u64,
    makespan_secs: f64,
    throughput_tasks_per_sec: f64,
    requeues: u64,
    tasks_unaccounted: u64,
}

fn soak_once(mode: HeadendMode, sink: Option<Arc<StreamingSink>>) -> (Row, Telemetry) {
    let image = AlignmentImage {
        db_len: 400,
        ..AlignmentImage::small_demo()
    };
    let queries: Vec<Arc<Vec<u8>>> = (0..TASKS)
        .map(|i| Arc::new(random_sequence(16, SEED ^ i)))
        .collect();
    let mut tele = Telemetry::recording();
    if let Some(sink) = sink {
        tele = tele.with_sink(sink);
    }
    let live = LiveOddci::start(LiveConfig {
        nodes: NODES,
        seed: SEED,
        telemetry: tele.clone(),
        mode,
        ..Default::default()
    });
    let outcome = live
        .run_query_job(image, queries, NODES, Duration::from_secs(300))
        .expect("soak job completes within 300s");
    let shutdown = live.shutdown();

    assert_eq!(
        outcome.scores.len() as u64,
        TASKS,
        "every task produced a score"
    );
    let makespan = outcome.report.makespan.as_secs_f64();
    // The X8 soak drives the in-process plane only; the socket-backed
    // plane has its own experiment (X10, `bin/wire.rs`).
    let HeadendMode::Sharded { shards, batch, .. } = mode else {
        unreachable!("soak never runs the socket headend")
    };
    let row = Row {
        mode: "sharded".to_string(),
        shards,
        batch,
        nodes: NODES,
        tasks: TASKS,
        makespan_secs: makespan,
        throughput_tasks_per_sec: TASKS as f64 / makespan.max(1e-9),
        requeues: outcome.report.requeues,
        tasks_unaccounted: shutdown.tasks_unaccounted,
    };
    (row, tele)
}

fn soak_best(mode: HeadendMode) -> (Row, Telemetry) {
    (0..REPS)
        .map(|_| soak_once(mode, None))
        .max_by(|(a, _), (b, _)| {
            a.throughput_tasks_per_sec
                .total_cmp(&b.throughput_tasks_per_sec)
        })
        .expect("at least one rep")
}

/// Wakeup latency (first carousel publish → each node's acceptance), from
/// an event slice: count/mean/std_dev/min/max in seconds. The slice may be
/// a ring snapshot or — preferably, since the ring wraps near 40 000 tasks
/// — the read-back of a streamed trace, which is complete by construction
/// whenever the sink reports zero drops.
fn wakeup_summary(events: &[Event]) -> serde_json::Value {
    let first_publish = events
        .iter()
        .find(|e| e.phase == Phase::CarouselPublish && e.track == CONTROL_TRACK)
        .map(|e| e.ts_us);
    let lats: Vec<f64> = first_publish
        .map(|t0| {
            events
                .iter()
                .filter(|e| e.phase == Phase::PnaAccept && e.kind == EventKind::Instant)
                .map(|e| e.ts_us.saturating_sub(t0) as f64 / 1e6)
                .collect()
        })
        .unwrap_or_default();
    if lats.is_empty() {
        return serde_json::json!(
            {"count": 0, "mean": 0.0, "std_dev": 0.0, "min": 0.0, "max": 0.0}
        );
    }
    let n = lats.len() as f64;
    let mean = lats.iter().sum::<f64>() / n;
    let var = lats.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n;
    serde_json::json!({
        "count": lats.len(),
        "mean": mean,
        "std_dev": var.sqrt(),
        "min": lats.iter().cloned().fold(f64::INFINITY, f64::min),
        "max": lats.iter().cloned().fold(0.0_f64, f64::max),
    })
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn keep_traces() -> bool {
    std::env::var("ODDCI_KEEP_TRACES").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn mean_secs(durs: &[u64]) -> f64 {
    if durs.is_empty() {
        0.0
    } else {
        durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6
    }
}

/// X8 once more with a streaming sink attached: one lane per headend
/// thread (carousel + 8 shards), node traffic spread across them. With
/// default lane capacity nothing may be dropped, so the on-disk trace is
/// the *complete* event record of the run — unlike the ring, which holds
/// at most its capacity — and the wakeup summary in the metrics artifact
/// is computed from it.
fn streamed_soak() -> (Row, serde_json::Value, Vec<Event>) {
    let path = results_dir().join("soak.trace.bin");
    let sink = StreamingSink::builder(&path)
        .lanes(1 + 8)
        .meta("scenario", "soak")
        .meta("seed", SEED.to_string())
        .meta("plane", "live")
        .start()
        .expect("open soak trace stream");
    let (row, tele) = soak_once(sharded(8, BATCH), Some(sink.clone()));
    let summary = sink.finish().expect("soak trace stream closes");
    let stats = summary.stats;
    assert_eq!(
        stats.emitted,
        stats.persisted + stats.dropped,
        "sink accounting identity violated"
    );
    assert_eq!(
        stats.dropped, 0,
        "X8 with default lane capacity must not drop events"
    );
    assert_eq!(tele.events_dropped(), 0, "telemetry drop counter disagrees");
    assert_eq!(row.tasks_unaccounted, 0, "streamed rep leaked tasks");

    let events = binary::read_file(&path)
        .expect("read soak trace back")
        .events;
    assert_eq!(
        events.len() as u64,
        stats.persisted,
        "streamed file holds exactly the persisted events"
    );
    let ring_len = tele.events().len();
    println!(
        "\n  streamed X8 rep: {} emitted, {} persisted, 0 dropped, {} flushes ({} bytes; ring holds {ring_len})",
        stats.emitted,
        stats.persisted,
        stats.flushes,
        summary.output.bytes,
    );
    if !keep_traces() {
        let _ = std::fs::remove_file(&path);
    }
    let info = serde_json::json!({
        "scenario": "x8-streamed",
        "emitted": stats.emitted,
        "persisted": stats.persisted,
        "dropped": stats.dropped,
        "flushes": stats.flushes,
        "ring_events": ring_len,
    });
    (row, info, events)
}

/// X11 — million-node streamed sweep on the discrete-event plane. The
/// event stream (~13.5 M events at the default task count) overflows the
/// default ring ~50× over; the sink's binary format must keep up with
/// the full torrent — **zero** drops — and the `W = 1.5·I/β` agreement
/// check is then evaluated from the trace *converted to JSONL*, proving
/// the offline round trip lossless.
fn streamed_sweep() -> serde_json::Value {
    let nodes = env_u64("ODDCI_SWEEP_NODES", SWEEP_NODES);
    let tasks = env_u64("ODDCI_SWEEP_TASKS", SWEEP_TASKS);
    let target = SWEEP_TARGET.min(nodes);
    let scenario = "x11-binary-sweep";
    header("X11 — million-node sweep through the zero-drop binary sink");
    println!(
        "{nodes} receivers, instance {target}, {tasks} tasks x {SWEEP_COST_SECS}s, {SWEEP_IMAGE_MB} MB image\n"
    );

    let jsonl_path = results_dir().join("x11.trace.jsonl");
    let chrome_path = results_dir().join("x11.trace.stream.json");
    let bin_path = results_dir().join("x11.trace.bin");
    let sink = StreamingSink::builder(&bin_path)
        .lanes(4)
        // The single-threaded sim emits ~13.5 M events in under a minute
        // of wall clock. Varint records cost a fraction of a JSON
        // serialization, so the lane writers keep pace and nothing is
        // shed; deep lanes (4 × 2^18 events ≈ 32 MB bounded) absorb the
        // initial 4 000-node join wave, so the wakeup record — the part
        // the ring loses first — reaches disk complete.
        .lane_capacity(1 << 18)
        .meta("scenario", scenario)
        .meta("seed", SEED.to_string())
        .meta("plane", "sim")
        .start()
        .expect("open sweep stream");
    // Default ring capacity on purpose: the sweep demonstrates that the
    // ring wraps at this scale while the streamed artifact stays complete.
    let tele = Telemetry::recording().with_sink(sink.clone());
    let cfg = WorldConfig {
        nodes,
        telemetry: tele.clone(),
        ..Default::default()
    };
    let beta = cfg.dtv.beta;
    let image = DataSize::from_megabytes(SWEEP_IMAGE_MB);
    let job = JobGenerator::homogeneous(
        image,
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs_f64(SWEEP_COST_SECS),
        SEED,
    )
    .generate(tasks);

    let wall = std::time::Instant::now();
    let mut sim = World::simulation(cfg, SEED);
    let request = sim.submit_job(job, target);
    let report = sim
        .run_request(request, SimTime::from_secs(365 * 24 * 3600))
        .expect("sweep completes within a simulated year");
    let wall = wall.elapsed();
    let summary = sink.finish().expect("sweep stream closes");
    let stats = summary.stats;
    let bytes = summary.output.bytes;

    assert_eq!(report.tasks_completed, tasks, "sweep lost tasks");
    assert_eq!(
        stats.emitted,
        stats.persisted + stats.dropped,
        "sink accounting identity violated"
    );
    let ring_len = tele.events().len();

    // Read the artifact back through the offline `trace convert` path
    // — binary file → decoded events → re-emitted JSONL — and recompute
    // the §5.1 wakeup agreement from the converted trace, end to end.
    assert_eq!(
        stats.dropped, 0,
        "the binary sink must persist every emitted event"
    );
    let trace = binary::read_file(&bin_path).expect("read binary sweep trace back");
    assert!(
        trace.truncated.is_none(),
        "binary trace reports truncation: {:?}",
        trace.truncated
    );
    binary::convert(&trace, Some(&jsonl_path), Some(&chrome_path))
        .expect("convert binary sweep trace");
    let text = std::fs::read_to_string(&jsonl_path).expect("read sweep trace back");
    let (stream_header, events) = read_jsonl_events(&text).expect("sweep trace parses");
    assert_eq!(stream_header.format, "jsonl");
    assert!(
        stream_header
            .meta
            .iter()
            .any(|(k, v)| k == "converted_from" && v == "binary"),
        "converted trace must carry its provenance stamp"
    );
    assert!(
        events == trace.events,
        "converted JSONL holds exactly the decoded events, in order"
    );
    assert_eq!(
        events.len() as u64,
        stats.persisted,
        "streamed file holds exactly the persisted events"
    );
    if nodes >= SWEEP_NODES && tasks >= SWEEP_TASKS {
        assert!(
            (ring_len as u64) < stats.persisted,
            "expected the ring ({ring_len} events) to wrap below the streamed {} at full scale",
            stats.persisted
        );
    }

    // The point of streaming: the artifact holds the *complete* wakeup
    // record — the early events the wrapping ring loses first. From
    // those spans the §5.1 agreement check runs against the on-disk
    // file: mean wait-for-config plus mean DVE boot lands inside the
    // [I/β, 2I/β] envelope around W = 1.5·I/β.
    let wait_durs = span_durations_us(&events, Phase::WakeupWait);
    let boot_durs = span_durations_us(&events, Phase::DveBoot);
    assert!(
        wait_durs.len() as u64 >= target / 2 && boot_durs.len() as u64 >= target / 2,
        "join-wave spans must survive streaming (got {} wait / {} boot pairs for target {target})",
        wait_durs.len(),
        boot_durs.len()
    );
    let wait_mean = mean_secs(&wait_durs);
    let boot_mean = mean_secs(&boot_durs);
    let measured = wait_mean + boot_mean;
    let (w_best, w_mean, w_worst) = wakeup_envelope(image, beta);
    assert!(
        measured >= 0.9 * w_best.as_secs_f64() && measured <= 1.1 * w_worst.as_secs_f64(),
        "streamed-trace wakeup {measured:.1}s outside the [{:.1}s, {:.1}s] envelope",
        w_best.as_secs_f64(),
        w_worst.as_secs_f64()
    );

    println!("  makespan        : {}", report.makespan);
    println!("  wall clock      : {:.1}s", wall.as_secs_f64());
    let dropped_pct = if stats.emitted == 0 {
        0.0
    } else {
        100.0 * stats.dropped as f64 / stats.emitted as f64
    };
    println!(
        "  streamed        : {} emitted, {} persisted, {} dropped ({dropped_pct:.1}%), {} flushes ({bytes} bytes)",
        stats.emitted, stats.persisted, stats.dropped, stats.flushes
    );
    println!("  ring snapshot   : {ring_len} events (capacity-bounded)");
    println!(
        "  wakeup (streamed trace): measured {measured:.1}s (wait {wait_mean:.1}s + boot {boot_mean:.1}s over {} joins) vs W = 1.5·I/β = {:.1}s",
        boot_durs.len(),
        w_mean.as_secs_f64()
    );
    println!(
        "  convert         : {} B binary -> {} events re-emitted as JSONL + Chrome",
        bytes,
        events.len()
    );
    if keep_traces() {
        println!(
            "  traces kept     : {} + {} + {}",
            bin_path.display(),
            jsonl_path.display(),
            chrome_path.display()
        );
    } else {
        let _ = std::fs::remove_file(&jsonl_path);
        let _ = std::fs::remove_file(&chrome_path);
        let _ = std::fs::remove_file(&bin_path);
    }

    serde_json::json!({
        "scenario": scenario,
        "nodes": nodes,
        "target": target,
        "tasks": tasks,
        "makespan_secs": report.makespan.as_secs_f64(),
        "wall_secs": wall.as_secs_f64(),
        "emitted": stats.emitted,
        "persisted": stats.persisted,
        "dropped": stats.dropped,
        "dropped_pct": dropped_pct,
        "flushes": stats.flushes,
        "stream_bytes": bytes,
        "ring_events": ring_len,
        "wakeup_pairs": boot_durs.len(),
        "wakeup_measured_secs": measured,
        "wakeup_model_secs": w_mean.as_secs_f64(),
    })
}

/// The in-process headend at `shards` × `batch` (its `dispatch` field is
/// ignored).
fn sharded(shards: usize, batch: usize) -> HeadendMode {
    HeadendMode::Sharded {
        shards,
        dispatch: 1,
        batch,
    }
}

fn main() {
    header("X8 — live headend soak: throughput vs shard count");
    println!("{NODES} receiver threads, {TASKS} tasks, batch {BATCH}, best of {REPS}\n");

    // The one-task-per-fetch baseline: every heartbeat serializes behind
    // one shard, and every task costs a fetch and an upload.
    let (baseline, _) = soak_best(sharded(1, 1));
    let mut rows = vec![baseline.clone()];
    let mut eight_shard: Option<(Row, Telemetry)> = None;
    for shards in [1usize, 2, 4, 8] {
        let (row, tele) = soak_best(sharded(shards, BATCH));
        if shards == 8 {
            eight_shard = Some((row.clone(), tele));
        }
        rows.push(row);
    }

    println!("  shards/batch  makespan   tasks/s   vs baseline");
    for row in &rows {
        println!(
            "  {:<12} {:>8.3}s {:>9.0}   {:>6.2}x",
            format!("{}/{}", row.shards, row.batch),
            row.makespan_secs,
            row.throughput_tasks_per_sec,
            row.throughput_tasks_per_sec / baseline.throughput_tasks_per_sec
        );
    }

    let (best8, tele8) = eight_shard.expect("8-shard config ran");
    let speedup = best8.throughput_tasks_per_sec / baseline.throughput_tasks_per_sec;
    println!("\n  8-shard speedup over the 1/1 baseline: {speedup:.2}x");

    let phases = tele8.phase_breakdown();
    println!("\n  per-phase breakdown (8 shards):");
    println!("    phase            count      mean       p99");
    for (label, s) in &phases {
        println!(
            "    {label:<15} {:>6} {:>9.1}µs {:>9.1}µs",
            s.count,
            s.mean * 1e6,
            s.p99 * 1e6
        );
    }

    // Shape checks: every configuration accounted for every task, and the
    // headend at 8 shards with batching clears 2x the 1/1 baseline.
    for row in &rows {
        assert_eq!(
            row.tasks_unaccounted, 0,
            "{} ({} shards): tasks leaked",
            row.mode, row.shards
        );
    }
    assert!(
        speedup >= 2.0,
        "8-shard throughput {:.0} is below 2x the 1/1 baseline {:.0}",
        best8.throughput_tasks_per_sec,
        baseline.throughput_tasks_per_sec
    );

    // One more 8-shard run, this time streaming the full event record to
    // disk; the wakeup summary below comes from that artifact, not the
    // (capacity-bounded) ring.
    let (stream_row, stream_info, streamed_events) = streamed_soak();
    assert_eq!(stream_row.tasks, TASKS);

    let sweep = streamed_sweep();

    write_artifact("soak", &rows);
    write_artifact(
        "soak_stream",
        &serde_json::json!({ "x8": stream_info, "x11": sweep }),
    );
    let run = RunInfo::new("soak", SEED);
    let metrics = serde_json::json!({
        "wakeup_latency": wakeup_summary(&streamed_events),
        "joins": tele8.phase_events(Phase::PnaAccept),
        "tasks_completed": best8.tasks,
        "control_deliveries": tele8.phase_events(Phase::CarouselPublish),
        "heartbeats_delivered": tele8.phase_events(Phase::Heartbeat),
        "direct_resets": tele8.phase_events(Phase::DirectReset),
        "tasks_orphaned": best8.tasks_unaccounted,
        "requeues": best8.requeues,
        "task_fetch_retries": tele8.phase_events(Phase::Retry),
        "fetch_aborts": 0,
        "faults": {},
        "soak": rows,
        "stream": stream_info,
        "stream_sweep": sweep,
    });
    write_metrics("soak", &run, &metrics, &phases);
}
