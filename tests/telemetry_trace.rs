//! Telemetry integration: a small world run streamed and converted must
//! be a well-formed Chrome trace, turning tracing on must not change a
//! single reported metric, and a streamed file holds exactly the events
//! emitted.

use oddci::core::{World, WorldConfig};
use oddci::telemetry::export::read_jsonl_events;
use oddci::telemetry::{binary, Event, EventKind, Phase, StreamingSink, Telemetry, TraceSink};
use oddci::types::{DataSize, SimDuration, SimTime};
use oddci::workload::JobGenerator;
use proptest::prelude::*;
use serde_json::Value;
use std::collections::HashMap;

mod common;
use common::fast_policy;

fn small_world(tele: Telemetry) -> WorldConfig {
    let mut cfg = WorldConfig::default();
    cfg.nodes = 80;
    cfg.policy = fast_policy();
    cfg.controller_tick = SimDuration::from_secs(15);
    cfg.telemetry = tele;
    cfg
}

fn run_small(tele: Telemetry) -> oddci::core::world::MetricsSnapshot {
    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(1),
        DataSize::from_bytes(400),
        DataSize::from_bytes(400),
        SimDuration::from_secs(20),
        7,
    )
    .generate(60);
    let mut sim = World::simulation(small_world(tele), 42);
    let request = sim.submit_job(job, 25);
    sim.run_request(request, SimTime::from_secs(24 * 3600))
        .expect("small world completes");
    sim.world().metrics().snapshot()
}

#[test]
fn small_run_emits_well_formed_chrome_trace() {
    let bin_path = temp_trace_path();
    let chrome_path = bin_path.with_extension("json");
    let sink = StreamingSink::builder(&bin_path)
        .start()
        .expect("open stream");
    run_small(Telemetry::streaming(sink.clone()));
    let summary = sink.finish().expect("stream closes");
    assert_eq!(summary.stats.dropped, 0);
    let trace = binary::read_file(&bin_path).expect("stream decodes");
    binary::convert(&trace, None, Some(&chrome_path)).expect("convert");
    let text = std::fs::read_to_string(&chrome_path).expect("read converted chrome");
    for p in [&bin_path, &chrome_path] {
        let _ = std::fs::remove_file(p);
    }

    let doc: Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let rows = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(rows.len() > 100, "a real run produces many events");

    // Rows come in time order, ties in one track's emission order, so
    // per track an E never precedes its B (metadata rows carry no ts and
    // are skipped).
    let mut opens: HashMap<(u64, String), u64> = HashMap::new();
    let mut phases_seen: Vec<String> = Vec::new();
    for row in rows {
        let ph = row["ph"].as_str().expect("ph field");
        if ph == "M" {
            continue;
        }
        assert!(row["ts"].as_u64().is_some(), "ts field");

        let tid = row["tid"].as_u64().expect("tid field");
        let name = row["name"].as_str().expect("name field").to_string();
        phases_seen.push(name.clone());
        match ph {
            "B" => *opens.entry((tid, name)).or_insert(0) += 1,
            "E" => {
                let open = opens.entry((tid, name.clone())).or_insert(0);
                assert!(*open > 0, "E without matching B for {name} on tid {tid}");
                *open -= 1;
            }
            "i" => {}
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert!(
        opens.values().all(|&n| n == 0),
        "every B has a matching E: {opens:?}"
    );

    // The span tree covers the full paper lifecycle: wakeup → DVE boot →
    // task fetch → compute → result upload → heartbeat.
    for required in [
        "carousel.publish",
        "wakeup.wait",
        "dve.boot",
        "task.fetch",
        "task.compute",
        "task.upload",
        "heartbeat",
        "job.run",
    ] {
        assert!(
            phases_seen.iter().any(|p| p == required),
            "lifecycle phase {required} missing from trace"
        );
    }
}

#[test]
fn recording_does_not_change_reported_metrics() {
    let off = run_small(Telemetry::disabled());
    let on = run_small(Telemetry::recording());
    assert_eq!(off, on, "telemetry on/off must not alter MetricsSnapshot");
}

/// One bench-scale run (the X7 calm baseline: 500 receivers, 300×60 s
/// tasks, 100-node instance) under the given telemetry handle.
fn run_bench_scale(tele: Telemetry) {
    let mut cfg = WorldConfig::default();
    cfg.nodes = 500;
    cfg.controller_tick = SimDuration::from_secs(30);
    cfg.telemetry = tele;
    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(2),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs(60),
        23,
    )
    .generate(300);
    let mut sim = World::simulation(cfg, 2024);
    let request = sim.submit_job(job, 100);
    sim.run_request(request, SimTime::from_secs(60 * 24 * 3600))
        .expect("bench-scale world completes");
}

/// Fixed event sequence covering every row shape the Chrome converter
/// produces: a control-track instant, node spans (nested scopes), plain
/// instants and multiple tracks, in timestamp order.
fn golden_events() -> Vec<Event> {
    let ev = |ts_us, phase, kind, track, scope| Event {
        ts_us,
        phase,
        kind,
        track,
        scope,
    };
    use oddci::telemetry::CONTROL_TRACK;
    use EventKind::{Begin, End, Instant};
    vec![
        ev(0, Phase::CarouselPublish, Instant, CONTROL_TRACK, 1),
        ev(100, Phase::WakeupWait, Begin, 3, 1),
        ev(2_100, Phase::WakeupWait, End, 3, 1),
        ev(2_100, Phase::PnaAccept, Instant, 3, 1),
        ev(2_200, Phase::DveBoot, Begin, 3, 1),
        ev(5_200, Phase::DveBoot, End, 3, 1),
        ev(5_300, Phase::TaskFetch, Begin, 7, 2),
        ev(5_400, Phase::TaskFetch, End, 7, 2),
        ev(5_400, Phase::Compute, Begin, 7, 2),
        ev(9_400, Phase::Compute, End, 7, 2),
        ev(9_450, Phase::Heartbeat, Instant, 7, 0),
        ev(9_500, Phase::ResultUpload, Begin, 7, 2),
        ev(9_900, Phase::ResultUpload, End, 7, 2),
        ev(10_000, Phase::JobRun, End, CONTROL_TRACK, 1),
    ]
}

/// Strips run-stamp fields from a streamed Chrome doc's `otherData`
/// (scenario/seed/... vary per run) but keeps the format stamp.
fn normalize_stream_doc(doc: Value) -> Value {
    match doc {
        Value::Object(entries) => Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| {
                    if k == "otherData" {
                        let kept = match v {
                            Value::Object(inner) => Value::Object(
                                inner
                                    .into_iter()
                                    .filter(|(ik, _)| ik == "oddci_stream")
                                    .collect(),
                            ),
                            other => other,
                        };
                        (k, kept)
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

/// Compares `rendered` against the checked-in golden file, byte for
/// byte; `ODDCI_BLESS=1` rewrites the golden instead.
fn assert_text_matches_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("ODDCI_BLESS").is_ok_and(|v| v != "0" && !v.is_empty()) {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run with ODDCI_BLESS=1 to generate")
    });
    assert_eq!(
        rendered, golden,
        "{name} drifted from the checked-in golden; \
         if the change is intentional re-bless with ODDCI_BLESS=1"
    );
}

/// [`assert_text_matches_golden`] for a JSON document (already
/// normalized), one line.
fn assert_matches_golden(name: &str, actual: &Value) {
    let rendered = serde_json::to_string(actual).expect("golden doc serializes");
    assert_text_matches_golden(name, &format!("{rendered}\n"));
}

/// The two text artifacts `oddci trace convert` derives are locked to
/// golden files: any change to row fields, metadata rows or document
/// framing must be deliberate (re-blessed), not accidental. They are
/// taken through the path that ships: sink → `.trace.bin` → `convert`. One
/// lane keeps the drain order deterministic, run-stamp meta is stripped
/// from the Chrome doc before comparing, and the JSONL must read back as
/// exactly the events that went in.
#[test]
fn chrome_stream_writer_matches_golden() {
    let bin_path = temp_trace_path();
    let jsonl_path = bin_path.with_extension("jsonl");
    let chrome_path = bin_path.with_extension("stream.json");
    let sink = StreamingSink::builder(&bin_path)
        .lanes(1)
        .meta("scenario", "golden")
        .meta("seed", "42")
        .start()
        .expect("open golden stream");
    for ev in golden_events() {
        assert!(sink.offer(ev), "golden events never dropped");
    }
    sink.finish().expect("golden stream closes");
    let trace = binary::read_file(&bin_path).expect("golden trace decodes");
    assert_eq!(trace.events, golden_events());
    binary::convert(&trace, Some(&jsonl_path), Some(&chrome_path)).expect("convert");
    let chrome = std::fs::read_to_string(&chrome_path).expect("read converted chrome");
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("read converted jsonl");
    for p in [&bin_path, &jsonl_path, &chrome_path] {
        let _ = std::fs::remove_file(p);
    }

    let doc: Value = serde_json::from_str(&chrome).expect("converted trace parses");
    // The stamp must be present before normalization strips its peers.
    assert!(doc["otherData"]["oddci_stream"].as_str().is_some());
    assert_matches_golden("chrome_stream.json", &normalize_stream_doc(doc));

    let (_, events) = read_jsonl_events(&jsonl).expect("converted jsonl parses");
    assert_eq!(events, golden_events());
    assert_text_matches_golden("stream.trace.jsonl", &jsonl);
}

/// Fresh temp-file path per proptest case (cases run concurrently).
fn temp_trace_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "oddci-prop-{}-{}.trace.bin",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One generated emission: phase index, track, scope, span-vs-instant,
/// start timestamp and (for spans) duration.
type Op = (usize, u64, u64, bool, u64, u64);

fn emit_ops(tele: &Telemetry, ops: &[Op]) -> u64 {
    let mut emitted = 0u64;
    for &(p, track, scope, is_span, t0, dur) in ops {
        let phase = Phase::ALL[p];
        if is_span {
            tele.span(t0, t0 + dur, phase, track, scope);
            emitted += 2;
        } else {
            tele.instant(t0, phase, track, scope);
            emitted += 1;
        }
    }
    emitted
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..Phase::COUNT,
        0u64..6,
        0u64..4,
        any::<bool>(),
        0u64..1_000_000,
        1u64..5_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary event sequences a streaming handle persists exactly
    /// the events it emitted: the file is that multiset, each track's
    /// events keep their emission order, every Begin has its End per
    /// (track, phase), and `emitted == persisted + dropped` holds with
    /// zero drops at the default lane capacity.
    #[test]
    fn streamed_trace_is_exactly_the_emitted_events(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let path = temp_trace_path();
        let sink = StreamingSink::builder(&path)
            .lanes(3)
            .start()
            .expect("open stream");
        let tele = Telemetry::streaming(sink.clone());
        let emitted = emit_ops(&tele, &ops);
        let summary = sink.finish().expect("stream closes");
        let trace = binary::read_file(&path).expect("read stream back");
        let _ = std::fs::remove_file(&path);

        let stats = summary.stats;
        prop_assert_eq!(stats.emitted, emitted);
        prop_assert_eq!(stats.emitted, stats.persisted + stats.dropped);
        prop_assert_eq!(stats.dropped, 0, "default lane capacity never drops here");
        prop_assert_eq!(tele.events_dropped(), stats.dropped);
        prop_assert!(tele.events().is_empty(), "a streaming handle keeps no ring");

        prop_assert!(trace.truncated.is_none());
        let streamed = trace.events;
        prop_assert_eq!(streamed.len() as u64, stats.persisted);

        // The events the ops describe, in emission order.
        let mut expected = Vec::new();
        for &(p, track, scope, is_span, t0, dur) in &ops {
            let phase = Phase::ALL[p];
            let ev = |ts_us, kind| Event { ts_us, phase, kind, track, scope };
            if is_span {
                expected.push(ev(t0, EventKind::Begin));
                expected.push(ev(t0 + dur, EventKind::End));
            } else {
                expected.push(ev(t0, EventKind::Instant));
            }
        }
        // Per track, the file holds exactly that track's events in order,
        // and nothing else: the file is the emitted multiset.
        prop_assert_eq!(streamed.len(), expected.len());
        let mut tracks: Vec<u64> = expected.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let on_track = |evs: &[Event]| -> Vec<Event> {
                evs.iter().filter(|e| e.track == track).copied().collect()
            };
            prop_assert_eq!(on_track(&streamed), on_track(&expected));
        }

        // Begin/End balance per (track, phase) — spans stream both halves.
        let mut opens: HashMap<(u64, Phase), i64> = HashMap::new();
        for ev in &streamed {
            match ev.kind {
                EventKind::Begin => *opens.entry((ev.track, ev.phase)).or_insert(0) += 1,
                EventKind::End => *opens.entry((ev.track, ev.phase)).or_insert(0) -= 1,
                EventKind::Instant => {}
            }
        }
        prop_assert!(
            opens.values().all(|&n| n == 0),
            "unbalanced Begin/End in streamed trace: {opens:?}"
        );
    }

    /// With deliberately tiny lanes the sink may shed load, but the
    /// accounting identity stays exact: the file holds precisely the
    /// persisted events and `telemetry.events_dropped` equals the sink's
    /// drop counter equals `emitted - persisted`.
    #[test]
    fn tiny_lanes_account_for_every_dropped_event(
        ops in proptest::collection::vec(op_strategy(), 50..250),
    ) {
        let path = temp_trace_path();
        let sink = StreamingSink::builder(&path)
            .lanes(1)
            .lane_capacity(2)
            .start()
            .expect("open stream");
        let tele = Telemetry::streaming(sink.clone());
        let emitted = emit_ops(&tele, &ops);
        let summary = sink.finish().expect("stream closes");
        let streamed = binary::read_file(&path).expect("read stream back").events;
        let _ = std::fs::remove_file(&path);

        let stats = summary.stats;
        prop_assert_eq!(stats.emitted, emitted);
        prop_assert_eq!(stats.persisted + stats.dropped, emitted);
        prop_assert_eq!(tele.events_dropped(), stats.dropped);
        prop_assert_eq!(streamed.len() as u64, stats.persisted);
        // The per-phase drop breakdown sums to the total.
        let by_phase: u64 = sink.dropped_by_phase().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(by_phase, stats.dropped);
    }
}

/// Wall-clock cost of the event recorder, measured at bench scale.
/// Ignored by default (timing is machine-dependent); run manually to
/// re-measure:
/// `cargo test --release --test telemetry_trace -- --ignored --nocapture`
#[test]
#[ignore = "manual timing measurement"]
fn recorder_overhead_measurement() {
    use std::time::Instant;
    run_bench_scale(Telemetry::disabled()); // warm-up

    // Interleave on/off reps so allocator warm-up and frequency scaling
    // hit both sides equally.
    const REPS: u32 = 5;
    let mut off = std::time::Duration::ZERO;
    let mut on = std::time::Duration::ZERO;
    for _ in 0..REPS {
        let t = Instant::now();
        run_bench_scale(Telemetry::disabled());
        off += t.elapsed();
        let t = Instant::now();
        run_bench_scale(Telemetry::recording());
        on += t.elapsed();
    }
    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    println!(
        "recorder off: {off:?}  on: {on:?}  overhead: {:+.2}%",
        overhead * 100.0
    );
}
