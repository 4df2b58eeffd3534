//! Integration tests of the in-process live headend: job accounting at
//! every batch size, and clean shutdown with full task accounting.

use oddci::live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci::telemetry::{binary, EventKind, StreamingSink, Telemetry, TraceSink};
use std::time::Duration;

fn batch_config(nodes: u64, batch: usize) -> LiveConfig {
    LiveConfig {
        nodes,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        mode: HeadendMode::Sharded {
            shards: 1,
            dispatch: 1,
            batch,
        },
        ..Default::default()
    }
}

fn tiny_image() -> AlignmentImage {
    AlignmentImage {
        db_len: 20_000,
        ..AlignmentImage::small_demo()
    }
}

/// A run completes jobs correctly one task per fetch and eight per fetch:
/// planted homolog queries outscore random noise, proving the
/// distributed computation really ran through the headend.
#[test]
fn sharded_headend_completes_jobs_at_every_shard_count() {
    for batch in [1, 8] {
        let live = LiveOddci::start(batch_config(4, batch));
        let outcome = live
            .run_alignment_job(tiny_image(), 10, 3, Duration::from_secs(60))
            .unwrap_or_else(|| panic!("job completes at batch {batch}"));
        assert_eq!(outcome.scores.len(), 10, "batch {batch}");
        let planted_min = outcome
            .scores
            .iter()
            .filter(|(t, _)| t.raw() % 2 == 0)
            .map(|(_, &s)| s)
            .min()
            .unwrap();
        let noise_max = outcome
            .scores
            .iter()
            .filter(|(t, _)| t.raw() % 2 == 1)
            .map(|(_, &s)| s)
            .max()
            .unwrap();
        assert!(
            planted_min > noise_max,
            "batch {batch}: planted {planted_min} vs noise {noise_max}"
        );
        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "batch {batch}");
        assert_eq!(report.threads_failed, 0, "batch {batch}");
    }
}

/// Shutdown joins every thread (the call only returns once the control
/// thread and the nodes are all joined) and the Backend's final ledger
/// accounts for every task of every job ever submitted.
#[test]
fn shutdown_joins_all_threads_with_no_task_unaccounted() {
    for batch in [8, 1] {
        let live = LiveOddci::start(batch_config(3, batch));
        for _ in 0..2 {
            live.run_alignment_job(tiny_image(), 6, 2, Duration::from_secs(60))
                .expect("job completes");
        }
        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "batch {batch}");
        assert_eq!(report.threads_failed, 0, "batch {batch}");
    }
}

/// Even a shutdown with no job ever submitted — and one racing an idle
/// fleet — is clean: no thread hangs, nothing leaks.
#[test]
fn idle_sharded_shutdown_is_clean() {
    let live = LiveOddci::start(batch_config(2, 8));
    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);
}

/// Shutdown under an *active* streaming sink: the runtime flushes the
/// sink after joining every thread but before reporting
/// `tasks_unaccounted`, so by the time `shutdown()` returns the on-disk
/// trace is complete — the accounting identity holds, every span is
/// balanced, and `finish()` writes nothing further.
#[test]
fn shutdown_flushes_active_sink_before_reporting() {
    let path = std::env::temp_dir().join(format!(
        "oddci-shards-shutdown-{}.trace.bin",
        std::process::id()
    ));
    let sink = StreamingSink::builder(&path)
        .start()
        .expect("open shutdown stream");
    let mut cfg = batch_config(3, 8);
    cfg.telemetry = Telemetry::streaming(sink.clone());
    let live = LiveOddci::start(cfg);
    live.run_alignment_job(tiny_image(), 8, 2, Duration::from_secs(60))
        .expect("job completes");

    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0);

    // shutdown() already flushed: everything emitted is either durable or
    // counted as dropped, with nothing still in flight.
    let stats = sink.stats();
    assert_eq!(
        stats.emitted,
        stats.persisted + stats.dropped,
        "flush barrier must settle the accounting before shutdown returns"
    );
    assert_eq!(stats.dropped, 0, "this tiny run must not shed events");
    assert!(stats.emitted > 0, "the run produced events");

    // The file already holds every persisted event *before* finish(): the
    // final flush writes nothing new.
    let events = binary::read_file(&path)
        .expect("trace decodes after shutdown")
        .events;
    assert_eq!(events.len() as u64, stats.persisted);

    let summary = sink.finish().expect("stream closes");
    assert_eq!(
        summary.stats.persisted, stats.persisted,
        "no events may be written after the shutdown flush"
    );
    let events_after = binary::read_file(&path)
        .expect("trace decodes after finish")
        .events;
    let _ = std::fs::remove_file(&path);
    assert_eq!(events_after.len(), events.len());

    // Spans survive the multi-threaded run balanced per (track, phase).
    let mut opens: std::collections::HashMap<(u64, oddci::telemetry::Phase), i64> =
        std::collections::HashMap::new();
    for ev in &events_after {
        match ev.kind {
            EventKind::Begin => *opens.entry((ev.track, ev.phase)).or_insert(0) += 1,
            EventKind::End => *opens.entry((ev.track, ev.phase)).or_insert(0) -= 1,
            EventKind::Instant => {}
        }
    }
    assert!(
        opens.values().all(|&n| n == 0),
        "unbalanced spans in post-shutdown trace: {opens:?}"
    );
}
