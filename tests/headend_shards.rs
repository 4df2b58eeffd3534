//! Integration tests of the sharded live headend: membership partitioning,
//! job accounting at every shard/batch geometry, and clean shutdown with
//! full task accounting.

use oddci::core::shard_of;
use oddci::live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci::telemetry::{binary, EventKind, StreamingSink, Telemetry, TraceSink};
use oddci::types::NodeId;
use std::time::Duration;

fn sharded_config(nodes: u64, shards: usize) -> LiveConfig {
    geometry_config(nodes, (shards, 8))
}

fn geometry_config(nodes: u64, (shards, batch): (usize, usize)) -> LiveConfig {
    LiveConfig {
        nodes,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        mode: HeadendMode::Sharded {
            shards,
            dispatch: 1,
            batch,
        },
        ..Default::default()
    }
}

/// The one-task-per-fetch baseline geometry: every heartbeat serializes
/// behind one shard, and every task costs a fetch and an upload.
const BASELINE_GEOMETRY: (usize, usize) = (1, 1);

fn tiny_image() -> AlignmentImage {
    AlignmentImage {
        db_len: 20_000,
        ..AlignmentImage::small_demo()
    }
}

/// Every node belongs to exactly one shard, deterministically, and no
/// shard is starved or owns more than 3× its fair share: the membership
/// function is a balanced partition of the fleet.
#[test]
fn shard_membership_is_a_partition() {
    for shards in [1usize, 2, 3, 4, 8, 16, 64] {
        let mut owned = vec![0u64; shards];
        let fair = 4096 / shards as u64;
        for n in 0..4096u64 {
            let s = shard_of(NodeId::new(n), shards);
            assert!(s < shards, "shard index out of range");
            assert_eq!(
                s,
                shard_of(NodeId::new(n), shards),
                "membership must be deterministic"
            );
            owned[s] += 1;
        }
        assert_eq!(owned.iter().sum::<u64>(), 4096, "no node dropped");
        for (i, &count) in owned.iter().enumerate() {
            assert!(count > 0, "shard {i}/{shards} owns no nodes");
            assert!(count <= 3 * fair, "shard {i}/{shards} owns {count}");
        }
    }
}

/// A sharded run completes jobs correctly at several shard counts and at
/// the 1/1 baseline point: planted homolog queries outscore random
/// noise, proving the distributed computation really ran through the
/// sharded headend.
#[test]
fn sharded_headend_completes_jobs_at_every_shard_count() {
    for geometry in [BASELINE_GEOMETRY, (1, 8), (2, 8), (8, 8)] {
        let live = LiveOddci::start(geometry_config(4, geometry));
        let outcome = live
            .run_alignment_job(tiny_image(), 10, 3, Duration::from_secs(60))
            .unwrap_or_else(|| panic!("job completes at {geometry:?}"));
        assert_eq!(outcome.scores.len(), 10, "{geometry:?}");
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
            "{geometry:?}: planted {planted_min} vs noise {noise_max}"
        );
        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "{geometry:?}");
        assert_eq!(report.threads_failed, 0, "{geometry:?}");
    }
}

/// Shutdown joins every thread (the call only returns once carousel,
/// shards and nodes are all joined) and the Backend's final ledger
/// accounts for every task of every job ever submitted.
#[test]
fn shutdown_joins_all_threads_with_no_task_unaccounted() {
    for geometry in [(4, 8), BASELINE_GEOMETRY] {
        let live = LiveOddci::start(geometry_config(3, geometry));
        for _ in 0..2 {
            live.run_alignment_job(tiny_image(), 6, 2, Duration::from_secs(60))
                .expect("job completes");
        }
        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "{geometry:?}");
        assert_eq!(report.threads_failed, 0, "{geometry:?}");
    }
}

/// Even a shutdown with no job ever submitted — and one racing an idle
/// fleet — is clean: no thread hangs, nothing leaks.
#[test]
fn idle_sharded_shutdown_is_clean() {
    let live = LiveOddci::start(sharded_config(2, 2));
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
    let shards = 4usize;
    let sink = StreamingSink::builder(&path)
        .lanes(1 + shards)
        .start()
        .expect("open shutdown stream");
    let mut cfg = sharded_config(3, shards);
    cfg.telemetry = Telemetry::recording().with_sink(sink.clone());
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
