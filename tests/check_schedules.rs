//! Pinned-schedule regression tests for the concurrency model checker.
//!
//! Each test explores one of the scaled-down headend scenarios under a
//! fixed scheduler seed, takes the failing interleaving the explorer
//! finds, and replays its schedule string — asserting the same failure
//! class reproduces. The seeded DFS is fully deterministic, so these
//! pin both halves of the tool: the *detector* (the bug is still found)
//! and the *replayer* (a printed schedule still reproduces it). If a
//! protocol model changes shape, the explore step re-derives a current
//! failing schedule, so the pins do not rot when yield structure drifts.
//!
//! The clean-scenario tests are the other half of the contract: the
//! fixed versions of the same protocols must survive every explored
//! interleaving, and the run must report a replayable schedule string.

use oddci::check::explore::Explorer;
use oddci::check::scenarios;

/// Explore `name` at `seed`, demand a failure, replay it, and demand the
/// replay reproduces a failure mentioning `marker`.
fn pin_failure(name: &str, seed: u64, schedules: usize, marker: &str) {
    let s = scenarios::by_name(name).expect("scenario registered");
    assert!(!s.expect_clean, "{name} is a seeded-bug scenario");
    let result = Explorer::new(seed)
        .max_schedules(schedules)
        .explore(s.setup);
    let failure = result.failure.unwrap_or_else(|| {
        panic!(
            "sensitivity regression: {name} not caught within {} schedule(s)",
            result.schedules
        )
    });
    assert!(
        failure.message.contains(marker),
        "{name}: expected failure mentioning `{marker}`, got: {}",
        failure.message
    );
    let outcome = Explorer::new(seed).replay(&failure.schedule, s.setup);
    let replayed = outcome
        .failure
        .unwrap_or_else(|| panic!("{name}: schedule {} did not replay", failure.schedule));
    assert!(
        replayed.contains(marker),
        "{name}: replay diverged — expected `{marker}`, got: {replayed}"
    );
}

/// Explore `name` at `seed` and demand it stays clean over every
/// interleaving in the bound, with a well-formed last-schedule string.
fn pin_clean(name: &str, seed: u64, schedules: usize) {
    let s = scenarios::by_name(name).expect("scenario registered");
    assert!(s.expect_clean, "{name} is a fixed-protocol scenario");
    let result = Explorer::new(seed)
        .max_schedules(schedules)
        .explore(s.setup);
    if let Some(f) = &result.failure {
        panic!(
            "{name} failed under schedule {} — fix the protocol or the model:\n{}",
            f.schedule, f.message
        );
    }
    assert!(
        result.last_schedule.starts_with(&format!("s{seed}:")),
        "schedule strings must carry their seed: {}",
        result.last_schedule
    );
}

#[test]
fn torn_sink_stats_snapshot_is_pinned() {
    // The in-PR bug: SinkStats::in_flight computed `emitted - persisted
    // - dropped` from three independent Relaxed loads; a snapshot torn
    // across a writer's persist underflows. Fixed with saturating_sub
    // (crates/telemetry/src/sink.rs).
    pin_failure("sink-stats-snapshot-torn", 11, 400, "underflow");
}

#[test]
fn lossy_sink_shutdown_is_pinned() {
    // Closing the lane while the producer still holds events: a send
    // that fails after the control check must be counted as a drop or
    // the emitted == persisted + dropped accounting breaks.
    pin_failure("shutdown-under-active-sink-lossy", 11, 400, "");
}

#[test]
fn heartbeat_recompose_toctou_is_pinned() {
    // Heartbeat checks membership, drops the lock, then inserts into
    // the ledger — a recomposition between the two strands a dead node
    // in the ledger.
    pin_failure("heartbeat-vs-recompose-toctou", 11, 400, "");
}

#[test]
fn hasty_dispatcher_drain_is_pinned() {
    // Workers that exit on an empty queue (try_recv → None) instead of
    // waiting for close lose queued tasks at shutdown.
    pin_failure("dispatcher-drain-hasty", 11, 400, "");
}

#[test]
fn split_trim_stranding_is_pinned() {
    // The autoscale trim race: requeueing a trimmed member's tasks and
    // dropping it from the membership in separate critical sections lets
    // a concurrent heartbeat fetch assign a fresh task to the victim —
    // stranded forever. The live shard handler does both under one hub
    // lock.
    pin_failure("scale-down-vs-heartbeat-stranded", 11, 400, "stranded");
}

#[test]
fn late_waker_rearm_stranding_is_pinned() {
    // The wire serving loop's wakeup race: clearing the waker's
    // coalescing flag *after* draining the reply channel lets a reply
    // that lands in between skip its wake — stranded until the
    // housekeeping timeout. The loop re-arms before it drains
    // (`Poller::rearm`, then `WireService::poll`).
    pin_failure("wake-vs-wait-late-rearm", 11, 400, "stranded");
}

#[test]
fn fixed_protocols_survive_exploration() {
    pin_clean("shutdown-under-active-sink", 11, 200);
    pin_clean("heartbeat-vs-recompose", 11, 200);
    pin_clean("dispatcher-drain", 11, 200);
    pin_clean("sink-stats-snapshot", 11, 200);
    pin_clean("scale-down-vs-heartbeat", 11, 200);
    pin_clean("wake-vs-wait", 11, 200);
}
