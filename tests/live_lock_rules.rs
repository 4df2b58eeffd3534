//! The workspace locking rules, checked on live jobs. With `oddci_check`
//! on, every lock acquisition feeds the lock-order graph and every channel
//! send is checked against the send-sensitive hub lock. Node threads and
//! the socket front's serving thread drive the Controller, which takes
//! the hub lock and publishes on the bus, and they take the hub lock to
//! dispatch; the control thread ticks the Controller and the caller cuts
//! a one-entry snapshot across both locks. A running job is where a
//! broken rule shows. Checking is process-global, which is why this is a
//! test binary of its own.

use oddci::check::order;
use oddci::live::wire::{run_wire_pna, WirePnaConfig};
use oddci::live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci::telemetry::Telemetry;
use oddci::workload::alignment::random_sequence;
use std::sync::Arc;
use std::time::Duration;

/// Runs one job of `tasks` light queries on a fresh plane in `mode` — two
/// in-process nodes, or two PNA threads when `mode` is a socket — cuts a
/// snapshot, and shuts it down with every task accounted for.
fn run_job(mode: HeadendMode, tasks: u64) {
    let live = LiveOddci::start(LiveConfig {
        nodes: 2,
        heartbeat_interval: Duration::from_millis(20),
        controller_tick: Duration::from_millis(40),
        telemetry: Telemetry::recording(),
        mode,
        ..Default::default()
    });
    let pnas: Vec<_> = live
        .wire_addr()
        .into_iter()
        .flat_map(|addr| {
            (0..2u64).map(move |i| {
                std::thread::spawn(move || {
                    let mut cfg = WirePnaConfig::new(addr);
                    cfg.seed = 500 + i;
                    cfg.heartbeat_interval = Duration::from_millis(20);
                    run_wire_pna(cfg)
                })
            })
        })
        .collect();
    let image = AlignmentImage {
        db_len: 2000,
        ..AlignmentImage::small_demo()
    };
    let queries = (0..tasks)
        .map(|i| Arc::new(random_sequence(16, i)))
        .collect();
    let outcome = live
        .run_query_job(image, queries, 2, Duration::from_secs(60))
        .expect("job completes");
    assert_eq!(outcome.scores.len() as u64, tasks, "{mode:?}");
    let snap = live.snapshot_now();
    assert_eq!(snap.shards.len(), 1, "{mode:?}");
    let report = live.shutdown();
    assert_eq!(report.tasks_unaccounted, 0, "{mode:?}");
    assert_eq!(report.threads_failed, 0, "{mode:?}");
    for pna in pnas {
        pna.join()
            .expect("pna thread joins")
            .expect("pna runs to shutdown");
    }
}

#[test]
fn live_jobs_keep_the_lock_rules() {
    oddci::check::enable();
    run_job(
        HeadendMode::Sharded {
            shards: 1,
            dispatch: 1,
            batch: 8,
        },
        300,
    );
    run_job(
        HeadendMode::Socket {
            listen: "127.0.0.1:0".parse().expect("addr"),
            shards: 1,
            dispatch: 1,
            batch: 8,
        },
        300,
    );
    let found = order::violation_count();
    let report: Vec<String> = order::take_violations()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(found, 0, "lock-rule violations:\n{}", report.join("\n"));
}
