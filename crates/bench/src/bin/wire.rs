//! Experiment X10 — the wire tax: in-process vs socket-backed live plane.
//!
//! Runs the same query job twice: once against the in-process sharded
//! headend (channels all the way down, the X8 configuration scaled to
//! this task count) and once against the socket-backed headend with the
//! same number of PNAs connecting over loopback TCP — every wakeup,
//! heartbeat, task fetch and result upload crossing a real socket through
//! the framed, checksummed envelope layer.
//!
//! The headline number is the throughput ratio: what one pays, per task,
//! for real framing + checksums + kernel round trips relative to an
//! in-process channel send. The socket row also records the transport
//! counters (frames, multi-chunk image transfers, checksum rejects) so a
//! clean run is distinguishable from one that survived on retries.
//!
//! ```text
//! cargo run -p oddci-bench --release --bin wire
//! ```
//!
//! Artifact: `results/wire.json` (both rows plus the ratio).

use oddci_bench::{header, write_artifact};
use oddci_live::wire::WirePnaConfig;
use oddci_live::{run_wire_pna, AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci_workload::alignment::random_sequence;
use serde::Serialize;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

const NODES: u64 = 4;
const TASKS: u64 = 4_000;
const SHARDS: usize = 2;
const BATCH: usize = 16;
const SEED: u64 = 2025;
/// Database bytes in the wakeup image: comfortably above one 16 KiB
/// frame chunk, so the socket run must exercise chunked reassembly.
const DB_LEN: usize = 20_000;
/// Runs per configuration; the best is kept (same rationale as X8: the
/// container timeshares one core, and max is the least noise-sensitive
/// estimator of capacity).
const REPS: usize = 3;

#[derive(Debug, Clone, Serialize)]
struct Row {
    mode: String,
    nodes: u64,
    tasks: u64,
    makespan_secs: f64,
    throughput_tasks_per_sec: f64,
    requeues: u64,
    tasks_unaccounted: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    wire: Option<serde_json::Value>,
}

fn image() -> AlignmentImage {
    AlignmentImage {
        db_len: DB_LEN,
        ..AlignmentImage::small_demo()
    }
}

fn queries() -> Vec<Arc<Vec<u8>>> {
    (0..TASKS)
        .map(|i| Arc::new(random_sequence(16, SEED ^ i)))
        .collect()
}

fn in_process_once() -> Row {
    let live = LiveOddci::start(LiveConfig {
        nodes: NODES,
        seed: SEED,
        mode: HeadendMode::Sharded {
            shards: SHARDS,
            dispatch: 1,
            batch: BATCH,
        },
        ..Default::default()
    });
    let outcome = live
        .run_query_job(image(), queries(), NODES, Duration::from_secs(300))
        .expect("in-process job completes within 300s");
    let shutdown = live.shutdown();
    assert_eq!(shutdown.tasks_unaccounted, 0, "in-process run leaked tasks");
    assert_eq!(shutdown.threads_failed, 0, "in-process run lost threads");
    let makespan = outcome.report.makespan.as_secs_f64();
    Row {
        mode: "in-process".to_string(),
        nodes: NODES,
        tasks: TASKS,
        makespan_secs: makespan,
        throughput_tasks_per_sec: TASKS as f64 / makespan.max(1e-9),
        requeues: outcome.report.requeues,
        tasks_unaccounted: shutdown.tasks_unaccounted,
        wire: None,
    }
}

fn socket_once() -> Row {
    let live = LiveOddci::start(LiveConfig {
        nodes: NODES,
        seed: SEED,
        mode: HeadendMode::Socket {
            listen: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            shards: SHARDS,
            dispatch: 1,
            batch: BATCH,
        },
        ..Default::default()
    });
    let addr = live.wire_addr().expect("socket mode exposes its address");
    let pnas: Vec<_> = (0..NODES)
        .map(|i| {
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = SEED ^ (0xD1A1 + i);
                run_wire_pna(cfg).expect("pna runs to shutdown")
            })
        })
        .collect();
    let outcome = live
        .run_query_job(image(), queries(), NODES, Duration::from_secs(300))
        .expect("socket job completes within 300s");
    let stats = live.wire_stats().expect("socket mode exposes wire stats");
    let shutdown = live.shutdown();
    for pna in pnas {
        pna.join().expect("pna thread exits cleanly");
    }

    assert_eq!(shutdown.tasks_unaccounted, 0, "socket run leaked tasks");
    assert_eq!(shutdown.threads_failed, 0, "socket run lost threads");
    assert!(
        stats.multi_chunk_tx >= 1,
        "the wakeup image must stream in more than one chunk"
    );
    assert_eq!(
        stats.checksum_rejects, 0,
        "a clean loopback run rejects nothing"
    );

    let makespan = outcome.report.makespan.as_secs_f64();
    Row {
        mode: "socket".to_string(),
        nodes: NODES,
        tasks: TASKS,
        makespan_secs: makespan,
        throughput_tasks_per_sec: TASKS as f64 / makespan.max(1e-9),
        requeues: outcome.report.requeues,
        tasks_unaccounted: shutdown.tasks_unaccounted,
        wire: Some(serde_json::json!({
            "connections": stats.accepted,
            "tx_frames": stats.tx_frames,
            "rx_frames": stats.rx_frames,
            "tx_bytes": stats.tx_bytes,
            "rx_bytes": stats.rx_bytes,
            "multi_chunk_tx": stats.multi_chunk_tx,
            "checksum_rejects": stats.checksum_rejects,
            "resyncs": stats.resyncs,
            "duplicates": stats.duplicates,
        })),
    }
}

fn best_of(run: impl Fn() -> Row) -> Row {
    (0..REPS)
        .map(|_| run())
        .max_by(|a, b| {
            a.throughput_tasks_per_sec
                .total_cmp(&b.throughput_tasks_per_sec)
        })
        .expect("at least one rep")
}

fn main() {
    header("X10 — the wire tax: in-process vs socket-backed live plane");
    println!(
        "{NODES} PNAs, {TASKS} tasks, {SHARDS} shards / batch {BATCH}, \
         {DB_LEN}-byte image, best of {REPS}\n"
    );

    let inproc = best_of(in_process_once);
    let socket = best_of(socket_once);
    let ratio = inproc.throughput_tasks_per_sec / socket.throughput_tasks_per_sec.max(1e-9);

    println!("  plane        makespan   tasks/s   requeues");
    for row in [&inproc, &socket] {
        println!(
            "  {:<11} {:>8.3}s {:>9.0} {:>10}",
            row.mode, row.makespan_secs, row.throughput_tasks_per_sec, row.requeues
        );
    }
    println!("\n  wire tax: in-process is {ratio:.2}x the socket plane's throughput");
    if let Some(wire) = &socket.wire {
        let n = |key: &str| wire[key].as_u64().unwrap_or(0);
        println!(
            "  socket run: {} conn(s), {} tx / {} rx frames, {} multi-chunk tx, {} checksum reject(s)",
            n("connections"),
            n("tx_frames"),
            n("rx_frames"),
            n("multi_chunk_tx"),
            n("checksum_rejects")
        );
    }

    // Crossing a kernel boundary per round trip cannot be free — if the
    // socket plane ever *beats* in-process channels something is wrong
    // with the measurement (e.g. the job quietly ran on local threads).
    assert!(
        ratio >= 1.0,
        "socket throughput {:.0}/s implausibly beats in-process {:.0}/s",
        socket.throughput_tasks_per_sec,
        inproc.throughput_tasks_per_sec
    );

    write_artifact(
        "wire",
        &serde_json::json!({
            "rows": [inproc, socket],
            "in_process_over_socket": ratio,
        }),
    );
}
