//! The socket plane's server and client: `headend` (and its `--standby`
//! arm) and `pna`, plus the socket plumbing `top` and the drills share.

use crate::args::{ArgError, CliError, Flag, Parsed, JSON};
use crate::Report;
use oddci_live::wire::WirePnaConfig;
use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci_telemetry::Telemetry;
use oddci_wire::ConnTraffic;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The commands and every flag each reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag, JSON};
    pub use crate::live::{QUERIES, RUN_SEED};

    pub const HEADEND: Command = Command { name: "headend", run: super::headend,
        about: "serve the live plane over TCP for `oddci pna` processes (runs one alignment job \
            once the instance fills, then broadcasts shutdown to every connected PNA)",
        flags: &[LISTEN, PNAS, QUERIES, TARGET, BATCH, DB_LEN, RUN_SEED, TIMEOUT, METRICS_OUT,
            METRICS_INTERVAL_MS, SNAPSHOT_DIR, SNAPSHOT_INTERVAL_MS, STANDBY, MIN_INSTANCES,
            MAX_INSTANCES, SLO_QUEUE_DEPTH, COOLDOWN_MS, JSON] };
    pub const LISTEN: Flag = Flag::new("listen", "ADDR", "bind address (HOST:PORT)", "required");
    pub const PNAS: Flag = Flag::new("pnas", "N", "expected PNA processes", "3");
    /// `--target` of `headend` and `failover`.
    pub const TARGET: Flag = Flag::new("target", "N", "instance size", "min(pnas,3)");
    pub const BATCH: Flag = Flag::new("batch", "N", "tasks per fetch", "8");
    pub const DB_LEN: Flag = Flag::new("db-len", "N", "database bytes in the image", "20000");
    pub const TIMEOUT: Flag = Flag::new("timeout", "S", "job deadline, seconds", "120");
    pub const METRICS_OUT: Flag = Flag::new("metrics-out", "PATH", "rewrite a Prometheus text \
        snapshot of the metrics registry on an interval", "");
    pub const METRICS_INTERVAL_MS: Flag =
        Flag::new("metrics-interval-ms", "M", "snapshot period", "1000");
    pub const SNAPSHOT_DIR: Flag = Flag::new("snapshot-dir", "PATH", "write durability \
        snapshots (headend.snap, atomic) here", "");
    pub const SNAPSHOT_INTERVAL_MS: Flag =
        Flag::new("snapshot-interval-ms", "M", "snapshot cadence", "500");
    pub const STANDBY: Flag = Flag::new("standby", "PATH", "adopt the snapshot in PATH instead of \
        starting fresh: rebind the dead primary's address at a bumped fencing epoch and finish \
        its in-flight jobs (same geometry, sizing, snapshot and metrics flags as a primary)", "");
    pub const MIN_INSTANCES: Flag =
        Flag::new("min-instances", "N", "enable elastic sizing: floor", "1");
    pub const MAX_INSTANCES: Flag = Flag::new("max-instances", "N", "elastic ceiling", "pnas");
    pub const SLO_QUEUE_DEPTH: Flag = Flag::new("slo-queue-depth", "N", "queued tasks per member \
        the reconciler sizes toward", "4");
    pub const COOLDOWN_MS: Flag = Flag::new("cooldown-ms", "M", "min gap between scaling actions \
        (replacements bypass it)", "2000");
    pub const SIZING: [Flag; 4] = [MIN_INSTANCES, MAX_INSTANCES, SLO_QUEUE_DEPTH, COOLDOWN_MS];

    pub const PNA: Command = Command { name: "pna", run: super::pna,
        about: "one Processing Node Agent: connect to a headend, boot from the streamed wakeup \
            image, work until shutdown",
        flags: &[CONNECT, PNA_SEED, HEARTBEAT_MS, CONNECT_TIMEOUT, RECONNECT_MS, JSON] };
    /// `--connect` of `pna` and `top`.
    pub const CONNECT: Flag =
        Flag::new("connect", "ADDR", "headend address (HOST:PORT)", "required");
    pub const PNA_SEED: Flag = Flag::new("seed", "S", "node seed", "7");
    pub const HEARTBEAT_MS: Flag = Flag::new("heartbeat-ms", "M", "heartbeat interval", "150");
    /// `--connect-timeout` of `pna` and `top`.
    pub const CONNECT_TIMEOUT: Flag =
        Flag::new("connect-timeout", "S", "dial deadline, seconds", "10");
    pub const RECONNECT_MS: Flag = Flag::new("reconnect-ms", "M", "survive a dead connection: \
        keep redialing for M ms per outage, resuming this node identity at whatever headend \
        answers (epoch-fenced)", "0 = off");
}
pub use spec::*;

/// The one-shard socket headend every socket command serves, validated.
pub fn socket_mode(listen: SocketAddr, batch: usize) -> Result<HeadendMode, ArgError> {
    let mode = HeadendMode::Socket {
        listen,
        shards: 1,
        dispatch: 1,
        batch,
    };
    mode.validate().map_err(ArgError)?;
    Ok(mode)
}

/// Holds a headend open until all `pnas` PNAs have (re)dialed in, for at
/// most 5 s: a shutdown broadcast sent before a surviving PNA reconnects
/// would strand it against a dead address for its whole redial window.
pub fn await_redials(live: &LiveOddci, pnas: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while live.wire_stats().is_some_and(|s| s.accepted < pnas) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One per-connection wire row, as `headend --json` and `top --json`
/// print it.
pub fn conn_json(c: &ConnTraffic) -> serde_json::Value {
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
}

/// The flag → [`LiveConfig`] mapping both arms of `oddci headend`
/// share, so a standby honours exactly the geometry, snapshot and
/// elastic-sizing flags its primary did. A standby keeps snapshotting
/// into the directory it adopted from, so a second failover has fresh
/// state.
fn headend_config(p: &Parsed) -> Result<LiveConfig, ArgError> {
    let listen = p.addr(&LISTEN)?;
    let pnas: u64 = p.positive(&PNAS)?;
    let snapshot_interval_ms: u64 = p.positive(&SNAPSHOT_INTERVAL_MS)?;
    Ok(LiveConfig {
        nodes: pnas,
        mode: socket_mode(listen, p.num(&BATCH)?)?,
        seed: p.num(&RUN_SEED)?,
        snapshot_dir: p
            .get(&STANDBY)
            .or(p.get(&SNAPSHOT_DIR))
            .map(std::path::PathBuf::from),
        snapshot_interval: Duration::from_millis(snapshot_interval_ms),
        // Without any sizing flag the headend runs the paper's fixed-size
        // Provider.
        autoscale: SIZING
            .iter()
            .any(|f| p.get(f).is_some())
            .then(|| sizing_policy(p, &SIZING, pnas as usize))
            .transpose()?,
        ..Default::default()
    })
}

/// Builds an elastic-sizing policy from the four sizing flags (floor,
/// ceiling — `default_max` unless given —, queue-depth SLO, cooldown).
pub fn sizing_policy(
    p: &Parsed,
    [min, max, slo, cooldown]: &[Flag; 4],
    default_max: usize,
) -> Result<oddci_core::AutoscalePolicy, ArgError> {
    let policy = oddci_core::AutoscalePolicy {
        min_size: p.num(min)?,
        max_size: p.num_or(max, default_max)?,
        slo_queue_depth: p.num(slo)?,
        cooldown: oddci_types::SimDuration::from_millis(p.num(cooldown)?),
        ..oddci_core::AutoscalePolicy::default()
    };
    policy.validate().map_err(ArgError)?;
    Ok(policy)
}

/// The `--metrics-out PATH` writer: a scraper-friendly Prometheus text
/// snapshot of the registry, rewritten every `--metrics-interval-ms` for
/// as long as the plane runs. Dropping it stops the writer, which leaves
/// one last snapshot; each arm drops it after its plane's shutdown, so
/// the file reflects the finished run.
struct MetricsOut(Option<(Arc<AtomicBool>, JoinHandle<()>)>);

impl MetricsOut {
    fn start(p: &Parsed, tele: &Telemetry) -> Result<MetricsOut, ArgError> {
        let interval = Duration::from_millis(p.positive(&METRICS_INTERVAL_MS)?);
        let Some(path) = p.get(&METRICS_OUT) else {
            return Ok(MetricsOut(None));
        };
        let stop = Arc::new(AtomicBool::new(false));
        let (path, halt, tele) = (path.to_string(), stop.clone(), tele.clone());
        let writer = std::thread::Builder::new()
            .name("oddci-metrics-out".into())
            .spawn(move || loop {
                let text = oddci_telemetry::export::prometheus(&tele.metrics_snapshot());
                let _ = std::fs::write(&path, text);
                if halt.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(interval);
            })
            .map_err(|e| ArgError(format!("cannot start metrics writer: {e}")))?;
        Ok(MetricsOut(Some((stop, writer))))
    }
}

impl Drop for MetricsOut {
    fn drop(&mut self) {
        if let Some((stop, writer)) = self.0.take() {
            stop.store(true, Ordering::Release);
            let _ = writer.join();
        }
    }
}

/// Shuts either `oddci headend` arm down and reports: after the arm's own
/// leading `fields` (JSON) or rows (`r`), the shutdown accounting and the
/// wire-transport counters, per plane and per connection.
fn finish_headend(p: &Parsed, live: LiveOddci, fields: serde_json::Value, mut r: Report) -> String {
    let stats = live.wire_stats().expect("socket mode exposes wire stats");
    let connections = live.wire_conn_stats().unwrap_or_default();
    let shutdown = live.shutdown();
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
        "connections": connections.iter().map(conn_json).collect::<Vec<_>>(),
    });
    let (serde_json::Value::Object(mut doc), serde_json::Value::Object(tail)) = (fields, tail)
    else {
        unreachable!("both arms pass a json! object");
    };
    doc.extend(tail);
    r.row("unaccounted", shutdown.tasks_unaccounted);
    // Always printed: a zero here is the operator's positive confirmation
    // that no headend thread panicked, not just the absence of bad news.
    r.row("threads lost", shutdown.threads_failed);
    let s = stats;
    r.row(
        "wire",
        format_args!(
            "{} conn(s), {} tx / {} rx frames, {} multi-chunk tx",
            s.accepted, s.tx_frames, s.rx_frames, s.multi_chunk_tx
        ),
    );
    r.row(
        "integrity",
        format_args!(
            "{} checksum reject(s), {} resync(s), {} duplicate(s)",
            s.checksum_rejects, s.resyncs, s.duplicates
        ),
    );
    for c in connections {
        r.line(format_args!(
            "    conn #{:<4} {:<6} tx {} fr / {} B, rx {} fr / {} B, {} reject(s), {} resync(s)",
            c.conn,
            if c.open { "open" } else { "closed" },
            c.tx_frames,
            c.tx_bytes,
            c.rx_frames,
            c.rx_bytes,
            c.checksum_rejects,
            c.resyncs
        ));
    }
    r.or_json(p.flag(&JSON), &serde_json::Value::Object(doc))
}

/// `oddci headend`: the socket-backed live plane's server half. Binds a
/// TCP listener, waits for `oddci pna --connect` processes to join, runs
/// one alignment job over the wire (wakeup image streamed in checksummed
/// chunks, heartbeats on the direct channels) and reports the outcome
/// plus transport counters.
fn headend(p: &Parsed) -> Result<String, CliError> {
    let config = headend_config(p)?;
    if let Some(dir) = p.get(&STANDBY) {
        return headend_standby(p, config, dir);
    }
    let pnas = config.nodes;
    let queries: u64 = p.positive(&QUERIES)?;
    let target = p.within(&TARGET, pnas.min(3), &PNAS, pnas)?;
    let timeout_secs: u64 = p.positive(&TIMEOUT)?;
    let db_len: usize = p.positive(&DB_LEN)?;
    let _metrics = MetricsOut::start(p, &config.telemetry)?;

    let live = LiveOddci::start(config);
    let addr = live.wire_addr().expect("socket mode exposes its address");
    let image = AlignmentImage {
        db_len,
        ..AlignmentImage::small_demo()
    };
    let timeout = Duration::from_secs(timeout_secs);
    let Some(outcome) = live.run_alignment_job(image, queries, target, timeout) else {
        live.shutdown();
        return Err(CliError::run_failed(format!(
            "job did not complete within {timeout_secs}s — are {target}+ \
             `oddci pna --connect {addr}` processes running?"
        )));
    };
    let (completed, requeues) = (outcome.report.tasks_completed, outcome.report.requeues);
    let makespan = outcome.report.makespan.as_secs_f64();

    let fields = serde_json::json!({
        "listen": addr.to_string(),
        "pnas": pnas,
        "target": target,
        "queries": queries,
        "tasks_completed": completed,
        "makespan_secs": makespan,
        "requeues": requeues,
    });
    let title = format_args!(
        "socket headend on {addr}: instance {target} of {pnas} PNA(s), {queries} tasks"
    );
    let mut r = Report::new(12, title);
    r.row("completed", completed);
    r.row("makespan", format_args!("{makespan:.3}s"));
    r.row("requeues", requeues);
    Ok(finish_headend(p, live, fields, r))
}

/// The `--standby DIR` arm of `oddci headend`: instead of starting
/// fresh, adopt the snapshot in DIR — rebind the dead primary's address,
/// import its membership, heartbeat ledgers, job tables and sizing
/// verdict at a bumped fencing epoch, let the surviving PNAs redial in,
/// and wait for every adopted in-flight job to finish before the usual
/// shutdown broadcast.
fn headend_standby(p: &Parsed, config: LiveConfig, dir: &str) -> Result<String, CliError> {
    let pnas = config.nodes;
    let timeout_secs: u64 = p.positive(&TIMEOUT)?;
    let snap_path = std::path::Path::new(dir).join(oddci_live::SNAPSHOT_FILE);
    let snap = oddci_live::snapshot::read_file(&snap_path)
        .map_err(|e| ArgError(format!("cannot read snapshot {}: {e}", snap_path.display())))?;
    let _metrics = MetricsOut::start(p, &config.telemetry)?;

    let standby = LiveOddci::start_standby(config, &snap)
        .map_err(|e| ArgError(format!("standby failed to adopt: {e}")))?;
    let addr = standby
        .wire_addr()
        .expect("socket mode exposes its address");
    let epoch = standby.epoch();

    let deadline = Instant::now() + Duration::from_secs(timeout_secs);
    let jobs = standby.running_jobs();
    let (mut completed, mut requeues) = (0u64, 0u64);
    for req in &jobs {
        let left = deadline.saturating_duration_since(Instant::now());
        let Some(outcome) = standby.wait_job(*req, left) else {
            standby.shutdown();
            return Err(CliError::run_failed(format!(
                "adopted job {req:?} did not complete within {timeout_secs}s \
                 — are the surviving PNAs redialing {addr}?"
            )));
        };
        completed += outcome.report.tasks_completed;
        requeues += outcome.report.requeues;
    }
    await_redials(&standby, pnas);

    let fields = serde_json::json!({
        "listen": addr.to_string(),
        "epoch": epoch,
        "snapshot_epoch": snap.epoch,
        "adopted_jobs": jobs.len(),
        "tasks_completed": completed,
        "requeues": requeues,
    });
    let title = format_args!(
        "standby headend on {addr}: adopted epoch {} -> {epoch}, {} in-flight job(s)",
        snap.epoch,
        jobs.len()
    );
    let mut r = Report::new(12, title);
    r.row("completed", completed);
    r.row("requeues", requeues);
    Ok(finish_headend(p, standby, fields, r))
}

/// `oddci pna`: one Processing Node Agent process. Connects to a
/// `oddci headend --listen` address, handshakes, and runs the full §3.2
/// receiver loop — wakeup, boot from the streamed image, task fetch,
/// result upload, heartbeats — until the headend broadcasts shutdown.
fn pna(p: &Parsed) -> Result<String, CliError> {
    let connect = p.addr(&CONNECT)?;
    let mut cfg = WirePnaConfig::new(connect);
    cfg.seed = p.num(&PNA_SEED)?;
    cfg.heartbeat_interval = Duration::from_millis(p.positive(&HEARTBEAT_MS)?);
    cfg.connect_timeout = Duration::from_secs(p.positive(&CONNECT_TIMEOUT)?);
    // 0 keeps the legacy behavior: a dead connection is a shutdown. Any
    // positive window arms the redial loop that lets a standby headend
    // adopt this node after a primary crash.
    let reconnect_ms: u64 = p.num(&RECONNECT_MS)?;
    cfg.reconnect = (reconnect_ms > 0).then(|| Duration::from_millis(reconnect_ms));
    let report = oddci_live::run_wire_pna(cfg)
        .map_err(|e| CliError::run_failed(format!("pna on {connect}: {e}")))?;
    let (node, epoch, s) = (report.node.raw(), report.epoch, &report.stats);

    let doc = serde_json::json!({
        "node": node,
        "epoch": epoch,
        "wire": {
            "tx_frames": s.tx_frames,
            "rx_frames": s.rx_frames,
            "tx_messages": s.tx_messages,
            "rx_messages": s.rx_messages,
            "multi_chunk_rx": s.multi_chunk_rx,
            "checksum_rejects": s.checksum_rejects,
            "resyncs": s.resyncs,
            "duplicates": s.duplicates,
        },
    });

    let title = format_args!("pna node {node} ran to shutdown against {connect} (epoch {epoch})");
    let mut r = Report::new(10, title);
    r.row(
        "wire",
        format_args!(
            "{} tx / {} rx frames, {} tx / {} rx messages",
            s.tx_frames, s.rx_frames, s.tx_messages, s.rx_messages
        ),
    );
    r.row(
        "integrity",
        format_args!(
            "{} multi-chunk rx, {} checksum reject(s), {} resync(s)",
            s.multi_chunk_rx, s.checksum_rejects, s.resyncs
        ),
    );
    Ok(r.or_json(p.flag(&JSON), &doc))
}

#[cfg(test)]
mod tests {
    use crate::testing::{keys, oddci, oddci_json};

    #[test]
    fn headend_and_pna_require_their_addresses() {
        let err = oddci("headend").unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = oddci("pna").unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = oddci("headend --listen not-an-addr").unwrap_err();
        assert!(err.contains("HOST:PORT"), "{err}");
    }

    #[test]
    fn headend_rejects_oversized_target() {
        let err = oddci("headend --listen 127.0.0.1:0 --pnas 2 --target 5").unwrap_err();
        assert!(err.contains("--target"), "{err}");
    }

    /// The per-connection row both `headend --json` and `top --json` print.
    const CONNECTION_KEYS: &str =
        "conn open tx_frames rx_frames tx_bytes rx_bytes checksum_rejects resyncs";

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
        let line = format!("headend --listen {addr} --pnas 2 --target 2 --queries 4 --json");
        let server = std::thread::spawn(move || oddci_json(&line));
        // The listener binds inside LiveOddci::start; give it a moment
        // before the clients dial in.
        std::thread::sleep(std::time::Duration::from_millis(200));
        // A monitoring client polls the live metrics plane while the
        // fleet joins — it never performs the hello handshake, so it
        // must not consume one of the two node identities.
        let line = format!("top --connect {addr} --count 1 --json");
        let monitor = std::thread::spawn(move || oddci_json(&line));
        let clients: Vec<_> = (100..102)
            .map(|seed| {
                let line = format!("pna --connect {addr} --seed {seed} --heartbeat-ms 60 --json");
                std::thread::spawn(move || oddci_json(&line))
            })
            .collect();

        let sv = monitor.join().unwrap();
        assert_eq!(keys(&sv), "addr poll registry connections");
        match &sv["registry"]["counters"] {
            serde_json::Value::Object(entries) => assert!(!entries.is_empty(), "{sv:?}"),
            other => panic!("counters should be an object, got {other:?}"),
        }
        for row in sv["connections"].as_array().unwrap() {
            assert_eq!(keys(row), CONNECTION_KEYS);
        }

        let v = server.join().unwrap();
        assert_eq!(
            keys(&v),
            "listen pnas target queries tasks_completed makespan_secs requeues \
             tasks_unaccounted threads_failed wire connections"
        );
        assert_eq!(
            keys(&v["wire"]),
            "accepted tx_frames rx_frames tx_messages rx_messages multi_chunk_tx \
             checksum_rejects resyncs duplicates loop_turns"
        );
        assert_eq!(v["tasks_completed"], 4, "{v:?}");
        assert_eq!(v["tasks_unaccounted"], 0, "{v:?}");
        assert_eq!(v["threads_failed"], 0, "{v:?}");
        assert!(v["wire"]["multi_chunk_tx"].as_u64().unwrap() >= 1, "{v:?}");
        assert_eq!(v["wire"]["checksum_rejects"], 0, "{v:?}");
        // Per-connection rows: at least the two PNAs plus the monitor.
        let rows = v["connections"].as_array().unwrap();
        assert!(rows.len() >= 3, "{v:?}");
        for row in rows {
            assert_eq!(keys(row), CONNECTION_KEYS);
        }

        for client in clients {
            let v = client.join().unwrap();
            assert_eq!(keys(&v), "node epoch wire");
            assert_eq!(
                keys(&v["wire"]),
                "tx_frames rx_frames tx_messages rx_messages multi_chunk_rx checksum_rejects \
                 resyncs duplicates"
            );
            assert!(v["wire"]["rx_messages"].as_u64().unwrap() > 0, "{v:?}");
            assert!(v["wire"]["multi_chunk_rx"].as_u64().unwrap() >= 1, "{v:?}");
        }
    }
}
