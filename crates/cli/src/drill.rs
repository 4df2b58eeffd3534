//! The drills: `failover` and `autoscale` each boot a socket headend and
//! an in-process PNA fleet, inject a fault, and fail unless the plane
//! recovers without losing a task.

use crate::args::{ArgError, CliError, Parsed, JSON};
use crate::live::alignment_job;
use crate::socket::{await_redials, sizing_policy, socket_mode};
use crate::Report;
use oddci_core::ProviderRequest;
use oddci_faults::{FaultInjector, FaultPlan};
use oddci_live::{LiveConfig, LiveOddci, WirePnaConfig, WirePnaReport};
use oddci_types::SimTime;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The commands and every flag each reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag, JSON};
    pub use crate::live::RUN_SEED;
    pub use crate::socket::TARGET;

    pub const FAILOVER: Command = Command { name: "failover", run: super::failover,
        about: "durability drill: snapshotting headend + reconnecting PNAs; kill the primary at \
            the fault plan's first headend-crash opportunity, adopt from the snapshot on a \
            standby, prove zero tasks lost",
        flags: &[LISTEN, FAILOVER_PNAS, QUERIES, TARGET, RUN_SEED, FAILOVER_DB_LEN, CRASH_FAULTS,
            SNAPSHOT_DIR, SNAPSHOT_INTERVAL_MS, TIMEOUT, JSON] };
    /// `--listen`, `--queries` and `--timeout` of both drills.
    pub const LISTEN: Flag =
        Flag::new("listen", "ADDR", "bind address (HOST:PORT)", "127.0.0.1:0");
    pub const QUERIES: Flag = Flag::new("queries", "N", "alignment queries", "64");
    pub const TIMEOUT: Flag = Flag::new("timeout", "S", "overall deadline, seconds", "60");
    pub const FAILOVER_PNAS: Flag = Flag::new("pnas", "N", "in-process PNA threads", "3");
    pub const FAILOVER_DB_LEN: Flag =
        Flag::new("db-len", "N", "database bytes in the image", "200000");
    /// By default the primary is guaranteed dead half a second in.
    pub const CRASH_FAULTS: Flag = Flag::new("faults", "SPEC", "must include a headend-crash \
        window", "headend-crash=1.0@0.5..30");
    pub const SNAPSHOT_DIR: Flag =
        Flag::new("snapshot-dir", "PATH", "snapshot directory", "temp dir");
    pub const SNAPSHOT_INTERVAL_MS: Flag =
        Flag::new("snapshot-interval-ms", "M", "snapshot cadence", "50");

    pub const AUTOSCALE: Command = Command { name: "autoscale", run: super::autoscale,
        about: "elastic-sizing drill: a live headend under the desired-state reconciler, \
            submitted at the minimum instance size; the queue-depth SLO scales it up, the \
            draining backlog scales it down, and a spot-like airtime revocation mid-job is \
            absorbed as a cooldown-bypassing replacement; fails unless >=1 scale-up and >=1 \
            scale-down land with zero task loss",
        flags: &[LISTEN, AUTOSCALE_PNAS, QUERIES, RUN_SEED, AUTOSCALE_DB_LEN, MIN_INSTANCES,
            MAX_INSTANCES, SLO_QUEUE_DEPTH, COOLDOWN_MS, RECONCILE_MS, REVOKE_FAULTS, TIMEOUT,
            JSON] };
    pub const AUTOSCALE_PNAS: Flag = Flag::new("pnas", "N", "in-process PNA threads", "6");
    pub const AUTOSCALE_DB_LEN: Flag =
        Flag::new("db-len", "N", "database bytes in the image", "800000");
    // The drill defaults to a tight loop: an SLO of 8 queued tasks per
    // member, and a cooldown short enough for the scale-down to fit
    // inside one job.
    pub const MIN_INSTANCES: Flag = Flag::new("min-instances", "N", "reconciler floor", "2");
    pub const MAX_INSTANCES: Flag = Flag::new("max-instances", "N", "reconciler ceiling", "pnas");
    pub const SLO_QUEUE_DEPTH: Flag =
        Flag::new("slo-queue-depth", "N", "queued tasks per member", "8");
    pub const COOLDOWN_MS: Flag =
        Flag::new("cooldown-ms", "M", "gap between scaling actions", "400");
    pub const SIZING: [Flag; 4] = [MIN_INSTANCES, MAX_INSTANCES, SLO_QUEUE_DEPTH, COOLDOWN_MS];
    pub const RECONCILE_MS: Flag = Flag::new("reconcile-ms", "M", "reconciler tick period", "25");
    /// By default the broadcaster reclaims the channel once, mid-job —
    /// the window is narrower than the revocation gate (one cooldown),
    /// so exactly one eviction fires.
    pub const REVOKE_FAULTS: Flag =
        Flag::new("faults", "SPEC", "fault plan", "airtime-revoked=1.0@1.2..1.5");
}
pub use spec::*;

/// The socket headend config both drills start from: one PNA per
/// `pnas`, 60 ms heartbeats, batches of 4.
fn drill_config(pnas: u64, seed: u64, listen: SocketAddr) -> Result<LiveConfig, ArgError> {
    Ok(LiveConfig {
        nodes: pnas,
        seed,
        heartbeat_interval: Duration::from_millis(60),
        mode: socket_mode(listen, 4)?,
        ..Default::default()
    })
}

/// A drill's in-process wire PNAs.
type Fleet = Vec<JoinHandle<Result<WirePnaReport, oddci_wire::WireError>>>;

/// Joins every PNA: the fencing epoch of each one that ran to shutdown.
fn join(fleet: Fleet) -> Vec<u64> {
    let reports = fleet.into_iter().filter_map(|h| h.join().ok()?.ok());
    reports.map(|report| report.epoch).collect()
}

/// Starts a headend serving `config` and one PNA per member (seeds 100,
/// 101, ..., heartbeating every 60 ms; `reconnect` arms each one's
/// redial window), then submits `queries` 64-base queries over a
/// `db_len`-base database at instance size `target`. Returns the
/// headend, its address, the fleet, the job and when it was submitted.
fn start_drill(
    config: LiveConfig,
    reconnect: Option<Duration>,
    db_len: usize,
    queries: u64,
    target: u64,
) -> Result<(LiveOddci, SocketAddr, Fleet, ProviderRequest, Instant), ArgError> {
    let (pnas, seed) = (config.nodes, config.seed);
    let live = LiveOddci::start(config);
    let addr = live.wire_addr().expect("socket headends listen");
    let spawn = |i| {
        std::thread::spawn(move || {
            let mut cfg = WirePnaConfig::new(addr);
            cfg.seed = 100 + i;
            cfg.heartbeat_interval = Duration::from_millis(60);
            cfg.reconnect = reconnect;
            oddci_live::run_wire_pna(cfg)
        })
    };
    let fleet: Fleet = (0..pnas).map(spawn).collect();
    let (image, work) = alignment_job(db_len, queries, 64, seed);
    let submitted = Instant::now();
    let Some(req) = live.submit_query_job(image, work, target) else {
        live.shutdown();
        join(fleet);
        return Err(ArgError("job submission failed".into()));
    };
    Ok((live, addr, fleet, req, submitted))
}

/// A directory the drill made for itself, removed on every exit path.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `oddci failover`: the headend-durability scenario. Boots a snapshotting
/// socket headend plus reconnecting in-process PNAs, kills the primary at
/// the first `headend-crash` opportunity in the fault plan (no goodbye —
/// the listener just dies), then boots a standby from the latest snapshot
/// on the same address and proves the job finishes with every task
/// accounted for and every PNA re-acked at the bumped epoch.
fn failover(p: &Parsed) -> Result<String, CliError> {
    let listen = p.addr(&LISTEN)?;
    let pnas: u64 = p.positive(&FAILOVER_PNAS)?;
    let queries: u64 = p.positive(&QUERIES)?;
    let target = p.within(&TARGET, pnas.min(3), &FAILOVER_PNAS, pnas)?;
    let seed: u64 = p.num(&RUN_SEED)?;
    let timeout_secs: u64 = p.positive(&TIMEOUT)?;
    let snapshot_interval = Duration::from_millis(p.positive(&SNAPSHOT_INTERVAL_MS)?);
    let db_len: usize = p.positive(&FAILOVER_DB_LEN)?;
    let plan = FaultPlan::parse(p.text(&CRASH_FAULTS)).map_err(ArgError)?;
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

    // Without `--snapshot-dir` the drill snapshots into a fresh directory
    // of its own and removes it however the drill ends.
    let (dir, _remove_dir) = match p.get(&SNAPSHOT_DIR) {
        Some(dir) => (PathBuf::from(dir), None),
        None => {
            let dir = std::env::temp_dir().join(format!("oddci-failover-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (dir.clone(), Some(RemoveOnDrop(dir)))
        }
    };
    let config = |listen| -> Result<LiveConfig, ArgError> {
        Ok(LiveConfig {
            snapshot_dir: Some(dir.clone()),
            snapshot_interval,
            ..drill_config(pnas, seed, listen)?
        })
    };
    // A database big enough (by default) that the kill genuinely lands
    // mid-job rather than after a sub-second sprint.
    let reconnect = Some(Duration::from_secs(timeout_secs));
    let (primary, addr, fleet, req, submitted) =
        start_drill(config(listen)?, reconnect, db_len, queries, target)?;

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
            join(fleet);
            return Err(failed(format!(
                "no snapshot containing the job appeared within {timeout_secs}s"
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    primary.crash();

    let adopt_started = Instant::now();
    let standby = match LiveOddci::start_standby(config(addr)?, &snap) {
        Ok(s) => s,
        Err(e) => {
            join(fleet);
            return Err(failed(format!("standby failed to adopt: {e}")));
        }
    };
    let adopt_ms = adopt_started.elapsed().as_secs_f64() * 1e3;
    let adopted_req = standby.running_jobs().contains(&req);
    let standby_epoch = standby.epoch();

    let outcome = standby.wait_job(req, deadline.saturating_duration_since(Instant::now()));
    // Even if the job was already complete in the snapshot, every PNA
    // must redial and re-ack before the standby shuts down.
    await_redials(&standby, pnas);
    let shutdown = standby.shutdown();
    let pna_epochs = join(fleet);
    let Some(outcome) = outcome else {
        return Err(failed(format!(
            "job did not complete on the standby within {timeout_secs}s"
        )));
    };
    let (completed, requeues) = (outcome.report.tasks_completed, outcome.report.requeues);
    let (unaccounted, threads_failed) = (shutdown.tasks_unaccounted, shutdown.threads_failed);
    let tasks_lost = queries.saturating_sub(outcome.scores.len() as u64);
    let reacked = pna_epochs.iter().filter(|&&e| e == standby_epoch).count() as u64;

    let doc = serde_json::json!({
        "listen": addr.to_string(),
        "pnas": pnas,
        "queries": queries,
        "target": target,
        "crash_at_secs": crash_at,
        "snapshot_epoch": snap.epoch,
        "standby_epoch": standby_epoch,
        "adopt_ms": adopt_ms,
        "adopted_running_job": adopted_req,
        "tasks_completed": completed,
        "tasks_lost": tasks_lost,
        "requeues": requeues,
        "tasks_unaccounted": unaccounted,
        "threads_failed": threads_failed,
        "pnas_reacked": reacked,
        "pna_epochs": pna_epochs,
    });

    let title = format_args!(
        "failover on {addr}: killed primary at t={crash_at:.2}s, {queries} tasks in flight"
    );
    let mut r = Report::new(12, title);
    let snap_epoch = snap.epoch;
    r.row(
        "adoption",
        format_args!("epoch {snap_epoch} -> {standby_epoch} in {adopt_ms:.1}ms"),
    );
    r.row("completed", completed);
    r.row("tasks lost", tasks_lost);
    r.row("requeues", requeues);
    r.row("unaccounted", unaccounted);
    r.row("threads lost", threads_failed);
    r.row(
        "PNAs",
        format_args!("{reacked} of {pnas} re-acked at epoch {standby_epoch}"),
    );
    // The JSON document carries the loss for the caller to judge.
    if !p.flag(&JSON) && (tasks_lost > 0 || unaccounted > 0) {
        return Err(failed(format!(
            "failover lost work: {tasks_lost} task(s) missing, {unaccounted} unaccounted\n{}",
            r.text
        )));
    }
    Ok(r.or_json(p.flag(&JSON), &doc))
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
fn autoscale(p: &Parsed) -> Result<String, CliError> {
    let listen = p.addr(&LISTEN)?;
    let pnas: u64 = p.positive(&AUTOSCALE_PNAS)?;
    let queries: u64 = p.positive(&QUERIES)?;
    let seed: u64 = p.num(&RUN_SEED)?;
    let timeout_secs: u64 = p.positive(&TIMEOUT)?;
    let db_len: usize = p.positive(&AUTOSCALE_DB_LEN)?;
    let reconcile = Duration::from_millis(p.positive(&RECONCILE_MS)?);
    let policy = sizing_policy(p, &SIZING, pnas as usize)?;
    if policy.max_size as u64 > pnas {
        return Err(ArgError(format!(
            "--max-instances {} exceeds --pnas {pnas}",
            policy.max_size
        ))
        .into());
    }
    let config = LiveConfig {
        faults: FaultPlan::parse(p.text(&REVOKE_FAULTS)).map_err(ArgError)?,
        autoscale: Some(policy),
        autoscale_interval: reconcile,
        ..drill_config(pnas, seed, listen)?
    };
    // Submit at the floor: the backlog against the SLO is what must pull
    // the instance up, not the operator's initial guess.
    let floor = policy.min_size as u64;
    let (live, addr, fleet, req, submitted) = start_drill(config, None, db_len, queries, floor)?;
    let outcome = live.wait_job(req, Duration::from_secs(timeout_secs));
    let makespan = submitted.elapsed().as_secs_f64();
    // The drained queue must pull the instance back toward the floor.
    // Completion can land inside the cooldown window, so give the
    // reconciler a few post-job windows to issue the trim before
    // declaring the run inelastic.
    let drain_deadline =
        Instant::now() + Duration::from_micros(policy.cooldown.as_micros().saturating_mul(4));
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
    join(fleet);
    let outcome = outcome.ok_or_else(|| {
        failed(format!(
            "job did not complete within {timeout_secs}s (desired {}, {} scale-up(s), \
             {} replacement(s))",
            export.desired, export.scale_ups, export.replacements
        ))
    })?;
    let (completed, requeues) = (outcome.report.tasks_completed, outcome.report.requeues);
    let (unaccounted, threads_failed) = (shutdown.tasks_unaccounted, shutdown.threads_failed);
    let tasks_lost = queries.saturating_sub(outcome.scores.len() as u64);

    let doc = serde_json::json!({
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
        "tasks_completed": completed,
        "tasks_lost": tasks_lost,
        "requeues": requeues,
        "tasks_unaccounted": unaccounted,
        "threads_failed": threads_failed,
        "makespan_secs": makespan,
    });
    let (min, max, slo) = (policy.min_size, policy.max_size, policy.slo_queue_depth);
    let title = format_args!(
        "autoscale on {addr}: {queries} tasks, instance {min}..={max} (SLO {slo} queued/member)"
    );
    let mut r = Report::new(12, title);
    let e = &export;
    r.row(
        "reconciler",
        format_args!(
            "{} tick(s), {} up / {} down / {} replacement(s), final desired {}",
            e.ticks, e.scale_ups, e.scale_downs, e.replacements, e.desired
        ),
    );
    r.row(
        "revocations",
        format_args!("{revocations} (airtime reclaimed)"),
    );
    r.row("completed", completed);
    r.row("tasks lost", tasks_lost);
    r.row("requeues", requeues);
    r.row("unaccounted", unaccounted);
    r.row("threads lost", threads_failed);
    r.row("makespan", format_args!("{makespan:.3}s"));
    let out = r.or_json(p.flag(&JSON), &doc);
    // The verdict: elastic both ways, the revocation (when the plan fired
    // one) absorbed, and no work lost.
    let (ups, downs) = (export.scale_ups, export.scale_downs);
    let failure = if tasks_lost > 0 || unaccounted > 0 {
        format!("autoscale lost work: {tasks_lost} task(s) missing, {unaccounted} unaccounted")
    } else if ups == 0 || downs == 0 {
        format!("instance was not elastic: {ups} scale-up(s), {downs} scale-down(s)")
    } else if revocations > 0 && export.replacements == 0 {
        format!("{revocations} revocation(s) fired but no replacement was issued")
    } else {
        return Ok(out);
    };
    Err(failed(format!("{failure}\n{out}")))
}

/// A drill that ran and whose verdict is a failure: `drill failed: …`,
/// exit code 1, apart from the argument errors of a bad command line.
fn failed(msg: String) -> CliError {
    CliError::Failed(format!("drill failed: {msg}"))
}

#[cfg(test)]
mod tests {
    use crate::testing::{argv, keys, oddci, oddci_json};

    #[test]
    fn autoscale_drill_scales_both_ways_without_loss() {
        let v = oddci_json(
            "autoscale --pnas 4 --queries 32 --db-len 400000 --max-instances 4 \
             --cooldown-ms 250 --faults airtime-revoked=1.0@0.15..0.45 --json",
        );
        assert_eq!(
            keys(&v),
            "listen pnas queries min_instances max_instances slo_queue_depth ticks scale_ups \
             scale_downs replacements revocations final_desired tasks_completed tasks_lost \
             requeues tasks_unaccounted threads_failed makespan_secs"
        );
        assert!(v["scale_ups"].as_u64().unwrap() >= 1, "{v:?}");
        assert!(v["scale_downs"].as_u64().unwrap() >= 1, "{v:?}");
        assert!(v["replacements"].as_u64().unwrap() >= 1, "{v:?}");
        assert_eq!(v["tasks_lost"], 0, "{v:?}");
        assert_eq!(v["tasks_unaccounted"], 0, "{v:?}");
        assert_eq!(v["tasks_completed"], 32, "{v:?}");
    }

    /// A drill whose verdict fails exits 1 with its own label, not as an
    /// argument error: an instance pinned at one size cannot scale.
    #[test]
    fn a_failed_verdict_is_not_an_argument_error() {
        let pinned = "autoscale --pnas 2 --min-instances 2 --max-instances 2 --queries 4 \
                      --db-len 20000 --cooldown-ms 50";
        let err =
            crate::execute(&argv(&pinned.split_whitespace().collect::<Vec<_>>())).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(
            err.to_string()
                .starts_with("drill failed: instance was not elastic: 0 scale-up(s)"),
            "{err}"
        );
    }

    #[test]
    fn autoscale_rejects_inconsistent_bounds() {
        let err = oddci("autoscale --pnas 2 --max-instances 5").unwrap_err();
        assert!(err.contains("--max-instances"), "{err}");
        let err = oddci("autoscale --min-instances 0").unwrap_err();
        assert!(err.contains("min_size"), "{err}");
    }
}
