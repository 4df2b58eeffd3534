//! X13 — elastic Provider: desired-state tracking of a diurnal load.
//!
//! One live headend with the autoscale reconciler on, fed a
//! sine-wave job arrival curve (two "days" of load compressed into a few
//! seconds): each step submits a wave of alignment queries sized by the
//! diurnal curve, and the bench samples the reconciler's desired size,
//! the Backend queue depth and the action counters after every step. A
//! spot-like `airtime-revoked` window lands mid-run so the artifact also
//! records a replacement cycle.
//!
//! Shape checks: the instance must scale up at the first peak, scale
//! back down toward the floor in the troughs, complete every submitted
//! task, and leak nothing at shutdown.
//!
//! Artifacts: `results/autoscale.json` plus a schema-conformant
//! `results/autoscale.metrics.json` envelope.

use oddci_bench::{header, write_artifact, write_metrics, RunInfo};
use oddci_core::AutoscalePolicy;
use oddci_faults::FaultPlan;
use oddci_live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci_telemetry::HistogramSummary;
use oddci_types::SimDuration;
use oddci_workload::alignment::random_sequence;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 13;
/// Live node threads available to the instance (the reconciler's ceiling).
const NODES: u64 = 8;
/// Steps per simulated day.
const STEPS_PER_DAY: usize = 8;
/// Simulated days of load.
const DAYS: usize = 2;
/// Queries submitted at the diurnal peak; troughs submit none.
const PEAK_QUERIES: usize = 24;
/// Wall-clock length of one diurnal step. Longer than the cooldown, so
/// the reconciler is free to act at least once per step.
const STEP_MS: u64 = 350;

/// One sampled step of the diurnal sweep.
#[derive(Debug, Clone, Serialize)]
struct StepRow {
    step: usize,
    /// Queries submitted this step (the offered load).
    offered: usize,
    /// Backend queue depth at the end-of-step sample.
    queue_depth: f64,
    /// Reconciler's desired size at the end-of-step sample.
    desired: usize,
    /// Cumulative action counters at the sample.
    scale_ups: u64,
    scale_downs: u64,
    replacements: u64,
}

/// Offered load for `step`: a sine-wave "diurnal" curve from 0 at the
/// trough to [`PEAK_QUERIES`] at the peak.
fn diurnal_load(step: usize) -> usize {
    let phase = 2.0 * std::f64::consts::PI * (step as f64) / (STEPS_PER_DAY as f64);
    // sin is in [-1, 1]; shift to [0, 1] and scale. Step 2 of 8 is the
    // daily peak, step 6 the trough.
    let level = (1.0 + phase.sin()) / 2.0;
    (level * PEAK_QUERIES as f64).round() as usize
}

/// Percentile summary over a small sample, for the metrics envelope.
fn summarize(samples: &[f64]) -> HistogramSummary {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
        }
    };
    HistogramSummary {
        count: sorted.len() as u64,
        mean: if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        },
        p50: pick(0.5),
        p90: pick(0.9),
        p99: pick(0.99),
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

fn main() {
    header("X13 — elastic Provider under a diurnal load curve");

    let policy = AutoscalePolicy {
        min_size: 1,
        max_size: NODES as usize,
        slo_queue_depth: 4,
        cooldown: SimDuration::from_millis(200),
        ..AutoscalePolicy::default()
    };
    let live = LiveOddci::start(LiveConfig {
        nodes: NODES,
        seed: SEED,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        // One spot-like revocation window mid-run (during the second
        // day's morning ramp, when a job is reliably open).
        faults: FaultPlan::parse("airtime-revoked=1.0@3.0..3.3").expect("valid plan"),
        mode: HeadendMode::Sharded {
            shards: 1,
            dispatch: 1,
            batch: 4,
        },
        autoscale: Some(policy),
        autoscale_interval: Duration::from_millis(25),
        ..Default::default()
    });
    let image = AlignmentImage {
        db_len: 150_000,
        ..AlignmentImage::small_demo()
    };
    let queue_gauge = live.telemetry().registry().gauge("backend.queue_depth");

    println!(
        "\nDiurnal sweep ({DAYS} days x {STEPS_PER_DAY} steps, peak {PEAK_QUERIES} queries, \
         {NODES} nodes, slo {}):",
        policy.slo_queue_depth
    );
    println!(
        "  {:>4} {:>8} {:>7} {:>8} {:>5} {:>7} {:>9}",
        "step", "offered", "queue", "desired", "ups", "downs", "replaces"
    );

    let mut reqs = Vec::new();
    let mut offered_total = 0usize;
    let mut steps = Vec::new();
    for step in 0..DAYS * STEPS_PER_DAY {
        let offered = diurnal_load(step);
        if offered > 0 {
            let queries: Vec<Arc<Vec<u8>>> = (0..offered as u64)
                .map(|i| Arc::new(random_sequence(96, SEED ^ ((step as u64) << 16) ^ i)))
                .collect();
            let req = live
                .submit_query_job(image.clone(), queries, policy.min_size as u64)
                .expect("headend accepts the wave");
            reqs.push(req);
            offered_total += offered;
        }
        std::thread::sleep(Duration::from_millis(STEP_MS));
        let export = live.autoscale_state().expect("reconciler is on");
        let row = StepRow {
            step,
            offered,
            queue_depth: queue_gauge.get(),
            desired: export.desired,
            scale_ups: export.scale_ups,
            scale_downs: export.scale_downs,
            replacements: export.replacements,
        };
        println!(
            "  {:>4} {:>8} {:>7.0} {:>8} {:>5} {:>7} {:>9}",
            row.step,
            row.offered,
            row.queue_depth,
            row.desired,
            row.scale_ups,
            row.scale_downs,
            row.replacements
        );
        steps.push(row);
    }

    // Drain: every wave must complete, then the empty queue must pull
    // the desired size back to the floor.
    let mut tasks_completed = 0usize;
    let mut requeues = 0u64;
    for req in reqs {
        let outcome = live
            .wait_job(req, Duration::from_secs(120))
            .expect("every wave completes");
        tasks_completed += outcome.scores.len();
        requeues += outcome.report.requeues;
    }
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    let export = loop {
        let export = live.autoscale_state().expect("reconciler is on");
        if export.desired == policy.min_size || Instant::now() >= drain_deadline {
            break export;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let revocations = live
        .telemetry()
        .registry()
        .counter("faults.airtime_revoked")
        .get();
    let report = live.shutdown();

    println!(
        "\n  offered {offered_total}, completed {tasks_completed}, requeues {requeues}, \
         revocations {revocations}"
    );
    println!(
        "  actions: {} up / {} down / {} replace, final desired {}",
        export.scale_ups, export.scale_downs, export.replacements, export.desired
    );

    // Shape checks: the instance was actually elastic and lossless.
    assert_eq!(
        tasks_completed, offered_total,
        "every offered task completes"
    );
    assert!(export.scale_ups >= 1, "the morning ramp must scale up");
    assert!(export.scale_downs >= 1, "the trough must scale down");
    assert_eq!(
        export.desired, policy.min_size,
        "a drained queue settles at the floor"
    );
    assert_eq!(report.tasks_unaccounted, 0, "accounting must balance");
    assert_eq!(report.threads_failed, 0, "no thread may panic");

    let desired_curve: Vec<f64> = steps.iter().map(|r| r.desired as f64).collect();
    let queue_curve: Vec<f64> = steps.iter().map(|r| r.queue_depth).collect();
    write_artifact(
        "autoscale",
        &serde_json::json!({
            "policy": policy,
            "nodes": NODES,
            "steps": steps,
            "offered_total": offered_total,
            "tasks_completed": tasks_completed,
            "requeues": requeues,
            "revocations": revocations,
            "scale_ups": export.scale_ups,
            "scale_downs": export.scale_downs,
            "replacements": export.replacements,
            "final_desired": export.desired,
        }),
    );
    let run = RunInfo::new("autoscale", SEED);
    let metrics = serde_json::json!({
        "wakeup_latency": {"count": 0, "mean": 0.0, "std_dev": 0.0, "min": 0.0, "max": 0.0},
        "joins": 0,
        "tasks_completed": tasks_completed,
        "control_deliveries": 0,
        "heartbeats_delivered": 0,
        "direct_resets": 0,
        "tasks_orphaned": offered_total - tasks_completed,
        "requeues": requeues,
        "task_fetch_retries": 0,
        "fetch_aborts": 0,
        "faults": {"airtime_revoked": revocations},
        "autoscale": {
            "scale_ups": export.scale_ups,
            "scale_downs": export.scale_downs,
            "replacements": export.replacements,
            "ticks": export.ticks,
        },
    });
    let phases = [
        ("provider.desired_size", summarize(&desired_curve)),
        ("backend.queue_depth", summarize(&queue_curve)),
    ];
    write_metrics("autoscale", &run, &metrics, &phases);
}
