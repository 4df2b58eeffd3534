//! Experiment X7 — chaos: fault-intensity sweep over the standard fault
//! mix, measuring what injected carousel, channel, heartbeat, PNA and
//! Backend faults cost the control plane in makespan, retries and
//! re-queued tasks — and verifying that **every** task is still accounted
//! for at every intensity.
//!
//! ```text
//! cargo run --release -p oddci-bench --bin chaos
//! ```

use oddci_bench::{fmt_secs, header, write_artifact, write_metrics, RunInfo};
use oddci_core::{World, WorldConfig};
use oddci_faults::FaultPlan;
use oddci_telemetry::{HistogramSummary, Telemetry};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::JobGenerator;
use serde::Serialize;

const TASKS: u64 = 300;

#[derive(Serialize)]
struct Row {
    intensity: f64,
    makespan_s: Option<f64>,
    inflation: Option<f64>,
    tasks_completed: u64,
    requeues: u64,
    fetch_retries: u64,
    fetch_aborts: u64,
    faults_injected: u64,
}

type RunOutput = (
    Row,
    oddci_core::world::MetricsSnapshot,
    Vec<(&'static str, HistogramSummary)>,
);

fn run_at(intensity: f64) -> RunOutput {
    let tele = Telemetry::disabled();
    let mut cfg = WorldConfig {
        nodes: 500,
        controller_tick: SimDuration::from_secs(30),
        faults: FaultPlan::standard_mix().scaled(intensity),
        telemetry: tele.clone(),
        ..Default::default()
    };
    cfg.policy.heartbeat.interval = SimDuration::from_secs(30);

    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(2),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs(60),
        23,
    )
    .generate(TASKS);

    let mut sim = World::simulation(cfg, 2024);
    let request = sim.submit_job(job, 100);
    let report = sim.run_request(request, SimTime::from_secs(60 * 24 * 3600));
    let snapshot = sim.world().metrics().snapshot();
    let row = Row {
        intensity,
        makespan_s: report.map(|r| r.makespan.as_secs_f64()),
        inflation: None,
        tasks_completed: report.map_or(0, |r| r.tasks_completed),
        requeues: snapshot.requeues,
        fetch_retries: snapshot.task_fetch_retries,
        fetch_aborts: snapshot.fetch_aborts,
        faults_injected: snapshot.faults.total(),
    };
    let phases = tele.phase_breakdown();
    (row, snapshot, phases)
}

fn main() {
    header("X7 — chaos (300 tasks x 60 s, 100-node instance, 500 receivers, standard mix)");
    println!();

    let intensities = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0];
    let results: Vec<RunOutput> = intensities.iter().map(|&f| run_at(f)).collect();

    let baseline = results[0].0.makespan_s.expect("calm run completes");
    let heaviest = results.last().expect("non-empty sweep");
    let heaviest_snapshot = heaviest.1.clone();
    let heaviest_phases = heaviest.2.clone();
    let mut rows = Vec::new();
    println!(
        "{:>9} {:>12} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "intensity", "makespan", "inflation", "tasks", "requeues", "retries", "aborts", "faults"
    );
    for (mut r, _, _) in results {
        r.inflation = r.makespan_s.map(|m| m / baseline);
        println!(
            "{:>8.2}x {:>12} {:>9}x {:>5}/{TASKS} {:>9} {:>9} {:>8} {:>8}",
            r.intensity,
            r.makespan_s.map_or("DNF".into(), fmt_secs),
            r.inflation.map_or("—".into(), |x| format!("{x:.2}")),
            r.tasks_completed,
            r.requeues,
            r.fetch_retries,
            r.fetch_aborts,
            r.faults_injected
        );
        rows.push(r);
    }

    // Shape checks: no intensity loses work or wedges the control plane.
    assert!(
        rows.iter().all(|r| r.tasks_completed == TASKS),
        "every task accounted for at every intensity"
    );
    assert_eq!(rows[0].faults_injected, 0, "intensity 0 injects nothing");
    assert!(
        rows.last().unwrap().faults_injected > rows[1].faults_injected,
        "fault volume grows with intensity"
    );
    assert!(
        rows.last().unwrap().requeues + rows.last().unwrap().fetch_retries > 0,
        "the retry/requeue machinery actually engaged"
    );
    println!();
    println!("all {TASKS} tasks complete at every intensity: faults are paid for in");
    println!("retries, re-queues and makespan — never in lost work.");

    // Per-phase latency breakdown of the heaviest run: where the injected
    // faults actually land on the task lifecycle.
    println!();
    println!(
        "per-phase latencies at intensity {:.2}x:",
        intensities.last().unwrap()
    );
    println!(
        "{:>16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "mean", "p50", "p90", "p99", "max"
    );
    for (label, s) in &heaviest_phases {
        println!(
            "{:>16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            label,
            s.count,
            fmt_secs(s.mean),
            fmt_secs(s.p50),
            fmt_secs(s.p90),
            fmt_secs(s.p99),
            fmt_secs(s.max)
        );
    }

    write_artifact("chaos", &rows);
    // Full counter set of the heaviest run, for diffing across revisions.
    write_metrics(
        "chaos",
        &RunInfo::new("chaos", 2024),
        &heaviest_snapshot,
        &heaviest_phases,
    );
}
