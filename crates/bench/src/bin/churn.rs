//! Experiment X1 (extension) — churn resilience: instance size stability,
//! recomposition traffic and makespan inflation under viewer churn.
//!
//! ```text
//! cargo run --release -p oddci-bench --bin churn
//! ```

use oddci_bench::{fmt_secs, header, write_artifact, write_metrics, RunInfo};
use oddci_core::world::ChurnConfig;
use oddci_core::{World, WorldConfig};
use oddci_telemetry::{HistogramSummary, Telemetry};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::JobGenerator;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    label: String,
    availability: f64,
    makespan_s: Option<f64>,
    inflation: Option<f64>,
    requeues: u64,
    orphans: u64,
    wakeup_broadcasts: u32,
}

fn main() {
    header("X1 — churn resilience (600 tasks x 120 s, 100-node instance, 500 receivers)");
    println!();

    let scenarios: Vec<(String, Option<(u64, u64)>)> = vec![
        ("no churn".into(), None),
        ("on 240m / off 15m".into(), Some((240, 15))),
        ("on 120m / off 20m".into(), Some((120, 20))),
        ("on 60m / off 20m".into(), Some((60, 20))),
        ("on 30m / off 15m".into(), Some((30, 15))),
        ("on 15m / off 10m".into(), Some((15, 10))),
    ];

    // Independent replications — each is a full deterministic world.
    type RunOutput = (
        Row,
        oddci_core::world::MetricsSnapshot,
        Vec<(&'static str, HistogramSummary)>,
    );
    let results: Vec<RunOutput> = scenarios
        .iter()
        .map(|(label, churn)| {
            let tele = Telemetry::disabled();
            let mut cfg = WorldConfig {
                nodes: 500,
                controller_tick: SimDuration::from_secs(30),
                churn: churn.map(|(on, off)| ChurnConfig {
                    mean_on: SimDuration::from_mins(on),
                    mean_off: SimDuration::from_mins(off),
                }),
                telemetry: tele.clone(),
                ..Default::default()
            };
            cfg.policy.heartbeat.interval = SimDuration::from_secs(30);
            let availability = churn.map_or(1.0, |(on, off)| on as f64 / (on + off) as f64);

            let job = JobGenerator::homogeneous(
                DataSize::from_megabytes(2),
                DataSize::from_bytes(500),
                DataSize::from_bytes(500),
                SimDuration::from_secs(120),
                17,
            )
            .generate(600);

            let mut sim = World::simulation(cfg, 2024);
            let request = sim.submit_job(job, 100);
            let report = sim.run_request(request, SimTime::from_secs(60 * 24 * 3600));
            let m = sim.world().metrics();
            let row = Row {
                label: label.clone(),
                availability,
                makespan_s: report.map(|r| r.makespan.as_secs_f64()),
                inflation: None,
                requeues: report.map_or(0, |r| r.requeues),
                orphans: m.tasks_orphaned.get(),
                wakeup_broadcasts: report.map_or(0, |r| r.wakeup_broadcasts),
            };
            let snapshot = m.snapshot();
            (row, snapshot, tele.phase_breakdown())
        })
        .collect();

    let baseline = results[0].0.makespan_s.expect("no-churn run completes");
    let heaviest_run = results.last().expect("non-empty sweep");
    let heaviest_snapshot = heaviest_run.1.clone();
    let heaviest_phases = heaviest_run.2.clone();
    let mut rows = Vec::new();
    println!(
        "{:<20} {:>7} {:>12} {:>10} {:>9} {:>9} {:>9}",
        "scenario", "avail", "makespan", "inflation", "requeues", "orphans", "wakeups"
    );
    for (mut r, _, _) in results {
        r.inflation = r.makespan_s.map(|m| m / baseline);
        println!(
            "{:<20} {:>6.0}% {:>12} {:>9}x {:>9} {:>9} {:>9}",
            r.label,
            r.availability * 100.0,
            r.makespan_s.map_or("DNF".into(), fmt_secs),
            r.inflation.map_or("—".into(), |x| format!("{x:.2}")),
            r.requeues,
            r.orphans,
            r.wakeup_broadcasts
        );
        rows.push(r);
    }

    // Shape checks: every scenario completes; churn monotonically costs
    // recomposition traffic.
    assert!(
        rows.iter().all(|r| r.makespan_s.is_some()),
        "all scenarios complete"
    );
    let heaviest = rows.last().unwrap();
    assert!(heaviest.requeues > 0 && heaviest.wakeup_broadcasts > 1);
    println!();
    println!("every scenario completes; churn is paid for in re-queued tasks and");
    println!("recomposition wakeups, exactly as §3.2's design anticipates.");

    // Per-phase latency breakdown of the heaviest-churn run.
    println!();
    println!("per-phase latencies under {}:", rows.last().unwrap().label);
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

    write_artifact("churn", &rows);
    write_metrics(
        "churn",
        &RunInfo::new("churn", 2024),
        &heaviest_snapshot,
        &heaviest_phases,
    );
}
