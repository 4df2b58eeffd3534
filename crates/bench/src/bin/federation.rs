//! Experiment X5 (extension) — multi-channel federation scaling (§4.3's
//! "multiple channels" remark made quantitative).
//!
//! ```text
//! cargo run --release -p oddci-bench --bin federation
//! ```

use oddci_bench::{fmt_secs, header, write_artifact};
use oddci_core::{Federation, WorldConfig};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::JobGenerator;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    channels: usize,
    audience: u64,
    instance_total: u64,
    makespan_s: f64,
    speedup_vs_one: f64,
    efficiency_of_scaling: f64,
}

fn main() {
    header("X5 — federation scaling: same 6,000-task job across 1..8 channels");
    println!();

    let channel_counts = [1usize, 2, 4, 8];
    let results: Vec<(usize, u64, u64, f64)> = channel_counts
        .iter()
        .map(|&n| {
            let configs: Vec<WorldConfig> = (0..n)
                .map(|_| WorldConfig {
                    nodes: 500,
                    ..Default::default()
                })
                .collect();
            let mut fed = Federation::new(configs, 404);
            let job = JobGenerator::homogeneous(
                DataSize::from_megabytes(2),
                DataSize::from_bytes(500),
                DataSize::from_bytes(500),
                SimDuration::from_secs(60),
                8,
            )
            .generate(6_000);
            let target = 100 * n as u64;
            fed.submit_job(job, target);
            let report = fed
                .run(SimTime::from_secs(60 * 24 * 3600))
                .expect("completes");
            assert_eq!(report.tasks_completed, 6_000);
            (n, fed.total_audience(), target, report.makespan_secs)
        })
        .collect();

    let base = results[0].3;
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>9} {:>12}",
        "channels", "audience", "instance", "makespan", "speedup", "scaling eff."
    );
    let mut rows = Vec::new();
    for (n, audience, instance, makespan) in results {
        let speedup = base / makespan;
        let eff = speedup / n as f64;
        println!(
            "{:<10} {:>10} {:>10} {:>12} {:>8.2}x {:>11.0}%",
            n,
            audience,
            instance,
            fmt_secs(makespan),
            speedup,
            eff * 100.0
        );
        rows.push(Row {
            channels: n,
            audience,
            instance_total: instance,
            makespan_s: makespan,
            speedup_vs_one: speedup,
            efficiency_of_scaling: eff,
        });
    }

    // Shape checks: speedup grows with channels and stays reasonably
    // efficient (the wakeup overhead is paid once per channel, in parallel).
    assert!(rows
        .windows(2)
        .all(|w| w[1].speedup_vs_one > w[0].speedup_vs_one));
    assert!(rows.last().unwrap().efficiency_of_scaling > 0.6);
    println!();
    println!("federation scales the audience ceiling linearly; scaling efficiency");
    println!("stays high because every channel pays its (identical) wakeup cost");
    println!("concurrently — broadcast's defining advantage.");

    write_artifact("federation", &rows);
}
