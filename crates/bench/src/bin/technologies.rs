//! Experiment X6 (extension) — §3.3's enabling technologies compared: the
//! same job swept across terrestrial/satellite/cable DTV, IPTV multicast
//! and mobile broadcast.
//!
//! ```text
//! cargo run --release -p oddci-bench --bin technologies
//! ```

use oddci_analytics::wakeup_mean;
use oddci_bench::{fmt_secs, header, write_artifact};
use oddci_core::{BroadcastTechnology, World};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::JobGenerator;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technology: String,
    beta_mbps: f64,
    delta_kbps: f64,
    churned: bool,
    wakeup_model_s: f64,
    makespan_s: f64,
    requeues: u64,
    mean_node_wakeup_s: f64,
}

fn main() {
    header("X6 — the same campaign on every §3.3 broadcast modality");
    println!("1,000-device audience, 200-node instance, 1,000 x 60 s tasks, 4 MB image");
    println!();

    let image = DataSize::from_megabytes(4);
    let rows: Vec<Row> = BroadcastTechnology::ALL
        .iter()
        .map(|&tech| {
            let mut cfg = tech.world_config(1_000);
            cfg.policy.heartbeat.interval = SimDuration::from_secs(30);
            cfg.controller_tick = SimDuration::from_secs(30);
            let job = JobGenerator::homogeneous(
                image,
                DataSize::from_bytes(500),
                DataSize::from_bytes(500),
                SimDuration::from_secs(60),
                12,
            )
            .generate(1_000);
            let mut sim = World::simulation(cfg, 333);
            let request = sim.submit_job(job, 200);
            let report = sim
                .run_request(request, SimTime::from_secs(60 * 24 * 3600))
                .expect("completes");
            let m = sim.world().metrics();
            Row {
                technology: tech.label().to_string(),
                beta_mbps: tech.beta().bps() / 1e6,
                delta_kbps: tech.delta().bps() / 1e3,
                churned: tech.churn().is_some(),
                wakeup_model_s: wakeup_mean(image, tech.beta()).as_secs_f64(),
                makespan_s: report.makespan.as_secs_f64(),
                requeues: report.requeues,
                mean_node_wakeup_s: m.wakeup_latency.stats().mean(),
            }
        })
        .collect();

    println!(
        "{:<18} {:>7} {:>8} {:>6} {:>12} {:>12} {:>12} {:>9}",
        "technology",
        "β Mbps",
        "δ Kbps",
        "churn",
        "wakeup(mdl)",
        "wakeup(sim)",
        "makespan",
        "requeues"
    );
    for r in &rows {
        println!(
            "{:<18} {:>7.2} {:>8.0} {:>6} {:>12} {:>12} {:>12} {:>9}",
            r.technology,
            r.beta_mbps,
            r.delta_kbps,
            if r.churned { "yes" } else { "no" },
            fmt_secs(r.wakeup_model_s),
            fmt_secs(r.mean_node_wakeup_s),
            fmt_secs(r.makespan_s),
            r.requeues,
        );
    }

    // Shape checks: every modality completes the job; wakeup ordering
    // follows β; the thin mobile pipes are the slow end.
    let find = |name: &str| rows.iter().find(|r| r.technology.contains(name)).unwrap();
    assert!(find("IPTV").wakeup_model_s < find("Terrestrial").wakeup_model_s);
    assert!(find("Terrestrial").wakeup_model_s < find("Mobile").wakeup_model_s);
    assert!(find("Mobile").makespan_s >= find("Cable").makespan_s);
    println!();
    println!("every modality completes the campaign; pipe widths order the wakeup");
    println!("costs exactly as §3.3's qualitative discussion suggests, and mobile's");
    println!("churn+slow CPUs make it the costliest substrate.");

    write_artifact("technologies", &rows);
}
