//! Experiment F6 — Figure 6: efficiency vs suitability Φ for n/N ∈
//! {1, 10, 100, 1000}, (s+r) = 1 KB, I = 10 MB, β = 1 Mbps, δ = 150 Kbps.
//!
//! ```text
//! cargo run --release -p oddci-bench --bin figure6 [--sim]
//! ```
//!
//! Prints the analytical series (the figure itself) and the Φ each n/N
//! needs for E = 0.9 and E = 0.99; `--sim` adds
//! discrete-event simulation points at selected Φ values for
//! cross-validation (slower).

use oddci_analytics::efficiency::{efficiency_curve, log_grid, phi_reaching};
use oddci_analytics::InstanceParams;
use oddci_bench::{header, write_artifact};
use oddci_core::{World, WorldConfig};
use oddci_types::{DataSize, SimDuration, SimTime};
use oddci_workload::{JobGenerator, JobProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    n_over_big_n: f64,
    points: Vec<(f64, f64)>,
    phi_at_e90: Option<f64>,
    sim_points: Vec<(f64, f64)>,
}

fn main() {
    let with_sim = std::env::args().any(|a| a == "--sim");
    header("Figure 6 — efficiency of an OddCI-DTV instance vs suitability Φ");
    println!("(s+r) = 1 KB, I = 10 MB, β = 1 Mbps, δ = 150 Kbps, N = 1000");
    println!();

    let params = InstanceParams::paper(1_000);
    let image = DataSize::from_megabytes(10);
    let moved = DataSize::from_bytes(1_000);
    let ratios = [1.0, 10.0, 100.0, 1_000.0];
    let grid = log_grid(1.0, 1e5, 21);

    print!("{:>10}", "phi");
    for r in ratios {
        print!(" {:>12}", format!("n/N={r}"));
    }
    println!();

    let curves: Vec<_> = ratios
        .iter()
        .map(|&r| efficiency_curve(&grid, r, image, moved, &params))
        .collect();
    for (i, &phi) in grid.iter().enumerate() {
        print!("{phi:>10.0}");
        for c in &curves {
            print!(" {:>12.4}", c[i].efficiency);
        }
        println!();
    }

    // Paper claims to verify.
    println!();
    let fine = log_grid(1.0, 1e7, 400);
    let mut series = Vec::new();
    for (&r, _) in ratios.iter().zip(&curves) {
        let c = efficiency_curve(&fine, r, image, moved, &params);
        let phi90 = phi_reaching(&c, 0.9);
        for (e, phi) in [("0.9", phi90), ("0.99", phi_reaching(&c, 0.99))] {
            println!(
                "n/N={r:<6}  E={e} reached at phi = {}",
                phi.map_or("never (within 1e7)".into(), |p| format!("{p:.0}"))
            );
        }
        let sim_points = if with_sim {
            simulate_points(r, image, moved, &params)
        } else {
            vec![]
        };
        series.push(Series {
            n_over_big_n: r,
            points: efficiency_curve(&grid, r, image, moved, &params)
                .iter()
                .map(|p| (p.phi, p.efficiency))
                .collect(),
            phi_at_e90: phi90,
            sim_points,
        });
    }

    // Shape assertions (what "reproduced" means for this figure).
    let c100 = efficiency_curve(&fine, 100.0, image, moved, &params);
    let phi90 = phi_reaching(&c100, 0.9).expect("n/N=100 reaches E=0.9");
    assert!(
        phi90 < 1_000.0,
        "paper: ratio 100 suffices well before phi=1000"
    );
    for c in &series {
        let e: Vec<f64> = c.points.iter().map(|&(_, e)| e).collect();
        assert!(
            e.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "monotone in phi"
        );
    }
    println!();
    println!("shape checks pass: efficiency is monotone in phi; n/N=100 reaches");
    println!("E=0.9 at phi={phi90:.0} (<1000), matching the paper's reading of Figure 6.");

    if with_sim {
        println!();
        println!("simulation cross-validation points are in the artifact (sim_points).");
    }
    write_artifact("figure6", &series);
}

/// Runs the full world at a few Φ values and measures efficiency.
fn simulate_points(
    ratio: f64,
    image: DataSize,
    moved: DataSize,
    params: &InstanceParams,
) -> Vec<(f64, f64)> {
    let target = 100u64; // smaller N for tractable event counts
    let mut out = Vec::new();
    for phi in [100.0, 1_000.0, 10_000.0] {
        let n_tasks = ((ratio * target as f64) as u64).max(1);
        let profile = JobProfile::from_suitability(image, n_tasks, moved, params.delta, phi);
        let job = JobGenerator::homogeneous(
            image,
            profile.mean_input,
            profile.mean_result,
            profile.mean_cost,
            7,
        )
        .generate(n_tasks);

        let mut cfg = WorldConfig {
            nodes: 1_000,
            ..Default::default()
        };
        cfg.policy.heartbeat.interval = SimDuration::from_secs(60);
        // Apples-to-apples with equation (2): the model's `p` is defined on
        // a *reference* (standby) set-top box, so the cross-validation
        // audience must be all-standby. (With the default 50% in-use mix,
        // efficiency saturates at 0.5 + 0.5/1.65 ≈ 0.80 instead of 1 — a
        // real effect the paper's homogeneity assumption hides; see
        // EXPERIMENTS.md.)
        cfg.in_use_fraction = 0.0;
        let mut sim = World::simulation(cfg, 1 + phi as u64);
        let request = sim.submit_job(job, target);
        if let Some(report) = sim.run_request(request, SimTime::from_secs(365 * 24 * 3600)) {
            let e = n_tasks as f64 * profile.mean_cost.as_secs_f64()
                / (report.makespan.as_secs_f64() * target as f64);
            out.push((phi, e));
        }
    }
    out
}
