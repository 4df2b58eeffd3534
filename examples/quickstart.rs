//! Quickstart: wake up an OddCI-DTV instance and run an MTC job on it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Simulates a digital-TV channel with 2,000 tuned receivers, broadcasts a
//! wakeup for a 200-node instance carrying a 4 MB application image, runs
//! a 2,000-task bag, and compares the measured makespan with the paper's
//! analytical model (equation (1)).

use oddci::analytics::{efficiency, makespan, wakeup_envelope, InstanceParams};
use oddci::core::{World, WorldConfig};
use oddci::telemetry::{Event, EventKind, Phase, Telemetry, CONTROL_TRACK};
use oddci::types::{DataSize, NodeId, SimDuration, SimTime};
use oddci::workload::JobGenerator;

fn main() {
    let nodes = 2_000u64;
    let target = 200u64;
    let image = DataSize::from_megabytes(4);

    let mut cfg = WorldConfig::default();
    cfg.nodes = nodes;
    cfg.telemetry = Telemetry::recording(); // keep the event timeline

    let mut gen = JobGenerator::homogeneous(
        image,
        DataSize::from_bytes(500),  // task input s
        DataSize::from_bytes(500),  // result r
        SimDuration::from_secs(60), // cost p on a reference STB
        7,
    );
    let job = gen.generate(2_000);
    let profile = job.profile();

    println!("OddCI-DTV quickstart");
    println!("====================");
    println!("channel audience      : {nodes} receivers");
    println!("instance target       : {target} nodes");
    println!("image                 : {image}");
    println!(
        "tasks                 : {} x {}",
        profile.task_count, profile.mean_cost
    );
    println!();

    // What the paper's closed forms predict.
    let params = InstanceParams::paper(target);
    let (best, mean, worst) = wakeup_envelope(image, params.beta);
    let predicted = makespan(&profile, &params);
    let predicted_eff = efficiency(&profile, &params);
    println!("analytical model (paper §5)");
    println!("  wakeup envelope     : best {best} / mean {mean} / worst {worst}");
    println!("  makespan, eq. (1)   : {predicted}");
    println!("  efficiency, eq. (2) : {predicted_eff:.3}");
    println!();

    // What the full discrete-event world actually does.
    let mut sim = World::simulation(cfg, 42);
    let request = sim.submit_job(job, target);
    let report = sim
        .run_request(request, SimTime::from_secs(7 * 24 * 3600))
        .expect("job completes");

    let m = sim.world().metrics();
    println!("discrete-event simulation");
    println!("  makespan            : {}", report.makespan);
    println!("  tasks completed     : {}", report.tasks_completed);
    println!("  wakeup broadcasts   : {}", report.wakeup_broadcasts);
    println!(
        "  node wakeup latency : mean {:.1}s (n={})",
        m.wakeup_latency.stats().mean(),
        m.wakeup_latency.count()
    );
    println!("  heartbeats received : {}", m.heartbeats_delivered.get());
    println!();
    let ratio = report.makespan.as_secs_f64() / predicted.as_secs_f64();
    println!("simulated / analytical makespan: {ratio:.2}x");
    println!("(the simulator adds integer task rounds, controller latency and");
    println!(" probabilistic instance sizing that the closed form abstracts away)");

    // The recorded events narrowed to the run's milestones: each carousel
    // publish, each node's DVE boot completing, lost nodes, the job's end.
    let mut milestones: Vec<Event> = sim
        .world()
        .telemetry()
        .events()
        .into_iter()
        .filter(|e| {
            e.kind != EventKind::Begin
                && matches!(
                    e.phase,
                    Phase::CarouselPublish | Phase::DveBoot | Phase::NodeLost | Phase::JobRun
                )
        })
        .collect();
    milestones.sort_by_key(|e| e.ts_us);
    println!();
    println!("timeline (first milestones):");
    for ev in milestones.iter().take(8) {
        println!("{}", milestone(ev));
    }
    if let Some(ev) = milestones.last() {
        println!("  ...");
        println!("{}", milestone(ev));
    }
}

/// One timeline row: when, which phase, on which track, about what.
fn milestone(ev: &Event) -> String {
    let who = if ev.track == CONTROL_TRACK {
        "control".to_string()
    } else {
        NodeId::new(ev.track).to_string()
    };
    format!(
        "  [{:>9.3}s] {:<16} {who} (scope {})",
        ev.ts_us as f64 / 1e6,
        ev.phase.label(),
        ev.scope
    )
}
