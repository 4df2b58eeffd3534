//! One job shape through both planes that run the one job ledger
//! (`oddci_core::ledger::JobLedger`): the discrete-event world and the
//! in-process live plane. Each clock
//! times the job its own way, so only what the ledger decides is compared
//! — the instance it numbered, the tasks it counted and the accounting
//! identity — and not the wakeup count, which follows each clock's
//! re-air timing.

use oddci::core::world::{World, WorldConfig};
use oddci::live::{AlignmentImage, LiveConfig, LiveOddci};
use oddci::types::{DataSize, InstanceId, SimDuration, SimTime};
use oddci::workload::alignment::random_sequence;
use oddci::workload::JobGenerator;
use std::sync::Arc;
use std::time::Duration;

const NODES: u64 = 4;
const TASKS: u64 = 24;

#[test]
fn one_job_shape_completes_alike_on_both_clocks() {
    let mut sim = World::simulation(
        WorldConfig {
            nodes: NODES,
            ..Default::default()
        },
        7,
    );
    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(1),
        DataSize::from_bytes(150),
        DataSize::from_bytes(8),
        SimDuration::from_secs(10),
        7,
    )
    .generate(TASKS);
    let job_id = job.id;
    let req = sim.submit_job(job, NODES);
    let sim_report = sim
        .run_request(req, SimTime::from_secs(24 * 3600))
        .expect("the simulated job completes");
    let sim_unaccounted = sim.world().backend().unaccounted_tasks(job_id);

    let live = LiveOddci::start(LiveConfig {
        nodes: NODES,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        ..Default::default()
    });
    let image = AlignmentImage {
        db_len: 2000,
        ..AlignmentImage::small_demo()
    };
    let queries = (0..TASKS)
        .map(|i| Arc::new(random_sequence(16, i)))
        .collect();
    let live_report = live
        .run_query_job(image, queries, NODES, Duration::from_secs(60))
        .expect("the live job completes")
        .report;
    let live_unaccounted = live.shutdown().tasks_unaccounted;

    for (plane, report, unaccounted) in [
        ("sim", sim_report, sim_unaccounted),
        ("live", live_report, live_unaccounted),
    ] {
        assert_eq!(report.instance, InstanceId::new(0), "{plane}");
        assert_eq!(report.target_nodes, NODES, "{plane}");
        assert_eq!(report.tasks_completed, TASKS, "{plane}");
        assert_eq!(report.requeues, 0, "{plane}");
        assert!(report.wakeup_broadcasts >= 1, "{plane}: {report:?}");
        assert_eq!(unaccounted, 0, "{plane}");
    }
}
