//! Chaos scenarios: every fault class the `oddci-faults` subsystem can
//! inject, exercised one at a time and in combination, always with the
//! same acceptance bar — **the job completes and every task is accounted
//! for**, faults are paid in retries/requeues/makespan, never in lost or
//! double-counted work.

use oddci::core::{World, WorldConfig};
use oddci::faults::{FaultClass, FaultPlan, FaultSpec};
use oddci::types::{DataSize, SimDuration, SimTime};
use oddci::workload::{Job, JobGenerator};

mod common;
use common::fast_policy;

const TASKS: u64 = 120;

/// A small world with short control-plane intervals and the given plan.
fn chaos_config(plan: FaultPlan) -> WorldConfig {
    let mut cfg = WorldConfig::default();
    cfg.nodes = 200;
    cfg.policy = fast_policy();
    cfg.controller_tick = SimDuration::from_secs(30);
    cfg.faults = plan;
    cfg
}

/// The job every scenario runs: `TASKS` 20 s tasks.
fn job(seed: u64) -> Job {
    JobGenerator::homogeneous(
        DataSize::from_megabytes(1),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs(20),
        seed,
    )
    .generate(TASKS)
}

/// Runs one job under `plan` and returns the world's metrics snapshot
/// after asserting completion with all tasks accounted for.
fn run_job(plan: FaultPlan, seed: u64) -> oddci::core::world::MetricsSnapshot {
    let mut sim = World::simulation(chaos_config(plan), seed);
    let request = sim.submit_job(job(seed ^ 0x1234), 50);
    let report = sim
        .run_request(request, SimTime::from_secs(14 * 24 * 3600))
        .expect("job completes under injected faults");
    assert_eq!(report.tasks_completed, TASKS, "all tasks accounted for");
    sim.world().metrics().snapshot()
}

#[test]
fn carousel_corruption_costs_extra_passes_not_tasks() {
    let plan = FaultPlan::none()
        .with(FaultSpec::new(FaultClass::CarouselCorruption, 0.3))
        .with(FaultSpec::new(FaultClass::CarouselTruncation, 0.1));
    let snap = run_job(plan, 101);
    assert!(
        snap.faults.carousel_corruptions > 0,
        "corruption fired: {:?}",
        snap.faults
    );
    assert!(snap.faults.carousel_truncations > 0, "truncation fired");
    // A failed read re-reads from the still-cycling carousel: joins happen.
    assert!(snap.joins > 0);
}

#[test]
fn direct_loss_bursts_are_retried_through() {
    let plan = FaultPlan::none().with(FaultSpec::new(FaultClass::DirectLoss, 0.25).magnitude(15.0));
    let snap = run_job(plan, 102);
    assert!(
        snap.faults.direct_losses > 0,
        "losses fired: {:?}",
        snap.faults
    );
    assert!(
        snap.task_fetch_retries > 0,
        "lost fetches retried with backoff: {snap:?}"
    );
}

#[test]
fn heartbeat_drops_stay_within_the_miss_budget_or_recover() {
    let plan = FaultPlan::none().with(FaultSpec::new(FaultClass::HeartbeatDrop, 0.3));
    let snap = run_job(plan, 103);
    assert!(
        snap.faults.heartbeat_drops > 0,
        "drops fired: {:?}",
        snap.faults
    );
    // Dropped beats can push nodes over the miss threshold; the Backend
    // re-queues and the Controller recomposes — work is never lost either way.
    assert!(snap.heartbeats_delivered > 0);
}

#[test]
fn pna_crashes_orphan_tasks_that_get_requeued() {
    let plan = FaultPlan::none().with(FaultSpec::new(FaultClass::PnaCrash, 0.05).magnitude(40.0));
    let snap = run_job(plan, 104);
    assert!(
        snap.faults.pna_crashes > 0,
        "crashes fired: {:?}",
        snap.faults
    );
    // A crash mid-task silently orphans it; the heartbeat-transition path
    // must hand it back to the queue.
    assert!(
        snap.tasks_orphaned == 0 || snap.requeues > 0,
        "orphaned work was re-queued: {snap:?}"
    );
}

#[test]
fn backend_stalls_delay_fetches_with_backoff() {
    let plan =
        FaultPlan::none().with(FaultSpec::new(FaultClass::BackendStall, 0.4).magnitude(15.0));
    let snap = run_job(plan, 105);
    assert!(
        snap.faults.backend_stalls > 0,
        "stalls fired: {:?}",
        snap.faults
    );
    assert!(
        snap.task_fetch_retries > 0,
        "stalled fetches retried with backoff: {snap:?}"
    );
}

#[test]
fn partitions_and_latency_spikes_are_survivable() {
    let plan = FaultPlan::none()
        .with(FaultSpec::new(FaultClass::Partition, 0.05).magnitude(25.0))
        .with(FaultSpec::new(FaultClass::LatencySpike, 0.2).magnitude(4.0));
    let snap = run_job(plan, 106);
    assert!(
        snap.faults.partitions > 0 || snap.faults.latency_spikes > 0,
        "network faults fired: {:?}",
        snap.faults
    );
}

/// The acceptance scenario: five classes at moderate rates, end to end.
#[test]
fn combined_moderate_faults_complete_with_visible_recovery() {
    let snap = run_job(FaultPlan::standard_mix(), 107);
    let distinct = FaultClass::ALL
        .iter()
        .filter(|&&c| snap.faults.get(c) > 0)
        .count();
    assert!(
        distinct >= 3,
        "at least three fault classes actually fired: {:?}",
        snap.faults
    );
    assert!(
        snap.requeues + snap.task_fetch_retries > 0,
        "recovery machinery visible in the snapshot: {snap:?}"
    );
}

/// Identical seed and identical plan ⇒ identical run; a different plan
/// under the same seed diverges.
#[test]
fn same_seed_same_plan_is_deterministic() {
    let run = |plan: FaultPlan, seed| {
        let mut sim = World::simulation(chaos_config(plan), seed);
        let request = sim.submit_job(job(7), 50);
        let report = sim
            .run_request(request, SimTime::from_secs(14 * 24 * 3600))
            .expect("completes");
        (
            report.makespan,
            sim.events_processed(),
            sim.world().metrics().snapshot(),
        )
    };
    let a = run(FaultPlan::standard_mix(), 42);
    let b = run(FaultPlan::standard_mix(), 42);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);

    let calm = run(FaultPlan::none(), 42);
    assert_ne!(a.2.faults, calm.2.faults, "plans actually change the run");
}

/// `run_request` stops on the event that completes its request. The halt
/// must be invisible: the clock stays at the completion instant, and
/// running on to `end` afterwards is exactly one uninterrupted run to
/// `end`, with and without faults.
#[test]
fn halting_at_completion_changes_nothing_that_follows() {
    let end = SimTime::from_secs(3600);
    for plan in [FaultPlan::none(), FaultPlan::standard_mix()] {
        for seed in [11, 12, 13] {
            let start = || {
                let mut sim = World::simulation(chaos_config(plan.clone()), seed);
                let request = sim.submit_job(job(seed), 50);
                (sim, request)
            };
            let (mut halted, request) = start();
            let report = halted.run_request(request, end).expect("completes");
            assert_eq!(halted.now(), SimTime::ZERO + report.makespan, "seed {seed}");
            halted.run_until(end);

            let (mut whole, request) = start();
            whole.run_until(end);
            assert_eq!(whole.report(request), Some(report), "seed {seed}");
            assert_eq!(halted.events_processed(), whole.events_processed());
            assert_eq!(
                halted.world().metrics().snapshot(),
                whole.world().metrics().snapshot(),
                "seed {seed}"
            );
        }
    }
}
