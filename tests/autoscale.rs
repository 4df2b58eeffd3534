//! The elastic-Provider reconciliation gauntlet.
//!
//! Property tests drive the pure [`Reconciler`] over arbitrary gauge
//! trajectories and check its three contract clauses — bounds, cooldown
//! fencing, and convergence — then a live headend runs a real
//! job under spot-like airtime revocation plus node churn and must lose
//! nothing while the loop replaces the evicted capacity.

use oddci::core::{AutoscalePolicy, Reconciler, ScaleDecision, ScaleInputs};
use oddci::faults::FaultPlan;
use oddci::live::{AlignmentImage, HeadendMode, LiveConfig, LiveOddci};
use oddci::types::{SimDuration, SimTime};
use proptest::prelude::*;
use std::time::Duration;

/// A self-consistent policy with the latency signals off, so the queue
/// gauge is the only scaling input the properties have to model.
fn arb_policy() -> impl Strategy<Value = AutoscalePolicy> {
    (1usize..=4, 0usize..=10, 1usize..=8, 0u32..90, 1u64..=30).prop_map(
        |(min, extra, slo, hyst, cooldown)| AutoscalePolicy {
            min_size: min,
            max_size: min + extra,
            slo_queue_depth: slo,
            slo_fetch_p99: 0.0,
            slo_heartbeat_lag: 0.0,
            hysteresis: f64::from(hyst) / 100.0,
            cooldown: SimDuration::from_secs(cooldown),
        },
    )
}

/// One observed reconcile tick: how far the clock advanced (ms), the
/// Backend queue depth, and whether the broadcaster revoked airtime
/// just before the sample.
fn arb_trajectory() -> impl Strategy<Value = Vec<(u64, usize, bool)>> {
    proptest::collection::vec(
        (
            1u64..40_000,
            0usize..400,
            (0u32..100).prop_map(|roll| roll < 15),
        ),
        1..60,
    )
}

fn inputs(queue_depth: usize, current_size: usize) -> ScaleInputs {
    ScaleInputs {
        queue_depth,
        current_size,
        ..ScaleInputs::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The desired size never leaves `[min_size, max_size]`, no matter
    /// what the gauges claim, and a revocation is always answered by a
    /// `Replace` on the very next tick — never deferred by cooldown.
    #[test]
    fn desired_always_respects_policy_bounds(policy in arb_policy(),
                                             steps in arb_trajectory()) {
        let mut r = Reconciler::new(policy, 1);
        let mut now = SimTime::ZERO;
        for (dt_ms, queue, revoked) in steps {
            now += SimDuration::from_millis(dt_ms);
            if revoked {
                r.observe_revocation();
            }
            let current = r.desired();
            let decision = r.tick(now, &inputs(queue, current));
            if revoked {
                prop_assert!(
                    matches!(decision, ScaleDecision::Replace { .. }),
                    "revocation answered with {decision:?} instead of Replace"
                );
            }
            prop_assert!(
                (policy.min_size..=policy.max_size).contains(&r.desired()),
                "desired {} escaped [{}, {}]",
                r.desired(), policy.min_size, policy.max_size
            );
        }
    }

    /// Cooldown fencing: between any two capacity *changes* (scale-up or
    /// scale-down) at least one full cooldown elapses, counted from the
    /// last action of any kind — so the loop can never flap more than
    /// once per window. Replacements are exempt by design (lost capacity
    /// is restored, not rate-limited) but still arm the fence.
    #[test]
    fn at_most_one_scaling_action_per_cooldown_window(policy in arb_policy(),
                                                      steps in arb_trajectory()) {
        let mut r = Reconciler::new(policy, 1);
        let mut now = SimTime::ZERO;
        let mut last_action: Option<SimTime> = None;
        for (dt_ms, queue, revoked) in steps {
            now += SimDuration::from_millis(dt_ms);
            if revoked {
                r.observe_revocation();
            }
            let current = r.desired();
            let decision = r.tick(now, &inputs(queue, current));
            if matches!(
                decision,
                ScaleDecision::ScaleUp { .. } | ScaleDecision::ScaleDown { .. }
            ) {
                if let Some(prev) = last_action {
                    prop_assert!(
                        now.since(prev) >= policy.cooldown,
                        "{decision:?} only {:?} after the previous action, cooldown {:?}",
                        now.since(prev), policy.cooldown
                    );
                }
            }
            if decision.acted() {
                last_action = Some(now);
            }
        }
    }

    /// Convergence: under constant load the loop reaches a fixed point
    /// within one tick — desired jumps straight to the clamped target
    /// (or holds inside the hysteresis band) and every later tick is a
    /// `Hold` at the same desired size. No oscillation, ever.
    #[test]
    fn constant_load_settles_after_one_action(policy in arb_policy(),
                                              queue in 0usize..500,
                                              start in 1usize..12) {
        let mut r = Reconciler::new(policy, start);
        let mut now = SimTime::ZERO;
        // Space ticks past the cooldown so fencing never masks a flap.
        let step = SimDuration::from_micros(policy.cooldown.as_micros() + 1_000_000);
        let mut actions = 0u32;
        let mut settled = r.desired();
        for tick in 0..12 {
            now += step;
            let current = r.desired();
            let decision = r.tick(now, &inputs(queue, current));
            if decision.acted() {
                actions += 1;
            }
            if tick == 0 {
                settled = r.desired();
            } else {
                prop_assert!(
                    matches!(decision, ScaleDecision::Hold),
                    "tick {tick} still moving under constant load: {decision:?}"
                );
                prop_assert_eq!(r.desired(), settled, "desired drifted after settling");
            }
        }
        prop_assert!(actions <= 1, "constant load took {actions} actions to settle");
    }
}

/// The live gauntlet: a headend starts a job at the policy
/// floor, the queue forces a scale-up, a 100%-rate `airtime-revoked`
/// window evicts the whole membership mid-job, and low-grade `pna-crash`
/// churn runs throughout. The job must still complete with every task
/// accounted for, and the reconciler must have both grown the instance
/// and replaced the revoked capacity.
#[test]
fn elastic_sharded_headend_survives_revocation_and_churn() {
    let policy = AutoscalePolicy {
        min_size: 1,
        max_size: 4,
        slo_queue_depth: 4,
        cooldown: SimDuration::from_millis(250),
        ..AutoscalePolicy::default()
    };
    let live = LiveOddci::start(LiveConfig {
        nodes: 4,
        heartbeat_interval: Duration::from_millis(60),
        controller_tick: Duration::from_millis(80),
        faults: FaultPlan::parse("airtime-revoked=1.0@0.15..0.45,pna-crash=0.03:0.3@0..30")
            .expect("valid plan"),
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
        db_len: 400_000,
        ..AlignmentImage::small_demo()
    };
    let outcome = live
        .run_alignment_job(image, 24, policy.min_size as u64, Duration::from_secs(120))
        .expect("job completes despite revocation and churn");
    assert_eq!(outcome.scores.len(), 24, "every task produced a score");

    let export = live
        .autoscale_state()
        .expect("autoscale config enables the reconciler");
    assert!(
        export.scale_ups >= 1,
        "24 queued tasks against slo_queue_depth=4 must force a scale-up: {export:?}"
    );
    let revocations = live
        .telemetry()
        .registry()
        .counter("faults.airtime_revoked")
        .get();
    assert!(
        revocations >= 1,
        "the 100%-rate window must revoke at least once"
    );
    assert!(
        export.replacements >= 1,
        "every revocation is answered by a Replace: {export:?}"
    );

    let report = live.shutdown();
    assert_eq!(
        report.tasks_unaccounted, 0,
        "zero task loss under reclamation"
    );
    assert_eq!(report.threads_failed, 0);
}
