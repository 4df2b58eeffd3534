//! Property-based tests over the whole stack.

use oddci::analytics::{makespan, wakeup_mean, InstanceParams};
use oddci::core::{World, WorldConfig};
use oddci::crypto::{MessageAuthenticator, Sha256};
use oddci::faults::{FaultClass, FaultPlan, FaultSpec};
use oddci::sim::{SeedForge, Welford};
use oddci::telemetry::Telemetry;
use oddci::types::{Bandwidth, DataSize, Probability, SimDuration, SimTime};
use oddci::workload::{JobGenerator, JobProfile};
use proptest::prelude::*;

mod common;
use common::fast_policy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SHA-256 streaming equals one-shot for arbitrary inputs and splits.
    #[test]
    fn sha256_streaming_equivalence(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    split in 0usize..512) {
        let split = split.min(data.len());
        let one_shot = Sha256::digest(&data);
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), one_shot);
    }

    /// MAC verification accepts the real tag and rejects any single-bit flip.
    #[test]
    fn mac_rejects_bit_flips(key in proptest::collection::vec(any::<u8>(), 1..64),
                             msg in proptest::collection::vec(any::<u8>(), 0..128),
                             flip_byte in 0usize..32, flip_bit in 0u8..8) {
        let auth = MessageAuthenticator::from_key(&key);
        let mut tag = auth.sign(&msg);
        prop_assert!(auth.verify(&msg, &tag));
        tag[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!auth.verify(&msg, &tag));
    }

    /// Transfer-time dimensional sanity: time scales linearly in size and
    /// inversely in bandwidth.
    #[test]
    fn transfer_time_scaling(bits in 1u64..10_000_000, mbps in 1u32..100) {
        let bw = Bandwidth::from_mbps(f64::from(mbps));
        let t1 = DataSize::from_bits(bits).transfer_time(bw);
        let t2 = DataSize::from_bits(bits * 2).transfer_time(bw);
        let t_fast = DataSize::from_bits(bits).transfer_time(Bandwidth::from_mbps(f64::from(mbps) * 2.0));
        // Allow microsecond rounding.
        prop_assert!(t2.as_micros().abs_diff(t1.as_micros() * 2) <= 2);
        prop_assert!(t_fast.as_micros().abs_diff(t1.as_micros() / 2) <= 2);
    }

    /// Makespan (eq. 1) is monotone: more nodes never hurt, bigger images
    /// never help.
    #[test]
    fn makespan_monotonicity(tasks in 1u64..100_000,
                             nodes in 1u64..10_000,
                             cost_ms in 1u64..3_600_000) {
        let profile = |img_mb: u64| JobProfile {
            image_size: DataSize::from_megabytes(img_mb),
            task_count: tasks,
            mean_input: DataSize::from_bytes(500),
            mean_result: DataSize::from_bytes(500),
            mean_cost: SimDuration::from_millis(cost_ms),
        };
        let m_small = makespan(&profile(1), &InstanceParams::paper(nodes));
        let m_big = makespan(&profile(100), &InstanceParams::paper(nodes));
        prop_assert!(m_big >= m_small);
        let m_more_nodes = makespan(&profile(1), &InstanceParams::paper(nodes * 2));
        prop_assert!(m_more_nodes <= m_small);
    }

    /// Wakeup mean stays within its own envelope for any image/β.
    #[test]
    fn wakeup_mean_in_envelope(img_kb in 1u64..100_000, kbps in 100u32..100_000) {
        let image = DataSize::from_kilobytes(img_kb);
        let beta = Bandwidth::from_kbps(f64::from(kbps));
        let mean = wakeup_mean(image, beta);
        let cycle = image.transfer_time(beta);
        prop_assert!(mean >= cycle && mean <= cycle * 2);
    }

    /// Probability::for_target never exceeds 1 and hits the exact ratio
    /// when feasible.
    #[test]
    fn probability_sizing(target in 0u64..1_000_000, pool in 1u64..1_000_000) {
        let p = Probability::for_target(target, pool);
        prop_assert!(p.value() <= 1.0);
        if target <= pool {
            prop_assert!((p.value() - target as f64 / pool as f64).abs() < 1e-12);
        }
    }

    /// SeedForge: distinct (label, index) pairs give distinct seeds, and
    /// derivation is pure.
    #[test]
    fn seed_forge_properties(master in any::<u64>(), a in 0u64..10_000, b in 0u64..10_000) {
        let forge = SeedForge::new(master);
        prop_assert_eq!(forge.indexed_seed("x", a), forge.indexed_seed("x", a));
        if a != b {
            prop_assert_ne!(forge.indexed_seed("x", a), forge.indexed_seed("x", b));
        }
        prop_assert_ne!(forge.indexed_seed("x", a), forge.indexed_seed("y", a));
    }

    /// Welford merge is associative-enough: merging any split equals the
    /// sequential result.
    #[test]
    fn welford_merge_split_invariance(xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                      split in 0usize..200) {
        let split = split.min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs { whole.add(x); }
        let mut l = Welford::new();
        let mut r = Welford::new();
        for &x in &xs[..split] { l.add(x); }
        for &x in &xs[split..] { r.add(x); }
        l.merge(&r);
        prop_assert_eq!(l.count(), whole.count());
        prop_assert!((l.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((l.variance() - whole.variance()).abs()
                     <= 1e-5 * (1.0 + whole.variance().abs()));
    }
}

proptest! {
    // Whole-world property runs are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any small world completes any small job, exactly once per task.
    #[test]
    fn world_always_completes_small_jobs(seed in any::<u64>(),
                                         tasks in 20u64..120,
                                         target in 5u64..60) {
        let mut cfg = WorldConfig::default();
        cfg.nodes = 200;
        cfg.policy = fast_policy();
        cfg.controller_tick = SimDuration::from_secs(15);
        let job = JobGenerator::homogeneous(
            DataSize::from_megabytes(1),
            DataSize::from_bytes(200),
            DataSize::from_bytes(200),
            SimDuration::from_secs(10),
            seed,
        ).generate(tasks);

        let mut sim = World::simulation(cfg, seed);
        let request = sim.submit_job(job, target);
        let report = sim.run_request(request, SimTime::from_secs(14 * 24 * 3600));
        prop_assert!(report.is_some(), "seed={seed} tasks={tasks} target={target}");
        prop_assert_eq!(report.unwrap().tasks_completed, tasks);
    }

    /// Identical seed + identical `FaultPlan` ⇒ identical recorded
    /// telemetry events (and identical makespan, event count and metric
    /// counters).
    /// Fault injection is a pure function of (seed, class, node, instant),
    /// so replaying a chaotic run must reproduce it exactly.
    #[test]
    fn fault_plan_runs_are_reproducible(seed in any::<u64>(),
                                        intensity in 0.0f64..2.0,
                                        loss_rate in 0.0f64..0.3,
                                        crash_rate in 0.0f64..0.05) {
        let plan = FaultPlan::standard_mix()
            .scaled(intensity)
            .with(FaultSpec::new(FaultClass::DirectLoss, loss_rate).magnitude(10.0))
            .with(FaultSpec::new(FaultClass::PnaCrash, crash_rate).magnitude(30.0));

        let run = |plan: FaultPlan| {
            let mut cfg = WorldConfig::default();
            cfg.nodes = 150;
            cfg.policy = fast_policy();
            cfg.controller_tick = SimDuration::from_secs(30);
            cfg.telemetry = Telemetry::recording();
            cfg.faults = plan;
            let job = JobGenerator::homogeneous(
                DataSize::from_megabytes(1),
                DataSize::from_bytes(300),
                DataSize::from_bytes(300),
                SimDuration::from_secs(15),
                seed ^ 0xDDC1,
            ).generate(60);
            let mut sim = World::simulation(cfg, seed);
            let request = sim.submit_job(job, 40);
            let report = sim.run_request(request, SimTime::from_secs(14 * 24 * 3600));
            let trace = sim.world().telemetry().events();
            (
                report.map(|r| (r.tasks_completed, r.makespan)),
                sim.events_processed(),
                sim.world().metrics().snapshot(),
                trace,
            )
        };

        let a = run(plan.clone());
        let b = run(plan);
        prop_assert_eq!(&a.0, &b.0, "completion report diverged");
        prop_assert_eq!(a.1, b.1, "event count diverged");
        prop_assert_eq!(&a.2, &b.2, "metric counters diverged");
        prop_assert_eq!(&a.3, &b.3, "trace diverged");
        // The job must also actually finish — determinism of a wedged run
        // would be a hollow property.
        prop_assert!(a.0.is_some(), "job completes under the generated plan");
        prop_assert_eq!(a.0.unwrap().0, 60);
    }
}
