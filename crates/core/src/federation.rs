//! Multi-channel federation (§4.3 extension).
//!
//! *"Using multiple channels to distribute the trigger application (PNA
//! Xlet) increases the potential number of receivers connected with a
//! direct impact on the maximum size of the OddCI-DTV systems that can be
//! instantiated."*
//!
//! A [`Federation`] is a Provider-level abstraction over several
//! independent broadcast channels, each with its own Controller, carousel
//! and audience. A federated job is split across channels proportionally
//! to their audiences; each channel wakes its own instance and works its
//! share of the bag; the federated makespan is the slowest channel's.
//! (The paper's Backend is assumed "suitably provisioned", so the shared
//! result sink is not modelled as a bottleneck.)

use crate::provider::{JobReport, ProviderRequest};
use crate::world::{OddciSim, World, WorldConfig};
use oddci_types::{ImageId, JobId, SimTime};
use oddci_workload::{Job, Task};
use serde::{Deserialize, Serialize};

/// One channel's slice of a federated submission.
struct ChannelSlice {
    sim: OddciSim,
    request: Option<ProviderRequest>,
    share: u64,
}

/// A federated report: per-channel reports plus the aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedReport {
    /// Total tasks completed across channels.
    pub tasks_completed: u64,
    /// Slowest channel's makespan (the federated response time).
    pub makespan_secs: f64,
    /// Per-channel `(share, makespan_secs)` in channel order.
    pub per_channel: Vec<(u64, f64)>,
}

/// A set of independent OddCI-DTV channels federated by one Provider.
pub struct Federation {
    channels: Vec<ChannelSlice>,
}

impl Federation {
    /// Builds a federation of `configs.len()` channels; each channel gets
    /// an independent world seeded from `seed`.
    pub fn new(configs: Vec<WorldConfig>, seed: u64) -> Self {
        assert!(
            !configs.is_empty(),
            "a federation needs at least one channel"
        );
        let channels = configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| ChannelSlice {
                sim: World::simulation(cfg, seed ^ (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)),
                request: None,
                share: 0,
            })
            .collect();
        Federation { channels }
    }

    /// Total audience across channels.
    pub fn total_audience(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.sim.world().config().nodes)
            .sum()
    }

    /// Splits `job` across channels proportionally to audience, wakes an
    /// instance of `target_total` nodes split the same way, and submits.
    ///
    /// # Panics
    /// Panics if the job has fewer tasks than channels.
    pub fn submit_job(&mut self, job: Job, target_total: u64) {
        let n_channels = self.channels.len() as u64;
        assert!(
            job.task_count() >= n_channels,
            "cannot split {} tasks over {} channels",
            job.task_count(),
            n_channels
        );
        let total_audience = self.total_audience().max(1);

        // Proportional shares, remainder to the largest channel.
        let mut shares: Vec<u64> = self
            .channels
            .iter()
            .map(|c| job.task_count() * c.sim.world().config().nodes / total_audience)
            .collect();
        let assigned: u64 = shares.iter().sum();
        let biggest = (0..self.channels.len())
            .max_by_key(|&i| self.channels[i].sim.world().config().nodes)
            .expect("non-empty");
        shares[biggest] += job.task_count() - assigned;
        // Every channel gets at least one task (shares can round to zero).
        for i in 0..shares.len() {
            if shares[i] == 0 {
                shares[i] = 1;
                shares[biggest] -= 1;
            }
        }

        let mut cursor = 0usize;
        for (i, slice) in self.channels.iter_mut().enumerate() {
            let share = shares[i];
            let tasks: Vec<Task> = job.tasks[cursor..cursor + share as usize]
                .iter()
                .enumerate()
                .map(|(k, t)| Task {
                    id: oddci_types::TaskId::new(k as u64),
                    ..t.clone()
                })
                .collect();
            cursor += share as usize;
            let sub_job = Job::new(
                JobId::new(job.id.raw()),
                ImageId::new(job.image.raw()),
                job.image_size,
                tasks,
            );
            let target = (target_total * slice.sim.world().config().nodes / total_audience).max(1);
            slice.share = share;
            slice.request = Some(slice.sim.submit_job(sub_job, target));
        }
    }

    /// Runs every channel until its slice completes or `horizon` passes.
    /// Returns the federated report if all channels finished.
    pub fn run(&mut self, horizon: SimTime) -> Option<FederatedReport> {
        let mut per_channel = Vec::with_capacity(self.channels.len());
        let mut total = 0;
        let mut slowest = 0.0f64;
        for slice in &mut self.channels {
            let request = slice.request.expect("submit_job before run");
            let report: JobReport = slice.sim.run_request(request, horizon)?;
            total += report.tasks_completed;
            slowest = slowest.max(report.makespan.as_secs_f64());
            per_channel.push((slice.share, report.makespan.as_secs_f64()));
        }
        Some(FederatedReport {
            tasks_completed: total,
            makespan_secs: slowest,
            per_channel,
        })
    }

    /// Access a channel's world (diagnostics).
    pub fn world(&self, channel: usize) -> &World {
        self.channels[channel].sim.world()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::{DataSize, SimDuration};
    use oddci_workload::JobGenerator;

    fn cfg(nodes: u64) -> WorldConfig {
        WorldConfig {
            nodes,
            ..Default::default()
        }
    }

    fn job(tasks: u64) -> Job {
        JobGenerator::homogeneous(
            DataSize::from_megabytes(1),
            DataSize::from_bytes(200),
            DataSize::from_bytes(200),
            SimDuration::from_secs(30),
            5,
        )
        .generate(tasks)
    }

    #[test]
    fn federation_splits_and_completes() {
        let mut fed = Federation::new(vec![cfg(200), cfg(400)], 7);
        assert_eq!(fed.total_audience(), 600);
        fed.submit_job(job(300), 120);
        let report = fed
            .run(SimTime::from_secs(14 * 24 * 3600))
            .expect("completes");
        assert_eq!(report.tasks_completed, 300);
        assert_eq!(report.per_channel.len(), 2);
        // Proportional split: 100 / 200.
        assert_eq!(report.per_channel[0].0, 100);
        assert_eq!(report.per_channel[1].0, 200);
        assert!(report.makespan_secs > 0.0);
    }

    #[test]
    fn single_channel_federation_equals_plain_world() {
        let mut fed = Federation::new(vec![cfg(300)], 9);
        fed.submit_job(job(150), 60);
        let fed_report = fed.run(SimTime::from_secs(14 * 24 * 3600)).expect("fed");

        let mut sim = World::simulation(cfg(300), 9 ^ 0x9e3779b97f4a7c15);
        let request = sim.submit_job(job(150), 60);
        let plain = sim
            .run_request(request, SimTime::from_secs(14 * 24 * 3600))
            .expect("plain");

        assert_eq!(fed_report.tasks_completed, 150);
        assert!(
            (fed_report.makespan_secs - plain.makespan.as_secs_f64()).abs() < 1e-9,
            "same seed derivation ⇒ identical run"
        );
    }

    #[test]
    fn more_channels_shrink_makespan() {
        // Same total work; one 300-node channel vs three of 100 nodes with
        // 3x the aggregate instance size... keep instance proportional:
        // 60 nodes of 300 vs 3x20 of 100 — same compute, similar makespan;
        // the win is the *audience ceiling*, so instead compare one channel
        // (can host 60) against a federation hosting 180 total.
        let mut small = Federation::new(vec![cfg(300)], 11);
        small.submit_job(job(600), 60);
        let small_report = small
            .run(SimTime::from_secs(30 * 24 * 3600))
            .expect("small");

        let mut big = Federation::new(vec![cfg(300), cfg(300), cfg(300)], 11);
        big.submit_job(job(600), 180);
        let big_report = big.run(SimTime::from_secs(30 * 24 * 3600)).expect("big");

        assert!(
            big_report.makespan_secs < small_report.makespan_secs,
            "3 channels ({:.0}s) must beat 1 channel ({:.0}s)",
            big_report.makespan_secs,
            small_report.makespan_secs
        );
    }

    #[test]
    fn tiny_channels_still_get_work() {
        let mut fed = Federation::new(vec![cfg(1000), cfg(20)], 13);
        fed.submit_job(job(50), 40);
        let report = fed
            .run(SimTime::from_secs(14 * 24 * 3600))
            .expect("completes");
        assert_eq!(report.tasks_completed, 50);
        assert!(
            report.per_channel[1].0 >= 1,
            "small channel gets at least one task"
        );
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_federation_rejected() {
        let _ = Federation::new(vec![], 1);
    }
}
