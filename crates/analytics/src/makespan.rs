//! The makespan model — equation (1) of the paper:
//!
//! ```text
//! M̄ = 1.5·I/β + (n/N)·((s̄+r̄)/δ + p̄)
//! ```
//!
//! instantiation overhead plus `n/N` sequential rounds of (fetch input,
//! process, upload result) per node.

use crate::wakeup::wakeup_mean;
use oddci_types::{Bandwidth, DataSize, SimDuration};
use oddci_workload::JobProfile;
use serde::{Deserialize, Serialize};

/// Everything equation (1) needs: the job profile plus the infrastructure
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceParams {
    /// Unused broadcast capacity β.
    pub beta: Bandwidth,
    /// Direct-channel capacity δ.
    pub delta: Bandwidth,
    /// Instance size `N` (tuned nodes that stay for the whole execution).
    pub nodes: u64,
}

impl InstanceParams {
    /// The paper's Figure 6/7 parameterization: β = 1 Mbps, δ = 150 Kbps.
    pub fn paper(nodes: u64) -> Self {
        InstanceParams {
            beta: Bandwidth::from_mbps(1.0),
            delta: Bandwidth::from_kbps(150.0),
            nodes,
        }
    }

    /// Per-task wall time on one node: fetch + process + upload.
    pub(crate) fn task_round_time(&self, profile: &JobProfile) -> SimDuration {
        let moved: DataSize = profile.mean_input + profile.mean_result;
        moved.transfer_time(self.delta) + profile.mean_cost
    }
}

/// Equation (1): the mean makespan of `profile` on `params`.
///
/// The `n/N` factor is kept continuous, as in the paper (it is the expected
/// number of task rounds per node when `n ≫ N`; for small `n/N` it
/// understates the integer round-up, which the simulator captures).
pub fn makespan(profile: &JobProfile, params: &InstanceParams) -> SimDuration {
    assert!(params.nodes > 0, "an instance needs at least one node");
    let rounds = profile.task_count as f64 / params.nodes as f64;
    wakeup_mean(profile.image_size, params.beta) + params.task_round_time(profile).mul_f64(rounds)
}

/// Conservative integer-rounds variant: `⌈n/N⌉` rounds. Matches the
/// simulator exactly for homogeneous bags without churn.
pub fn makespan_integer_rounds(profile: &JobProfile, params: &InstanceParams) -> SimDuration {
    assert!(params.nodes > 0, "an instance needs at least one node");
    let rounds = profile.task_count.div_ceil(params.nodes);
    wakeup_mean(profile.image_size, params.beta) + params.task_round_time(profile) * rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::DataSize;

    fn profile(n: u64, cost_secs: f64) -> JobProfile {
        JobProfile {
            image_size: DataSize::from_megabytes(10),
            task_count: n,
            mean_input: DataSize::from_bytes(500),
            mean_result: DataSize::from_bytes(500),
            mean_cost: SimDuration::from_secs_f64(cost_secs),
        }
    }

    #[test]
    fn hand_computed_example() {
        // I = 10 MB, β = 1 Mbps: wakeup = 1.5 * 83.886080 s = 125.82912 s.
        // s+r = 1000 B = 8000 bits over 150 kbps = 53.333 ms; p = 60 s.
        // n/N = 1000/100 = 10 rounds: 10 * 60.053333 = 600.53333 s.
        let m = makespan(&profile(1000, 60.0), &InstanceParams::paper(100));
        let expect =
            1.5 * (10.0 * 1024.0 * 1024.0 * 8.0) / 1e6 + 10.0 * (60.0 + 8000.0 / 150_000.0);
        assert!(
            (m.as_secs_f64() - expect).abs() < 1e-3,
            "{} vs {}",
            m.as_secs_f64(),
            expect
        );
    }

    #[test]
    fn more_nodes_shrink_makespan() {
        let p = profile(10_000, 60.0);
        let m100 = makespan(&p, &InstanceParams::paper(100));
        let m1000 = makespan(&p, &InstanceParams::paper(1000));
        assert!(m1000 < m100);
    }

    #[test]
    fn wakeup_dominates_when_tasks_are_few() {
        let p = profile(1, 0.001);
        let m = makespan(&p, &InstanceParams::paper(1_000_000));
        let w = wakeup_mean(p.image_size, Bandwidth::from_mbps(1.0));
        assert!((m.as_secs_f64() - w.as_secs_f64()) < 0.1);
    }

    #[test]
    fn integer_rounds_upper_bounds_continuous() {
        for n in [1u64, 7, 99, 100, 101, 1000] {
            let p = profile(n, 10.0);
            let params = InstanceParams::paper(100);
            let cont = makespan(&p, &params);
            let int = makespan_integer_rounds(&p, &params);
            assert!(int >= cont, "n={n}");
        }
    }

    #[test]
    fn integer_rounds_equal_continuous_when_divisible() {
        let p = profile(500, 10.0);
        let params = InstanceParams::paper(100);
        assert_eq!(makespan(&p, &params), makespan_integer_rounds(&p, &params));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = makespan(&profile(10, 1.0), &InstanceParams::paper(0));
    }
}
