//! The job/task data model of §5.2.1 and the suitability metric Φ.
//!
//! A job is `J = (I, n, T, R)`; a task is `t = (s, p)` with `t.s` its input
//! size in bits and `t.p` its processing time **on a reference set-top
//! box**. Parametric applications have `t.s = 0` for every task.
//!
//! ### A note on the paper's Φ formula
//!
//! The paper prints `Φ = (s+r)/(δp)` but then states that Φ=1 corresponds
//! to a 53 ms task and Φ=100,000 to a 1.5 h task at `(s+r)` = 1 Kbyte and
//! δ = 150 Kbps — which matches the **reciprocal**: `Φ = δ·p/(s+r)`,
//! compute time in units of communication time ("more compute per byte
//! moved ⇒ more suitable"). We implement the reciprocal, which is the only
//! reading consistent with every number and trend in the paper
//! (suitability *grows* with efficiency in Figure 6).

use oddci_types::{Bandwidth, DataSize, ImageId, JobId, SimDuration, TaskId};
use serde::{Deserialize, Serialize};

/// One task of an MTC job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Identifier, unique within the job.
    pub id: TaskId,
    /// Input size `t.s` in bits (0 for parametric tasks).
    pub input_size: DataSize,
    /// Processing time `t.p` on a reference set-top box.
    pub cost: SimDuration,
    /// Size of the result this task produces.
    pub result_size: DataSize,
}

impl Task {
    /// Creates a task.
    pub fn new(id: TaskId, input_size: DataSize, cost: SimDuration, result_size: DataSize) -> Self {
        Task {
            id,
            input_size,
            cost,
            result_size,
        }
    }

    /// A parametric task (`t.s = 0`): all input is in the image/parameters.
    pub fn parametric(id: TaskId, cost: SimDuration, result_size: DataSize) -> Self {
        Task::new(id, DataSize::ZERO, cost, result_size)
    }
}

/// An MTC job: image plus a bag of independent tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Job identifier.
    pub id: JobId,
    /// Identifier of the application image staged through the carousel.
    pub image: ImageId,
    /// Image size `I` in bits.
    pub image_size: DataSize,
    /// The task bag `T` (with result sizes folded into each task).
    pub tasks: Vec<Task>,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    /// Panics if `tasks` is empty — a job with no work is meaningless and
    /// would produce division-by-zero averages.
    pub fn new(id: JobId, image: ImageId, image_size: DataSize, tasks: Vec<Task>) -> Self {
        assert!(!tasks.is_empty(), "a job must contain at least one task");
        Job {
            id,
            image,
            image_size,
            tasks,
        }
    }

    /// Number of tasks `n`.
    pub fn task_count(&self) -> u64 {
        self.tasks.len() as u64
    }

    /// The aggregate profile (averages) the analytical model consumes.
    pub fn profile(&self) -> JobProfile {
        let n = self.tasks.len() as f64;
        let s = self.tasks.iter().map(|t| t.input_size.bits()).sum::<u64>() as f64 / n;
        let r = self.tasks.iter().map(|t| t.result_size.bits()).sum::<u64>() as f64 / n;
        let p = self.tasks.iter().map(|t| t.cost.as_secs_f64()).sum::<f64>() / n;
        JobProfile {
            image_size: self.image_size,
            task_count: self.tasks.len() as u64,
            mean_input: DataSize::from_bits(s.round() as u64),
            mean_result: DataSize::from_bits(r.round() as u64),
            mean_cost: SimDuration::from_secs_f64(p),
        }
    }
}

/// Aggregate job statistics: the `(I, n, s̄, p̄, r̄)` tuple of equation (1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    /// Image size `I`.
    pub image_size: DataSize,
    /// Task count `n`.
    pub task_count: u64,
    /// Mean task input size `s̄`.
    pub mean_input: DataSize,
    /// Mean result size `r̄`.
    pub mean_result: DataSize,
    /// Mean reference processing time `p̄`.
    pub mean_cost: SimDuration,
}

impl JobProfile {
    /// The suitability `Φ = δ·p̄ / (s̄+r̄)` of this job on channels of
    /// capacity `delta` (see the module docs for why this is the
    /// reciprocal of the paper's printed formula).
    ///
    /// Jobs that move no data (`s̄+r̄ = 0`) are infinitely suitable.
    pub fn suitability(&self, delta: Bandwidth) -> f64 {
        let moved = (self.mean_input + self.mean_result).bits() as f64;
        if moved == 0.0 {
            return f64::INFINITY;
        }
        delta.bps() * self.mean_cost.as_secs_f64() / moved
    }

    /// Builds a profile achieving suitability `phi` with the given data
    /// movement `s̄+r̄` split evenly — the knob Figures 6/7 sweep.
    pub fn from_suitability(
        image_size: DataSize,
        task_count: u64,
        moved: DataSize,
        delta: Bandwidth,
        phi: f64,
    ) -> JobProfile {
        assert!(
            phi > 0.0 && phi.is_finite(),
            "phi must be positive and finite"
        );
        assert!(
            moved.bits() > 0,
            "moved data must be positive to define phi"
        );
        let p = phi * moved.bits() as f64 / delta.bps();
        JobProfile {
            image_size,
            task_count,
            mean_input: DataSize::from_bits(moved.bits() / 2),
            mean_result: DataSize::from_bits(moved.bits() - moved.bits() / 2),
            mean_cost: SimDuration::from_secs_f64(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job::new(
            JobId::new(1),
            ImageId::new(1),
            DataSize::from_megabytes(10),
            vec![
                Task::new(
                    TaskId::new(0),
                    DataSize::from_bytes(100),
                    SimDuration::from_secs(10),
                    DataSize::from_bytes(300),
                ),
                Task::new(
                    TaskId::new(1),
                    DataSize::from_bytes(300),
                    SimDuration::from_secs(30),
                    DataSize::from_bytes(100),
                ),
            ],
        )
    }

    #[test]
    fn profile_averages() {
        let p = job().profile();
        assert_eq!(p.task_count, 2);
        assert_eq!(p.mean_input, DataSize::from_bytes(200));
        assert_eq!(p.mean_result, DataSize::from_bytes(200));
        assert_eq!(p.mean_cost, SimDuration::from_secs(20));
    }

    #[test]
    fn paper_phi_calibration_point() {
        // (s+r) = 1 Kbyte (decimal, 8000 bits), δ = 150 Kbps, Φ = 1
        // => p = 8000/150000 ≈ 53.3 ms, the paper's "53 ms".
        let p = JobProfile::from_suitability(
            DataSize::from_megabytes(10),
            1000,
            DataSize::from_bytes(1000),
            Bandwidth::from_kbps(150.0),
            1.0,
        );
        assert!((p.mean_cost.as_secs_f64() - 0.0533).abs() < 1e-3);

        // Φ = 100,000 => ~1.48 hours, the paper's "one and a half hour".
        let p = JobProfile::from_suitability(
            DataSize::from_megabytes(10),
            1000,
            DataSize::from_bytes(1000),
            Bandwidth::from_kbps(150.0),
            100_000.0,
        );
        assert!((p.mean_cost.as_secs_f64() / 3600.0 - 1.48).abs() < 0.01);
    }

    #[test]
    fn suitability_round_trips() {
        let delta = Bandwidth::from_kbps(150.0);
        for phi in [1.0, 10.0, 1e3, 1e5] {
            let p = JobProfile::from_suitability(
                DataSize::from_megabytes(1),
                10,
                DataSize::from_bytes(1000),
                delta,
                phi,
            );
            // Costs are stored at microsecond granularity, so allow the
            // corresponding relative rounding error.
            assert!((p.suitability(delta) / phi - 1.0).abs() < 1e-4, "phi={phi}");
        }
    }

    #[test]
    fn parametric_tasks_move_only_results() {
        let t = Task::parametric(
            TaskId::new(0),
            SimDuration::from_secs(1),
            DataSize::from_bytes(64),
        );
        assert!(t.input_size.is_zero());
        assert_eq!(t.result_size, DataSize::from_bytes(64));
    }

    #[test]
    fn zero_movement_is_infinitely_suitable() {
        let p = JobProfile {
            image_size: DataSize::ZERO,
            task_count: 1,
            mean_input: DataSize::ZERO,
            mean_result: DataSize::ZERO,
            mean_cost: SimDuration::from_secs(1),
        };
        assert!(p.suitability(Bandwidth::from_kbps(150.0)).is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_job_rejected() {
        let _ = Job::new(JobId::new(1), ImageId::new(1), DataSize::ZERO, vec![]);
    }
}
