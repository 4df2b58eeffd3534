//! Independent-replication experiment runner.
//!
//! Discrete-event results are point estimates; experiments report a mean
//! and confidence interval over independent replications (different seeds,
//! same configuration). Replications are embarrassingly parallel, so this
//! runner is the workspace's main consumer of data parallelism.
//!
//! (Kept dependency-light: the caller maps over [`replication_seeds`]
//! however it likes; this module owns the statistics.)

use crate::stats::Welford;
use serde::{Deserialize, Serialize};

/// Student-t 97.5% quantiles for small sample sizes (df = n-1), indexed by
/// df starting at 1; falls back to the normal 1.96 beyond the table.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Result of aggregating replications of one scalar metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedEstimate {
    /// Number of replications.
    pub replications: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval around the mean.
    pub ci95_half_width: f64,
}

impl ReplicatedEstimate {
    /// Aggregates raw per-replication values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one replication");
        let mut w = Welford::new();
        for &s in samples {
            w.add(s);
        }
        let n = w.count();
        let hw = if n < 2 {
            f64::INFINITY
        } else {
            let df = (n - 1) as usize;
            let t = if df <= T_975.len() {
                T_975[df - 1]
            } else {
                1.96
            };
            t * w.std_dev() / (n as f64).sqrt()
        };
        ReplicatedEstimate {
            replications: n,
            mean: w.mean(),
            std_dev: w.std_dev(),
            ci95_half_width: hw,
        }
    }

    /// Relative 95% CI half-width (`hw / mean`); infinite when mean is 0.
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.ci95_half_width / self.mean.abs()
        }
    }

    /// True when the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci95_half_width
    }
}

/// The seeds for `n` independent replications of an experiment identified
/// by `base_seed` — spread via splitmix so adjacent experiments do not
/// share streams.
pub fn replication_seeds(base_seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| crate::rng::splitmix64(base_seed ^ (i.wrapping_mul(0x2545F4914F6CDD1D))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_from_constant_samples_has_zero_width() {
        let e = ReplicatedEstimate::from_samples(&[5.0; 10]);
        assert_eq!(e.mean, 5.0);
        assert_eq!(e.std_dev, 0.0);
        assert_eq!(e.ci95_half_width, 0.0);
        assert!(e.contains(5.0));
        assert!(!e.contains(5.1));
    }

    #[test]
    fn single_sample_has_infinite_interval() {
        let e = ReplicatedEstimate::from_samples(&[3.0]);
        assert_eq!(e.replications, 1);
        assert!(e.ci95_half_width.is_infinite());
        assert!(e.contains(1e9));
    }

    #[test]
    fn known_small_sample_t_interval() {
        // Samples 1..=5: mean 3, sd sqrt(2.5), df=4 → t=2.776,
        // hw = 2.776 * sqrt(2.5)/sqrt(5) ≈ 1.963.
        let e = ReplicatedEstimate::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((e.mean - 3.0).abs() < 1e-12);
        assert!(
            (e.ci95_half_width - 1.963).abs() < 1e-3,
            "{}",
            e.ci95_half_width
        );
    }

    #[test]
    fn coverage_is_roughly_95_percent() {
        // Draw many batches from a known distribution and count how often
        // the interval covers the true mean.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(8);
        let mut covered = 0;
        let batches = 1_000;
        for _ in 0..batches {
            let samples: Vec<f64> = (0..20).map(|_| rng.random::<f64>() * 10.0).collect();
            let e = ReplicatedEstimate::from_samples(&samples);
            if e.contains(5.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / batches as f64;
        assert!((0.92..0.98).contains(&rate), "coverage {rate}");
    }

    #[test]
    fn seeds_are_distinct_and_stable() {
        let a = replication_seeds(42, 100);
        let b = replication_seeds(42, 100);
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
        assert_ne!(replication_seeds(43, 100), a);
    }

    #[test]
    fn relative_error() {
        let e = ReplicatedEstimate::from_samples(&[9.0, 10.0, 11.0]);
        assert!(e.relative_error() > 0.0 && e.relative_error() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_samples_rejected() {
        let _ = ReplicatedEstimate::from_samples(&[]);
    }
}
