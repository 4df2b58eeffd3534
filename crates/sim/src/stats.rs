//! Online statistics used by every experiment harness.
//!
//! [`Welford`] accumulates count/mean/variance/min/max in O(1) memory;
//! [`Histogram`] buckets samples on a log scale for latency-style data;
//! [`Summary`] is the serializable snapshot both produce.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance, plus min/max.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al. parallel merge).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Serializable snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// A point-in-time statistical summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

/// Log₂-bucketed histogram for positive samples spanning many decades
/// (latencies from microseconds to hours).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^(i-1), 2^i)` relative to `unit`;
    /// bucket 0 holds samples below `unit`.
    buckets: Vec<u64>,
    unit: f64,
    stats: Welford,
}

impl Histogram {
    /// Creates a histogram whose first bucket boundary is `unit` (samples
    /// are measured in multiples of it).
    pub fn new(unit: f64) -> Self {
        assert!(unit > 0.0, "histogram unit must be positive");
        Histogram {
            buckets: vec![0; 64],
            unit,
            stats: Welford::new(),
        }
    }

    /// Adds one (non-negative) sample.
    pub fn add(&mut self, x: f64) {
        assert!(
            x >= 0.0 && x.is_finite(),
            "histogram samples must be finite and >= 0"
        );
        self.stats.add(x);
        let ratio = x / self.unit;
        let idx = if ratio < 1.0 {
            0
        } else {
            (ratio.log2().floor() as usize + 1).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Approximate p-quantile (`q` in `[0,1]`) from the bucket boundaries.
    /// Returns the upper edge of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Upper edge of bucket i: unit * 2^i (bucket 0 edge = unit).
                return Some(self.unit * 2f64.powi(i as i32));
            }
        }
        None
    }

    /// Underlying moment statistics.
    pub fn stats(&self) -> &Welford {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_is_sane() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.add(1.0);
        w.add(3.0);
        let before = w.summary();
        w.merge(&Welford::new());
        assert_eq!(w.summary(), before);

        let mut empty = Welford::new();
        empty.merge(&w);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(1.0);
        for x in [0.5, 1.5, 3.0, 3.5, 100.0] {
            h.add(x);
        }
        assert_eq!(h.count(), 5);
        // Median should land in the [2,4) bucket -> upper edge 4.
        assert_eq!(h.quantile(0.5), Some(4.0));
        // Everything is below the p100 edge.
        assert!(h.quantile(1.0).unwrap() >= 100.0);
        assert_eq!(h.quantile(0.0), Some(1.0)); // first sample's bucket edge
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new(1.0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn histogram_rejects_nan() {
        let mut h = Histogram::new(1.0);
        h.add(f64::NAN);
    }
}
