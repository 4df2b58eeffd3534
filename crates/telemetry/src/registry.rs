//! Metrics registry: counters, gauges and log-bucketed latency histograms.
//!
//! The registry is the *metrics* half of telemetry. Handles returned by
//! [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`]
//! are cheap `Arc` clones; call sites cache them once and update through
//! atomics (counters, gauges) or a short mutex hold (histograms), so the
//! hot path never touches the name table.
//!
//! Unlike the recorder, the registry is **always on**: counters back the
//! public `MetricsSnapshot`, so enabling or disabling tracing must not
//! change any metric value.

use oddci_check::sync::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing (plus an explicit `set` for snapshot-style
/// restores) integer metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// New counter starting at zero.
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value (used when restoring from a snapshot).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating point metric (queue depths, rates, sizes).
/// Stores the `f64` bit pattern in an `AtomicU64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// New gauge starting at `0.0`.
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: values are recorded in microseconds, so 64
/// buckets cover everything a `u64` can hold.
const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl HistogramInner {
    fn record_us(&mut self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Upper edge (µs) of the bucket containing quantile `q` in `[0, 1]`.
    fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket idx holds values in (2^(idx-1), 2^idx]; idx 0 is {0}.
                return if idx == 0 { 0 } else { 1u64 << idx.min(63) };
            }
        }
        self.max_us
    }

    fn summary(&self) -> HistogramSummary {
        // Quantiles report a bucket's upper edge; clamp to the exact
        // observed max so p50 ≤ p90 ≤ p99 ≤ max always holds in reports.
        let q = |quantile: f64| self.quantile_us(quantile).min(self.max_us) as f64 / 1e6;
        HistogramSummary {
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum_us as f64 / self.count as f64 / 1e6
            },
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            max: self.max_us as f64 / 1e6,
        }
    }
}

/// Log2-bucketed latency histogram. Values are recorded in seconds and
/// binned at microsecond resolution, so quantiles carry at most one
/// power-of-two of bucketing error — plenty for p50/p90/p99 latency
/// reporting, and recording is O(1) with no allocation.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram(Arc<Mutex<HistogramInner>>);

impl LatencyHistogram {
    /// New empty histogram.
    pub fn new() -> Self {
        LatencyHistogram(Arc::new(Mutex::new(HistogramInner::default())))
    }

    /// Record a duration in seconds. Negative or non-finite values are
    /// clamped to zero rather than poisoning the distribution.
    pub fn record(&self, seconds: f64) {
        let us = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e6).round() as u64
        } else {
            0
        };
        self.0.lock().record_us(us);
    }

    /// Record a duration already expressed in microseconds.
    pub(crate) fn record_us(&self, us: u64) {
        self.0.lock().record_us(us);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.lock().count
    }

    /// Point-in-time summary (all durations in seconds).
    pub fn summary(&self) -> HistogramSummary {
        self.0.lock().summary()
    }
}

/// Serializable digest of a [`LatencyHistogram`]; durations in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

/// Named metric table. Get-or-create semantics: asking twice for the same
/// name returns handles to the same underlying metric.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        if let Some(g) = inner.gauges.get(name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.insert(name.to_string(), g.clone());
        g
    }

    /// Get or create the latency histogram named `name`.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        let mut inner = self.inner.lock();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = LatencyHistogram::new();
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// Serializable snapshot of a [`Registry`]. `BTreeMap` keeps export order
/// deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        c.set(2);
        assert_eq!(c.get(), 2);

        let g = reg.gauge("depth");
        g.set(3.5);
        assert_eq!(reg.gauge("depth").get(), 3.5);
    }

    #[test]
    fn histogram_bucketing_is_log2() {
        let h = LatencyHistogram::new();
        // 1000 values of exactly 100 µs.
        for _ in 0..1000 {
            h.record_us(100);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean - 100e-6).abs() < 1e-12);
        // 100 µs falls in bucket (64, 128]; the quantile reports the
        // upper edge 128 µs, clamped to the exact observed max of 100 µs.
        assert_eq!(s.p50, 100e-6);
        assert_eq!(s.p99, 100e-6);
        assert_eq!(s.max, 100e-6);
    }

    #[test]
    fn histogram_percentiles_order_across_buckets() {
        let h = LatencyHistogram::new();
        // 90 fast (≈10 µs), 9 medium (≈1 ms), 1 slow (≈100 ms).
        for _ in 0..90 {
            h.record(10e-6);
        }
        for _ in 0..9 {
            h.record(1e-3);
        }
        h.record(100e-3);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
        assert!(s.p90 <= s.p99, "p90 {} > p99 {}", s.p90, s.p99);
        assert!(s.p99 <= s.max * 2.0);
        // p50 is in the fast band; p99 (rank 99 of 100) lands in the
        // medium band; only the max sees the 100 ms outlier.
        assert!(s.p50 < 100e-6);
        assert!(s.p99 >= 1e-3 && s.p99 < 10e-3);
        assert!((s.max - 0.1).abs() < 1e-9);
    }

    #[test]
    fn histogram_zero_and_pathological_inputs() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        let s = h.summary();
        // NaN / negative clamp to 0; +inf clamps to 0 as well (non-finite).
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn quantile_monotone_under_random_fill() {
        let h = LatencyHistogram::new();
        // Deterministic pseudo-random spread across many buckets.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record_us(x % 1_000_000);
        }
        let s = h.summary();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn registry_snapshot_is_deterministic() {
        let reg = Registry::new();
        reg.counter("b").add(2);
        reg.counter("a").add(1);
        reg.histogram("h").record(1e-3);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(snap.histograms["h"].count, 1);
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
