//! Deterministic randomness plumbing.
//!
//! All randomness in a simulation derives from one master `u64` seed. Each
//! component asks the [`SeedForge`] for a child seed (or ready-made
//! [`SmallRng`]) under a **label**, so adding a new random consumer never
//! perturbs the streams of existing ones — the property that keeps
//! regression traces stable as the codebase grows.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives independent child seeds from a master seed by label.
#[derive(Debug, Clone, Copy)]
pub struct SeedForge {
    master: u64,
}

impl SeedForge {
    /// Creates a forge for `master`.
    pub fn new(master: u64) -> Self {
        SeedForge { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the child seed for `label`.
    pub fn seed(&self, label: &str) -> u64 {
        // FNV-1a over the label, then a splitmix64 finalization mixed with
        // the master. Not cryptographic — just well-spread and stable.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        splitmix64(self.master ^ h)
    }

    /// Derives the child seed for a `(label, index)` pair — used for
    /// per-node streams (`forge.indexed_seed("pna", node.raw())`).
    pub fn indexed_seed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.seed(label) ^ splitmix64(index.wrapping_add(0x9e3779b97f4a7c15)))
    }

    /// A ready-made [`SmallRng`] for `label`.
    pub fn rng(&self, label: &str) -> SmallRng {
        SmallRng::seed_from_u64(self.seed(label))
    }

    /// A ready-made [`SmallRng`] for a `(label, index)` pair.
    pub fn indexed_rng(&self, label: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.indexed_seed(label, index))
    }
}

/// The splitmix64 finalizer (public-domain; Steele, Lea & Flood 2014).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Samples an exponential inter-arrival time with the given mean, in
/// seconds, from a uniform draw. Exposed as a free function so every model
/// uses the same inverse-CDF convention.
pub(crate) fn exp_sample(rng: &mut impl rand::Rng, mean_secs: f64) -> f64 {
    assert!(mean_secs > 0.0, "exponential mean must be positive");
    // Inverse CDF; `1 - u` keeps the argument strictly positive since
    // `random::<f64>()` is in [0, 1).
    let u: f64 = rng.random();
    -mean_secs * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn labels_give_distinct_streams() {
        let forge = SeedForge::new(1);
        assert_ne!(forge.seed("a"), forge.seed("b"));
        assert_ne!(forge.seed("pna"), forge.seed("controller"));
    }

    #[test]
    fn same_label_same_seed() {
        let forge = SeedForge::new(99);
        assert_eq!(forge.seed("x"), forge.seed("x"));
        assert_eq!(forge.indexed_seed("x", 5), forge.indexed_seed("x", 5));
    }

    #[test]
    fn different_masters_differ() {
        assert_ne!(SeedForge::new(1).seed("a"), SeedForge::new(2).seed("a"));
    }

    #[test]
    fn indexed_seeds_are_spread() {
        let forge = SeedForge::new(7);
        let seeds: Vec<u64> = (0..1000).map(|i| forge.indexed_seed("pna", i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "collision among 1000 indexed seeds"
        );
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let forge = SeedForge::new(11);
        let a: Vec<u64> = (0..10)
            .map({
                let mut r = forge.rng("s");
                move |_| r.random()
            })
            .collect();
        let b: Vec<u64> = (0..10)
            .map({
                let mut r = forge.rng("s");
                move |_| r.random()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn exp_sample_mean_is_close() {
        let mut rng = SeedForge::new(5).rng("exp");
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| exp_sample(&mut rng, 10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn exp_sample_is_nonnegative_and_finite() {
        let mut rng = SeedForge::new(5).rng("exp2");
        for _ in 0..10_000 {
            let v = exp_sample(&mut rng, 0.001);
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exp_sample_rejects_zero_mean() {
        let mut rng = SeedForge::new(5).rng("exp3");
        let _ = exp_sample(&mut rng, 0.0);
    }

    #[test]
    fn splitmix_known_value() {
        // splitmix64(0) from the reference implementation.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }
}
