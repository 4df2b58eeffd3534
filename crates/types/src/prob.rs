//! The probability gate used by wakeup messages.
//!
//! §3.2 of the paper: idle PNAs handle a wakeup message only with the
//! probability carried in the message, which is how the Controller sizes an
//! instance without addressing nodes individually. [`Probability`] is a
//! validated `f64` in `[0, 1]`.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A probability in `[0.0, 1.0]`, validated at construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Probability(f64);

impl Probability {
    /// Certain acceptance: every idle PNA handles the message.
    pub const ALWAYS: Probability = Probability(1.0);
    /// Certain rejection.
    pub const NEVER: Probability = Probability(0.0);

    /// Builds a probability, clamping into `[0, 1]` and rejecting NaN.
    ///
    /// # Panics
    /// Panics if `p` is NaN.
    pub fn new(p: f64) -> Self {
        assert!(!p.is_nan(), "probability cannot be NaN");
        Probability(p.clamp(0.0, 1.0))
    }

    /// The probability that selects an expected `target` nodes out of `pool`.
    ///
    /// This is what the Controller computes when sizing an instance: to
    /// recruit `n` nodes from `N` listeners it broadcasts `p = n/N`
    /// (clamped to 1 when the pool is too small).
    pub fn for_target(target: u64, pool: u64) -> Self {
        if pool == 0 {
            return Probability::NEVER;
        }
        Probability::new(target as f64 / pool as f64)
    }

    /// Raw value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Draws a Bernoulli sample from `rng`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        // Avoid consuming randomness for the degenerate gates so that
        // p=1.0 sweeps remain trace-identical regardless of RNG state.
        if self.0 >= 1.0 {
            true
        } else if self.0 <= 0.0 {
            false
        } else {
            rng.random::<f64>() < self.0
        }
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn new_clamps() {
        assert_eq!(Probability::new(1.5).value(), 1.0);
        assert_eq!(Probability::new(-0.5).value(), 0.0);
        assert_eq!(Probability::new(0.25).value(), 0.25);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn new_rejects_nan() {
        let _ = Probability::new(f64::NAN);
    }

    #[test]
    fn for_target_sizing() {
        assert_eq!(Probability::for_target(100, 1000).value(), 0.1);
        assert_eq!(Probability::for_target(200, 100).value(), 1.0); // clamped
        assert_eq!(Probability::for_target(5, 0), Probability::NEVER);
    }

    #[test]
    fn degenerate_gates_consume_no_randomness() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        assert!(Probability::ALWAYS.sample(&mut a));
        assert!(!Probability::NEVER.sample(&mut a));
        // `a` must not have advanced relative to `b`.
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn sampling_frequency_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(42);
        let p = Probability::new(0.3);
        let hits = (0..100_000).filter(|_| p.sample(&mut rng)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }
}
