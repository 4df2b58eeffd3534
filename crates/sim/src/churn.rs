//! Viewer churn: receivers switch on and off at their owners' will (§3.2:
//! *"a PNA can generally be switched off at the will of its owner"*).
//!
//! Each node follows an independent alternating-renewal (on/off) process
//! with exponentially distributed sojourn times. The Controller never sees
//! this directly — it only observes missed heartbeats — but the simulation
//! uses it to drive node availability.

use crate::rng::exp_sample;
use oddci_types::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Whether a receiver is currently powered on (tuned) or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OnOffState {
    /// Powered and tuned to the OddCI channel.
    On,
    /// Switched off (or tuned away); unreachable by broadcast and direct
    /// channels.
    Off,
}

impl OnOffState {
    /// The opposite state.
    pub(crate) fn toggled(self) -> OnOffState {
        match self {
            OnOffState::On => OnOffState::Off,
            OnOffState::Off => OnOffState::On,
        }
    }
}

/// An exponential on/off churn process for one node.
///
/// `mean_on` / `mean_off` are the expected sojourn times; the long-run
/// availability is `mean_on / (mean_on + mean_off)`.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    mean_on: f64,
    mean_off: f64,
    state: OnOffState,
    next_toggle: SimTime,
    rng: SmallRng,
}

impl ChurnProcess {
    /// Creates a process starting in `initial` at time zero.
    ///
    /// A `mean_on` of `f64::INFINITY` models a node that never leaves once
    /// on (and symmetrically for `mean_off`).
    pub fn new(
        mean_on: SimDuration,
        mean_off: SimDuration,
        initial: OnOffState,
        seed: u64,
    ) -> Self {
        let mean_on = mean_on.as_secs_f64();
        let mean_off = mean_off.as_secs_f64();
        assert!(
            mean_on > 0.0 && mean_off > 0.0,
            "sojourn means must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let first_sojourn = match initial {
            OnOffState::On => exp_sample(&mut rng, mean_on),
            OnOffState::Off => exp_sample(&mut rng, mean_off),
        };
        ChurnProcess {
            mean_on,
            mean_off,
            state: initial,
            next_toggle: SimTime::from_secs_f64(first_sojourn),
            rng,
        }
    }

    /// A process that never churns (always on). Useful for baseline runs.
    pub fn always_on(seed: u64) -> Self {
        ChurnProcess {
            mean_on: f64::INFINITY,
            mean_off: 1.0,
            state: OnOffState::On,
            next_toggle: SimTime::MAX,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current state.
    pub fn state(&self) -> OnOffState {
        self.state
    }

    /// When the next on↔off transition fires.
    pub fn next_toggle(&self) -> SimTime {
        self.next_toggle
    }

    /// Long-run fraction of time spent On.
    pub fn availability(&self) -> f64 {
        if self.mean_on.is_infinite() {
            1.0
        } else {
            self.mean_on / (self.mean_on + self.mean_off)
        }
    }

    /// Performs the transition scheduled at [`next_toggle`](Self::next_toggle)
    /// and draws the following sojourn. Returns the new state.
    ///
    /// The caller (the simulation model) is responsible for invoking this
    /// exactly when the toggle event fires.
    pub fn toggle(&mut self) -> OnOffState {
        self.state = self.state.toggled();
        let mean = match self.state {
            OnOffState::On => self.mean_on,
            OnOffState::Off => self.mean_off,
        };
        if mean.is_infinite() {
            // Absorbing state: no further transitions.
            self.next_toggle = SimTime::MAX;
            return self.state;
        }
        let sojourn = exp_sample(&mut self.rng, mean);
        self.next_toggle = self
            .next_toggle
            .checked_add(SimDuration::from_secs_f64(sojourn))
            .unwrap_or(SimTime::MAX);
        self.state
    }

    /// Draws a fresh Bernoulli initial state with the long-run availability,
    /// so a population starts in steady state rather than all-on.
    pub fn steady_state_init(
        mean_on: SimDuration,
        mean_off: SimDuration,
        seed: u64,
    ) -> ChurnProcess {
        let avail = mean_on.as_secs_f64() / (mean_on.as_secs_f64() + mean_off.as_secs_f64());
        let mut boot = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
        let initial = if boot.random::<f64>() < avail {
            OnOffState::On
        } else {
            OnOffState::Off
        };
        ChurnProcess::new(mean_on, mean_off, initial, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggling_alternates() {
        let mut p = ChurnProcess::new(
            SimDuration::from_secs(100),
            SimDuration::from_secs(50),
            OnOffState::On,
            1,
        );
        assert_eq!(p.state(), OnOffState::On);
        assert_eq!(p.toggle(), OnOffState::Off);
        assert_eq!(p.toggle(), OnOffState::On);
    }

    #[test]
    fn toggle_times_increase() {
        let mut p = ChurnProcess::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            OnOffState::On,
            2,
        );
        let mut prev = SimTime::ZERO;
        for _ in 0..100 {
            let t = p.next_toggle();
            assert!(t > prev, "toggle times must be strictly increasing");
            prev = t;
            p.toggle();
        }
    }

    #[test]
    fn availability_formula() {
        let p = ChurnProcess::new(
            SimDuration::from_secs(300),
            SimDuration::from_secs(100),
            OnOffState::On,
            3,
        );
        assert!((p.availability() - 0.75).abs() < 1e-12);
        assert_eq!(ChurnProcess::always_on(1).availability(), 1.0);
    }

    #[test]
    fn always_on_never_toggles() {
        let p = ChurnProcess::always_on(4);
        assert_eq!(p.next_toggle(), SimTime::MAX);
        assert_eq!(p.state(), OnOffState::On);
    }

    #[test]
    fn long_run_fraction_matches_availability() {
        // Simulate one process for a long horizon and measure time On.
        let mean_on = SimDuration::from_secs(120);
        let mean_off = SimDuration::from_secs(60);
        let mut p = ChurnProcess::new(mean_on, mean_off, OnOffState::On, 5);
        let horizon = SimTime::from_secs(4_000_000);
        let mut t = SimTime::ZERO;
        let mut on_time = SimDuration::ZERO;
        while p.next_toggle() < horizon {
            let next = p.next_toggle();
            if p.state() == OnOffState::On {
                on_time += next - t;
            }
            t = next;
            p.toggle();
        }
        if p.state() == OnOffState::On {
            on_time += horizon - t;
        }
        let frac = on_time.as_secs_f64() / horizon.as_secs_f64();
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn steady_state_init_mixes_states() {
        let on_count = (0..1000)
            .filter(|&i| {
                ChurnProcess::steady_state_init(
                    SimDuration::from_secs(100),
                    SimDuration::from_secs(100),
                    i,
                )
                .state()
                    == OnOffState::On
            })
            .count();
        // 50% availability: expect roughly half.
        assert!((400..600).contains(&on_count), "on_count={on_count}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = ChurnProcess::new(
                SimDuration::from_secs(10),
                SimDuration::from_secs(10),
                OnOffState::On,
                seed,
            );
            (0..20)
                .map(|_| {
                    p.toggle();
                    p.next_toggle().as_micros()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        let _ = ChurnProcess::new(
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            OnOffState::On,
            1,
        );
    }
}
