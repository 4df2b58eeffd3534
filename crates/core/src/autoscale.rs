//! Desired-state autoscaling for the Provider (elastic sizing).
//!
//! The paper's Provider sizes an instance once at submission and never
//! revisits it, but §4's economics only hold if capacity tracks demand:
//! volunteer pools are diurnal, so a production headend must re-size
//! continuously. This module is the *pure* half of that loop — a
//! [`Reconciler`] that turns observed load ([`ScaleInputs`]: Backend queue
//! depth, heartbeat lag, observed tasks/s, fetch p99) into a
//! [`ScaleDecision`] against a configurable SLO ([`AutoscalePolicy`]).
//!
//! Design rules that make the loop converge instead of oscillate:
//!
//! * **Desired state, not deltas.** Each tick computes the full target
//!   size from the inputs and jumps straight to it; two consecutive ticks
//!   under the same load agree, so the loop reaches a fixed point in one
//!   action.
//! * **Hysteresis on the way down.** Scaling down requires the target to
//!   undershoot the current desired size by a configurable band, so load
//!   hovering at a capacity boundary does not flap the instance.
//! * **Cooldown between actions.** At most one scaling action per
//!   cooldown window — except replacements after an airtime revocation,
//!   which restore *lost* capacity and therefore bypass the cooldown.
//!
//! The impure half (sampling the live gauges, applying the decision via
//! `Controller::resize` / recompose wakeups) lives in `oddci-live`; this
//! split keeps every sizing decision unit-testable and property-testable
//! without a runtime.

use oddci_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The SLO and bounds a [`Reconciler`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Never trim the instance below this many members.
    pub min_size: usize,
    /// Never grow the instance beyond this many members.
    pub max_size: usize,
    /// Target backlog per member: the desired size is the smallest
    /// membership that keeps `queue_depth / size` at or below this.
    pub slo_queue_depth: usize,
    /// Maximum acceptable p99 task-fetch latency in seconds; a breach
    /// adds one member per tick even when the queue target is met.
    /// `0` disables the latency signal.
    pub slo_fetch_p99: f64,
    /// Maximum acceptable controller heartbeat lag in seconds; a breach
    /// is treated like a latency breach. `0` disables the signal.
    pub slo_heartbeat_lag: f64,
    /// Fractional undershoot band required before scaling down: with
    /// `0.25`, a 4-member instance only trims once the computed target
    /// drops to 3 or less *and* the drop covers a quarter of the current
    /// size. Guards against flapping at capacity boundaries.
    pub hysteresis: f64,
    /// Minimum time between scaling actions (replacements excepted).
    pub cooldown: SimDuration,
}

impl Default for AutoscalePolicy {
    fn default() -> AutoscalePolicy {
        AutoscalePolicy {
            min_size: 1,
            max_size: 64,
            slo_queue_depth: 4,
            slo_fetch_p99: 0.0,
            slo_heartbeat_lag: 0.0,
            hysteresis: 0.25,
            cooldown: SimDuration::from_secs(30),
        }
    }
}

impl AutoscalePolicy {
    /// Checks the policy is self-consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_size == 0 {
            return Err("autoscale: min_size must be at least 1".into());
        }
        if self.max_size < self.min_size {
            return Err(format!(
                "autoscale: max_size {} below min_size {}",
                self.max_size, self.min_size
            ));
        }
        if self.slo_queue_depth == 0 {
            return Err("autoscale: slo_queue_depth must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.hysteresis) || !self.hysteresis.is_finite() {
            return Err(format!(
                "autoscale: hysteresis {} outside [0, 1)",
                self.hysteresis
            ));
        }
        if !self.slo_fetch_p99.is_finite() || self.slo_fetch_p99 < 0.0 {
            return Err(format!(
                "autoscale: slo_fetch_p99 {} invalid",
                self.slo_fetch_p99
            ));
        }
        if !self.slo_heartbeat_lag.is_finite() || self.slo_heartbeat_lag < 0.0 {
            return Err(format!(
                "autoscale: slo_heartbeat_lag {} invalid",
                self.slo_heartbeat_lag
            ));
        }
        Ok(())
    }
}

/// One tick's worth of observations, sampled from the telemetry plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScaleInputs {
    /// Tasks queued at the Backend and not yet assigned.
    pub queue_depth: usize,
    /// The `controller.heartbeat_lag` gauge, seconds.
    pub heartbeat_lag: f64,
    /// Observed completion throughput, tasks per second.
    pub tasks_per_sec: f64,
    /// Observed p99 task-fetch latency, seconds.
    pub fetch_p99: f64,
    /// Current instance membership (live members, not the target).
    pub current_size: usize,
}

/// What one reconciliation tick decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDecision {
    /// Desired state already matches the observations (or the cooldown
    /// window is still open).
    Hold,
    /// Raise the desired size from `from` to `to`.
    ScaleUp {
        /// Previous desired size.
        from: usize,
        /// New desired size.
        to: usize,
    },
    /// Lower the desired size from `from` to `to`.
    ScaleDown {
        /// Previous desired size.
        from: usize,
        /// New desired size.
        to: usize,
    },
    /// Re-request capacity after a revocation emptied the membership:
    /// keep the desired size at `to` and re-broadcast wakeups.
    Replace {
        /// Members lost to the revocation.
        from: usize,
        /// Desired size to restore.
        to: usize,
    },
}

impl ScaleDecision {
    /// True when the tick changed (or re-requested) capacity.
    pub fn acted(&self) -> bool {
        !matches!(self, ScaleDecision::Hold)
    }
}

/// Serializable reconciler state: what a snapshot must carry so a standby
/// resumes scaling without double-provisioning. Times are stored as
/// *remaining* durations, never absolute instants, because the standby's
/// clock starts from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutoscaleExport {
    /// The desired membership the loop is currently steering toward.
    pub desired: usize,
    /// Cooldown left to serve at export time, microseconds.
    pub cooldown_remaining_micros: u64,
    /// A revocation was observed and its replacement not yet issued.
    pub pending_replace: bool,
    /// Reconciliation ticks run.
    pub ticks: u64,
    /// Scale-up actions taken.
    pub scale_ups: u64,
    /// Scale-down actions taken.
    pub scale_downs: u64,
    /// Replacement (post-revocation) actions taken.
    pub replacements: u64,
}

/// The desired-state control loop. Feed it observations with
/// [`tick`](Reconciler::tick); it answers with the action that moves the
/// instance toward SLO compliance.
#[derive(Debug, Clone)]
pub struct Reconciler {
    policy: AutoscalePolicy,
    desired: usize,
    /// No scaling action before this instant (cooldown fencing).
    cooldown_until: SimTime,
    pending_replace: bool,
    ticks: u64,
    scale_ups: u64,
    scale_downs: u64,
    replacements: u64,
}

impl Reconciler {
    /// A reconciler steering toward `initial` members (clamped to the
    /// policy's bounds) with no cooldown pending.
    pub fn new(policy: AutoscalePolicy, initial: usize) -> Reconciler {
        policy.validate().expect("valid autoscale policy");
        let desired = initial.clamp(policy.min_size, policy.max_size);
        Reconciler {
            policy,
            desired,
            cooldown_until: SimTime::ZERO,
            pending_replace: false,
            ticks: 0,
            scale_ups: 0,
            scale_downs: 0,
            replacements: 0,
        }
    }

    /// The policy this loop enforces.
    pub fn policy(&self) -> &AutoscalePolicy {
        &self.policy
    }

    /// The membership the loop is currently steering toward.
    pub fn desired(&self) -> usize {
        self.desired
    }

    /// (scale-ups, scale-downs, replacements) taken so far.
    pub fn actions(&self) -> (u64, u64, u64) {
        (self.scale_ups, self.scale_downs, self.replacements)
    }

    /// Records a broadcaster revocation: the next [`Reconciler::tick`] issues a
    /// [`ScaleDecision::Replace`] regardless of cooldown, because lost
    /// capacity must be restored, not rate-limited.
    pub fn observe_revocation(&mut self) {
        self.pending_replace = true;
    }

    /// The size that satisfies the queue SLO for `inputs`, before bounds.
    fn queue_target(&self, inputs: &ScaleInputs) -> usize {
        // ceil(queue / slo): the smallest membership keeping per-member
        // backlog within the SLO. An empty queue needs only the floor.
        inputs.queue_depth.div_ceil(self.policy.slo_queue_depth)
    }

    /// True when a latency-shaped SLO (fetch p99 or heartbeat lag) is
    /// breached — a signal to add capacity even with a short queue.
    fn latency_breached(&self, inputs: &ScaleInputs) -> bool {
        (self.policy.slo_fetch_p99 > 0.0 && inputs.fetch_p99 > self.policy.slo_fetch_p99)
            || (self.policy.slo_heartbeat_lag > 0.0
                && inputs.heartbeat_lag > self.policy.slo_heartbeat_lag)
    }

    /// One reconciliation pass. Pure in `(self, now, inputs)`: the same
    /// state and observations always produce the same decision.
    pub fn tick(&mut self, now: SimTime, inputs: &ScaleInputs) -> ScaleDecision {
        self.ticks += 1;

        // Replacement first: a revocation emptied the membership, and the
        // cooldown must not delay restoring it.
        if self.pending_replace {
            self.pending_replace = false;
            self.replacements += 1;
            self.cooldown_until = now + self.policy.cooldown;
            return ScaleDecision::Replace {
                from: inputs.current_size,
                to: self.desired,
            };
        }

        if now < self.cooldown_until {
            return ScaleDecision::Hold;
        }

        let mut target = self
            .queue_target(inputs)
            .clamp(self.policy.min_size, self.policy.max_size);

        // A latency breach with the queue target already met means the
        // members we have are too slow (or too laggy): add one.
        if target <= self.desired && self.latency_breached(inputs) {
            target = (self.desired + 1).min(self.policy.max_size);
        }

        if target > self.desired {
            let from = self.desired;
            self.desired = target;
            self.scale_ups += 1;
            self.cooldown_until = now + self.policy.cooldown;
            return ScaleDecision::ScaleUp { from, to: target };
        }

        if target < self.desired {
            // Hysteresis: only trim once the undershoot clears the band,
            // so load hovering at a boundary cannot flap the instance.
            let band = (self.desired as f64 * self.policy.hysteresis).ceil() as usize;
            if self.desired - target >= band.max(1) {
                let from = self.desired;
                self.desired = target;
                self.scale_downs += 1;
                self.cooldown_until = now + self.policy.cooldown;
                return ScaleDecision::ScaleDown { from, to: target };
            }
        }

        ScaleDecision::Hold
    }

    /// Serializes the loop state for a snapshot cut at `now`.
    pub fn export(&self, now: SimTime) -> AutoscaleExport {
        let remaining = if self.cooldown_until > now {
            (self.cooldown_until - now).as_micros()
        } else {
            0
        };
        AutoscaleExport {
            desired: self.desired,
            cooldown_remaining_micros: remaining,
            pending_replace: self.pending_replace,
            ticks: self.ticks,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            replacements: self.replacements,
        }
    }

    /// Rebuilds the loop from a snapshot record on a standby whose clock
    /// reads `now`. The desired size carries over verbatim — this is what
    /// prevents the standby from re-provisioning capacity the primary
    /// already requested.
    pub fn from_export(
        policy: AutoscalePolicy,
        export: &AutoscaleExport,
        now: SimTime,
    ) -> Reconciler {
        policy.validate().expect("valid autoscale policy");
        Reconciler {
            desired: export.desired.clamp(policy.min_size, policy.max_size),
            cooldown_until: now + SimDuration::from_micros(export.cooldown_remaining_micros),
            pending_replace: export.pending_replace,
            ticks: export.ticks,
            scale_ups: export.scale_ups,
            scale_downs: export.scale_downs,
            replacements: export.replacements,
            policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            min_size: 2,
            max_size: 12,
            slo_queue_depth: 5,
            slo_fetch_p99: 0.0,
            slo_heartbeat_lag: 0.0,
            hysteresis: 0.25,
            cooldown: SimDuration::from_secs(10),
        }
    }

    fn load(queue: usize, size: usize) -> ScaleInputs {
        ScaleInputs {
            queue_depth: queue,
            current_size: size,
            ..ScaleInputs::default()
        }
    }

    #[test]
    fn scales_up_to_the_queue_target_in_one_action() {
        let mut r = Reconciler::new(policy(), 2);
        let d = r.tick(SimTime::from_secs(1), &load(32, 2));
        assert_eq!(d, ScaleDecision::ScaleUp { from: 2, to: 7 });
        assert_eq!(r.desired(), 7);
        // Same load again: fixed point, and cooldown would gate anyway.
        let d = r.tick(SimTime::from_secs(20), &load(32, 7));
        assert_eq!(d, ScaleDecision::Hold);
    }

    #[test]
    fn cooldown_gates_consecutive_actions() {
        let mut r = Reconciler::new(policy(), 2);
        assert!(r.tick(SimTime::from_secs(1), &load(30, 2)).acted());
        // A bigger queue 1 s later must wait out the cooldown.
        assert_eq!(
            r.tick(SimTime::from_secs(2), &load(60, 2)),
            ScaleDecision::Hold
        );
        assert!(r.tick(SimTime::from_secs(11), &load(60, 6)).acted());
    }

    #[test]
    fn never_exceeds_max_size() {
        let mut r = Reconciler::new(policy(), 2);
        let d = r.tick(SimTime::from_secs(1), &load(10_000, 2));
        assert_eq!(d, ScaleDecision::ScaleUp { from: 2, to: 12 });
    }

    #[test]
    fn hysteresis_blocks_boundary_flapping() {
        let mut r = Reconciler::new(policy(), 8);
        // Target 7 is inside the 25% band of 8 (band = 2): hold.
        assert_eq!(
            r.tick(SimTime::from_secs(1), &load(35, 8)),
            ScaleDecision::Hold
        );
        // Target 4 clears the band: trim.
        assert_eq!(
            r.tick(SimTime::from_secs(2), &load(20, 8)),
            ScaleDecision::ScaleDown { from: 8, to: 4 }
        );
        // Never below min_size.
        let d = r.tick(SimTime::from_secs(20), &load(0, 4));
        assert_eq!(d, ScaleDecision::ScaleDown { from: 4, to: 2 });
    }

    #[test]
    fn latency_breach_adds_one_member() {
        let p = AutoscalePolicy {
            slo_fetch_p99: 0.5,
            ..policy()
        };
        let mut r = Reconciler::new(p, 4);
        let inputs = ScaleInputs {
            queue_depth: 5,
            fetch_p99: 2.0,
            current_size: 4,
            ..ScaleInputs::default()
        };
        assert_eq!(
            r.tick(SimTime::from_secs(1), &inputs),
            ScaleDecision::ScaleUp { from: 4, to: 5 }
        );
    }

    #[test]
    fn heartbeat_lag_breach_adds_one_member() {
        let p = AutoscalePolicy {
            slo_heartbeat_lag: 1.0,
            ..policy()
        };
        let mut r = Reconciler::new(p, 4);
        let inputs = ScaleInputs {
            queue_depth: 0,
            heartbeat_lag: 3.0,
            current_size: 4,
            ..ScaleInputs::default()
        };
        assert_eq!(
            r.tick(SimTime::from_secs(1), &inputs),
            ScaleDecision::ScaleUp { from: 4, to: 5 }
        );
    }

    #[test]
    fn revocation_replaces_immediately_despite_cooldown() {
        let mut r = Reconciler::new(policy(), 2);
        assert!(r.tick(SimTime::from_secs(1), &load(30, 2)).acted());
        r.observe_revocation();
        // 1 s later — inside the cooldown — the replacement still fires.
        let d = r.tick(SimTime::from_secs(2), &load(30, 0));
        assert_eq!(d, ScaleDecision::Replace { from: 0, to: 6 });
        assert_eq!(r.actions().2, 1);
    }

    #[test]
    fn export_round_trips_without_double_provisioning() {
        let mut r = Reconciler::new(policy(), 2);
        assert!(r.tick(SimTime::from_secs(1), &load(40, 2)).acted());
        let export = r.export(SimTime::from_secs(3));
        assert_eq!(export.desired, 8);
        assert_eq!(export.cooldown_remaining_micros, 8_000_000);

        // The standby's clock restarts from zero; the adopted loop must
        // keep both the desired size and the unserved cooldown.
        let mut standby = Reconciler::from_export(policy(), &export, SimTime::from_secs(0));
        assert_eq!(standby.desired(), 8);
        assert_eq!(
            standby.tick(SimTime::from_secs(1), &load(40, 8)),
            ScaleDecision::Hold,
            "cooldown must carry over"
        );
        assert_eq!(
            standby.tick(SimTime::from_secs(9), &load(80, 8)),
            ScaleDecision::ScaleUp { from: 8, to: 12 }
        );
    }

    #[test]
    fn export_serializes() {
        let r = Reconciler::new(policy(), 4);
        let json = serde_json::to_string(&r.export(SimTime::ZERO)).unwrap();
        let back: AutoscaleExport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r.export(SimTime::ZERO));
    }

    #[test]
    fn policy_validation_rejects_nonsense() {
        assert!(AutoscalePolicy {
            min_size: 0,
            ..AutoscalePolicy::default()
        }
        .validate()
        .is_err());
        assert!(AutoscalePolicy {
            max_size: 1,
            min_size: 2,
            ..AutoscalePolicy::default()
        }
        .validate()
        .is_err());
        assert!(AutoscalePolicy {
            slo_queue_depth: 0,
            ..AutoscalePolicy::default()
        }
        .validate()
        .is_err());
        assert!(AutoscalePolicy {
            hysteresis: 1.5,
            ..AutoscalePolicy::default()
        }
        .validate()
        .is_err());
        assert!(AutoscalePolicy::default().validate().is_ok());
    }
}
