//! Execution-time model calibrated with the paper's micro-benchmarks.
//!
//! §4.4 measured BLAST on a real STi7109 set-top box against a reference
//! PC (Pentium Dual Core 1.6 GHz) and found, with 90% confidence:
//!
//! * the STB is on average **20.6× slower** than the PC (±10%), and
//! * the STB **in use** (a TV channel tuned, middleware active) is on
//!   average **1.65× slower** than in **standby** (±17%).
//!
//! We read the 20.6 factor as PC → STB-in-use (the paper's "normal use"
//! mode is the one it discusses for volunteer-style harvesting), so
//! standby ≈ 20.6 / 1.65 ≈ 12.5× the PC time. Both constants are plain
//! fields, so experiments can re-pin them.
//!
//! The model converts a task's *reference time* (measured on one device
//! class) to any other class, with optional lognormal-ish jitter to mimic
//! the run-to-run variance visible in Table II.

use oddci_telemetry::{Phase, Telemetry};
use oddci_types::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which physical machine executes the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// The paper's reference PC (Pentium Dual Core 1.6 GHz, Debian Linux).
    ReferencePc,
    /// A DTV receiver (STi7109-class set-top box).
    SetTopBox,
}

/// Whether the set-top box is actively rendering TV or idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UsageMode {
    /// A TV channel is tuned; the interactive-application processor shares
    /// the box with the middleware ("normal use" in the paper).
    InUse,
    /// Middleware inactive; the application processor is all ours.
    Standby,
}

/// Calibrated slowdown model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// STB-in-use time divided by reference-PC time (paper: 20.6).
    pub stb_in_use_vs_pc: f64,
    /// STB-in-use time divided by STB-standby time (paper: 1.65).
    pub in_use_vs_standby: f64,
    /// Coefficient of variation of multiplicative jitter (0 = deterministic).
    pub jitter_cv: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            stb_in_use_vs_pc: 20.6,
            in_use_vs_standby: 1.65,
            jitter_cv: 0.0,
        }
    }
}

impl ComputeModel {
    /// A model with the paper's constants and no jitter.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Same constants plus multiplicative jitter with the given coefficient
    /// of variation.
    pub fn paper_with_jitter(jitter_cv: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter_cv),
            "jitter CV must be in [0,1)"
        );
        ComputeModel {
            jitter_cv,
            ..Self::default()
        }
    }

    /// Slowdown factor of `(class, mode)` relative to the reference PC.
    /// `mode` is ignored for the PC.
    pub fn factor_vs_pc(&self, class: DeviceClass, mode: UsageMode) -> f64 {
        match (class, mode) {
            (DeviceClass::ReferencePc, _) => 1.0,
            (DeviceClass::SetTopBox, UsageMode::InUse) => self.stb_in_use_vs_pc,
            (DeviceClass::SetTopBox, UsageMode::Standby) => {
                self.stb_in_use_vs_pc / self.in_use_vs_standby
            }
        }
    }

    /// Converts a reference-PC execution time to `(class, mode)`.
    pub fn from_pc_time(
        &self,
        pc_time: SimDuration,
        class: DeviceClass,
        mode: UsageMode,
    ) -> SimDuration {
        pc_time.mul_f64(self.factor_vs_pc(class, mode))
    }

    /// Converts a time measured on `(from_class, from_mode)` to
    /// `(to_class, to_mode)`.
    pub fn convert(
        &self,
        time: SimDuration,
        from: (DeviceClass, UsageMode),
        to: (DeviceClass, UsageMode),
    ) -> SimDuration {
        let f = self.factor_vs_pc(to.0, to.1) / self.factor_vs_pc(from.0, from.1);
        time.mul_f64(f)
    }

    /// Like [`from_reference_stb`](Self::from_reference_stb) but with
    /// multiplicative jitter drawn from `rng` (uniform in
    /// `1 ± jitter_cv·√3`, which has the requested coefficient of
    /// variation).
    pub(crate) fn sample_from_reference_stb<R: Rng + ?Sized>(
        &self,
        stb_time: SimDuration,
        mode: UsageMode,
        rng: &mut R,
    ) -> SimDuration {
        let base = self.from_reference_stb(stb_time, mode);
        if self.jitter_cv == 0.0 {
            return base;
        }
        let half_width = self.jitter_cv * 3f64.sqrt();
        let m = 1.0 + rng.random_range(-half_width..half_width);
        base.mul_f64(m.max(0.05))
    }

    /// `sample_from_reference_stb` that also records the sampled kernel
    /// time into `tele`'s `receiver.kernel` histogram. The model itself
    /// carries no telemetry handle (it must stay `PartialEq + Serialize`),
    /// so observability is a call-site parameter.
    pub fn sample_instrumented<R: Rng + ?Sized>(
        &self,
        stb_time: SimDuration,
        mode: UsageMode,
        rng: &mut R,
        tele: &Telemetry,
    ) -> SimDuration {
        let dur = self.sample_from_reference_stb(stb_time, mode, rng);
        tele.duration(dur.as_secs_f64(), Phase::Kernel);
        dur
    }

    /// The paper's model expresses task cost `t.p` on a **reference STB**.
    /// This converts such a cost to the mode actually in effect, taking the
    /// reference to be a standby STB.
    pub fn from_reference_stb(&self, stb_time: SimDuration, mode: UsageMode) -> SimDuration {
        self.convert(
            stb_time,
            (DeviceClass::SetTopBox, UsageMode::Standby),
            (DeviceClass::SetTopBox, mode),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_constants() {
        let m = ComputeModel::paper();
        assert_eq!(
            m.factor_vs_pc(DeviceClass::ReferencePc, UsageMode::InUse),
            1.0
        );
        assert_eq!(
            m.factor_vs_pc(DeviceClass::SetTopBox, UsageMode::InUse),
            20.6
        );
        let standby = m.factor_vs_pc(DeviceClass::SetTopBox, UsageMode::Standby);
        assert!((standby - 20.6 / 1.65).abs() < 1e-12);
    }

    #[test]
    fn pc_second_becomes_20_6_stb_seconds() {
        let m = ComputeModel::paper();
        let t = m.from_pc_time(
            SimDuration::from_secs(1),
            DeviceClass::SetTopBox,
            UsageMode::InUse,
        );
        assert!((t.as_secs_f64() - 20.6).abs() < 1e-6);
    }

    #[test]
    fn in_use_standby_ratio_preserved() {
        let m = ComputeModel::paper();
        let pc = SimDuration::from_secs(10);
        let in_use = m.from_pc_time(pc, DeviceClass::SetTopBox, UsageMode::InUse);
        let standby = m.from_pc_time(pc, DeviceClass::SetTopBox, UsageMode::Standby);
        assert!((in_use.as_secs_f64() / standby.as_secs_f64() - 1.65).abs() < 1e-6);
    }

    #[test]
    fn convert_round_trips() {
        let m = ComputeModel::paper();
        let orig = SimDuration::from_secs(100);
        let there = m.convert(
            orig,
            (DeviceClass::ReferencePc, UsageMode::InUse),
            (DeviceClass::SetTopBox, UsageMode::Standby),
        );
        let back = m.convert(
            there,
            (DeviceClass::SetTopBox, UsageMode::Standby),
            (DeviceClass::ReferencePc, UsageMode::InUse),
        );
        assert!(back.as_micros().abs_diff(orig.as_micros()) <= 1);
    }

    #[test]
    fn reference_stb_is_standby() {
        let m = ComputeModel::paper();
        let p = SimDuration::from_secs(60);
        assert_eq!(m.from_reference_stb(p, UsageMode::Standby), p);
        let in_use = m.from_reference_stb(p, UsageMode::InUse);
        assert!((in_use.as_secs_f64() - 99.0).abs() < 1e-6); // 60 * 1.65
    }

    #[test]
    fn jitter_is_centered_and_bounded() {
        let m = ComputeModel::paper_with_jitter(0.1);
        let mut rng = SmallRng::seed_from_u64(1);
        let stb = SimDuration::from_secs(20);
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| {
                m.sample_from_reference_stb(stb, UsageMode::Standby, &mut rng)
                    .as_secs_f64()
            })
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = ComputeModel::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = m.sample_from_reference_stb(SimDuration::from_secs(2), UsageMode::InUse, &mut rng);
        let b = m.from_reference_stb(SimDuration::from_secs(2), UsageMode::InUse);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "jitter CV")]
    fn invalid_jitter_rejected() {
        let _ = ComputeModel::paper_with_jitter(1.5);
    }
}
