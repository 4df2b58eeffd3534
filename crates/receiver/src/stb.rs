//! The set-top box device model.
//!
//! Bundles the hardware inventory (modelled after the paper's STi7109 test
//! box: 256 MB RAM, 32 MB flash), the tuner, the power/usage state and the
//! middleware application manager into one receiver. The OddCI PNA runs
//! *on* this device; this module knows nothing about OddCI semantics.

use crate::compute::{ComputeModel, DeviceClass, UsageMode};
use crate::middleware::ApplicationManager;
use oddci_types::{ChannelId, DataSize, NodeId, SimDuration};
use serde::{Deserialize, Serialize};

/// Fixed hardware characteristics of a receiver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StbHardware {
    /// Main memory available to interactive applications.
    pub ram: DataSize,
    /// Non-volatile storage.
    pub flash: DataSize,
}

impl Default for StbHardware {
    fn default() -> Self {
        // The paper's test device: STi7109, 256 MB RAM, 32 MB flash.
        StbHardware {
            ram: DataSize::from_megabytes(256),
            flash: DataSize::from_megabytes(32),
        }
    }
}

/// Tuner state: which service the receiver is listening to, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TunerState {
    /// Powered off / unplugged: unreachable.
    Off,
    /// Powered, tuned to `channel`.
    Tuned(ChannelId),
}

/// One DTV receiver. Laid out in field order with the tuner last, so a
/// record that puts its hot fields next (the simulator's node record
/// does) reads the power state on the same cache line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct SetTopBox {
    /// Stable device identity (doubles as the PNA's node id).
    pub id: NodeId,
    /// Hardware inventory.
    pub hardware: StbHardware,
    /// In-use vs standby (affects compute speed by the 1.65 factor).
    pub usage: UsageMode,
    /// The middleware application manager.
    pub apps: ApplicationManager,
    /// Tuner state.
    pub tuner: TunerState,
}

impl SetTopBox {
    /// Creates a powered-off receiver with default hardware.
    pub fn new(id: NodeId) -> Self {
        SetTopBox {
            id,
            hardware: StbHardware::default(),
            tuner: TunerState::Off,
            usage: UsageMode::Standby,
            apps: ApplicationManager::new(),
        }
    }

    /// Powers the receiver on, tuned to `channel`, in the given usage mode.
    pub fn power_on(&mut self, channel: ChannelId, usage: UsageMode) {
        self.tuner = TunerState::Tuned(channel);
        self.usage = usage;
    }

    /// Powers the receiver off, destroying every running application.
    pub fn power_off(&mut self) {
        self.tuner = TunerState::Off;
        self.apps.power_off();
    }

    /// True when powered and tuned to `channel`.
    pub fn is_tuned_to(&self, channel: ChannelId) -> bool {
        self.tuner == TunerState::Tuned(channel)
    }

    /// True when powered on at all.
    pub fn is_on(&self) -> bool {
        !matches!(self.tuner, TunerState::Off)
    }

    /// Whether an image of `size` fits in memory next to the middleware
    /// (we reserve half the RAM for middleware + OS, matching the tight
    /// memory budget the paper's port had to live within).
    pub fn fits_in_memory(&self, size: DataSize) -> bool {
        size.bits() <= self.hardware.ram.bits() / 2
    }

    /// Execution time of a task with reference-PC cost `pc_time` on this
    /// box in its current usage mode.
    pub fn execution_time(&self, model: &ComputeModel, pc_time: SimDuration) -> SimDuration {
        model.from_pc_time(pc_time, DeviceClass::SetTopBox, self.usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_cycle() {
        let mut stb = SetTopBox::new(NodeId::new(1));
        assert!(!stb.is_on());
        stb.power_on(ChannelId::new(3), UsageMode::InUse);
        assert!(stb.is_on());
        assert!(stb.is_tuned_to(ChannelId::new(3)));
        assert!(!stb.is_tuned_to(ChannelId::new(4)));
        stb.power_off();
        assert!(!stb.is_on());
    }

    #[test]
    fn power_off_kills_apps() {
        use oddci_broadcast::ait::{Ait, AitEntry, AppControlCode};
        let mut stb = SetTopBox::new(NodeId::new(1));
        stb.power_on(ChannelId::new(1), UsageMode::Standby);
        let mut ait = Ait::new();
        ait.publish(vec![AitEntry {
            app_id: 1,
            name: "pna".into(),
            base_file: "pna.xlet".into(),
            control_code: AppControlCode::Autostart,
        }]);
        stb.apps.apply_ait(&ait);
        assert_eq!(stb.apps.running_count(), 1);
        stb.power_off();
        assert_eq!(stb.apps.running_count(), 0);
    }

    #[test]
    fn memory_budget() {
        let stb = SetTopBox::new(NodeId::new(1));
        assert!(stb.fits_in_memory(DataSize::from_megabytes(100)));
        assert!(stb.fits_in_memory(DataSize::from_megabytes(128)));
        assert!(!stb.fits_in_memory(DataSize::from_megabytes(129)));
    }

    #[test]
    fn execution_time_tracks_usage_mode() {
        let model = ComputeModel::paper();
        let mut stb = SetTopBox::new(NodeId::new(1));
        stb.power_on(ChannelId::new(1), UsageMode::Standby);
        let standby = stb.execution_time(&model, SimDuration::from_secs(1));
        stb.usage = UsageMode::InUse;
        let in_use = stb.execution_time(&model, SimDuration::from_secs(1));
        assert!((in_use.as_secs_f64() / standby.as_secs_f64() - 1.65).abs() < 1e-6);
    }

    #[test]
    fn default_hardware_matches_paper_device() {
        let hw = StbHardware::default();
        assert_eq!(hw.ram, DataSize::from_megabytes(256));
        assert_eq!(hw.flash, DataSize::from_megabytes(32));
    }
}
