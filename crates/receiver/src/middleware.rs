//! The DTV middleware: Xlet lifecycle and the application manager.
//!
//! Implements the state machine of Figure 4 of the paper (the JavaTV Xlet
//! lifecycle): an Xlet is *Loaded*, initialized to *Paused*, moved to
//! *Started*, may bounce between *Paused*/*Started*, and ends *Destroyed* —
//! after which it can never be restarted. The
//! [`ApplicationManager`] owns all Xlets on one receiver and reacts to AIT
//! signalling (AUTOSTART launches, KILL/DESTROY teardowns).

use oddci_broadcast::ait::{Ait, AppControlCode};
use oddci_types::{OddciError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The four JavaTV Xlet lifecycle states (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum XletState {
    /// Main class loaded, default constructor run.
    Loaded,
    /// Initialized (`initXlet`) and ready to start, or paused mid-run.
    Paused,
    /// Actively executing (`startXlet`).
    Started,
    /// Terminal state (`destroyXlet`); resources freed, cannot restart.
    Destroyed,
}

/// One application instance managed by the middleware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Xlet {
    /// AIT application id this Xlet was signalled under.
    pub app_id: u32,
    /// Application name (diagnostic only).
    pub name: String,
    /// Current lifecycle state.
    state: XletState,
    /// Number of `pauseXlet`/`startXlet` round trips (diagnostic).
    pub pause_cycles: u32,
}

impl Xlet {
    /// Loads the Xlet: runs the default constructor (state *Loaded*).
    pub fn load(app_id: u32, name: impl Into<String>) -> Self {
        Xlet {
            app_id,
            name: name.into(),
            state: XletState::Loaded,
            pause_cycles: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> XletState {
        self.state
    }

    /// `initXlet()`: Loaded → Paused.
    pub fn init(&mut self) -> Result<()> {
        match self.state {
            XletState::Loaded => {
                self.state = XletState::Paused;
                Ok(())
            }
            s => Err(invalid("initXlet", s)),
        }
    }

    /// `startXlet()`: Paused → Started.
    pub fn start(&mut self) -> Result<()> {
        match self.state {
            XletState::Paused => {
                self.state = XletState::Started;
                Ok(())
            }
            s => Err(invalid("startXlet", s)),
        }
    }

    /// `pauseXlet()`: Started → Paused.
    pub fn pause(&mut self) -> Result<()> {
        match self.state {
            XletState::Started => {
                self.state = XletState::Paused;
                self.pause_cycles += 1;
                Ok(())
            }
            s => Err(invalid("pauseXlet", s)),
        }
    }

    /// `destroyXlet()`: any non-destroyed state → Destroyed.
    pub fn destroy(&mut self) -> Result<()> {
        match self.state {
            XletState::Destroyed => Err(invalid("destroyXlet", XletState::Destroyed)),
            _ => {
                self.state = XletState::Destroyed;
                Ok(())
            }
        }
    }
}

fn invalid(operation: &'static str, state: XletState) -> OddciError {
    OddciError::InvalidState {
        operation,
        state: format!("{state:?}"),
    }
}

/// The middleware component that owns every Xlet on one receiver and
/// applies AIT signalling.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ApplicationManager {
    xlets: BTreeMap<u32, Xlet>,
    /// Last AIT version applied, to make signalling idempotent.
    last_ait_version: Option<u32>,
}

impl ApplicationManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        ApplicationManager::default()
    }

    /// Applies an AIT snapshot: AUTOSTART entries not yet running are
    /// loaded/initialized/started; KILL/DESTROY entries are destroyed.
    /// Returns the app ids that were **newly started** by this call.
    ///
    /// Reapplying the same AIT version is a no-op (receivers see the same
    /// table on every carousel pass).
    pub fn apply_ait(&mut self, ait: &Ait) -> Vec<u32> {
        if self.last_ait_version == Some(ait.version) {
            return Vec::new();
        }
        self.last_ait_version = Some(ait.version);

        let mut started = Vec::new();
        for entry in &ait.entries {
            match entry.control_code {
                AppControlCode::Autostart => {
                    let needs_start = match self.xlets.get(&entry.app_id) {
                        Some(x) => x.state() == XletState::Destroyed,
                        None => true,
                    };
                    if needs_start {
                        let mut xlet = Xlet::load(entry.app_id, entry.name.clone());
                        xlet.init().expect("fresh Xlet init");
                        xlet.start().expect("initialized Xlet start");
                        self.xlets.insert(entry.app_id, xlet);
                        started.push(entry.app_id);
                    }
                }
                AppControlCode::Kill | AppControlCode::Destroy => {
                    if let Some(x) = self.xlets.get_mut(&entry.app_id) {
                        let _ = x.destroy();
                    }
                }
                AppControlCode::Present => {}
            }
        }
        started
    }

    /// The Xlet for `app_id`, if loaded.
    pub fn xlet(&self, app_id: u32) -> Option<&Xlet> {
        self.xlets.get(&app_id)
    }

    /// Destroys every Xlet — what happens when the receiver powers off.
    pub fn power_off(&mut self) {
        for x in self.xlets.values_mut() {
            let _ = x.destroy();
        }
        self.xlets.clear();
        self.last_ait_version = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_broadcast::ait::AitEntry;

    #[test]
    fn full_lifecycle_happy_path() {
        let mut x = Xlet::load(1, "pna");
        assert_eq!(x.state(), XletState::Loaded);
        x.init().unwrap();
        assert_eq!(x.state(), XletState::Paused);
        x.start().unwrap();
        assert_eq!(x.state(), XletState::Started);
        x.pause().unwrap();
        assert_eq!(x.state(), XletState::Paused);
        x.start().unwrap();
        x.destroy().unwrap();
        assert_eq!(x.state(), XletState::Destroyed);
        assert_eq!(x.pause_cycles, 1);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut x = Xlet::load(1, "pna");
        assert!(x.start().is_err(), "cannot start a merely Loaded xlet");
        assert!(x.pause().is_err(), "cannot pause a Loaded xlet");
        x.init().unwrap();
        assert!(x.init().is_err(), "double init");
        x.destroy().unwrap();
        assert!(x.start().is_err(), "destroyed is terminal");
        assert!(x.init().is_err());
        assert!(x.destroy().is_err(), "double destroy");
    }

    fn autostart_ait(version: u32) -> Ait {
        let mut ait = Ait::new();
        for _ in 0..version {
            ait.publish(vec![AitEntry {
                app_id: 7,
                name: "pna".into(),
                base_file: "pna.xlet".into(),
                control_code: AppControlCode::Autostart,
            }]);
        }
        ait
    }

    #[test]
    fn autostart_launches_once_per_version() {
        let mut am = ApplicationManager::new();
        let ait = autostart_ait(1);
        assert_eq!(am.apply_ait(&ait), vec![7]);
        assert_eq!(am.xlet(7).unwrap().state(), XletState::Started);
        // Same version seen again on the next carousel pass: no-op.
        assert!(am.apply_ait(&ait).is_empty());
        assert_eq!(am.xlet(7).unwrap().state(), XletState::Started);
    }

    #[test]
    fn new_version_does_not_restart_running_xlet() {
        let mut am = ApplicationManager::new();
        am.apply_ait(&autostart_ait(1));
        // Version 2 with the same AUTOSTART entry: already running, no restart.
        assert!(am.apply_ait(&autostart_ait(2)).is_empty());
        assert_eq!(am.xlet(7).unwrap().state(), XletState::Started);
    }

    #[test]
    fn kill_signal_destroys_until_a_later_autostart() {
        let mut am = ApplicationManager::new();
        am.apply_ait(&autostart_ait(1));
        let mut ait = autostart_ait(1);
        ait.publish(vec![AitEntry {
            app_id: 7,
            name: "pna".into(),
            base_file: "pna.xlet".into(),
            control_code: AppControlCode::Kill,
        }]);
        am.apply_ait(&ait);
        assert_eq!(am.xlet(7).unwrap().state(), XletState::Destroyed);
        // A NEW AIT version re-triggers the trigger application.
        assert_eq!(am.apply_ait(&autostart_ait(3)), vec![7]);
        assert_eq!(am.xlet(7).unwrap().state(), XletState::Started);
    }

    #[test]
    fn power_off_clears_everything() {
        let mut am = ApplicationManager::new();
        am.apply_ait(&autostart_ait(1));
        am.power_off();
        assert!(am.xlet(7).is_none());
        // After power-on the same AIT version autostart fires again.
        assert_eq!(am.apply_ait(&autostart_ait(1)), vec![7]);
    }

    #[test]
    fn present_entries_are_not_started() {
        let mut am = ApplicationManager::new();
        let mut ait = Ait::new();
        ait.publish(vec![AitEntry {
            app_id: 9,
            name: "epg".into(),
            base_file: "epg.xlet".into(),
            control_code: AppControlCode::Present,
        }]);
        assert!(am.apply_ait(&ait).is_empty());
        assert!(am.xlet(9).is_none());
    }
}
