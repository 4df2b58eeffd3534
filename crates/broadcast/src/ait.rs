//! The Application Information Table (AIT).
//!
//! §4.2: the transport stream carries an AIT telling receivers which
//! applications are available and what to do with them. The
//! `application_control_code` drives the Xlet lifecycle; `AUTOSTART` is what
//! makes the PNA a *trigger application* that launches on every tuned
//! receiver without user action — the core trick behind the wakeup process.

use serde::{Deserialize, Serialize};

/// The AIT `application_control_code` values relevant to OddCI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppControlCode {
    /// Start immediately without user intervention (trigger application).
    Autostart,
    /// Available, started only on user request.
    Present,
    /// Stop the application if it is running.
    Kill,
    /// Destroy the application and free its resources.
    Destroy,
}

/// One AIT entry describing an application in the carousel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AitEntry {
    /// Application identifier (organisation + app id in real DVB; flattened).
    pub app_id: u32,
    /// Human-readable application name.
    pub name: String,
    /// Carousel file that holds the application's code.
    pub base_file: String,
    /// Lifecycle directive for receivers.
    pub control_code: AppControlCode,
}

/// The table itself, versioned like its DVB counterpart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Ait {
    /// Monotonically increasing table version.
    pub version: u32,
    /// Entries in signalling order.
    pub entries: Vec<AitEntry>,
}

impl Ait {
    /// Creates an empty version-0 table.
    pub fn new() -> Self {
        Ait::default()
    }

    /// Replaces the entries and bumps the version.
    pub fn publish(&mut self, entries: Vec<AitEntry>) {
        self.entries = entries;
        self.version += 1;
    }

    /// Looks an entry up by application id.
    pub fn entry(&self, app_id: u32) -> Option<&AitEntry> {
        self.entries.iter().find(|e| e.app_id == app_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pna_entry(code: AppControlCode) -> AitEntry {
        AitEntry {
            app_id: 0x1001,
            name: "pna-xlet".into(),
            base_file: "pna.xlet".into(),
            control_code: code,
        }
    }

    #[test]
    fn publish_bumps_version() {
        let mut ait = Ait::new();
        assert_eq!(ait.version, 0);
        ait.publish(vec![pna_entry(AppControlCode::Autostart)]);
        assert_eq!(ait.version, 1);
        ait.publish(vec![]);
        assert_eq!(ait.version, 2);
        assert!(ait.entries.is_empty());
    }

    #[test]
    fn entry_lookup() {
        let mut ait = Ait::new();
        ait.publish(vec![pna_entry(AppControlCode::Autostart)]);
        assert!(ait.entry(0x1001).is_some());
        assert!(ait.entry(0xdead).is_none());
    }
}
