//! The paper's BLAST micro-benchmark dataset (§4.4, Tables II and III).
//!
//! The authors ported the NCBI toolkit to an STi7109 set-top box and ran 15
//! BLAST experiments in three categories: local processing with small
//! databases (#1–9), local with large databases (#10–12) and remote
//! processing via BLASTCL3 (#13–15), each in "in use" and "standby" modes.
//!
//! ### Data provenance
//!
//! The STB "in use" and "standby" columns below are transcribed from
//! Table II of the paper. The PC column of Table II and all of Table III
//! did not survive the source text extraction, so they are **reconstructed**:
//! PC times as `in_use / 20.6` (the paper's own aggregate ratio), and the
//! Table III remote experiments as round-trip-dominated workloads
//! consistent with the paper's description (remote processing spends its
//! time in the NCBI service, so device speed barely matters). The
//! reconstruction is flagged per-row via [`BlastExperiment::reconstructed`]
//! and called out in EXPERIMENTS.md.

use oddci_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Which BLAST deployment a test exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlastMode {
    /// `blastall` against a small local database (tests #1–9).
    LocalSmallDb,
    /// `blastall` against a large local database (tests #10–12).
    LocalLargeDb,
    /// `blastcl3` querying the remote NCBI service (tests #13–15).
    Remote,
}

/// One row of the paper's Table II / Table III.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlastExperiment {
    /// Test number as printed in the paper (1-based).
    pub test: u32,
    /// Deployment category.
    pub mode: BlastMode,
    /// Measured STB runtime with a TV channel tuned ("in use"), seconds.
    pub stb_in_use_secs: f64,
    /// Measured STB runtime with inactive middleware ("standby"), seconds.
    pub stb_standby_secs: f64,
    /// Reference-PC runtime, seconds.
    pub pc_secs: f64,
    /// True when any column was reconstructed rather than transcribed.
    pub reconstructed: bool,
}

impl BlastExperiment {
    /// In-use / standby slowdown for this row.
    pub fn in_use_penalty(&self) -> f64 {
        self.stb_in_use_secs / self.stb_standby_secs
    }

    /// The in-use runtime as a typed duration.
    pub fn in_use(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.stb_in_use_secs)
    }

    /// The standby runtime as a typed duration.
    pub fn standby(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.stb_standby_secs)
    }

    /// The PC runtime as a typed duration.
    pub fn pc(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.pc_secs)
    }
}

const fn row(
    test: u32,
    mode: BlastMode,
    in_use: f64,
    standby: f64,
    pc: f64,
    reconstructed: bool,
) -> BlastExperiment {
    BlastExperiment {
        test,
        mode,
        stb_in_use_secs: in_use,
        stb_standby_secs: standby,
        pc_secs: pc,
        reconstructed,
    }
}

/// Table II: `blastall` runs #1–12. In-use/standby transcribed from the
/// paper; PC reconstructed as `in_use / 20.6`.
pub const TABLE2_EXPERIMENTS: [BlastExperiment; 12] = [
    row(1, BlastMode::LocalSmallDb, 3.338, 1.356, 3.338 / 20.6, true),
    row(2, BlastMode::LocalSmallDb, 2.102, 1.333, 2.102 / 20.6, true),
    row(3, BlastMode::LocalSmallDb, 5.185, 3.208, 5.185 / 20.6, true),
    row(4, BlastMode::LocalSmallDb, 0.179, 0.117, 0.179 / 20.6, true),
    row(5, BlastMode::LocalSmallDb, 0.133, 0.116, 0.133 / 20.6, true),
    row(6, BlastMode::LocalSmallDb, 0.175, 0.116, 0.175 / 20.6, true),
    row(7, BlastMode::LocalSmallDb, 1.026, 0.612, 1.026 / 20.6, true),
    row(8, BlastMode::LocalSmallDb, 0.944, 0.610, 0.944 / 20.6, true),
    row(9, BlastMode::LocalSmallDb, 1.642, 0.990, 1.642 / 20.6, true),
    row(
        10,
        BlastMode::LocalLargeDb,
        0.177,
        0.118,
        0.177 / 20.6,
        true,
    ),
    row(
        11,
        BlastMode::LocalLargeDb,
        9314.247,
        6315.410,
        9314.247 / 20.6,
        true,
    ),
    row(
        12,
        BlastMode::LocalLargeDb,
        38858.298,
        26973.262,
        38858.298 / 20.6,
        true,
    ),
];

/// Table III: `blastcl3` remote runs #13–15, fully reconstructed
/// (round-trip-dominated: device mode changes runtimes by seconds, not
/// multiples, because the NCBI service does the work).
pub const TABLE3_EXPERIMENTS: [BlastExperiment; 3] = [
    row(13, BlastMode::Remote, 48.2, 45.1, 42.0, true),
    row(14, BlastMode::Remote, 127.6, 121.9, 115.0, true),
    row(15, BlastMode::Remote, 319.4, 308.8, 295.0, true),
];

/// Mean in-use/standby penalty over Table II — the paper reports 1.65
/// (±17% at 90% confidence).
pub fn mean_in_use_penalty() -> f64 {
    let rows = &TABLE2_EXPERIMENTS;
    rows.iter().map(|e| e.in_use_penalty()).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_12_rows_in_order() {
        assert_eq!(TABLE2_EXPERIMENTS.len(), 12);
        for (i, e) in TABLE2_EXPERIMENTS.iter().enumerate() {
            assert_eq!(e.test as usize, i + 1);
        }
    }

    #[test]
    fn standby_is_always_faster_than_in_use() {
        for e in TABLE2_EXPERIMENTS.iter().chain(&TABLE3_EXPERIMENTS) {
            assert!(
                e.stb_standby_secs < e.stb_in_use_secs,
                "test #{}: standby {} !< in-use {}",
                e.test,
                e.stb_standby_secs,
                e.stb_in_use_secs
            );
        }
    }

    #[test]
    fn mean_penalty_matches_paper_within_tolerance() {
        // Paper: 1.65 with max error 17%.
        let m = mean_in_use_penalty();
        assert!((m - 1.65).abs() / 1.65 < 0.17, "mean penalty {m}");
    }

    #[test]
    fn largest_workload_runs_for_hours() {
        // Test #12 took almost 11 hours in use (38858 s).
        let e = TABLE2_EXPERIMENTS[11];
        assert!(e.in_use().as_secs_f64() / 3600.0 > 10.0);
    }

    #[test]
    fn reconstructed_rows_are_flagged() {
        assert!(TABLE2_EXPERIMENTS
            .iter()
            .chain(&TABLE3_EXPERIMENTS)
            .all(|e| e.reconstructed));
    }

    #[test]
    fn remote_rows_have_small_mode_sensitivity() {
        for e in &TABLE3_EXPERIMENTS {
            assert!(e.in_use_penalty() < 1.2, "remote work is service-dominated");
        }
    }
}
