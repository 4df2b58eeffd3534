//! Data-size and bandwidth units.
//!
//! The paper's model works in **bits** (image size `I`, task input `s`,
//! result `r`) and **bits per second** (broadcast capacity `β`, direct
//! channel capacity `δ`). [`DataSize`] stores bits in a `u64`;
//! [`Bandwidth`] stores bits/second as an `f64` (bandwidths are ratios and
//! appear in divisions, so exactness buys nothing there).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A quantity of data, stored in bits.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct DataSize(pub u64);

impl DataSize {
    /// Zero bits.
    pub const ZERO: DataSize = DataSize(0);

    /// Builds a size from raw bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        DataSize(bits)
    }

    /// Builds a size from bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes * 8)
    }

    /// Builds a size from binary kilobytes (KiB, as the paper's "Kbytes").
    #[inline]
    pub const fn from_kilobytes(kb: u64) -> Self {
        DataSize(kb * 1024 * 8)
    }

    /// Builds a size from binary megabytes (MiB, as the paper's "Mbytes").
    #[inline]
    pub const fn from_megabytes(mb: u64) -> Self {
        DataSize(mb * 1024 * 1024 * 8)
    }

    /// Raw number of bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Number of whole bytes (rounded up: a 9-bit payload occupies 2 bytes).
    #[inline]
    pub const fn bytes_ceil(self) -> u64 {
        self.0.div_ceil(8)
    }

    /// Time to transfer this much data over `bw`, rounded to the microsecond.
    ///
    /// This is the fundamental `size / rate` operation used everywhere in
    /// the broadcast and direct-channel models.
    #[inline]
    pub fn transfer_time(self, bw: Bandwidth) -> SimDuration {
        assert!(bw.bps() > 0.0, "cannot transfer over a zero-capacity link");
        SimDuration::from_secs_f64(self.0 as f64 / bw.bps())
    }

    /// True if the size is zero (e.g. parametric tasks with `t.s = 0`).
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for DataSize {
    type Output = DataSize;
    #[inline]
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    #[inline]
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    #[inline]
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for DataSize {
    type Output = DataSize;
    #[inline]
    fn mul(self, rhs: u64) -> DataSize {
        DataSize(self.0 * rhs)
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> DataSize {
        DataSize(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.0 as f64 / 8.0;
        if bytes >= 1024.0 * 1024.0 {
            write!(f, "{:.2}MB", bytes / (1024.0 * 1024.0))
        } else if bytes >= 1024.0 {
            write!(f, "{:.2}KB", bytes / 1024.0)
        } else {
            write!(f, "{}b", self.0)
        }
    }
}

/// A transfer rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Builds a bandwidth from bits per second.
    #[inline]
    pub const fn from_bps(bps: f64) -> Self {
        Bandwidth(bps)
    }

    /// Builds a bandwidth from kilobits per second (decimal, as in "150 Kbps").
    #[inline]
    pub const fn from_kbps(kbps: f64) -> Self {
        Bandwidth(kbps * 1_000.0)
    }

    /// Builds a bandwidth from megabits per second (decimal, as in "1 Mbps").
    #[inline]
    pub const fn from_mbps(mbps: f64) -> Self {
        Bandwidth(mbps * 1_000_000.0)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn bps(self) -> f64 {
        self.0
    }

    /// How much data flows in `d` at this rate (rounded down to whole bits).
    #[inline]
    pub fn data_in(self, d: SimDuration) -> DataSize {
        DataSize((self.0 * d.as_secs_f64()).floor() as u64)
    }

    /// Splits this capacity evenly over `n` concurrent flows.
    #[inline]
    pub fn shared_by(self, n: u64) -> Bandwidth {
        assert!(n > 0, "cannot share a link among zero flows");
        Bandwidth(self.0 / n as f64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000.0 {
            write!(f, "{:.2}Mbps", self.0 / 1_000_000.0)
        } else if self.0 >= 1_000.0 {
            write!(f, "{:.2}Kbps", self.0 / 1_000.0)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(DataSize::from_bytes(1), DataSize::from_bits(8));
        assert_eq!(DataSize::from_kilobytes(1), DataSize::from_bytes(1024));
        assert_eq!(DataSize::from_megabytes(1), DataSize::from_kilobytes(1024));
        assert_eq!(Bandwidth::from_mbps(1.0).bps(), 1_000_000.0);
        assert_eq!(Bandwidth::from_kbps(150.0).bps(), 150_000.0);
    }

    #[test]
    fn transfer_time_matches_hand_calculation() {
        // 10 Mbit over 1 Mbps = 10 s.
        let d = DataSize::from_bits(10_000_000).transfer_time(Bandwidth::from_mbps(1.0));
        assert_eq!(d, SimDuration::from_secs(10));
    }

    #[test]
    fn paper_wakeup_example() {
        // 8 MB image over 1 Mbps: 8 * 2^20 * 8 / 1e6 = 67.108864 s per cycle.
        let d = DataSize::from_megabytes(8).transfer_time(Bandwidth::from_mbps(1.0));
        assert!((d.as_secs_f64() - 67.108864).abs() < 1e-6);
    }

    #[test]
    fn data_in_inverts_transfer_time() {
        let bw = Bandwidth::from_kbps(150.0);
        let size = DataSize::from_kilobytes(1);
        let t = size.transfer_time(bw);
        let back = bw.data_in(t);
        // Rounding to whole µs loses at most a fraction of a bit.
        assert!(back.bits().abs_diff(size.bits()) <= 1);
    }

    #[test]
    fn bytes_ceil_rounds_up() {
        assert_eq!(DataSize::from_bits(9).bytes_ceil(), 2);
        assert_eq!(DataSize::from_bits(8).bytes_ceil(), 1);
        assert_eq!(DataSize::ZERO.bytes_ceil(), 0);
    }

    #[test]
    fn shared_bandwidth() {
        let bw = Bandwidth::from_mbps(10.0).shared_by(4);
        assert_eq!(bw.bps(), 2_500_000.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DataSize::from_megabytes(10).to_string(), "10.00MB");
        assert_eq!(DataSize::from_kilobytes(1).to_string(), "1.00KB");
        assert_eq!(DataSize::from_bits(5).to_string(), "5b");
        assert_eq!(Bandwidth::from_mbps(1.0).to_string(), "1.00Mbps");
        assert_eq!(Bandwidth::from_kbps(150.0).to_string(), "150.00Kbps");
    }

    #[test]
    fn sum_of_sizes() {
        let total: DataSize = (1..=3).map(DataSize::from_bytes).sum();
        assert_eq!(total, DataSize::from_bytes(6));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_bandwidth_transfer_panics() {
        let _ = DataSize::from_bytes(1).transfer_time(Bandwidth::from_bps(0.0));
    }
}
