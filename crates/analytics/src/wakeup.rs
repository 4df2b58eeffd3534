//! The wakeup-process overhead model (§5.1).
//!
//! The bulk of the wakeup is the transmission of the image through the
//! carousel: a PNA that starts reading at a uniformly random phase waits on
//! average half a cycle for the image's next pass and then reads it for a
//! full cycle, giving `W = 1.5·I/β`. The envelope is `[I/β, 2·I/β)`.

use oddci_types::{Bandwidth, DataSize, SimDuration};

/// Mean wakeup overhead `W = 1.5·I/β`.
pub fn wakeup_mean(image: DataSize, beta: Bandwidth) -> SimDuration {
    image.transfer_time(beta).mul_f64(1.5)
}

/// `(best, mean, worst)` wakeup overhead: `(I/β, 1.5·I/β, 2·I/β)`.
pub fn wakeup_envelope(
    image: DataSize,
    beta: Bandwidth,
) -> (SimDuration, SimDuration, SimDuration) {
    let cycle = image.transfer_time(beta);
    (cycle, cycle.mul_f64(1.5), cycle * 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_8mb_1mbps() {
        // 8 MB at 1 Mbps: cycle 67.1 s, mean 100.7 s. (The paper quotes
        // "less than 64 seconds" using decimal megabytes and the plain
        // I/β term; we report the full envelope.)
        let (best, mean, worst) =
            wakeup_envelope(DataSize::from_megabytes(8), Bandwidth::from_mbps(1.0));
        assert!((best.as_secs_f64() - 67.108864).abs() < 1e-6);
        assert!((mean.as_secs_f64() - 100.663296).abs() < 1e-6);
        assert!((worst.as_secs_f64() - 134.217728).abs() < 1e-6);
    }

    #[test]
    fn mean_is_1_5_cycles() {
        let img = DataSize::from_megabytes(10);
        let beta = Bandwidth::from_mbps(2.0);
        let mean = wakeup_mean(img, beta);
        let cycle = img.transfer_time(beta);
        assert!((mean.as_secs_f64() / cycle.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn wakeup_scales_inversely_with_beta() {
        let img = DataSize::from_megabytes(10);
        let w1 = wakeup_mean(img, Bandwidth::from_mbps(1.0));
        let w4 = wakeup_mean(img, Bandwidth::from_mbps(4.0));
        assert!((w1.as_secs_f64() / w4.as_secs_f64() - 4.0).abs() < 1e-6);
    }
}
