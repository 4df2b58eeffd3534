//! Order statistics: the median and quartiles every metric is reported
//! with, and the rule for which tail percentile a sample can support.

/// Percentile levels a tail may be reported at, lowest first. The ladder
/// is the rule; a metric does not climb it at run time. The sample count
/// of a timed run drifts with the machine, and a level chosen from it
/// would make one metric mean different things in two runs of one commit,
/// so each workload fixes its level (`Workload::tail_level`) and a run
/// checks with `supports` that its sample can carry it.
const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Rank (1-based) of the `level`-th percentile among `samples` sorted
/// values, by the nearest-rank rule.
fn rank(samples: usize, level: u32) -> usize {
    (samples * level as usize)
        .div_ceil(100)
        .clamp(1, samples.max(1))
}

/// Nearest-rank percentile of `values` (`level` in 0..=100).
///
/// # Panics
/// On an empty sample: every caller has already counted at least one
/// completed operation.
pub fn percentile(values: &[f64], level: u32) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[rank(v.len(), level) - 1]
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest level of the ladder that still has at least ten samples
/// beyond it; p50 when the sample supports nothing higher.
pub fn tail_level(samples: usize) -> u32 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&level| samples >= MIN_BEYOND + rank(samples, level))
        .max()
        .unwrap_or(TAIL_LADDER[0])
}

/// True when `samples` values can carry the `level`-th percentile: ten
/// of them lie beyond it. The median is the floor and always passes.
pub fn supports(samples: usize, level: u32) -> bool {
    level <= tail_level(samples)
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so a
/// spread computed here is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(5), 50);
        assert_eq!(tail_level(20), 50);
        assert_eq!(tail_level(39), 50);
        assert_eq!(tail_level(40), 75);
        assert_eq!(tail_level(99), 75);
        assert_eq!(tail_level(100), 90);
        assert_eq!(tail_level(200), 95);
        assert_eq!(tail_level(999), 95);
        assert_eq!(tail_level(1_000), 99);
        // The ladder stops at p99 however many samples there are.
        assert_eq!(tail_level(1_000_000), 99);
    }

    #[test]
    fn a_fixed_level_is_checked_against_the_sample() {
        assert!(supports(8, 50));
        assert!(!supports(39, 75));
        assert!(supports(40, 75));
        assert!(!supports(999, 99));
        assert!(supports(1_000, 99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 25), 1.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(mean(&[3.0, 1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
