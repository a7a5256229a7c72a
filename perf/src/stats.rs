//! Order statistics shared by the run loops, the probes and `compare`.

/// Median (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty or non-finite sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    sorted
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    // p x n first: exact for whole percentiles, so the rank never
    // rounds up past an exact boundary.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The percentiles a timing may be reported at, ascending.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten of
/// the `n` samples beyond it; `None` when not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method) — the spread the driver judges the
/// benchmark's steadiness by. A single sample is both its quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Threads the program's pools size themselves to.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a, the repo's fingerprint hash (`checkpoint::fnv1a` is private
/// to the core crate).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        for n in 1..2000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10, 20, 40]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
