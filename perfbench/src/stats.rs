//! Order statistics for the benchmark's samples.

use laelaps_serve::HistogramSnapshot;

/// Percentiles the reports consider, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A metric's samples reduced to a median, quartiles and a count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let [q1, _, q3] = quartiles(&sorted)?;
        Some(Summary {
            median: median(&sorted)?,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// A single reading, reported as its own median and quartiles.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of ascending `sorted`.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of ascending `sorted`, computed like
/// Python's `statistics.quantiles(data, n=4)` (the "exclusive" method),
/// so run-to-run spreads read the same here as in any script.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    match len {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some([cut(1), cut(2), cut(3)])
        }
    }
}

/// The nearest-rank `p`-th percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank(sorted.len(), p);
    Some(sorted[rank.max(1) - 1])
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples,
/// in integer arithmetic so that, say, p99.9 of 10000 is rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (n * basis_points).div_ceil(10_000)
}

/// The highest percentile in [`PERCENTILES`] with at least
/// [`MIN_BEYOND`] of `n` samples above its rank; the median when none
/// qualifies, so a report always has a figure.
pub fn highest_supported_percentile(n: usize) -> f64 {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
        .unwrap_or(PERCENTILES[0])
}

/// The `q`-quantile of a service stage histogram, interpolated linearly
/// within its bucket. Stages record whole microseconds (truncated), so a
/// bucket holding values `lo..=hi` spans true durations `[lo, hi + 1)`.
/// Unlike `HistogramSnapshot::quantile`, which returns a bucket edge,
/// this does not read the same value on every run.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    let rank = q * h.count as f64;
    let mut below = 0u64;
    for &(index, n) in &h.buckets {
        if (below + n) as f64 >= rank {
            let (lo, hi) = HistogramSnapshot::bucket_bounds(index);
            let into = (rank - below as f64).max(0.0) / n as f64;
            return Some(lo as f64 + into * (hi + 1 - lo) as f64);
        }
        below += n;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]: with two
        // samples the exclusive method extrapolates.
        assert_eq!(quartiles(&[4.0, 8.0]), Some([3.0, 6.0, 9.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
        assert_eq!(s.median, 5.0);
        // statistics.quantiles([1, 3, 5, 7, 9], n=4) == [2.0, 5.0, 8.0]
        assert_eq!((s.q1, s.q3, s.n), (2.0, 8.0, 5));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), Some(500.0));
        assert_eq!(percentile(&data, 99.0), Some(990.0));
        assert_eq!(percentile(&data, 100.0), Some(1000.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_a_bucket() {
        // 100 samples of 3 µs and 100 in the 32..=33 bucket.
        let h = HistogramSnapshot {
            count: 200,
            sum: 0,
            max: 33,
            buckets: vec![(3, 100), (32, 100)],
        };
        assert_eq!(HistogramSnapshot::bucket_bounds(32), (32, 33));
        assert_eq!(histogram_quantile(&h, 0.25), Some(3.5));
        assert_eq!(histogram_quantile(&h, 0.5), Some(4.0));
        assert_eq!(histogram_quantile(&h, 0.75), Some(33.0));
        assert_eq!(histogram_quantile(&h, 1.0), Some(34.0));
        assert_eq!(histogram_quantile(&HistogramSnapshot::default(), 0.5), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), 50.0);
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
        assert_eq!(highest_supported_percentile(10_000_000), 99.99);
    }
}
