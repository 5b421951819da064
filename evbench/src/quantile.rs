//! Exact nearest-rank quantiles over raw samples.
//!
//! The registry's histograms are log-bucketed (one bucket spans a third
//! of its value), so a quantile read from them moves in bucket-sized
//! jumps. The benchmark keeps every latency sample and ranks them
//! itself; from the registry it reads only exact sums and counts.

/// One quantile of a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at nearest rank `ceil(q·n)` (NaN when there are no
    /// samples).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked strictly above the reported one — how many
    /// observations the tail estimate rests on.
    pub beyond: usize,
}

/// Sorts `samples` in place and returns the nearest-rank `q`-quantile:
/// the smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or a sample is NaN.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> Quantile {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = samples.len();
    if n == 0 {
        return Quantile {
            value: f64::NAN,
            n,
            beyond: 0,
        };
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: samples[rank - 1],
        n,
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        let mut odd = [5.0, 1.0, 3.0];
        assert_eq!(nearest_rank(&mut odd, 0.5).value, 3.0);
        // Nearest rank picks a real sample, never an interpolation.
        let mut even = [4.0, 1.0, 3.0, 2.0];
        let q = nearest_rank(&mut even, 0.5);
        assert_eq!((q.value, q.beyond), (2.0, 2));
    }

    #[test]
    fn tail_reports_samples_beyond() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let p95 = nearest_rank(&mut v, 0.95);
        assert_eq!((p95.value, p95.n, p95.beyond), (190.0, 200, 10));
        let p99 = nearest_rank(&mut v, 0.99);
        assert_eq!((p99.value, p99.beyond), (198.0, 2));
    }

    #[test]
    fn extremes_are_min_and_max() {
        let mut v = [2.5, -1.0, 7.0];
        assert_eq!(nearest_rank(&mut v, 0.0).value, -1.0);
        let max = nearest_rank(&mut v, 1.0);
        assert_eq!((max.value, max.beyond), (7.0, 0));
    }

    #[test]
    fn empty_set_is_nan_with_zero_counts() {
        let q = nearest_rank(&mut [], 0.5);
        assert!(q.value.is_nan());
        assert_eq!((q.n, q.beyond), (0, 0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        let _ = nearest_rank(&mut [1.0], 1.5);
    }
}
