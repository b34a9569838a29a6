//! The one percentile definition the harness uses.
//!
//! End-to-end latencies are computed exactly over the raw samples: the obs
//! registry's log2 histograms (≤33% bucket error) would flip a 0.25 ms p50
//! between buckets from run to run. A failed or refused request is a sample
//! of `f64::INFINITY`, so it counts as infinitely late in every percentile.

/// The nearest rank of percentile `p` (a fraction: `0.5`, `0.9`) in a
/// sample of `n ≥ 1`: `ceil(p·n)`, 1-based, clamped to `[1, n]`.
///
/// The product is nudged down by a few ulps before rounding up, so that
/// `0.9 × 100` (which is `90.00000000000001` in binary floating point)
/// lands on rank 90, not 91.
pub fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64;
    ((exact - exact.abs() * 1e-12).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample: the element at
/// [`rank`]. `None` when the sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Sort a sample ascending (total order: `INFINITY` sorts last).
pub fn sorted(mut sample: Vec<f64>) -> Vec<f64> {
    sample.sort_by(f64::total_cmp);
    sample
}

/// Nearest-rank median of an unsorted sample (`None` when empty).
pub fn median(sample: &[f64]) -> Option<f64> {
    percentile(&sorted(sample.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn one_sample() {
        assert_eq!(percentile(&[42.0], 0.5), Some(42.0));
        assert_eq!(percentile(&[42.0], 0.99), Some(42.0));
    }

    #[test]
    fn two_samples() {
        // Rank ceil(0.5·2) = 1: the smaller value. round((N−1)·p) would
        // say the larger one.
        assert_eq!(percentile(&[10.0, 20.0], 0.5), Some(10.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.9), Some(20.0));
    }

    #[test]
    fn four_samples() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.5), Some(20.0));
        assert_eq!(percentile(&s, 0.75), Some(30.0));
        assert_eq!(percentile(&s, 0.99), Some(40.0));
    }

    #[test]
    fn five_samples() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.5), Some(3.0), "odd N: the true median");
        assert_eq!(percentile(&s, 0.9), Some(5.0));
    }

    #[test]
    fn hundred_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0), "no float overshoot");
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0), "rank clamps to 1");
    }

    #[test]
    fn failures_are_infinitely_late() {
        let s = sorted(vec![f64::INFINITY, 1.0, 2.0, f64::INFINITY]);
        assert_eq!(percentile(&s, 0.5), Some(2.0));
        assert_eq!(percentile(&s, 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_seven_builds() {
        assert_eq!(median(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]), Some(4.0));
    }
}
