//! Statistical inference for measurement comparisons.
//!
//! The paper hedges where its means sit close together: controversial and
//! politician "Jaccard and edit distance values are very close to the
//! noise-levels, making it difficult to claim that these changes are due to
//! personalization" (§3.2). This module makes that judgement quantitative:
//!
//! * [`permutation_test`] — is the mean of sample A greater than the mean of
//!   sample B beyond what label-shuffling explains? Used to test
//!   *personalization > noise* per (category, granularity) cell;
//! * [`bootstrap_mean_ci`] — percentile bootstrap confidence interval for a
//!   mean (error bars with distribution-free coverage).
//!
//! All resampling is seeded ([`geoserp_geo::Seed`]) — inference is as
//! reproducible as the measurements.

use geoserp_geo::Seed;

/// Result of a one-sided two-sample permutation test of
/// `mean(a) > mean(b)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PermutationTest {
    /// Observed difference of means, `mean(a) - mean(b)`.
    pub observed_diff: f64,
    /// Fraction of label permutations with a difference at least as large
    /// (add-one smoothed, so never exactly zero).
    pub p_value: f64,
    /// Permutations drawn.
    pub rounds: usize,
}

impl PermutationTest {
    /// Conventional significance at a given level.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// One-sided two-sample permutation test of `mean(a) > mean(b)`.
///
/// Returns `None` when either sample is empty. `rounds` of 1,000–10,000 are
/// typical; the p-value is add-one smoothed (`(k+1)/(rounds+1)`).
pub fn permutation_test(
    a: &[f64],
    b: &[f64],
    rounds: usize,
    seed: Seed,
) -> Option<PermutationTest> {
    if a.is_empty() || b.is_empty() || rounds == 0 {
        return None;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let observed = mean(a) - mean(b);

    let mut pooled: Vec<f64> = Vec::with_capacity(a.len() + b.len());
    pooled.extend_from_slice(a);
    pooled.extend_from_slice(b);
    let na = a.len();

    let mut rng = seed.derive("permutation-test").rng();
    let mut at_least = 0usize;
    for _ in 0..rounds {
        rng.shuffle(&mut pooled);
        let ma = mean(&pooled[..na]);
        let mb = mean(&pooled[na..]);
        if ma - mb >= observed {
            at_least += 1;
        }
    }
    Some(PermutationTest {
        observed_diff: observed,
        p_value: (at_least + 1) as f64 / (rounds + 1) as f64,
        rounds,
    })
}

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConfidenceInterval {
    /// The mean.
    pub mean: f64,
    /// The low.
    pub low: f64,
    /// The high.
    pub high: f64,
    /// Nominal coverage, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// True if the interval excludes a reference value.
    pub fn excludes(&self, value: f64) -> bool {
        value < self.low || value > self.high
    }
}

/// Percentile bootstrap CI for the mean of `xs`.
///
/// Returns `None` for an empty sample. `resamples` of ~1,000 is typical.
pub fn bootstrap_mean_ci(
    xs: &[f64],
    level: f64,
    resamples: usize,
    seed: Seed,
) -> Option<ConfidenceInterval> {
    if xs.is_empty() || resamples == 0 {
        return None;
    }
    assert!(
        (0.0..1.0).contains(&level) && level > 0.5,
        "level in (0.5, 1)"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut rng = seed.derive("bootstrap").rng();
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let s: f64 = (0..xs.len()).map(|_| xs[rng.below(xs.len())]).sum();
            s / xs.len() as f64
        })
        .collect();
    means.sort_by(|x, y| x.total_cmp(y));
    let tail = (1.0 - level) / 2.0;
    let lo_idx = ((resamples as f64) * tail).floor() as usize;
    let hi_idx = (((resamples as f64) * (1.0 - tail)).ceil() as usize).min(resamples - 1);
    Some(ConfidenceInterval {
        mean: mean(xs),
        low: means[lo_idx],
        high: means[hi_idx],
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> Seed {
        Seed::new(99)
    }

    #[test]
    fn permutation_detects_clear_separation() {
        let a: Vec<f64> = (0..40).map(|i| 10.0 + (i % 5) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| 1.0 + (i % 5) as f64).collect();
        let t = permutation_test(&a, &b, 2_000, seed()).unwrap();
        assert!(t.observed_diff > 8.0);
        assert!(t.significant_at(0.01), "p = {}", t.p_value);
    }

    #[test]
    fn permutation_accepts_null_when_identical() {
        let a: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let b = a.clone();
        let t = permutation_test(&a, &b, 2_000, seed()).unwrap();
        assert!(!t.significant_at(0.05), "p = {}", t.p_value);
        assert!(t.p_value > 0.2);
    }

    #[test]
    fn permutation_edge_cases() {
        assert!(permutation_test(&[], &[1.0], 100, seed()).is_none());
        assert!(permutation_test(&[1.0], &[], 100, seed()).is_none());
        assert!(permutation_test(&[1.0], &[2.0], 0, seed()).is_none());
    }

    #[test]
    fn permutation_is_deterministic() {
        let a = [3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let t1 = permutation_test(&a, &b, 500, seed()).unwrap();
        let t2 = permutation_test(&a, &b, 500, seed()).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean() {
        let xs: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let ci = bootstrap_mean_ci(&xs, 0.95, 1_000, seed()).unwrap();
        assert!(ci.low <= ci.mean && ci.mean <= ci.high);
        assert!((ci.mean - 4.5).abs() < 1e-9);
        // Width shrinks as ~1/sqrt(n): for n=200, sd≈2.87 → ±~0.4.
        assert!(ci.high - ci.low < 1.2, "CI too wide: {ci:?}");
        assert!(ci.excludes(0.0));
        assert!(!ci.excludes(4.5));
    }

    #[test]
    fn bootstrap_singleton_is_degenerate() {
        let ci = bootstrap_mean_ci(&[7.0], 0.9, 100, seed()).unwrap();
        assert_eq!(ci.low, 7.0);
        assert_eq!(ci.high, 7.0);
    }

    #[test]
    fn bootstrap_constant_sample_collapses_to_zero_width() {
        let xs = [3.5; 40];
        let ci = bootstrap_mean_ci(&xs, 0.95, 500, seed()).unwrap();
        assert_eq!((ci.mean, ci.low, ci.high), (3.5, 3.5, 3.5));
        assert!(!ci.excludes(3.5));
        assert!(ci.excludes(3.4));
    }

    #[test]
    fn permutation_on_constant_samples_is_defined_and_null() {
        // Zero variance on both sides: every permuted difference ties the
        // observed 0, so the add-one-smoothed p-value is exactly 1.
        let t = permutation_test(&[2.0; 10], &[2.0; 8], 500, seed()).unwrap();
        assert_eq!(t.observed_diff, 0.0);
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn bootstrap_edge_cases() {
        assert!(bootstrap_mean_ci(&[], 0.95, 100, seed()).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 0.95, 0, seed()).is_none());
    }

    #[test]
    #[should_panic(expected = "level")]
    fn bootstrap_rejects_silly_level() {
        bootstrap_mean_ci(&[1.0, 2.0], 0.3, 100, seed());
    }
}
