#![warn(missing_docs)]
//! # geoserp-metrics — page-comparison metrics and statistics
//!
//! §2.3 of the paper compares pages of search results with two metrics:
//!
//! * **Jaccard index** over the *sets* of result URLs — 1.0 means the same
//!   results (possibly reordered), 0.0 means disjoint pages;
//! * **edit distance** over the *ordered lists* of result URLs — "the number
//!   of additions, deletions, and swaps necessary to make two lists
//!   identical", which we implement as Optimal String Alignment (OSA)
//!   distance: insertions, deletions, substitutions, and adjacent
//!   transpositions, all unit cost. Plain Levenshtein (no transpositions) is
//!   also provided for the metric-sensitivity ablation.
//!
//! §3.1/3.2 additionally *attribute* differences to result types ("the
//! amount of noise that can be attributed to search results of [type t]":
//! Jaccard/edit distance recomputed after filtering both pages to type *t*,
//! divided by the overall change count) — see [`attribution`].
//!
//! The [`stats`] module has the summary statistics (mean/stddev for the
//! figures' error bars) and the Pearson/Spearman correlations used by the
//! §3.2 demographics analysis.

pub mod compare;
pub mod inference;
pub mod stats;

pub use compare::{
    attribution, attribution_by, edit_distance, jaccard, levenshtein, MultiTypeBreakdown,
    PageComparison, TypeBreakdown,
};
pub use inference::{bootstrap_mean_ci, permutation_test, ConfidenceInterval, PermutationTest};
pub use stats::{mean, pearson, spearman, stddev, Summary};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn url_lists() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        // Small alphabets maximize collisions/reorderings.
        (
            proptest::collection::vec(0u8..8, 0..20),
            proptest::collection::vec(0u8..8, 0..20),
        )
    }

    fn sample_side() -> impl Strategy<Value = Vec<f64>> {
        // Integer-valued f64 samples: small range forces ties, which are the
        // interesting edge for the permutation-count properties below.
        proptest::collection::vec((-8i8..8).prop_map(f64::from), 1..10)
    }

    proptest! {
        #[test]
        fn jaccard_bounds_and_symmetry((a, b) in url_lists()) {
            let j = jaccard(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
            prop_assert!((j - jaccard(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn jaccard_identity(a in proptest::collection::vec(0u8..8, 0..20)) {
            prop_assert_eq!(jaccard(&a, &a), 1.0);
        }

        #[test]
        fn edit_distance_is_a_metric((a, b) in url_lists()) {
            let d = edit_distance(&a, &b);
            prop_assert_eq!(edit_distance(&b, &a), d, "symmetry");
            prop_assert_eq!(edit_distance(&a, &a), 0, "identity");
            if a != b {
                prop_assert!(d > 0, "distinct lists have positive distance");
            }
        }

        #[test]
        fn edit_distance_triangle((a, b) in url_lists(), c in proptest::collection::vec(0u8..8, 0..20)) {
            // OSA violates the triangle inequality only in pathological
            // repeated-transposition cases (e.g. "ca","abc","acb"); allow
            // slack of 1 which covers those while still catching real bugs.
            let ab = edit_distance(&a, &b);
            let bc = edit_distance(&b, &c);
            let ac = edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc + 1, "ac={ac} ab={ab} bc={bc}");
        }

        #[test]
        fn edit_distance_upper_bound((a, b) in url_lists()) {
            prop_assert!(edit_distance(&a, &b) <= a.len().max(b.len()));
        }

        #[test]
        fn osa_never_exceeds_levenshtein((a, b) in url_lists()) {
            prop_assert!(edit_distance(&a, &b) <= levenshtein(&a, &b));
        }

        #[test]
        fn jaccard_is_one_iff_equal_sets((a, b) in url_lists()) {
            use std::collections::HashSet;
            let j = jaccard(&a, &b);
            let sa: HashSet<u8> = a.iter().copied().collect();
            let sb: HashSet<u8> = b.iter().copied().collect();
            if sa == sb {
                prop_assert_eq!(j, 1.0, "equal sets must score exactly 1");
            } else {
                prop_assert!(j < 1.0, "distinct sets {sa:?} vs {sb:?} scored 1");
            }
        }

        #[test]
        fn permutation_p_value_bounds_and_determinism(
            a in sample_side(),
            b in sample_side(),
            rounds in 1usize..120,
            seed in 0u64..u64::MAX,
        ) {
            let s = geoserp_geo::Seed::new(seed);
            let t = permutation_test(&a, &b, rounds, s).unwrap();
            // Add-one smoothing bounds: p ∈ [1/(rounds+1), 1].
            let lo = 1.0 / (rounds as f64 + 1.0);
            prop_assert!(t.p_value >= lo && t.p_value <= 1.0, "p = {}", t.p_value);
            prop_assert_eq!(t.rounds, rounds);
            let again = permutation_test(&a, &b, rounds, s).unwrap();
            prop_assert_eq!(t, again, "same seed must reproduce the test");
        }

        #[test]
        fn permutation_observed_diff_flips_sign_on_swap(
            a in sample_side(),
            b in sample_side(),
            seed in 0u64..u64::MAX,
        ) {
            let s = geoserp_geo::Seed::new(seed);
            let ab = permutation_test(&a, &b, 50, s).unwrap();
            let ba = permutation_test(&b, &a, 50, s).unwrap();
            // IEEE subtraction is exactly antisymmetric, so this is == not ≈.
            prop_assert_eq!(ba.observed_diff, -ab.observed_diff);
        }

        #[test]
        fn permutation_sign_flip_complements_the_p_value(
            a in sample_side(),
            b in sample_side(),
            rounds in 1usize..120,
            seed in 0u64..u64::MAX,
        ) {
            // Negating every value flips the tested direction. With the same
            // seed the shuffles visit the same positions, so each permuted
            // difference is exactly negated, and every round lands in at
            // least one of the two counts (both when it ties the observed):
            //   p(a,b) + p(-a,-b) ∈ [(rounds+2)/(rounds+1), 2].
            let s = geoserp_geo::Seed::new(seed);
            let na: Vec<f64> = a.iter().map(|x| -x).collect();
            let nb: Vec<f64> = b.iter().map(|x| -x).collect();
            let p = permutation_test(&a, &b, rounds, s).unwrap().p_value;
            let q = permutation_test(&na, &nb, rounds, s).unwrap().p_value;
            let lo = (rounds as f64 + 2.0) / (rounds as f64 + 1.0);
            prop_assert!(p + q >= lo - 1e-12, "p = {p}, q = {q}");
            prop_assert!(p + q <= 2.0 + 1e-12, "p = {p}, q = {q}");
        }

        #[test]
        fn swap_costs_one(mut a in proptest::collection::vec(0u8..100, 2..20)) {
            // Make all elements distinct so the swap is a genuine transposition.
            for (i, x) in a.iter_mut().enumerate() { *x = i as u8; }
            let mut b = a.clone();
            let i = 3.min(b.len() - 2);
            b.swap(i, i + 1);
            if a != b {
                prop_assert_eq!(edit_distance(&a, &b), 1);
                prop_assert_eq!(levenshtein(&a, &b), 2, "levenshtein pays 2 for a swap");
            }
        }
    }
}
