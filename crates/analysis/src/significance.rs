//! Statistical backing for the §3.2 claims.
//!
//! The paper compares personalization means against noise means by eye
//! ("very close to the noise-levels, making it difficult to claim that
//! these changes are due to personalization"). Here the comparison is a
//! seeded permutation test per (granularity, category) cell, plus bootstrap
//! confidence intervals for the figure means, and a simple gap-based
//! clustering of Figure 8's location lines (the clusters §3.2 then tries —
//! and fails — to explain with demographics).

use crate::consistency::Fig8Panel;
use crate::index::ObsIndex;
use crate::render::{f2, f3, table};
use geoserp_corpus::QueryCategory;
use geoserp_geo::{Granularity, LocationId, Seed};
use geoserp_metrics::{bootstrap_mean_ci, permutation_test, ConfidenceInterval};
use serde::Serialize;

/// One cell's personalization-vs-noise test.
#[derive(Debug, Clone, Serialize)]
pub struct SignificanceRow {
    /// The granularity.
    pub granularity: Granularity,
    /// The category.
    pub category: QueryCategory,
    /// Mean personalization edit distance (all treatment pairs).
    pub personalization_mean: f64,
    /// Mean noise edit distance (all treatment/control pairs).
    pub noise_mean: f64,
    /// Bootstrap 95 % CI of the personalization mean.
    pub personalization_ci: Option<ConfidenceInterval>,
    /// One-sided permutation p-value for personalization > noise.
    pub p_value: Option<f64>,
    /// Comparison counts `(personalization pairs, noise pairs)`.
    pub samples: (usize, usize),
}

impl SignificanceRow {
    /// The paper-style verdict at α = 0.01.
    pub fn personalized(&self) -> bool {
        self.p_value.is_some_and(|p| p < 0.01)
    }
}

/// Run the permutation test for every (granularity, category) cell.
///
/// `rounds` permutations per cell (1,000 is plenty for α = 0.01); fully
/// deterministic in `seed`. Every cell draws from its own derived seed
/// (`seed → granularity slug → category label`), and within a cell the
/// permutation test and the bootstrap each derive their own stream, so no
/// test's RNG stream depends on how many draws another consumed. That is
/// what lets the tests run on the index's [`geoserp_pool::DetPool`] without
/// changing a single p-value: each cell's samples are collected once, then
/// every permutation test and then every bootstrap is its own pool task,
/// which balances the workers better than one task per cell.
pub fn personalization_significance(
    idx: &ObsIndex<'_>,
    rounds: usize,
    seed: Seed,
) -> Vec<SignificanceRow> {
    let mut cells = Vec::new();
    for gran in idx.granularities() {
        for category in idx.categories() {
            let samples = CellSamples::collect(idx, (gran, category));
            cells.push((gran, category, samples));
        }
    }
    // Task `t < n` is cell `t`'s permutation test; task `n + t` is its
    // bootstrap.
    let n = cells.len();
    let tests: Vec<usize> = (0..2 * n).collect();
    let outcomes = idx
        .pool()
        .map_indexed("analysis.significance_tests", None, &tests, |_, &t| {
            let (gran, category, samples) = &cells[t % n];
            let cell_seed = seed.derive(gran.slug()).derive(category.label());
            if t < n {
                (samples.p_value(rounds, cell_seed), None)
            } else {
                (None, samples.ci(cell_seed))
            }
        });
    cells
        .iter()
        .enumerate()
        .map(|(t, (gran, category, samples))| {
            samples.row((*gran, *category), outcomes[n + t].1, outcomes[t].0)
        })
        .collect()
}

/// One cell's edit-distance samples.
struct CellSamples {
    pers: Vec<f64>,
    noise: Vec<f64>,
}

impl CellSamples {
    fn collect(idx: &ObsIndex<'_>, (gran, category): (Granularity, QueryCategory)) -> Self {
        let mut pers = Vec::new();
        idx.for_each_treatment_pair(gran, category, |a, b| {
            pers.push(idx.pair_edit(a, b));
        });
        let mut noise = Vec::new();
        idx.for_each_noise_pair(gran, category, |t, c| {
            noise.push(idx.pair_edit(t, c));
        });
        CellSamples { pers, noise }
    }

    fn p_value(&self, rounds: usize, cell_seed: Seed) -> Option<f64> {
        permutation_test(&self.pers, &self.noise, rounds, cell_seed).map(|t| t.p_value)
    }

    fn ci(&self, cell_seed: Seed) -> Option<ConfidenceInterval> {
        bootstrap_mean_ci(&self.pers, 0.95, 1_000, cell_seed)
    }

    fn row(
        &self,
        (granularity, category): (Granularity, QueryCategory),
        personalization_ci: Option<ConfidenceInterval>,
        p_value: Option<f64>,
    ) -> SignificanceRow {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        SignificanceRow {
            granularity,
            category,
            personalization_mean: mean(&self.pers),
            noise_mean: mean(&self.noise),
            personalization_ci,
            p_value,
            samples: (self.pers.len(), self.noise.len()),
        }
    }
}

/// One (granularity, category) significance cell, computed alone — the
/// reference for the RNG-order regression tests: computing a single cell in
/// isolation must equal the same row from the pooled full run.
pub fn significance_cell(
    idx: &ObsIndex<'_>,
    cell: (Granularity, QueryCategory),
    rounds: usize,
    seed: Seed,
) -> SignificanceRow {
    let samples = CellSamples::collect(idx, cell);
    let cell_seed = seed.derive(cell.0.slug()).derive(cell.1.label());
    samples.row(
        cell,
        samples.ci(cell_seed),
        samples.p_value(rounds, cell_seed),
    )
}

/// Render the significance table.
pub fn render_significance(rows: &[SignificanceRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.granularity.label().to_string(),
                r.category.label().to_string(),
                f2(r.personalization_mean),
                r.personalization_ci
                    .map(|ci| format!("[{}, {}]", f2(ci.low), f2(ci.high)))
                    .unwrap_or_else(|| "n/a".into()),
                f2(r.noise_mean),
                r.p_value.map(f3).unwrap_or_else(|| "n/a".into()),
                if r.personalized() { "YES" } else { "no" }.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "granularity",
            "category",
            "pers. edit",
            "95% CI",
            "noise edit",
            "p (perm.)",
            "personalized?",
        ],
        &body,
    )
}

/// A cluster of Figure-8 locations with similar distance-to-baseline.
#[derive(Debug, Clone, Serialize)]
pub struct LocationCluster {
    /// `(location, name, mean edit distance to baseline)`, ascending.
    pub members: Vec<(LocationId, String, f64)>,
}

impl LocationCluster {
    /// Mean of the members' means.
    pub fn center(&self) -> f64 {
        self.members.iter().map(|(_, _, m)| m).sum::<f64>() / self.members.len().max(1) as f64
    }
}

/// Gap-based 1-D clustering of a Figure-8 panel's location lines.
///
/// Locations are sorted by their mean edit distance to the baseline; a new
/// cluster starts wherever the gap to the previous location exceeds
/// `gap_threshold` (in edit-distance units). With the paper's county panel
/// this recovers the "some locations cluster at the county-level"
/// observation as an explicit grouping.
pub fn fig8_clusters(panel: &Fig8Panel, gap_threshold: f64) -> Vec<LocationCluster> {
    assert!(gap_threshold > 0.0, "gap threshold must be positive");
    let mut means: Vec<(LocationId, String, f64)> = panel
        .locations
        .iter()
        .map(|(id, name, series)| {
            let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
            (*id, name.clone(), mean)
        })
        .collect();
    means.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));

    let mut clusters: Vec<LocationCluster> = Vec::new();
    for entry in means {
        match clusters.last_mut() {
            Some(cluster) if entry.2 - cluster.members.last().unwrap().2 <= gap_threshold => {
                cluster.members.push(entry);
            }
            _ => clusters.push(LocationCluster {
                members: vec![entry],
            }),
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::fig8_consistency;
    use geoserp_crawler::{Crawler, Dataset, DatasetMeta, ExperimentPlan, Observation, Role};
    use geoserp_geo::{UsGeography, VantagePoints};
    use geoserp_serp::ResultType;

    fn empty_dataset() -> Dataset {
        let geo = UsGeography::generate(Seed::new(1));
        let vantage = VantagePoints::paper_defaults(&geo, Seed::new(1).derive("vp"));
        Dataset::new(vantage, DatasetMeta::default())
    }

    /// Two county locations × treatment+control, every SERP identical —
    /// all distances 0, so every statistic hits its zero-variance path.
    fn constant_dataset() -> Dataset {
        let mut ds = empty_dataset();
        let locs: Vec<_> = ds.vantage.county.iter().take(2).map(|l| l.id).collect();
        let results: Vec<_> = ["https://a/", "https://b/"]
            .iter()
            .map(|u| (ds.intern(u), ResultType::Organic))
            .collect();
        for loc in locs {
            for role in Role::BOTH {
                ds.push(Observation {
                    day: 0,
                    block_day: 0,
                    granularity: Granularity::County,
                    location: loc,
                    term: "pizza".into(),
                    category: QueryCategory::Local,
                    role,
                    results: results.clone(),
                    datacenter: "dc0".into(),
                    reported_location: "Cleveland, OH".into(),
                });
            }
        }
        ds
    }

    #[test]
    fn empty_dataset_yields_no_rows_without_panicking() {
        let ds = empty_dataset();
        let idx = ObsIndex::new(&ds);
        assert!(personalization_significance(&idx, 100, Seed::new(1)).is_empty());
    }

    #[test]
    fn constant_serps_give_defined_degenerate_statistics() {
        let ds = constant_dataset();
        let idx = ObsIndex::new(&ds);
        let rows = personalization_significance(&idx, 300, Seed::new(2));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.samples, (1, 2), "1 treatment pair, 2 noise pairs");
        assert_eq!(r.personalization_mean, 0.0);
        assert_eq!(r.noise_mean, 0.0);
        let ci = r.personalization_ci.expect("nonempty sample has a CI");
        assert_eq!((ci.low, ci.high), (0.0, 0.0), "zero-variance CI collapses");
        let p = r.p_value.expect("both samples nonempty");
        assert!(p > 0.9, "no effect in constant data: p = {p}");
        assert!(!r.personalized());
        // And the renderer survives the degenerate row.
        assert!(render_significance(&rows).contains("no"));
    }

    fn dataset() -> Dataset {
        let plan = ExperimentPlan {
            days: 2,
            queries_per_category: Some(6),
            locations_per_granularity: Some(8),
            ..ExperimentPlan::quick()
        };
        Crawler::new(Seed::new(2015)).run(&plan)
    }

    #[test]
    fn local_personalization_is_significant_politicians_not() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let rows = personalization_significance(&idx, 1_000, Seed::new(1));
        assert_eq!(rows.len(), 9);
        let get = |g: Granularity, c: QueryCategory| {
            rows.iter()
                .find(|r| r.granularity == g && r.category == c)
                .unwrap()
        };
        assert!(
            get(Granularity::State, QueryCategory::Local).personalized(),
            "state-level local must be significant: {:?}",
            get(Granularity::State, QueryCategory::Local).p_value
        );
        assert!(
            !get(Granularity::County, QueryCategory::Politician).personalized(),
            "county politicians must NOT be significant: {:?}",
            get(Granularity::County, QueryCategory::Politician).p_value
        );
    }

    #[test]
    fn significance_is_deterministic() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let a = personalization_significance(&idx, 400, Seed::new(7));
        let b = personalization_significance(&idx, 400, Seed::new(7));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.p_value, y.p_value);
        }
    }

    #[test]
    fn ci_brackets_mean() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        for r in personalization_significance(&idx, 200, Seed::new(3)) {
            if let Some(ci) = r.personalization_ci {
                assert!(ci.low <= r.personalization_mean + 1e-9);
                assert!(ci.high >= r.personalization_mean - 1e-9);
            }
        }
    }

    #[test]
    fn clustering_covers_all_locations_in_order() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let panels = fig8_consistency(&idx, QueryCategory::Local);
        let county = panels
            .iter()
            .find(|p| p.granularity == Granularity::County)
            .unwrap();
        let clusters = fig8_clusters(county, 0.75);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, county.locations.len());
        // Cluster centers strictly increase.
        for w in clusters.windows(2) {
            assert!(w[0].center() < w[1].center());
        }
    }

    #[test]
    fn tight_threshold_gives_more_clusters() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let panels = fig8_consistency(&idx, QueryCategory::Local);
        let p = &panels[0];
        let loose = fig8_clusters(p, 100.0).len();
        let tight = fig8_clusters(p, 0.05).len();
        assert_eq!(loose, 1);
        assert!(tight >= loose);
    }

    #[test]
    fn render_has_verdict_column() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let rows = personalization_significance(&idx, 200, Seed::new(5));
        let text = render_significance(&rows);
        assert!(text.contains("personalized?"));
        assert!(text.contains("YES") || text.contains("no"));
    }
}
