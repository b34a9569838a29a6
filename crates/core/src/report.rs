//! One-call rendering of every figure in the paper's evaluation.

use geoserp_analysis::{
    attribution, consistency, demographics, noise, personalization, significance, AnalysisOptions,
    ObsIndex,
};
use geoserp_corpus::QueryCategory;
use geoserp_crawler::Dataset;
use geoserp_geo::Granularity;
use geoserp_obs::ObsHub;

/// Run `f`, recording its host wall time into an `analysis.<name>_wall_us`
/// gauge when a hub is given. The `_wall_` marker keeps these out of
/// deterministic snapshots — analysis output itself is unaffected.
fn timed<T>(obs: Option<&ObsHub>, name: &str, f: impl FnOnce() -> T) -> T {
    let started = std::time::Instant::now();
    let out = f();
    if let Some(hub) = obs {
        hub.metrics()
            .gauge(&format!("analysis.{name}_wall_us"))
            .set(started.elapsed().as_micros() as i64);
    }
    out
}

/// One report section: the fixed header line plus a closure producing the
/// section body. The closures fan out over the index's worker pool and the
/// rendered strings are stitched back together in declaration order, so the
/// report bytes never depend on the worker count.
type Section<'a> = (&'a str, Box<dyn Fn() -> String + Send + Sync + 'a>);

/// Render the full report with explicit [`AnalysisOptions`].
///
/// The shared pairwise-comparison store is computed once, and the eleven
/// report sections fan out over a deterministic worker pool sized by
/// `options`. The differential battery in `tests/analysis_parallel.rs`
/// asserts the outputs are identical for every worker count.
pub fn full_report_with_options(
    dataset: &Dataset,
    obs: Option<&ObsHub>,
    options: &AnalysisOptions,
) -> String {
    let idx = timed(obs, "obs_index", || {
        ObsIndex::with_options(dataset, options, obs)
    });

    let mut out = String::new();
    out.push_str("================ geoserp study report ================\n");
    out.push_str(&format!(
        "observations: {}   distinct URLs: {}   failed jobs: {}\n\n",
        dataset.observations().len(),
        dataset.distinct_urls(),
        dataset.meta.failed_jobs
    ));

    let idx = &idx;
    let sections: Vec<Section<'_>> = vec![
        (
            "---- Fig. 2: noise by query type and granularity ----\n",
            Box::new(move || {
                let mut s = timed(obs, "fig2_noise", || {
                    noise::render_fig2(&noise::fig2_noise(idx))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- Fig. 3: noise per local term ----\n",
            Box::new(move || {
                let mut s = timed(obs, "fig3_noise_per_term", || {
                    noise::render_term_series(&noise::fig3_noise_per_term(
                        idx,
                        QueryCategory::Local,
                    ))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- Fig. 4: noise by result type (local, county) ----\n",
            Box::new(move || {
                let mut s = timed(obs, "fig4_noise_by_type", || {
                    attribution::render_fig4(&attribution::fig4_noise_by_type(
                        idx,
                        QueryCategory::Local,
                        Granularity::County,
                    ))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- Fig. 5: personalization vs noise floor ----\n",
            Box::new(move || {
                let mut s = timed(obs, "fig5_personalization", || {
                    personalization::render_fig5(&personalization::fig5_personalization(idx))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- Fig. 6: personalization per local term ----\n",
            Box::new(move || {
                let mut s = timed(obs, "fig6_personalization_per_term", || {
                    noise::render_term_series(&personalization::fig6_personalization_per_term(
                        idx,
                        QueryCategory::Local,
                    ))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- Fig. 7: personalization by result type ----\n",
            Box::new(move || {
                let mut s = timed(obs, "fig7_personalization_by_type", || {
                    attribution::render_fig7(&attribution::fig7_personalization_by_type(idx))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- per-component attribution (full SERP taxonomy) ----\n",
            Box::new(move || {
                let mut s = timed(obs, "component_attribution", || {
                    attribution::render_components(&attribution::component_attribution(idx))
                });
                s.push('\n');
                s
            }),
        ),
        (
            "---- Fig. 8: consistency over days (local queries) ----\n",
            Box::new(move || {
                let mut s = String::new();
                for panel in timed(obs, "fig8_consistency", || {
                    consistency::fig8_consistency(idx, QueryCategory::Local)
                }) {
                    s.push_str(&format!("[{}]\n", panel.granularity.label()));
                    s.push_str(&consistency::render_fig8(&panel));
                    s.push('\n');
                }
                s
            }),
        ),
        (
            "---- significance: personalization vs noise (permutation tests) ----\n",
            Box::new(move || {
                let sig = timed(obs, "significance", || {
                    significance::personalization_significance(
                        idx,
                        1_000,
                        geoserp_geo::Seed::new(dataset.meta.seed).derive("report-significance"),
                    )
                });
                let mut s = significance::render_significance(&sig);
                s.push('\n');
                s
            }),
        ),
        (
            "---- county-level location clusters (gap > 0.75 edit) ----\n",
            Box::new(move || {
                let mut s = String::new();
                if let Some(panel) = timed(obs, "fig8_clusters", || {
                    consistency::fig8_consistency(idx, QueryCategory::Local)
                        .into_iter()
                        .find(|p| p.granularity == Granularity::County)
                }) {
                    for (i, cluster) in significance::fig8_clusters(&panel, 0.75).iter().enumerate()
                    {
                        let names: Vec<String> = cluster
                            .members
                            .iter()
                            .map(|(_, n, m)| format!("{n} ({m:.1})"))
                            .collect();
                        s.push_str(&format!("cluster {}: {}\n", i + 1, names.join(", ")));
                    }
                }
                s.push('\n');
                s
            }),
        ),
        (
            "---- §3.2: demographic correlations (county granularity) ----\n",
            Box::new(move || {
                let demo = timed(obs, "demographics", || {
                    demographics::demographic_correlations(
                        idx,
                        QueryCategory::Local,
                        Granularity::County,
                    )
                });
                let mut s = demographics::render_demographics(&demo);
                s.push_str(&format!(
                    "max |pearson r| over demographic features: {:.3}\n",
                    demo.max_abs_feature_pearson()
                ));
                s
            }),
        ),
    ];

    let bodies = idx
        .pool()
        .map_indexed("analysis.figures", obs, &sections, |_, (_, body)| body());
    for ((header, _), body) in sections.iter().zip(bodies) {
        out.push_str(header);
        out.push_str(&body);
    }

    out
}

#[cfg(test)]
mod tests {
    use crate::study::Study;
    use geoserp_crawler::ExperimentPlan;

    #[test]
    fn report_mentions_every_figure() {
        let plan = ExperimentPlan {
            days: 2,
            queries_per_category: Some(3),
            locations_per_granularity: Some(3),
            ..ExperimentPlan::quick()
        };
        let study = Study::builder().seed(1).plan(plan).build().unwrap();
        let ds = study.run();
        let report = study.report(&ds);
        for needle in [
            "Fig. 2",
            "Fig. 3",
            "Fig. 4",
            "Fig. 5",
            "Fig. 6",
            "Fig. 7",
            "Fig. 8",
            "per-component attribution",
            "knowledge_panel",
            "organic (residual)",
            "demographic correlations",
            "County (Cuyahoga)",
            "noise floor",
        ] {
            assert!(report.contains(needle), "report missing {needle:?}");
        }
    }
}
