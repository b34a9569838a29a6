//! Golden paper-figure regression: one table-driven test that locks the
//! measured figures to the reference values in `geoserp::analysis::paper`.
//!
//! Every check is DERIVED from the reference tables (`FIG2_NOISE`,
//! `FIG5_PERSONALIZATION`, `facts`), not hand-written: whatever ordering or
//! dominance the paper's published bars encode, the reproduction's medium
//! run must reproduce. All checks are evaluated before any assertion fires,
//! so one failure report shows the full damage.

use geoserp::analysis::paper::{
    facts, fig2_reference, fig5_reference, ReferenceCell, FIG5_PERSONALIZATION,
};
use geoserp::analysis::{
    component_attribution, fig2_noise, fig4_noise_by_type, fig5_personalization,
    fig7_personalization_by_type, ObsIndex,
};
use geoserp::metrics;
use geoserp::prelude::*;

const GRANULARITIES: [Granularity; 3] = [
    Granularity::County,
    Granularity::State,
    Granularity::National,
];
const CATEGORIES: [QueryCategory; 3] = [
    QueryCategory::Local,
    QueryCategory::Controversial,
    QueryCategory::Politician,
];

fn medium_dataset() -> Dataset {
    let plan = ExperimentPlan {
        days: 2,
        queries_per_category: Some(12),
        locations_per_granularity: Some(10),
        ..ExperimentPlan::paper_full()
    };
    Study::builder()
        .seed(2015)
        .plan(plan)
        .build()
        .unwrap()
        .run()
}

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

#[test]
fn measured_figures_reproduce_the_reference_tables() {
    let ds = medium_dataset();
    let idx = ObsIndex::new(&ds);
    let fig2 = fig2_noise(&idx);
    let fig5 = fig5_personalization(&idx);
    let fig7 = fig7_personalization_by_type(&idx);

    let noise_of = |g: Granularity, c: QueryCategory| -> f64 {
        fig2.iter()
            .find(|r| r.granularity == g && r.category == c)
            .expect("fig2 covers every cell")
            .edit_distance
            .mean
    };
    let pers_of = |g: Granularity, c: QueryCategory| -> f64 {
        fig5.iter()
            .find(|r| r.granularity == g && r.category == c)
            .expect("fig5 covers every cell")
            .edit_distance
            .mean
    };
    let maps_frac = |g: Granularity, c: QueryCategory| -> f64 {
        fig7.iter()
            .find(|r| r.granularity == g && r.category == c)
            .expect("fig7 covers every cell")
            .maps_fraction()
    };

    let mut checks: Vec<Check> = Vec::new();

    // Fig. 2 / Fig. 5 category orderings: wherever the reference bars for
    // two categories differ by a decisive margin (≥ 2× in edit distance),
    // the measured means must be ordered the same way.
    type RefLookup<'a> = &'a dyn Fn(Granularity, QueryCategory) -> Option<&'static ReferenceCell>;
    for (fig, reference, measured) in [
        (
            "fig2",
            &fig2_reference as RefLookup<'_>,
            &noise_of as &dyn Fn(Granularity, QueryCategory) -> f64,
        ),
        (
            "fig5",
            &fig5_reference as RefLookup<'_>,
            &pers_of as &dyn Fn(Granularity, QueryCategory) -> f64,
        ),
    ] {
        for g in GRANULARITIES {
            for (i, &ca) in CATEGORIES.iter().enumerate() {
                for &cb in &CATEGORIES[i + 1..] {
                    let ra = reference(g, ca).expect("reference covers every cell");
                    let rb = reference(g, cb).expect("reference covers every cell");
                    let (hi, lo) = if ra.edit >= rb.edit {
                        (ca, cb)
                    } else {
                        (cb, ca)
                    };
                    let (rhi, rlo) = (ra.edit.max(rb.edit), ra.edit.min(rb.edit));
                    if rhi < rlo * 2.0 {
                        continue; // bars too close to read an ordering off
                    }
                    checks.push(Check {
                        name: format!("{fig}/{g:?}: {hi:?} edit > {lo:?} edit"),
                        ok: measured(g, hi) > measured(g, lo),
                        detail: format!(
                            "measured {:.2} vs {:.2} (reference {rhi} vs {rlo})",
                            measured(g, hi),
                            measured(g, lo)
                        ),
                    });
                }
            }
        }
    }

    // Fig. 5 divergence ordering: the reference local bars grow with
    // distance (county < state < national); the measured local means must
    // be ordered the same way wherever the reference gap is decisive
    // (≥ 2 edits — the 1-edit state↔national gap is within bar-reading
    // error, and the paper's own claim is about the county→state jump).
    for (i, &ga) in GRANULARITIES.iter().enumerate() {
        for &gb in &GRANULARITIES[i + 1..] {
            let ra = fig5_reference(ga, QueryCategory::Local).unwrap();
            let rb = fig5_reference(gb, QueryCategory::Local).unwrap();
            if (ra.edit - rb.edit).abs() < 2.0 {
                continue;
            }
            let (far, near) = if ra.edit > rb.edit {
                (ga, gb)
            } else {
                (gb, ga)
            };
            checks.push(Check {
                name: format!("fig5/local divergence: {far:?} > {near:?}"),
                ok: pers_of(far, QueryCategory::Local) > pers_of(near, QueryCategory::Local),
                detail: format!(
                    "measured {:.2} vs {:.2}",
                    pers_of(far, QueryCategory::Local),
                    pers_of(near, QueryCategory::Local)
                ),
            });
        }
    }

    // Personalization-above-noise: every reference cell where fig5's bar
    // clears fig2's by ≥ 2 edits must measure above its noise floor too.
    for r5 in FIG5_PERSONALIZATION {
        let r2 = fig2_reference(r5.granularity, r5.category).unwrap();
        if r5.edit < r2.edit + 2.0 {
            continue;
        }
        checks.push(Check {
            name: format!(
                "{:?}/{:?}: personalization clears the noise floor",
                r5.granularity, r5.category
            ),
            ok: pers_of(r5.granularity, r5.category) > noise_of(r5.granularity, r5.category),
            detail: format!(
                "measured pers {:.2} vs noise {:.2}",
                pers_of(r5.granularity, r5.category),
                noise_of(r5.granularity, r5.category)
            ),
        });
    }

    // Maps-card attribution dominance (§3.1/§3.2, facts::LOCAL_*_MAPS_SHARE):
    // Maps explains a double-digit share of LOCAL changes and must dominate
    // the Maps share of every other category at every granularity.
    let (maps_lo, _) = facts::LOCAL_PERS_MAPS_SHARE;
    for g in GRANULARITIES {
        let local = maps_frac(g, QueryCategory::Local);
        checks.push(Check {
            name: format!("fig7/{g:?}: local Maps share is substantial"),
            ok: local >= maps_lo / 2.0 && local <= 0.6,
            detail: format!("measured {local:.3}, reference ≥ {maps_lo}"),
        });
        for c in [QueryCategory::Controversial, QueryCategory::Politician] {
            checks.push(Check {
                name: format!("fig7/{g:?}: local Maps share dominates {c:?}"),
                ok: local > maps_frac(g, c),
                detail: format!("local {local:.3} vs {c:?} {:.3}", maps_frac(g, c)),
            });
        }
    }

    assert!(
        checks.len() >= 20,
        "the reference tables should yield a substantial battery, got {}",
        checks.len()
    );
    let failures: Vec<String> = checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("  FAIL {} — {}", c.name, c.detail))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} paper-figure checks failed:\n{}",
        failures.len(),
        checks.len(),
        failures.join("\n")
    );
}

/// The taxonomy widening must be a pure superset on Paper data: the four
/// rich component rows are exactly zero, and the widened per-pair kernel
/// reproduces the legacy Maps/News attribution (and through it Figures 4
/// and 7) bit for bit.
#[test]
fn per_component_rows_reduce_to_maps_news_on_paper_data() {
    let plan = ExperimentPlan {
        days: 2,
        queries_per_category: Some(6),
        locations_per_granularity: Some(6),
        ..ExperimentPlan::paper_full()
    };
    let ds = Study::builder()
        .seed(2015)
        .plan(plan)
        .build()
        .unwrap()
        .run();
    let idx = ObsIndex::new(&ds);

    let comp = component_attribution(&idx);
    assert_eq!(comp.rows.len(), ResultType::META.len());
    assert_eq!(comp.rows[0].rtype, ResultType::Maps);
    assert_eq!(comp.rows[1].rtype, ResultType::News);
    for r in &comp.rows[2..] {
        assert_eq!(r.noise, 0.0, "paper data has no {} noise", r.rtype);
        assert_eq!(
            r.personalization, 0.0,
            "paper data has no {} personalization",
            r.rtype
        );
    }

    // Pair-by-pair bit-identity between the legacy two-label kernel and
    // the widened one, over every comparison discipline — and between the
    // index's cached id-based answers and the string kernels of
    // `geoserp::metrics` over the same pages' URL lists.
    for g in GRANULARITIES {
        for c in CATEGORIES {
            let check = |a: &_, b: &_| {
                let (t, m, n, o) = idx.pair_attribution(a, b);
                let (t_meta, meta, residual) = idx.pair_attribution_meta(a, b);
                assert_eq!((t, m, n), (t_meta, meta[0], meta[1]));
                assert_eq!(meta[2..], [0, 0, 0, 0], "rich sublists are empty");
                assert_eq!(residual, o, "residuals coincide when rich is zero");

                let (ua, ub) = (idx.urls(a), idx.urls(b));
                let (jaccard, edit) =
                    (metrics::jaccard(&ua, &ub), metrics::edit_distance(&ua, &ub));
                assert_eq!(idx.pair_urls_stat(a, b), (jaccard, edit as f64));
                assert_eq!(idx.pair_edit(a, b), edit as f64);
                assert_eq!(idx.pair_jaccard(a, b), jaccard);
                let (ta, tb) = (idx.typed(a), idx.typed(b));
                let two = metrics::attribution(&ta, &tb, &ResultType::Maps, &ResultType::News);
                assert_eq!((t, m, n, o), (two.total, two.maps, two.news, two.other));
                let by = metrics::attribution_by(&ta, &tb, &ResultType::META);
                assert_eq!(
                    (t_meta, &meta[..], residual),
                    (by.total, &by.by_type[..], by.other)
                );
            };
            idx.for_each_noise_pair(g, c, &check);
            idx.for_each_treatment_pair(g, c, check);
        }
    }

    // And the figures built on that kernel still cover their cells.
    let fig4 = fig4_noise_by_type(&idx, QueryCategory::Local, Granularity::County);
    assert_eq!(fig4.len(), 6);
    let fig7 = fig7_personalization_by_type(&idx);
    assert_eq!(fig7.len(), 9);
    for r in &fig7 {
        assert!(r.pairs > 0);
    }
}
