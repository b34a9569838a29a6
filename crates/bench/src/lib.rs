//! # geoserp-bench — regenerate every table and figure of the paper
//!
//! One binary per artifact of the paper's evaluation:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — example controversial search terms |
//! | `fig1` | Figure 1 — an example mobile SERP (rendered + parsed) |
//! | `fig2` | Figure 2 — noise by query type × granularity |
//! | `fig3` | Figure 3 — noise per local term |
//! | `fig4` | Figure 4 — noise attributed to Maps/News |
//! | `fig5` | Figure 5 — personalization vs the noise floor |
//! | `fig6` | Figure 6 — personalization per local term |
//! | `fig7` | Figure 7 — personalization by result type |
//! | `fig8` | Figure 8 — consistency over days |
//! | `validation` | §2.2 — the PlanetLab GPS-vs-IP validation |
//! | `demographics` | §3.2 — demographic correlations (the null result) |
//! | `ablations` | DESIGN.md's design-choice ablations |
//!
//! Two benchmarks write JSON artifacts instead: `index_scale` races the
//! exact vs compressed index backends across corpus scales (byte-identity
//! asserted before timing) into `BENCH_index.json`, and `obs_overhead`
//! times instrumented vs no-op observability into `BENCH_obs.json`. The
//! default binary, `geoserp-bench check <serve|obs|index> <fresh>
//! <baseline>`, is the CI perf gate over those artifacts and the serve
//! load matrix's `BENCH_serve.json` (see [`check`]). End-to-end crawl and
//! analysis throughput is measured by the `perfbench` package instead.
//!
//! Run any of them with `cargo run --release -p geoserp-bench --bin figN`.
//! Scale is controlled by `GEOSERP_SCALE`:
//!
//! * `quick` — seconds; sanity check only;
//! * `medium` (default) — tens of seconds; shapes are stable;
//! * `full` — the paper's complete plan (240 queries × 59 locations ×
//!   2 roles × 5 days/block), minutes of wall clock.

pub mod check;

use geoserp_core::prelude::*;

/// Scale selected via the `GEOSERP_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Medium,
    Full,
}

impl Scale {
    /// Read `GEOSERP_SCALE` (default `medium`). Unknown values panic with a
    /// usage hint.
    pub fn from_env() -> Scale {
        match std::env::var("GEOSERP_SCALE").as_deref() {
            Err(_) | Ok("medium") => Scale::Medium,
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            Ok(other) => panic!("GEOSERP_SCALE={other}; expected quick|medium|full"),
        }
    }

    /// The experiment plan at this scale.
    pub fn plan(self) -> ExperimentPlan {
        match self {
            Scale::Quick => ExperimentPlan {
                days: 2,
                queries_per_category: Some(6),
                locations_per_granularity: Some(6),
                ..ExperimentPlan::paper_full()
            },
            Scale::Medium => ExperimentPlan {
                days: 3,
                queries_per_category: Some(16),
                locations_per_granularity: Some(12),
                ..ExperimentPlan::paper_full()
            },
            Scale::Full => ExperimentPlan::paper_full(),
        }
    }

    /// Human label for banners.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Full => "full (paper scale)",
        }
    }
}

/// The world seed every regenerator uses (override with `GEOSERP_SEED`).
pub fn seed_from_env() -> u64 {
    std::env::var("GEOSERP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2015)
}

/// Build the study and dataset shared by the figure regenerators, printing
/// a banner with provenance.
pub fn standard_dataset(figure: &str) -> (Study, Dataset) {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let study = Study::builder()
        .seed(seed)
        .plan(scale.plan())
        .build()
        .unwrap();
    eprintln!(
        "[geoserp-bench] {figure}: scale={} seed={seed} — crawling…",
        scale.label()
    );
    let started = std::time::Instant::now();
    let dataset = study.run();
    eprintln!(
        "[geoserp-bench] collected {} SERPs in {:.1?}\n",
        dataset.observations().len(),
        started.elapsed()
    );
    (study, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_plans() {
        for s in [Scale::Quick, Scale::Medium, Scale::Full] {
            s.plan().validate();
        }
        assert_eq!(Scale::Full.plan().total_days(), 30);
    }

    #[test]
    fn default_seed_is_paper_year() {
        // (Only holds when GEOSERP_SEED is unset, as in CI.)
        if std::env::var("GEOSERP_SEED").is_err() {
            assert_eq!(seed_from_env(), 2015);
        }
    }
}
