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
//! Run any of them with `cargo run --release -p geoserp-bench --bin figN`.
//! Scale is controlled by `GEOSERP_SCALE`:
//!
//! * `quick` — seconds; sanity check only;
//! * `medium` (default) — tens of seconds; shapes are stable;
//! * `full` — the paper's complete plan (240 queries × 59 locations ×
//!   2 roles × 5 days/block), minutes of wall clock.
//!
//! The world seed is `GEOSERP_SEED` (default 2015). A value of either
//! variable that does not parse is printed as an [`EnvError`] and the
//! binary exits with code 2. Performance is measured by the `perfbench`
//! package, not here.

use geoserp_core::prelude::*;
use std::fmt;

/// An environment value the regenerators refuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable, e.g. `GEOSERP_SCALE`.
    pub var: &'static str,
    /// The value as read.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Read `var` and parse it with `parse`. A refused value is printed as
/// `geoserp-bench: <error>` and the process exits with code 2.
fn env_or_exit<T>(var: &str, parse: fn(Option<&str>) -> Result<T, EnvError>) -> T {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("geoserp-bench: {e}");
        std::process::exit(2)
    })
}

/// Scale selected via the `GEOSERP_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Medium,
    Full,
}

impl Scale {
    /// Parse a `GEOSERP_SCALE` value; unset means `medium`.
    pub fn parse(value: Option<&str>) -> Result<Scale, EnvError> {
        match value {
            None | Some("medium") => Ok(Scale::Medium),
            Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(EnvError {
                var: "GEOSERP_SCALE",
                value: other.to_string(),
                expected: "quick|medium|full",
            }),
        }
    }

    /// Read `GEOSERP_SCALE`, exiting with code 2 on a refused value.
    pub fn from_env() -> Scale {
        env_or_exit("GEOSERP_SCALE", Scale::parse)
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

/// Parse a `GEOSERP_SEED` value; unset means 2015, the paper's year.
pub fn parse_seed(value: Option<&str>) -> Result<u64, EnvError> {
    match value {
        None => Ok(2015),
        Some(s) => s.parse().map_err(|_| EnvError {
            var: "GEOSERP_SEED",
            value: s.to_string(),
            expected: "an unsigned integer",
        }),
    }
}

/// The world seed every regenerator uses: `GEOSERP_SEED`, exiting with
/// code 2 on a refused value.
pub fn seed_from_env() -> u64 {
    env_or_exit("GEOSERP_SEED", parse_seed)
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
    fn env_values_parse_or_are_refused_with_a_typed_error() {
        assert_eq!(Scale::parse(None), Ok(Scale::Medium));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert_eq!(
            Scale::parse(Some("bogus")).unwrap_err().to_string(),
            "GEOSERP_SCALE=\"bogus\": expected quick|medium|full"
        );
        assert_eq!(parse_seed(None), Ok(2015));
        assert_eq!(parse_seed(Some("7")), Ok(7));
        // A letter O where a zero belongs is refused, not read as 2015.
        assert_eq!(
            parse_seed(Some("2O15")).unwrap_err().to_string(),
            "GEOSERP_SEED=\"2O15\": expected an unsigned integer"
        );
        for bad in ["", "-1", "2015 ", "18446744073709551616"] {
            assert!(parse_seed(Some(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
