//! The [`Study`] builder: seed + engine config + plan → world → dataset.

use geoserp_analysis::AnalysisOptions;
use geoserp_crawler::{
    run_validation, CrawlProgress, Crawler, Dataset, ExperimentPlan, ValidationReport,
};
use geoserp_engine::{ConfigError, EngineConfig};
use geoserp_geo::Seed;

/// A configured reproduction study.
///
/// Holds the three inputs that fully determine a run: the world [`Seed`],
/// the [`EngineConfig`], and the [`ExperimentPlan`] — plus the
/// [`AnalysisOptions`] that steer how the report is computed (worker count;
/// never what it contains). Construction is cheap; the world is built lazily
/// by [`Study::crawler`] / [`Study::run`].
#[derive(Debug, Clone)]
pub struct Study {
    seed: Seed,
    engine_config: EngineConfig,
    plan: ExperimentPlan,
    analysis: AnalysisOptions,
}

/// Builder for [`Study`].
#[derive(Debug, Clone)]
pub struct StudyBuilder {
    seed: Seed,
    engine_config: EngineConfig,
    plan: ExperimentPlan,
    analysis: AnalysisOptions,
}

impl Default for StudyBuilder {
    fn default() -> Self {
        StudyBuilder {
            seed: Seed::new(2015),
            engine_config: EngineConfig::paper_defaults(),
            plan: ExperimentPlan::quick(),
            analysis: AnalysisOptions::default(),
        }
    }
}

impl StudyBuilder {
    /// Set the world seed (same seed ⇒ byte-identical dataset).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Seed::new(seed);
        self
    }

    /// Replace the engine configuration (ablations).
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Replace the experiment plan.
    pub fn plan(mut self, plan: ExperimentPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Use the scaled-down smoke-test plan (the default).
    pub fn quick(mut self) -> Self {
        self.plan = ExperimentPlan::quick();
        self
    }

    /// Use the paper's full 30-day plan (240 queries × 59 locations ×
    /// treatment+control × 5 days per block — minutes of wall-clock).
    pub fn paper_full(mut self) -> Self {
        self.plan = ExperimentPlan::paper_full();
        self
    }

    /// Replace the full [`AnalysisOptions`].
    pub fn analysis_options(mut self, options: AnalysisOptions) -> Self {
        self.analysis = options;
        self
    }

    /// Finalize.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if the engine configuration violates an
    /// invariant (see [`EngineConfig::validate`]). Plan invariants are
    /// internal (every constructor upholds them) and still assert.
    pub fn build(self) -> Result<Study, ConfigError> {
        self.plan.validate();
        self.engine_config.validate()?;
        Ok(Study {
            seed: self.seed,
            engine_config: self.engine_config,
            plan: self.plan,
            analysis: self.analysis,
        })
    }
}

impl Study {
    /// Start building a study.
    pub fn builder() -> StudyBuilder {
        StudyBuilder::default()
    }

    /// The study's world seed.
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// The engine configuration in force.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine_config
    }

    /// The experiment plan.
    pub fn plan(&self) -> &ExperimentPlan {
        &self.plan
    }

    /// The analysis options in force.
    pub fn analysis_options(&self) -> &AnalysisOptions {
        &self.analysis
    }

    /// Build the world (geography, corpus, engine, network, machine pool).
    pub fn crawler(&self) -> Crawler {
        Crawler::with_config(self.seed, self.engine_config.clone())
    }

    /// Build the world reporting into a caller-supplied observability hub,
    /// shared by the engine, the network simulator, and the crawler — one
    /// snapshot then covers the whole pipeline.
    pub fn crawler_with_obs(&self, obs: std::sync::Arc<geoserp_obs::ObsHub>) -> Crawler {
        Crawler::with_config_faults_and_obs(self.seed, self.engine_config.clone(), 0.0, 0.0, obs)
    }

    /// Build the world and execute the plan.
    pub fn run(&self) -> Dataset {
        self.crawler().run(&self.plan)
    }

    /// Like [`Study::run`], with a per-round progress callback (runs on the
    /// scheduler thread between rounds, so it cannot perturb determinism).
    pub fn run_with_progress(&self, progress: impl Fn(&CrawlProgress)) -> Dataset {
        self.crawler().run_with_progress(&self.plan, progress)
    }

    /// Run the §2.2 validation experiment (GPS vs IP geolocation) with
    /// `machines` PlanetLab-style vantage machines over `queries`
    pub fn validate(&self, machines: usize, queries: usize) -> ValidationReport {
        run_validation(
            self.seed.derive("validation"),
            self.engine_config.clone(),
            machines,
            queries,
        )
    }

    /// Render the full per-figure report for a dataset collected by this
    /// study, honoring the study's [`AnalysisOptions`] (see
    /// [`crate::report::full_report_with_options`]).
    pub fn report(&self, dataset: &Dataset) -> String {
        crate::report::full_report_with_options(dataset, None, &self.analysis)
    }

    /// Like [`Study::report`], recording per-figure compute time into
    /// `analysis.*` gauges on the given hub.
    pub fn report_with_obs(&self, dataset: &Dataset, obs: &geoserp_obs::ObsHub) -> String {
        crate::report::full_report_with_options(dataset, Some(obs), &self.analysis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_crawler::Role;

    #[test]
    fn builder_defaults_are_quick_paper_engine() {
        let s = Study::builder().build().unwrap();
        assert!(s.engine_config().noise_enabled);
        assert_eq!(s.plan().days, 2);
        assert_eq!(s.seed().value(), 2015);
    }

    #[test]
    fn builder_overrides_apply() {
        let s = Study::builder()
            .seed(7)
            .engine_config(EngineConfig::noiseless())
            .paper_full()
            .build()
            .unwrap();
        assert!(!s.engine_config().noise_enabled);
        assert_eq!(s.plan().total_days(), 30);
        assert_eq!(s.seed().value(), 7);
    }

    #[test]
    fn run_produces_treatments_and_controls() {
        let plan = ExperimentPlan {
            days: 1,
            queries_per_category: Some(2),
            locations_per_granularity: Some(2),
            ..ExperimentPlan::quick()
        };
        let s = Study::builder().seed(3).plan(plan).build().unwrap();
        let ds = s.run();
        assert!(!ds.observations().is_empty());
        assert!(ds.observations().iter().any(|o| o.role == Role::Treatment));
        assert!(ds.observations().iter().any(|o| o.role == Role::Control));
    }

    #[test]
    fn validation_via_facade() {
        let s = Study::builder().seed(5).build().unwrap();
        let report = s.validate(6, 2);
        assert_eq!(report.machines, 6);
        assert!(report.gps_mean_pairwise_jaccard > 0.8);
    }
}
