//! Experiment plans: what to crawl, from where, how often.

use crate::dataset::fnv1a64;
use crate::retry::RetryPolicy;
use geoserp_corpus::QueryCategory;
use geoserp_geo::Granularity;
use serde::{Deserialize, Serialize};

/// A declarative crawl plan.
///
/// The schedule realizes the paper's §3 timeline: category *batches* run one
/// after another, and within a batch each granularity gets `days` consecutive
/// days; a batch's terms run once per day in lock-step with
/// `inter_query_wait_min` virtual minutes between terms; each `(term,
/// location)` pair is fetched twice simultaneously (treatment + control)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// Category batches, run sequentially (the paper used two:
    /// `[Local, Controversial]`, then `[Politician]`).
    pub batches: Vec<Vec<QueryCategory>>,
    /// Granularities crawled (each gets its own block of days per batch).
    pub granularities: Vec<Granularity>,
    /// Consecutive days per (batch, granularity) block.
    pub days: u32,
    /// Take only the first N queries per category (None = all). Quick plans
    /// subsample.
    pub queries_per_category: Option<usize>,
    /// Take only the first N locations per granularity (None = all).
    pub locations_per_granularity: Option<usize>,
    /// Virtual minutes between consecutive terms (11 defeats the 10-minute
    /// history window, §2.2).
    pub inter_query_wait_min: u64,
    /// Run on one crawl worker per available CPU
    /// (`CrawlBackend::WorkerPool`) instead of inline on the scheduler
    /// thread. Datasets are byte-identical either way; the workers are
    /// faster on multicore.
    pub parallel: bool,
    /// How jobs respond to transient failures: attempt budgets, ghost-time
    /// backoff, and the optional per-round deadline.
    pub retry: RetryPolicy,
}

impl ExperimentPlan {
    /// The paper's full 30-day study.
    pub fn paper_full() -> Self {
        ExperimentPlan {
            batches: vec![
                vec![QueryCategory::Local, QueryCategory::Controversial],
                vec![QueryCategory::Politician],
            ],
            granularities: vec![
                Granularity::County,
                Granularity::State,
                Granularity::National,
            ],
            days: 5,
            queries_per_category: None,
            locations_per_granularity: None,
            inter_query_wait_min: 11,
            parallel: true,
            retry: RetryPolicy::paper_default(),
        }
    }

    /// A scaled-down plan for tests and the quickstart example: a few
    /// queries per category, a few locations, 2 days.
    pub fn quick() -> Self {
        ExperimentPlan {
            batches: vec![
                vec![QueryCategory::Local, QueryCategory::Controversial],
                vec![QueryCategory::Politician],
            ],
            granularities: vec![
                Granularity::County,
                Granularity::State,
                Granularity::National,
            ],
            days: 2,
            queries_per_category: Some(4),
            locations_per_granularity: Some(5),
            inter_query_wait_min: 11,
            parallel: true,
            retry: RetryPolicy::paper_default(),
        }
    }

    /// A stable content hash of the plan (FNV-1a over its JSON form).
    /// Checkpoints store this so `resume` can refuse a plan other than the
    /// one the checkpoint was written under.
    pub fn stable_hash(&self) -> u64 {
        let json = serde_json::to_string(self).expect("plan serializes");
        fnv1a64(json.as_bytes())
    }

    /// Total days the plan's timeline spans.
    pub fn total_days(&self) -> u32 {
        self.batches.len() as u32 * self.granularities.len() as u32 * self.days
    }

    /// The absolute simulation day for (batch, granularity, day) indices.
    pub fn absolute_day(&self, batch_idx: usize, gran_idx: usize, day: u32) -> u32 {
        (batch_idx * self.granularities.len()) as u32 * self.days
            + gran_idx as u32 * self.days
            + day
    }

    /// Validate invariants; panics with a description on misuse.
    pub fn validate(&self) {
        assert!(!self.batches.is_empty(), "plan needs at least one batch");
        assert!(
            self.batches.iter().all(|b| !b.is_empty()),
            "batches must be non-empty"
        );
        assert!(
            !self.granularities.is_empty(),
            "plan needs at least one granularity"
        );
        assert!(self.days >= 1, "plan needs at least one day");
        assert!(
            self.queries_per_category != Some(0),
            "queries_per_category must be positive"
        );
        assert!(
            self.locations_per_granularity != Some(0),
            "locations_per_granularity must be positive"
        );
        self.retry.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_spans_thirty_days() {
        let p = ExperimentPlan::paper_full();
        p.validate();
        // 2 batches × 3 granularities × 5 days = the paper's "30 days of
        // search results".
        assert_eq!(p.total_days(), 30);
    }

    #[test]
    fn absolute_days_are_disjoint_blocks() {
        let p = ExperimentPlan::paper_full();
        assert_eq!(p.absolute_day(0, 0, 0), 0);
        assert_eq!(p.absolute_day(0, 0, 4), 4);
        assert_eq!(p.absolute_day(0, 1, 0), 5);
        assert_eq!(p.absolute_day(0, 2, 4), 14);
        assert_eq!(p.absolute_day(1, 0, 0), 15);
        assert_eq!(p.absolute_day(1, 2, 4), 29);
    }

    #[test]
    fn quick_plan_is_valid_and_small() {
        let p = ExperimentPlan::quick();
        p.validate();
        assert!(p.total_days() <= 12);
        assert!(p.queries_per_category.unwrap() <= 8);
    }

    #[test]
    fn stable_hash_tracks_every_field() {
        let base = ExperimentPlan::quick();
        assert_eq!(base.stable_hash(), ExperimentPlan::quick().stable_hash());
        assert_ne!(
            base.stable_hash(),
            ExperimentPlan::paper_full().stable_hash()
        );
        let mut retried = base.clone();
        retried.retry.max_attempts = 5;
        assert_ne!(
            base.stable_hash(),
            retried.stable_hash(),
            "retry policy is part of the plan identity"
        );
        let mut days = base.clone();
        days.days += 1;
        assert_ne!(base.stable_hash(), days.stable_hash());
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn empty_plan_rejected() {
        ExperimentPlan {
            batches: vec![],
            ..ExperimentPlan::quick()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "queries_per_category")]
    fn zero_queries_rejected() {
        ExperimentPlan {
            queries_per_category: Some(0),
            ..ExperimentPlan::quick()
        }
        .validate();
    }
}
