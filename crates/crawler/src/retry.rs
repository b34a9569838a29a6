//! Retry policy: attempt budgets and deterministic virtual-time backoff.
//!
//! The paper's crawler simply re-ran failed page loads; early versions of
//! this crate hard-coded that as "3 attempts, no wait". [`RetryPolicy`]
//! makes the budget explicit and adds exponential backoff measured on the
//! *virtual* timeline, so a lossy-network crawl has a bounded, computable
//! worst-case duration per round — the property the fault-matrix tests
//! assert.
//!
//! Backoff runs on a per-job ghost timeline: a real crawler would sleep
//! between attempts, but advancing the shared [`VirtualClock`] mid-round
//! would perturb the other jobs of the lock-step round (every fetch of a
//! round happens at the same virtual instant). The ghost elapsed time is
//! accounted, saturating, in `DatasetMeta` (`backoff_ms`,
//! `max_job_backoff_ms`) and is what [`RetryPolicy::round_deadline_ms`]
//! bounds: a job that cannot afford its next backoff within the deadline
//! degrades gracefully to a recorded `failed_job` instead of wedging the
//! round.
//!
//! [`VirtualClock`]: geoserp_net::VirtualClock

use serde::{Deserialize, Serialize};

/// How a crawl job responds to transient failures (drops, corrupted
/// bodies). The defaults reproduce the historical hard-coded behaviour
/// exactly, so clean-network datasets are byte-identical across versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Fetch attempts per job, including the first (parse failures and
    /// transport errors consume one each).
    pub max_attempts: u32,
    /// Page-load attempts inside the browser per fetch (transport-level
    /// drop/timeout retries; maps to `Browser::max_attempts`).
    pub load_attempts: u32,
    /// Virtual milliseconds waited before the first retry.
    pub backoff_base_ms: u64,
    /// Multiplier applied to the backoff after each retry (2 = exponential
    /// doubling, 1 = constant backoff).
    pub backoff_factor: u32,
    /// Ghost-time budget per job within a round: a retry whose backoff
    /// would push the job's accumulated backoff past this gives up
    /// immediately (recorded as a `deadline_giveup` + `failed_job`).
    /// `None` = no deadline; the attempt budget alone bounds the job.
    pub round_deadline_ms: Option<u64>,
}

impl RetryPolicy {
    /// The paper-faithful defaults: 3 fetch attempts × 3 page-load
    /// attempts, 500 ms doubling backoff, no deadline.
    pub fn paper_default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            load_attempts: 3,
            backoff_base_ms: 500,
            backoff_factor: 2,
            round_deadline_ms: None,
        }
    }

    /// Ghost-time backoff before attempt `attempt` (1-based retries: the
    /// first attempt, number 0, never waits).
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let factor = (self.backoff_factor.max(1) as u64).saturating_pow(attempt - 1);
        self.backoff_base_ms.saturating_mul(factor)
    }

    /// The largest ghost backoff any single job can accumulate — the bound
    /// the fault-matrix tests assert on `max_job_backoff_ms`.
    pub fn worst_case_backoff_ms(&self) -> u64 {
        let mut total = 0u64;
        for attempt in 1..self.max_attempts.max(1) {
            total = total.saturating_add(self.backoff_before(attempt));
        }
        match self.round_deadline_ms {
            Some(deadline) => total.min(deadline),
            None => total,
        }
    }

    /// Validate invariants; panics with a description on misuse.
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "retry needs at least one attempt");
        assert!(
            self.load_attempts >= 1,
            "browser needs at least one load attempt"
        );
        assert!(
            self.backoff_factor >= 1,
            "backoff_factor must be at least 1"
        );
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_hard_coded_budget() {
        let p = RetryPolicy::paper_default();
        p.validate();
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.load_attempts, 3);
        assert_eq!(p, RetryPolicy::default());
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let p = RetryPolicy::paper_default();
        assert_eq!(p.backoff_before(0), 0);
        assert_eq!(p.backoff_before(1), 500);
        assert_eq!(p.backoff_before(2), 1_000);
        assert_eq!(p.backoff_before(3), 2_000);
    }

    #[test]
    fn constant_backoff_with_factor_one() {
        let p = RetryPolicy {
            backoff_factor: 1,
            ..RetryPolicy::paper_default()
        };
        assert_eq!(p.backoff_before(1), 500);
        assert_eq!(p.backoff_before(5), 500);
    }

    #[test]
    fn worst_case_sums_all_retry_waits() {
        let p = RetryPolicy::paper_default();
        // 3 attempts = 2 retries: 500 + 1000.
        assert_eq!(p.worst_case_backoff_ms(), 1_500);
        let p5 = RetryPolicy {
            max_attempts: 5,
            ..p.clone()
        };
        assert_eq!(p5.worst_case_backoff_ms(), 500 + 1_000 + 2_000 + 4_000);
    }

    #[test]
    fn deadline_caps_the_worst_case() {
        let p = RetryPolicy {
            max_attempts: 10,
            round_deadline_ms: Some(1_200),
            ..RetryPolicy::paper_default()
        };
        assert_eq!(p.worst_case_backoff_ms(), 1_200);
    }

    #[test]
    fn extreme_budgets_saturate_instead_of_overflowing() {
        let p = RetryPolicy {
            max_attempts: 200,
            backoff_base_ms: u64::MAX / 2,
            ..RetryPolicy::paper_default()
        };
        assert_eq!(p.worst_case_backoff_ms(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::paper_default()
        }
        .validate();
    }

    #[test]
    fn serde_roundtrip() {
        let p = RetryPolicy {
            max_attempts: 4,
            load_attempts: 2,
            backoff_base_ms: 250,
            backoff_factor: 3,
            round_deadline_ms: Some(9_000),
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
