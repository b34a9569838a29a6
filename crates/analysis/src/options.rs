//! Execution options for the analysis pipeline.

use geoserp_pool::Workers;

/// How the analysis pipeline executes.
///
/// The default (`Workers::Auto`) shards the pairwise comparisons, the
/// significance tests and the per-figure rendering across the host's cores;
/// `Workers::Fixed(1)` runs all of it inline. Every setting produces
/// byte-identical reports — worker count changes wall-clock, never output.
/// The struct is `#[non_exhaustive]`: construct it through
/// [`AnalysisOptions::new`]/[`fixed`](AnalysisOptions::fixed) and adjust
/// with the fluent [`workers`](AnalysisOptions::workers) setter, so future
/// options don't break downstream struct literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AnalysisOptions {
    /// Worker policy for pairwise comparisons, significance tests, and
    /// per-figure fan-out.
    pub workers: Workers,
}

impl AnalysisOptions {
    /// The pooled default.
    pub fn new() -> Self {
        AnalysisOptions {
            workers: Workers::Auto,
        }
    }

    /// A fixed worker count.
    pub fn fixed(workers: usize) -> Self {
        AnalysisOptions::new().workers(Workers::Fixed(workers))
    }

    /// Set the worker policy.
    pub fn workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_auto() {
        assert_eq!(AnalysisOptions::default().workers, Workers::Auto);
        assert_eq!(AnalysisOptions::fixed(3).workers, Workers::Fixed(3));
    }
}
