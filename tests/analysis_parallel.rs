//! Integration: the analysis worker-count differential battery.
//!
//! The guarantee under test: `full_report_with_options` produces the SAME
//! BYTES for every worker policy — `Fixed(1)` (everything inline, the
//! reference), `Fixed(2..=8)`, and `Auto` — on the quick and medium plans,
//! on a checkpoint-resumed dataset, and with observability instrumentation
//! attached. A committed golden digest additionally pins the quick-plan
//! report bytes, so a "every worker count drifted together" regression
//! cannot hide behind the self-consistency checks.

use geoserp::analysis::significance::{personalization_significance, significance_cell};
use geoserp::crawler::{fnv1a64, CrawlBackend, CrawlCheckpoint, CrawlOptions, Crawler};
use geoserp::obs::ObsHub;
use geoserp::prelude::*;
use geoserp::report::full_report_with_options;
use std::cell::RefCell;

/// FNV-1a digest of the quick-plan report. If this moves, analysis
/// output changed for every consumer — figure values, table layout, or
/// significance seeds. Update it only for an intentional analysis change.
const QUICK_REPORT_DIGEST: u64 = 0x5467_fdd2_5aa6_1844;

/// The CLI's `--scale quick` plan (2 days × 6 queries/category × 6
/// locations/granularity), seed 2015 — the fixture the golden digest pins.
fn quick_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 2,
        queries_per_category: Some(6),
        locations_per_granularity: Some(6),
        ..ExperimentPlan::paper_full()
    }
}

/// The shared medium fixture (same shape as `tests/paper_shapes.rs`): big
/// enough that every figure has multi-element cells and the pair cache is
/// exercised across all three granularities.
fn medium_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 2,
        queries_per_category: Some(12),
        locations_per_granularity: Some(10),
        ..ExperimentPlan::paper_full()
    }
}

fn dataset(plan: &ExperimentPlan, seed: u64) -> Dataset {
    Crawler::new(Seed::new(seed)).run(plan)
}

fn report(ds: &Dataset, workers: Workers) -> String {
    let options = AnalysisOptions::new().workers(workers);
    full_report_with_options(ds, None, &options)
}

/// The battery core: one inline worker vs every pooled worker count, byte
/// for byte.
fn assert_identical_across_worker_counts(ds: &Dataset, label: &str) {
    let inline = report(ds, Workers::Fixed(1));
    for n in [0usize, 2, 3, 4, 8] {
        let pooled = report(ds, Workers::Fixed(n));
        assert_eq!(
            inline, pooled,
            "{label}: report bytes diverged at {n} workers"
        );
    }
    let auto = report(ds, Workers::Auto);
    assert_eq!(inline, auto, "{label}: report bytes diverged under Auto");
}

#[test]
fn quick_plan_report_is_byte_identical_across_worker_counts() {
    let ds = dataset(&quick_plan(), 2015);
    assert_identical_across_worker_counts(&ds, "quick");
}

#[test]
fn medium_plan_report_is_byte_identical_across_worker_counts() {
    let ds = dataset(&medium_plan(), 2015);
    assert_identical_across_worker_counts(&ds, "medium");
}

#[test]
fn quick_plan_report_matches_committed_digest() {
    let ds = dataset(&quick_plan(), 2015);
    let inline = report(&ds, Workers::Fixed(1));
    assert_eq!(
        fnv1a64(inline.as_bytes()),
        QUICK_REPORT_DIGEST,
        "quick-plan report bytes drifted from the committed golden digest"
    );
}

#[test]
fn checkpoint_resumed_dataset_reports_identically() {
    // Kill the quick crawl after 11 rounds (checkpointing every 4), resume
    // the surviving checkpoint on a fresh same-seed world, and demand the
    // analysis pipeline cannot tell: resumed-dataset reports must match the
    // uninterrupted run's, at every worker count.
    let plan = quick_plan();
    let uninterrupted = dataset(&plan, 2015);

    let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
    let opts = CrawlOptions::new(CrawlBackend::WorkerPool)
        .checkpoint_every(4)
        .on_checkpoint(&sink)
        .stop_after_rounds(11);
    Crawler::new(Seed::new(2015))
        .run_with_options(&plan, opts, |_| {})
        .expect("partial runs are valid");
    let ckpt = last.into_inner().expect("checkpoint written by round 11");

    let opts = CrawlOptions::new(CrawlBackend::WorkerPool).resume(ckpt);
    let resumed = Crawler::new(Seed::new(2015))
        .run_with_options(&plan, opts, |_| {})
        .expect("checkpoint resumes on a fresh world");
    assert_eq!(
        uninterrupted.to_json(),
        resumed.to_json(),
        "resume-equivalence precondition"
    );

    let reference = report(&uninterrupted, Workers::Fixed(1));
    for workers in [Workers::Fixed(1), Workers::Fixed(2), Workers::Fixed(8)] {
        assert_eq!(
            reference,
            report(&resumed, workers),
            "resumed dataset diverged under {workers}"
        );
    }
}

#[test]
fn instrumented_parallel_report_matches_and_records_pool_metrics() {
    let ds = dataset(&quick_plan(), 2015);
    let inline = report(&ds, Workers::Fixed(1));

    let hub = ObsHub::new();
    let options = AnalysisOptions::fixed(3);
    let instrumented = full_report_with_options(&ds, Some(&hub), &options);
    assert_eq!(inline, instrumented, "instrumentation changed report bytes");

    let snap = hub.snapshot();
    assert!(
        snap.counters.get("pool.analysis.pairs.tasks").copied() > Some(0),
        "pairwise comparisons were not routed through the pool: {:?}",
        snap.counters.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        snap.counters.get("pool.analysis.figures.tasks").copied(),
        Some(11),
        "per-figure fan-out must cover all eleven report sections"
    );
    assert_eq!(
        snap.gauges.get("pool.analysis.figures.workers").copied(),
        Some(3)
    );
    assert!(
        snap.gauges.contains_key("analysis.pair_cache_wall_us"),
        "pair-cache build time gauge missing"
    );

    // Deterministic snapshots must stay free of wall-clock pool metrics.
    let det = snap.deterministic();
    assert!(
        det.gauges.keys().all(|k| !k.contains("_wall_")),
        "wall-clock metric leaked into the deterministic snapshot"
    );
}

/// RNG-order audit: every significance cell draws from its own derived seed,
/// and its permutation test and bootstrap from their own derived streams, so
/// a cell's p-value and CI are identical whether the cell is computed alone,
/// in the serial full run, or in a pooled full run whose tests are spread
/// one per task over 2 or 3 workers — the property that makes per-test
/// parallelism safe.
#[test]
fn significance_cells_are_rng_order_independent() {
    let ds = dataset(&quick_plan(), 2015);
    let seed = Seed::new(2015).derive("report-significance");
    let rounds = 400;

    let serial_idx = ObsIndex::new(&ds);
    let full_serial = personalization_significance(&serial_idx, rounds, seed);
    assert_eq!(full_serial.len(), 9);
    let full_pooled: Vec<_> = [2, 3]
        .map(|workers| {
            let pooled_idx = ObsIndex::with_options(&ds, &AnalysisOptions::fixed(workers), None);
            personalization_significance(&pooled_idx, rounds, seed)
        })
        .into_iter()
        .collect();

    for (i, row) in full_serial.iter().enumerate() {
        let cell = (row.granularity, row.category);
        // Recompute the single cell in isolation on a fresh index: if any
        // cell's RNG stream depended on its predecessors' draw counts, this
        // would differ from the full-run row.
        let alone = significance_cell(&ObsIndex::new(&ds), cell, rounds, seed);
        for other in std::iter::once(&alone).chain(full_pooled.iter().map(|rows| &rows[i])) {
            assert_eq!((other.granularity, other.category), cell);
            assert_eq!(row.p_value, other.p_value, "cell {cell:?} p-value coupled");
            assert_eq!(
                row.personalization_ci, other.personalization_ci,
                "cell {cell:?} CI coupled"
            );
            assert_eq!(row.personalization_mean, other.personalization_mean);
            assert_eq!(row.noise_mean, other.noise_mean);
            assert_eq!(row.samples, other.samples);
        }
    }
}
