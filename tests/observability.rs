//! Integration: the deterministic-observability battery.
//!
//! The guarantees under test:
//!
//! 1. Instrumentation is *inert*: a crawl run against a live [`ObsHub`]
//!    produces a dataset byte-identical to one run against a disabled hub,
//!    on every backend.
//! 2. The crawl records one root span per lock-step round, however many
//!    retries its jobs take, stamped from the shared virtual clock, so the
//!    exported Chrome trace is byte-identical across scheduling backends.
//! 3. Metric counters and histograms (after stripping `_wall_`-marked
//!    host-timing entries) agree across backends, and the registry's
//!    crawler counters are exactly the dataset meta's, from which they are
//!    derived; committed digests pin the crawler metrics of a faulty
//!    crawl, uninterrupted and resumed.
//! 4. Rate-limit pressure shows the *same* 429 count on both sides of the
//!    wire: the engine's `engine.rate_limited` counter where the limiter
//!    rejects, and the crawler's `DatasetMeta` where the client sees them.

use geoserp::crawler::{
    fnv1a64, CrawlBackend, CrawlCheckpoint, CrawlOptions, Crawler, Dataset, ExperimentPlan,
};
use geoserp::engine::EngineConfig;
use geoserp::obs::{assemble_chrome_trace, render_run_report, ObsHub, ProcessSpans};
use geoserp::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

const BACKENDS: [CrawlBackend; 2] = [CrawlBackend::Serial, CrawlBackend::WorkerPool];

/// 18 rounds × 6 jobs — the same shape the checkpoint battery uses.
fn quick_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 1,
        queries_per_category: Some(2),
        locations_per_granularity: Some(3),
        ..ExperimentPlan::quick()
    }
}

/// Run `plan` on `backend` against a fresh hub; return (dataset, hub).
fn instrumented_run(
    seed: u64,
    plan: &ExperimentPlan,
    backend: CrawlBackend,
) -> (Dataset, Arc<ObsHub>) {
    let obs = Arc::new(ObsHub::new());
    let crawler = Crawler::with_config_faults_and_obs(
        Seed::new(seed),
        EngineConfig::paper_defaults(),
        0.0,
        0.0,
        Arc::clone(&obs),
    );
    let dataset = crawler.run_with_backend(plan, backend, |_| {});
    (dataset, obs)
}

#[test]
fn instrumentation_never_perturbs_the_crawl() {
    let plan = quick_plan();
    for backend in BACKENDS {
        let plain = Crawler::with_config_faults_and_obs(
            Seed::new(2015),
            EngineConfig::paper_defaults(),
            0.0,
            0.0,
            Arc::new(ObsHub::disabled()),
        )
        .run_with_backend(&plan, backend, |_| {});
        let (instrumented, _) = instrumented_run(2015, &plan, backend);
        assert_eq!(
            plain.to_json(),
            instrumented.to_json(),
            "{backend:?}: live hub changed the dataset bytes"
        );
    }
}

#[test]
fn the_crawl_records_one_span_per_round() {
    let plan = quick_plan();
    let (_, clean) = instrumented_run(2015, &plan, CrawlBackend::Serial);
    let spans = clean.spans().snapshot();
    assert_eq!(spans.len(), 18, "18 rounds, one span each");
    for span in &spans {
        assert_eq!(span.cat, "crawler.round");
        assert_eq!(span.parent, 0, "rounds are roots");
        // 3 locations × treatment and control, fetched at one instant.
        assert!(span.args.contains(&("jobs", "6".to_string())), "{span:?}");
    }
    assert_eq!(clean.spans().total_recorded(), 18);

    // Retries add no span: the harshest fault cell records the same count.
    let (seed, drop, corrupt) = GOLDEN_CELL;
    let faulty = Crawler::with_config_and_faults(
        Seed::new(seed),
        EngineConfig::paper_defaults(),
        drop,
        corrupt,
    );
    let dataset = faulty.run_with_backend(&plan, CrawlBackend::Serial, |_| {});
    assert!(dataset.meta.retries > 0, "the fault cell provokes retries");
    assert_eq!(faulty.obs().spans().total_recorded(), 18);
}

/// The crawl's Chrome trace, as `geoserp run --trace-out` writes it.
fn crawl_trace(obs: &ObsHub) -> String {
    assemble_chrome_trace(&[ProcessSpans::from_records(
        "crawler",
        &obs.spans().snapshot(),
    )])
}

#[test]
fn chrome_trace_is_byte_identical_across_backends() {
    let plan = quick_plan();
    let (_, serial) = instrumented_run(2015, &plan, CrawlBackend::Serial);
    let reference = crawl_trace(&serial);
    assert!(reference.contains("\"traceEvents\""));
    serde_json::from_str::<serde_json::Value>(&reference)
        .expect("chrome trace is well-formed JSON");

    let (_, pooled) = instrumented_run(2015, &plan, CrawlBackend::WorkerPool);
    assert_eq!(
        reference,
        crawl_trace(&pooled),
        "worker pool: exported trace diverged from serial"
    );
}

#[test]
fn deterministic_metric_snapshots_agree_across_backends() {
    let plan = quick_plan();
    let (_, serial) = instrumented_run(2015, &plan, CrawlBackend::Serial);
    let reference = serial.snapshot().deterministic();
    assert!(
        !reference.counters.is_empty(),
        "instrumented run registers counters"
    );
    let (_, pooled) = instrumented_run(2015, &plan, CrawlBackend::WorkerPool);
    let snap = pooled.snapshot().deterministic();
    assert_eq!(reference.counters, snap.counters, "worker-pool counters");
    assert_eq!(reference.gauges, snap.gauges, "worker-pool gauges");
    assert_eq!(
        reference.histograms, snap.histograms,
        "worker-pool histograms"
    );
}

#[test]
fn prometheus_export_covers_every_subsystem() {
    let (_, obs) = instrumented_run(2015, &quick_plan(), CrawlBackend::WorkerPool);
    let prom = obs.snapshot().to_prometheus();
    for needle in [
        "# TYPE geoserp_engine_queries counter",
        "# TYPE geoserp_net_requests counter",
        "# TYPE geoserp_crawler_attempts counter",
        "geoserp_net_rtt_ms_bucket{le=\"+Inf\"}",
        "geoserp_net_rtt_ms_count",
        "geoserp_crawler_backoff_ms_bucket{le=",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus export missing {needle:?}"
        );
    }
}

#[test]
fn run_report_totals_reconcile_with_dataset_meta() {
    let (dataset, obs) = instrumented_run(2015, &quick_plan(), CrawlBackend::WorkerPool);
    let meta = &dataset.meta;
    let snap = obs.snapshot().deterministic();

    let counter = |name: &str| -> u64 {
        *snap
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    for (name, value) in meta.counters() {
        assert_eq!(counter(name), value, "{name}");
    }
    assert_eq!(
        counter("crawler.jobs"),
        dataset.observations().len() as u64 + meta.failed_jobs
    );

    // The human report renders the same numbers it would export.
    let report = render_run_report(&obs.snapshot());
    assert!(report.contains("[crawler]"));
    assert!(report.contains("[engine]"));
    assert!(report.contains("[net]"));
    assert!(report.contains("[latency]"));
    assert!(
        report.lines().any(|l| {
            l.trim_start().starts_with("attempts")
                && l.trim_end().ends_with(&meta.attempts.to_string())
        }),
        "report renders the attempts total"
    );
}

/// Drive a crawl past `rate_limit_max` and check the 429s line up on both
/// sides of the wire. With `rate_limit_max = 1` and a window longer
/// than the whole virtual timeline, each machine's first `/search` is
/// admitted and every later one is rejected — homepage loads bypass the
/// limiter, so they never consume budget.
#[test]
fn rate_limit_pressure_is_consistent_across_all_lenses() {
    let plan = ExperimentPlan {
        days: 1,
        queries_per_category: Some(1),
        locations_per_granularity: Some(2),
        ..ExperimentPlan::quick()
    };
    let config = EngineConfig {
        rate_limit_max: 1,
        rate_limit_window_ms: u64::MAX / 4,
        ..EngineConfig::paper_defaults()
    };

    let obs = Arc::new(ObsHub::new());
    let crawler =
        Crawler::with_config_faults_and_obs(Seed::new(2015), config, 0.0, 0.0, Arc::clone(&obs));
    let dataset = crawler.run_with_backend(&plan, CrawlBackend::Serial, |_| {});
    let meta = &dataset.meta;
    let snap = obs.snapshot().deterministic();

    // 9 rounds × 4 jobs on machines 0–3: round 1 is admitted, every later
    // round's search from the same four machines is rejected on all three
    // attempts. 8 starved rounds × 4 jobs × 3 attempts = 96 rejections.
    assert_eq!(meta.rate_limited, 96, "the crawler counts the 429s");
    assert_eq!(meta.failed_jobs, 8 * 4, "each starved job fails");
    assert_eq!(meta.retries, 8 * 4 * 2, "two retries per starved job");

    // Two observers of one event: the engine-side counter (incremented
    // where the limiter rejects) matches the client-side meta exactly.
    assert_eq!(snap.counters["engine.rate_limited"], meta.rate_limited);
    // The registry's crawler counter is derived from the meta.
    assert_eq!(snap.counters["crawler.rate_limited"], meta.rate_limited);

    // 429s are a subset of net errors, and the accounting identity the
    // rest of the suite relies on still balances.
    assert!(meta.rate_limited <= meta.net_errors);
    assert_eq!(
        meta.parse_failures + meta.net_errors,
        meta.retries + meta.failed_jobs,
        "failure accounting identity"
    );

    // The per-DC breakdown sums to the total.
    let per_dc: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("engine.rate_limited.dc"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(per_dc, meta.rate_limited);
}

/// The checkpoint battery's harshest fault cell: (seed, drop, corrupt).
const GOLDEN_CELL: (u64, f64, f64) = (7, 0.30, 0.15);

/// FNV-1a digests of the `crawler.*` metrics the quick plan's crawl in
/// [`GOLDEN_CELL`] leaves in its hub's deterministic snapshot: run
/// uninterrupted; killed after round 10 with a checkpoint every 4 rounds;
/// and resumed from that round-8 checkpoint on a fresh world (whose
/// registry counts only the resumed rounds).
const GOLDEN_CRAWLER_METRICS: [u64; 3] = [
    0x830c_5ab7_bd43_317c,
    0xeb0e_73a1_1c9f_0929,
    0x5a8a_986e_e94e_183e,
];

/// FNV-1a over the `crawler.*` entries of `obs`'s deterministic snapshot.
fn crawler_metrics_digest(obs: &ObsHub) -> u64 {
    let mut snap = obs.snapshot().deterministic();
    let crawler = |name: &String| name.starts_with("crawler.");
    snap.counters.retain(|name, _| crawler(name));
    snap.gauges.retain(|name, _| crawler(name));
    snap.histograms.retain(|name, _| crawler(name));
    assert!(!snap.counters.is_empty() && !snap.histograms.is_empty());
    fnv1a64(snap.to_json().as_bytes())
}

#[test]
fn crawler_metrics_are_golden_uninterrupted_and_resumed() {
    let (seed, drop, corrupt) = GOLDEN_CELL;
    let plan = quick_plan();
    let faulty = || {
        Crawler::with_config_and_faults(
            Seed::new(seed),
            EngineConfig::paper_defaults(),
            drop,
            corrupt,
        )
    };
    for backend in BACKENDS {
        let full = faulty();
        full.run_with_backend(&plan, backend, |_| {});

        let last = RefCell::new(None);
        let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
        let killed = faulty();
        let opts = CrawlOptions::new(backend)
            .checkpoint_every(4)
            .on_checkpoint(&sink)
            .stop_after_rounds(10);
        killed.run_with_options(&plan, opts, |_| {}).unwrap();

        let resumed = faulty();
        let opts = CrawlOptions::new(backend).resume(last.into_inner().unwrap());
        resumed.run_with_options(&plan, opts, |_| {}).unwrap();

        let digests = [&full, &killed, &resumed].map(|c| crawler_metrics_digest(c.obs()));
        assert_eq!(
            digests, GOLDEN_CRAWLER_METRICS,
            "{backend:?}: crawler metrics drifted: {digests:#x?}"
        );
    }
}
