//! The two study workloads: the paper's full crawl plus its 11-section
//! report, cleanly (`study_full`) and over a lossy network with checkpoint,
//! kill and resume (`study_faults_resume`).

use crate::spans::Recorder;
use crate::{per_layer_percentiles, procfs, stats, Outcome, RunConfig, SetupClock};
use geoserp_core::analysis::{AnalysisOptions, Workers};
use geoserp_core::crawler::{
    CrawlBackend, CrawlCheckpoint, CrawlOptions, Crawler, Dataset, ExperimentPlan,
};
use geoserp_core::engine::EngineConfig;
use geoserp_core::geo::Seed;
use geoserp_core::obs::ObsHub;
use geoserp_core::Study;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// `study_full` dataset digest at seed 2015 (FNV-1a of the dataset JSON).
const FULL_DATASET_2015: u64 = 0x6cf8_da24_13fe_27a7;
/// `study_full` report digest at seed 2015 (FNV-1a of the report text).
const FULL_REPORT_2015: u64 = 0xc686_4bd1_3817_4e44;
/// `study_faults_resume` resumed-dataset digest at seed 2015; equal to the
/// uninterrupted faulty crawl's digest.
const FAULTS_DATASET_2015: u64 = 0x1b94_90db_7e28_1927;
/// `study_faults_resume` report digest at seed 2015.
const FAULTS_REPORT_2015: u64 = 0x19d5_0b3e_2fef_61a1;

/// Fault rates of the lossy network: 10% of messages dropped, 5% of
/// response bodies bit-flipped.
const DROP_CHANCE: f64 = 0.10;
const CORRUPT_CHANCE: f64 = 0.05;
/// Fetch attempts per job on the lossy network. Under the paper's 3, about
/// one job in 200,000 exhausts its budget (seed 7 loses one); with 5 a lost
/// job is vanishingly rare, so no operation of the workload fails. No job
/// at seed 2015 needs a fourth attempt, so its golden digest is unchanged.
const FAULTY_MAX_ATTEMPTS: u32 = 5;
/// Checkpoint cadence and kill point of the faulty crawl (of 3600 rounds).
const CHECKPOINT_EVERY: usize = 100;
const KILL_AFTER_ROUND: usize = 1800;
/// The report's section count (every `---- ` header line).
const REPORT_SECTIONS: usize = 11;

/// Wall time between consecutive `run_with_progress` callbacks: one crawl
/// round each (the callback fires on the scheduler thread between rounds).
struct RoundClock {
    last: Cell<Instant>,
    rounds: RefCell<Vec<(Instant, Instant)>>,
}

impl RoundClock {
    fn new() -> RoundClock {
        RoundClock {
            last: Cell::new(Instant::now()),
            rounds: RefCell::new(Vec::new()),
        }
    }

    fn restart(&self) {
        self.last.set(Instant::now());
    }

    fn tick(&self) {
        let now = Instant::now();
        self.rounds.borrow_mut().push((self.last.replace(now), now));
    }

    fn durations_ms(&self) -> Vec<f64> {
        self.rounds
            .borrow()
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect()
    }

    /// One `crawler.round` span per round, under `parent`.
    fn record(&self, rec: &mut Recorder, parent: u64) {
        for (i, (a, b)) in self.rounds.borrow().iter().enumerate() {
            let id = rec.alloc();
            rec.record_as(id, parent, format!("round {i}"), "crawler", 1, *a, *b);
        }
    }
}

/// Jobs the plan schedules on this world: every (term, location) pair of
/// every round, treatment and control.
fn planned_jobs(crawler: &Crawler, plan: &ExperimentPlan) -> u64 {
    let locations: usize = plan
        .granularities
        .iter()
        .map(|&g| crawler.vantage().at(g).len())
        .sum();
    let terms: usize = plan
        .batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&c| crawler.corpus().queries.of(c).len())
                .sum::<usize>()
        })
        .sum();
    (terms * locations * plan.days as usize * 2) as u64
}

/// Checks every dataset must pass, at any seed: every scheduled job is
/// observed or failed, failures balance against retries, attempts against
/// jobs, and treatments pair with controls.
fn check_dataset(ds: &Dataset, planned: u64, out: &mut Outcome) {
    let m = &ds.meta;
    let observed = ds.observations().len() as u64;
    out.require(
        observed + m.failed_jobs == planned,
        format!(
            "{observed} observed + {} failed ≠ {planned} planned",
            m.failed_jobs
        ),
    );
    out.require(
        m.parse_failures + m.net_errors == m.retries + m.failed_jobs,
        "failure accounting out of balance".into(),
    );
    out.require(
        m.attempts == planned + m.retries,
        format!(
            "{} attempts ≠ {planned} jobs + {} retries",
            m.attempts, m.retries
        ),
    );
    let treatments = ds
        .observations()
        .iter()
        .filter(|o| o.role == geoserp_core::crawler::Role::Treatment)
        .count() as u64;
    out.require(
        m.failed_jobs > 0 || 2 * treatments == observed,
        "treatments and controls do not pair".into(),
    );
}

/// Checks on the rendered report, at any seed.
fn check_report(report: &str, out: &mut Outcome) {
    let sections = report.lines().filter(|l| l.starts_with("---- ")).count();
    out.require(
        sections == REPORT_SECTIONS,
        format!("report has {sections} sections, expected {REPORT_SECTIONS}"),
    );
}

/// Render the 11-section report with `Workers::Auto`, feeding per-section
/// gauges into `hub` when traced; returns it with its wall time.
fn timed_report(cfg: &RunConfig, ds: &Dataset, hub: &ObsHub, rec: &mut Recorder) -> (String, f64) {
    let study = Study::builder()
        .seed(cfg.seed)
        .paper_full()
        .analysis_options(AnalysisOptions::default().workers(Workers::Auto))
        .build()
        .expect("paper defaults are valid");
    let started = Instant::now();
    let report = if cfg.traced {
        study.report_with_obs(ds, hub)
    } else {
        study.report(ds)
    };
    let report_s = started.elapsed().as_secs_f64();
    rec.record(0, "report", "analysis", started);
    (report, report_s)
}

/// Thread and fd counts: peaks sampled during the run, and now.
fn proc_layers(out: &mut Outcome, threads_peak: u64, fds_peak: u64) {
    out.layer("proc.threads_peak", threads_peak as f64, "count");
    out.layer("proc.fds_peak", fds_peak as f64, "count");
    out.layer("proc.threads_after", procfs::threads() as f64, "count");
    out.layer("proc.fds_after", procfs::open_fds() as f64, "count");
}

/// Per-layer analysis numbers from the hub `Study::report_with_obs` fed.
fn analysis_layers(hub: &ObsHub, report_s: f64, out: &mut Outcome) {
    let snap = hub.snapshot();
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0) as f64;
    out.layer("analysis.report_s", report_s, "s");
    out.layer(
        "analysis.index_s",
        gauge("analysis.obs_index_wall_us") / 1e6,
        "s",
    );
    for section in [
        "fig2_noise",
        "fig3_noise_per_term",
        "fig4_noise_by_type",
        "fig5_personalization",
        "fig6_personalization_per_term",
        "fig7_personalization_by_type",
        "component_attribution",
        "fig8_consistency",
        "significance",
        "fig8_clusters",
        "demographics",
    ] {
        let us = gauge(&format!("analysis.{section}_wall_us"));
        out.layer(&format!("analysis.{section}_s"), us / 1e6, "s");
    }
    let pairs = snap
        .counters
        .get("pool.analysis.pairs.tasks")
        .copied()
        .unwrap_or(0) as f64;
    let workers = gauge("pool.analysis.pairs.workers").max(1.0);
    let busy_us: f64 = (0..workers as usize)
        .map(|w| gauge(&format!("pool.analysis.pairs.w{w}_busy_wall_us")))
        .sum();
    let pairs_wall_us = gauge("analysis.pair_cache_wall_us");
    out.layer("analysis.pairs", pairs, "count");
    out.layer("analysis.pool_workers", workers, "count");
    // Share of the pool's capacity the pairwise stage kept busy.
    out.layer(
        "analysis.pool_efficiency",
        busy_us / (workers * pairs_wall_us).max(1.0),
        "ratio",
    );
    out.layer("metrics.pair_ns", busy_us * 1e3 / pairs.max(1.0), "ns");
}

/// Per-layer crawler numbers. Counts come from the dataset's metadata, which
/// carries the crawler's totals across a resume (a resumed world's registry
/// holds only its own half of the run).
fn crawler_layers(
    ds: &Dataset,
    planned: u64,
    rounds: &RoundClock,
    crawl_s: f64,
    out: &mut Outcome,
) {
    let durations = rounds.durations_ms();
    per_layer_percentiles(out, "crawler.round_us", &durations, 1e3, "us");
    out.layer("crawler.rounds", durations.len() as f64, "count");
    out.layer("crawler.crawl_s", crawl_s, "s");
    out.layer("crawler.serps_per_s", planned as f64 / crawl_s, "1/s");
    let attempts = ds.meta.attempts as f64;
    out.layer("crawler.attempts", attempts, "count");
    out.layer("crawler.retries", ds.meta.retries as f64, "count");
    out.layer(
        "crawler.useful_frac",
        planned as f64 / attempts.max(1.0),
        "ratio",
    );
}

/// Round latency and throughput: the end-to-end metrics every workload
/// reports, with a study's unit of work being one SERP and one round.
fn study_metrics(out: &mut Outcome, setup_s: f64, serps: u64, wall_s: f64, rounds: &RoundClock) {
    let sorted = stats::sorted(rounds.durations_ms());
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", serps as f64 / wall_s, "1/s");
    out.metric(
        "lat_p50_ms",
        stats::percentile(&sorted, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.layer(
        "lat_p90_ms",
        stats::percentile(&sorted, 0.9).unwrap_or(0.0),
        "ms",
    );
    out.metric("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    out.layer(
        "lat_p99_ms",
        stats::percentile(&sorted, 0.99).unwrap_or(0.0),
        "ms",
    );
}

/// `study_full`: what `geoserp run --scale full` runs.
pub fn full(cfg: &RunConfig, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let plan = ExperimentPlan::paper_full();
    let build = || Ok(Crawler::new(Seed::new(cfg.seed)));
    let mut setup = SetupClock::default();
    let crawler = match setup.group(rec, "world", build) {
        Ok(c) => c,
        Err(e) => return out.fail(e),
    };
    let planned = planned_jobs(&crawler, &plan);

    let sampler = cfg.traced.then(procfs::Sampler::start);
    let rounds = RoundClock::new();
    let started = Instant::now();
    rounds.restart();
    let dataset = crawler.run_with_progress(&plan, |_| rounds.tick());
    let crawl_s = started.elapsed().as_secs_f64();
    let crawl_span = rec.record(0, "crawl", "crawler", started);
    rounds.record(rec, crawl_span);
    setup.group(rec, "world", build).ok();

    let hub = ObsHub::new();
    let (report, report_s) = timed_report(cfg, &dataset, &hub, rec);
    let (threads_peak, fds_peak) = sampler.map_or((0, 0), procfs::Sampler::finish);
    setup.group(rec, "world", build).ok();

    check_dataset(&dataset, planned, &mut out);
    check_report(&report, &mut out);
    out.attempted = planned;
    out.failed = dataset.meta.failed_jobs;
    out.digest(
        "dataset",
        dataset.digest(),
        (cfg.seed == 2015).then_some(FULL_DATASET_2015),
    );
    out.digest(
        "report",
        geoserp_core::crawler::fnv1a64(report.as_bytes()),
        (cfg.seed == 2015).then_some(FULL_REPORT_2015),
    );

    study_metrics(
        &mut out,
        setup.median(),
        planned,
        crawl_s + report_s,
        &rounds,
    );
    if cfg.traced {
        crawler_layers(&dataset, planned, &rounds, crawl_s, &mut out);
        analysis_layers(&hub, report_s, &mut out);
        proc_layers(&mut out, threads_peak, fds_peak);
    }
    out
}

/// `study_faults_resume`: the same plan over a lossy network, checkpointed
/// every 100 rounds, killed after round 1800, resumed from the last
/// checkpoint on a fresh world, then reported.
pub fn faults_resume(cfg: &RunConfig, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let mut plan = ExperimentPlan::paper_full();
    plan.retry.max_attempts = FAULTY_MAX_ATTEMPTS;
    let backend = CrawlBackend::from_plan_flag(plan.parallel);
    let build = || {
        Crawler::with_config_and_faults(
            Seed::new(cfg.seed),
            EngineConfig::paper_defaults(),
            DROP_CHANCE,
            CORRUPT_CHANCE,
        )
    };
    let mut setup = SetupClock::default();
    let crawler = match setup.group(rec, "world", || Ok(build())) {
        Ok(c) => c,
        Err(e) => return out.fail(e),
    };
    let planned = planned_jobs(&crawler, &plan);
    let ckpt_path = cfg.out.join(format!("{}.ckpt.json", cfg.workload.name()));

    let sampler = cfg.traced.then(procfs::Sampler::start);
    let rounds = RoundClock::new();
    let writes: RefCell<Vec<(Instant, Instant, u64)>> = RefCell::new(Vec::new());
    let save_error: RefCell<Option<String>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| {
        let started = Instant::now();
        if let Err(e) = c.save(&ckpt_path) {
            save_error.borrow_mut().get_or_insert(e.to_string());
        }
        let bytes = std::fs::metadata(&ckpt_path).map_or(0, |m| m.len());
        writes.borrow_mut().push((started, Instant::now(), bytes));
        // The sink runs between rounds: its time belongs to no round.
        rounds.restart();
    };
    let started = Instant::now();
    rounds.restart();
    let partial = crawler
        .run_with_options(
            &plan,
            CrawlOptions::new(backend)
                .checkpoint_every(CHECKPOINT_EVERY)
                .on_checkpoint(&sink)
                .stop_after_rounds(KILL_AFTER_ROUND),
            |_| rounds.tick(),
        )
        .expect("a fresh world accepts the plan");
    let first_leg_s = started.elapsed().as_secs_f64();
    rec.record(0, "crawl until the kill", "crawler", started);
    drop(partial);
    drop(crawler);
    setup.group(rec, "world", || Ok(build())).ok();

    let load_started = Instant::now();
    let ckpt = CrawlCheckpoint::load(&ckpt_path);
    let load_s = load_started.elapsed().as_secs_f64();
    rec.record(0, "checkpoint load", "crawler", load_started);
    std::fs::remove_file(&ckpt_path).ok();
    let ckpt = match (ckpt, save_error.into_inner()) {
        (Ok(ckpt), None) => ckpt,
        (Err(e), _) => return out.fail(format!("checkpoint load: {e}")),
        (_, Some(e)) => return out.fail(format!("checkpoint save: {e}")),
    };
    out.require(
        ckpt.completed_rounds == KILL_AFTER_ROUND,
        format!("last checkpoint at round {}", ckpt.completed_rounds),
    );
    let prefix = ckpt.dataset.observations().to_vec();

    let resume_started = Instant::now();
    let fresh = build();
    rounds.restart();
    let dataset =
        match fresh.run_with_options(&plan, CrawlOptions::new(backend).resume(ckpt), |_| {
            rounds.tick()
        }) {
            Ok(ds) => ds,
            Err(e) => return out.fail(format!("resume: {e}")),
        };
    let resume_s = resume_started.elapsed().as_secs_f64();
    rec.record(0, "resume", "crawler", resume_started);
    rounds.record(rec, 0);

    let hub = ObsHub::new();
    let (report, report_s) = timed_report(cfg, &dataset, &hub, rec);
    let (threads_peak, fds_peak) = sampler.map_or((0, 0), procfs::Sampler::finish);
    setup.group(rec, "world", || Ok(build())).ok();

    check_dataset(&dataset, planned, &mut out);
    check_report(&report, &mut out);
    out.require(
        dataset.observations().starts_with(&prefix),
        "the resumed dataset does not extend its checkpoint".into(),
    );
    out.attempted = planned;
    out.failed = dataset.meta.failed_jobs;
    out.digest(
        "dataset",
        dataset.digest(),
        (cfg.seed == 2015).then_some(FAULTS_DATASET_2015),
    );
    out.digest(
        "report",
        geoserp_core::crawler::fnv1a64(report.as_bytes()),
        (cfg.seed == 2015).then_some(FAULTS_REPORT_2015),
    );

    let wall_s = first_leg_s + load_s + resume_s + report_s;
    study_metrics(&mut out, setup.median(), planned, wall_s, &rounds);
    if cfg.traced {
        let writes = writes.into_inner();
        for (i, (a, b, _)) in writes.iter().enumerate() {
            let id = rec.alloc();
            rec.record_as(id, 0, format!("checkpoint write {i}"), "crawler", 2, *a, *b);
        }
        let write_s: f64 = writes.iter().map(|(a, b, _)| (*b - *a).as_secs_f64()).sum();
        let bytes: u64 = writes.iter().map(|(_, _, n)| n).sum();
        crawler_layers(
            &dataset,
            planned,
            &rounds,
            first_leg_s + resume_s - write_s,
            &mut out,
        );
        analysis_layers(&hub, report_s, &mut out);
        out.layer("crawler.ckpt_writes", writes.len() as f64, "count");
        out.layer("crawler.ckpt_mb", bytes as f64 / (1024.0 * 1024.0), "MB");
        out.layer("crawler.ckpt_write_s", write_s, "s");
        out.layer("crawler.ckpt_load_s", load_s, "s");
        out.layer("crawler.resume_s", resume_s, "s");
        proc_layers(&mut out, threads_peak, fds_peak);
    }
    out
}
