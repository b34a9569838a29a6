//! `analysis_scale` — analysis-pipeline scaling benchmark.
//!
//! Crawls each scale once, then produces the full analysis report under
//! `Workers::Fixed(1)` (everything inline, the baseline) and
//! `Workers::Fixed(2|4|8)` (pairwise comparisons, per-cell inference and
//! per-figure rendering sharded across the pool). Byte-identity against the
//! one-worker report is asserted **before** any timing, so a run that
//! diverged never reports a speedup.
//!
//! The pairwise-comparison stage is additionally timed in isolation: the
//! `PairStat` cache build (as the `analysis.pair_cache_wall_us` gauge
//! reports it) plus a replay of the figures' per-pair metric demand —
//! Jaccard + edit distance (Figs. 2/5), result-type attribution (Figs. 4/7),
//! and a second edit distance (the significance table) — answered by cache
//! lookups. The replay checksums are asserted equal across worker counts,
//! so every arm demonstrably did the same work.
//!
//! Every wall-clock number is the best of [`REPS`] runs.
//!
//! Scales default to `quick,medium`; set `GEOSERP_BENCH_SCALES=quick,full`
//! (comma-separated) to change. Output defaults to `BENCH_analysis.json`;
//! override with the first CLI argument. `GEOSERP_SEED` selects the world
//! seed as elsewhere.

use geoserp_bench::{seed_from_env, Scale};
use geoserp_core::obs::ObsHub;
use geoserp_core::prelude::*;
use geoserp_core::report::full_report_with_options;
use serde_json::{json, Value};
use std::time::Instant;

const POOLED_WORKERS: [usize; 3] = [2, 4, 8];

/// Repetitions per timed measurement; the minimum is reported (standard
/// throughput-bench practice: the min is the run least disturbed by the
/// host, and every run does identical deterministic work).
const REPS: usize = 3;

/// Minimum wall clock over [`REPS`] runs of `f`.
fn best_of(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Replay the report's per-pair metric demand against an index, returning
/// `(pairs, checksum)`. The demand profile mirrors `full_report_with_options`
/// consumer by consumer: Local pairs are looked up again for Figs. 3/6,
/// County-Local pairs again for Fig. 4 and the demographics table, and the
/// Fig. 8 baseline series twice over (the consistency section and the
/// clusters section each build it). The checksum folds every answered value
/// in, so the work cannot be optimized away and the arms can be asserted to
/// have produced identical answers.
fn replay_pair_demand<'a>(idx: &ObsIndex<'a>) -> (usize, f64) {
    let mut pairs = 0usize;
    let mut acc = 0.0f64;
    for gran in idx.granularities() {
        for category in idx.categories() {
            let local = category == QueryCategory::Local;
            let county_local = local && gran == Granularity::County;
            let baseline = idx.locations(gran).first().copied();
            idx.for_each_noise_pair(gran, category, |t, c| {
                pairs += 1;
                let (j, e) = idx.pair_urls_stat(t, c); // Fig. 2
                acc += j + e;
                if local {
                    let (j3, e3) = idx.pair_urls_stat(t, c); // Fig. 3
                    acc += j3 + e3;
                }
                if county_local {
                    let (total, maps, news, other) = idx.pair_attribution(t, c); // Fig. 4
                    acc += (total + maps + news + other) as f64;
                }
                acc += idx.pair_edit(t, c); // significance table
                if local && baseline == Some(t.location) {
                    // Fig. 8 noise floor + the clusters section's rebuild.
                    acc += idx.pair_edit(t, c) + idx.pair_edit(t, c);
                }
            });
            idx.for_each_treatment_pair(gran, category, |a, b| {
                pairs += 1;
                let (j, e) = idx.pair_urls_stat(a, b); // Fig. 5
                acc += j + e;
                if local {
                    let (j6, e6) = idx.pair_urls_stat(a, b); // Fig. 6
                    acc += j6 + e6;
                }
                let (total, maps, news, other) = idx.pair_attribution(a, b); // Fig. 7
                acc += (total + maps + news + other) as f64;
                acc += idx.pair_edit(a, b); // significance table
                if county_local {
                    acc += idx.pair_jaccard(a, b); // demographics similarity
                }
                if local && baseline == Some(a.location) {
                    // Fig. 8 per-location lines + the clusters rebuild.
                    acc += idx.pair_edit(a, b) + idx.pair_edit(a, b);
                }
            });
        }
    }
    (pairs, acc)
}

/// One timed pairwise stage: cache build (as reported by the
/// `analysis.pair_cache_wall_us` gauge, so exactly the instrumented span)
/// plus the lookup replay.
struct PairStage {
    pairs: usize,
    checksum: f64,
    cache_build_s: f64,
    lookup_s: f64,
}

impl PairStage {
    fn total_s(&self) -> f64 {
        self.cache_build_s + self.lookup_s
    }
}

/// Best-of-[`REPS`] pairwise stage at `workers`.
fn pairwise_stage(ds: &Dataset, workers: usize) -> PairStage {
    let mut best: Option<PairStage> = None;
    for _ in 0..REPS {
        let hub = ObsHub::new();
        let idx = ObsIndex::with_options(ds, &AnalysisOptions::fixed(workers), Some(&hub));
        let cache_build_s = hub
            .snapshot()
            .gauges
            .get("analysis.pair_cache_wall_us")
            .copied()
            .expect("pair-cache build gauge") as f64
            / 1e6;
        let started = Instant::now();
        let (pairs, checksum) = replay_pair_demand(&idx);
        let lookup_s = started.elapsed().as_secs_f64();
        let stage = PairStage {
            pairs,
            checksum,
            cache_build_s,
            lookup_s,
        };
        if best.as_ref().is_none_or(|b| stage.total_s() < b.total_s()) {
            best = Some(stage);
        }
    }
    best.expect("REPS > 0")
}

fn timed_report(ds: &Dataset, options: &AnalysisOptions) -> f64 {
    best_of(|| {
        let started = Instant::now();
        let report = full_report_with_options(ds, None, options);
        let s = started.elapsed().as_secs_f64();
        std::hint::black_box(report);
        s
    })
}

fn bench_scale(scale: Scale, seed: u64) -> Value {
    let plan = scale.plan();
    eprintln!(
        "[geoserp-bench] scale={} seed={seed} — crawling…",
        scale.label()
    );
    let ds = Crawler::new(Seed::new(seed)).run(&plan);
    eprintln!(
        "[geoserp-bench]   {} SERPs collected",
        ds.observations().len()
    );

    // Byte-identity FIRST: every pooled policy must reproduce the one-worker
    // report exactly before any of them is worth timing.
    let reference = full_report_with_options(&ds, None, &AnalysisOptions::fixed(1));
    for &n in &POOLED_WORKERS {
        let pooled = full_report_with_options(&ds, None, &AnalysisOptions::fixed(n));
        assert_eq!(
            reference,
            pooled,
            "report bytes diverged at {n} workers on scale {}",
            scale.label()
        );
    }
    eprintln!(
        "[geoserp-bench]   byte-identity: workers 1 == workers {POOLED_WORKERS:?} ({} report bytes)",
        reference.len()
    );

    // Full-report wall clock (best of REPS).
    let base_report_s = timed_report(&ds, &AnalysisOptions::fixed(1));
    eprintln!("[geoserp-bench]   report/workers_1 {base_report_s:>8.3}s");
    let mut report_entries = serde_json::Map::new();
    report_entries.insert("workers_1".into(), json!({ "wall_clock_s": base_report_s }));
    for &n in &POOLED_WORKERS {
        let s = timed_report(&ds, &AnalysisOptions::fixed(n));
        eprintln!(
            "[geoserp-bench]   report/workers_{n} {s:>8.3}s  ({:.2}x vs 1 worker)",
            base_report_s / s
        );
        report_entries.insert(
            format!("workers_{n}"),
            json!({ "wall_clock_s": s, "speedup_vs_1": base_report_s / s }),
        );
    }

    // Pairwise-comparison stage in isolation (best of REPS).
    let base = pairwise_stage(&ds, 1);
    eprintln!(
        "[geoserp-bench]   pairs/workers_1  {:>8.3}s  ({} pairs)",
        base.total_s(),
        base.pairs
    );
    let entry = |stage: &PairStage, speedup: f64| {
        json!({
            "cache_build_s": stage.cache_build_s,
            "lookup_s": stage.lookup_s,
            "total_s": stage.total_s(),
            "speedup_vs_1": speedup,
        })
    };
    let mut stage_entries = serde_json::Map::new();
    stage_entries.insert("workers_1".into(), entry(&base, 1.0));
    let mut speedup_at_4 = 0.0;
    for &n in &POOLED_WORKERS {
        let stage = pairwise_stage(&ds, n);
        assert_eq!(
            stage.checksum, base.checksum,
            "pair answers diverged from one worker at {n} workers"
        );
        let speedup = base.total_s() / stage.total_s();
        if n == 4 {
            speedup_at_4 = speedup;
        }
        eprintln!(
            "[geoserp-bench]   pairs/workers_{n}  {:>8.3}s  ({speedup:.2}x vs 1 worker)",
            stage.total_s()
        );
        stage_entries.insert(format!("workers_{n}"), entry(&stage, speedup));
    }
    eprintln!();

    json!({
        "scale": scale.label(),
        "serps": ds.observations().len() as u64,
        "pairs": base.pairs as u64,
        "byte_identical": true,
        "report": Value::Object(report_entries),
        "pairwise_stage": Value::Object(stage_entries),
        "pairwise_speedup_at_4_workers": speedup_at_4,
    })
}

fn scales_from_env() -> Vec<Scale> {
    let spec = std::env::var("GEOSERP_BENCH_SCALES").unwrap_or_else(|_| "quick,medium".into());
    spec.split(',')
        .map(|s| match s.trim() {
            "quick" => Scale::Quick,
            "medium" => Scale::Medium,
            "full" => Scale::Full,
            other => panic!("GEOSERP_BENCH_SCALES={other}: expected quick|medium|full"),
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_analysis.json".to_string());
    let seed = seed_from_env();
    let entries: Vec<Value> = scales_from_env()
        .into_iter()
        .map(|scale| bench_scale(scale, seed))
        .collect();
    let report = json!({
        "seed": seed,
        "nproc": std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        "timing": format!("best of {REPS}"),
        "scales": entries,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&out_path, rendered).expect("write bench report");
    eprintln!("[geoserp-bench] wrote {out_path}");
}
