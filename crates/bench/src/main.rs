//! `geoserp-bench` — crawl-throughput benchmark.
//!
//! Runs the same plan on both crawl backends (serial, and the worker pool
//! of one crawl worker per CPU), verifies the datasets are byte-identical,
//! and writes `BENCH_crawl.json` with wall-clock, rounds/sec, and SERPs/sec
//! per backend and scale.
//!
//! Scales benchmarked default to `quick,medium`; set
//! `GEOSERP_BENCH_SCALES=quick,full` (comma-separated) to change. The
//! output path defaults to `BENCH_crawl.json`; override with the first CLI
//! argument. `GEOSERP_SEED` selects the world seed as elsewhere.
//!
//! A second mode is the CI perf gate: `geoserp-bench check <serve|obs>
//! <fresh.json> <baseline.json>` compares a fresh bench report against the
//! committed baseline and exits nonzero on regressions (see
//! [`geoserp_bench::check`]).

use geoserp_bench::{seed_from_env, Scale};
use geoserp_core::crawler::CrawlBackend;
use geoserp_core::prelude::*;
use serde_json::{json, Value};
use std::time::Instant;

/// One timed crawl.
struct BackendRun {
    name: &'static str,
    wall_clock_s: f64,
    rounds_per_sec: f64,
    serps_per_sec: f64,
    serps: usize,
    json: String,
}

fn run_backend(
    scale_plan: &ExperimentPlan,
    seed: u64,
    backend: CrawlBackend,
    name: &'static str,
) -> BackendRun {
    let crawler = Crawler::new(Seed::new(seed));
    let rounds = std::cell::Cell::new(0usize);
    let started = Instant::now();
    let dataset = crawler.run_with_backend(scale_plan, backend, |p| {
        rounds.set(p.completed_rounds);
    });
    let wall = started.elapsed().as_secs_f64();
    let serps = dataset.observations().len();
    eprintln!(
        "[geoserp-bench]   {name:<15} {wall:>8.2}s  {:>7.1} rounds/s  {:>8.1} SERPs/s",
        rounds.get() as f64 / wall,
        serps as f64 / wall,
    );
    BackendRun {
        name,
        wall_clock_s: wall,
        rounds_per_sec: rounds.get() as f64 / wall,
        serps_per_sec: serps as f64 / wall,
        serps,
        json: dataset.to_json(),
    }
}

fn bench_scale(scale: Scale, seed: u64) -> Value {
    let plan = scale.plan();
    eprintln!("[geoserp-bench] scale={} seed={seed}", scale.label());
    let runs = [
        run_backend(&plan, seed, CrawlBackend::Serial, "serial"),
        run_backend(&plan, seed, CrawlBackend::WorkerPool, "worker_pool"),
    ];
    let byte_identical = runs.iter().all(|r| r.json == runs[0].json);
    assert!(
        byte_identical,
        "backends diverged at scale {} — determinism bug",
        scale.label()
    );
    let serial = runs[0].wall_clock_s;
    let pool = runs[1].wall_clock_s;
    eprintln!(
        "[geoserp-bench]   pool vs serial: {:+.1}%\n",
        100.0 * (serial - pool) / serial
    );
    let mut backends = serde_json::Map::new();
    for r in &runs {
        backends.insert(
            r.name.to_string(),
            json!({
                "wall_clock_s": r.wall_clock_s,
                "rounds_per_sec": r.rounds_per_sec,
                "serps_per_sec": r.serps_per_sec,
            }),
        );
    }
    json!({
        "scale": scale.label(),
        "serps": runs[0].serps as u64,
        "backends": Value::Object(backends),
        "byte_identical": byte_identical,
        "pool_speedup_vs_serial": serial / pool,
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("check") {
        std::process::exit(geoserp_bench::check::run(&argv[1..]));
    }
    let out_path = argv
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_crawl.json".to_string());
    let seed = seed_from_env();
    let entries: Vec<Value> = scales_from_env()
        .into_iter()
        .map(|scale| bench_scale(scale, seed))
        .collect();
    let report = json!({
        "seed": seed,
        "nproc": std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        "scales": entries,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&out_path, rendered).expect("write bench report");
    eprintln!("[geoserp-bench] wrote {out_path}");
}
