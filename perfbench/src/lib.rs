//! # geoserp-perfbench — end-to-end and per-layer benchmark for geoserp
//!
//! One binary runs one named workload per invocation, checks the program's
//! outputs, and prints one JSON result line:
//!
//! ```text
//! geoserp-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! geoserp-perfbench run [--workload NAME] [--seed N] [--seconds S] [--traced] [--out DIR]
//! geoserp-perfbench check bench <fresh_dir> <baseline.json> [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` runs each workload in a fresh child process (so earlier work cannot
//! pollute `setup_s` or `peak_rss_mb`), prints `workload metric value unit`
//! lines and writes `<out>/<workload>.json`; `check bench` is the regression
//! gate against the committed `baseline.json`.
//!
//! ## Workloads (`--seed` sets the world seed and the request-mix seed)
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `study_full` | the paper's full plan: a worker-pool crawl of 141,600 SERPs, then the 11-section report with `Workers::Auto` | the reproduction itself; crawler and analysis do nearly all the work, serve none |
//! | `study_faults_resume` | the same plan over a lossy network (10% drops, 5% corruptions), checkpointed every 100 rounds, killed after round 1800, resumed from the last checkpoint on a fresh world, reported | retry accounting, checkpoint serialization and resume beside the fetches |
//! | `serve_direct` | one epoll `SocketServer`, no result cache: an open-loop Poisson stream at 4000 req/s, then a closed-loop peak rung of 2 connections × 32 outstanding | engine and serve core on a real traffic mix; crawler, analysis and router idle |
//! | `serve_routed` | the same generator against a 2 shards × 2 replicas `ShardedCluster` at 300 req/s, then the peak rung | router and shard RPC, absent from `serve_direct` |
//!
//! The request mix is uniform over the 240 paper queries × 59 vantage GPS
//! fixes (14,160 distinct requests), sent by one writer and one reader
//! thread over two keep-alive pipelined connections; latency is timed from
//! each request's *due* time. Serve rungs last `--seconds` (nominal) and a
//! third of it (peak). The study workloads run their fixed plan (12–20 s on
//! two cores) whatever `--seconds` says.
//!
//! ## End-to-end metrics (`--trace 0`; every workload reports every one)
//!
//! * `setup_s` — median of 15 world (or cluster) builds, timed in groups of
//!   5 before, between and after the measured phases;
//! * `ops_per_s` — SERPs per second of crawl plus report (study), or
//!   responses per second at the closed-loop peak (serve);
//! * `lat_p50_ms` — per crawl round (study, timed between progress
//!   callbacks), or per request on the nominal rung (serve), where a failed
//!   request counts as infinitely late;
//! * `peak_rss_mb` — the process's `VmHWM`.
//!
//! `lat_p90_ms` and `lat_p99_ms` are per-layer diagnostics: on a shared
//! two-core host their run-to-run spread exceeded any usable bound.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run repeats the workload with spans recorded by this harness
//! around its calls into each layer's public functions, and adds a replay
//! of 20,000 seeded (term, location) jobs that times each layer call on its
//! own (browser, net, engine, index, SERP render/parse/extract, interning).
//! It writes two files beside the result:
//!
//! * `<out>/<workload>.layers.json` — every per-layer metric as
//!   `{"name": {"value": v, "unit": u}}`: setup phases (`setup.*`), the
//!   replay (`browser.*`, `net.*`, `engine.*`, `serp.*`, `crawler.intern*`),
//!   and the workload's own layers — `crawler.*` and `analysis.*` on the
//!   study workloads, `serve.stage.*`, `loadgen.*` and `obs.*` on both serve
//!   workloads, `router.*` and `shard.*` on `serve_routed`, `proc.*` on all.
//!   A `_us.p50` / `_us.p99` suffix is a percentile of a per-call time;
//!   `net.self_us.p50` is `net.request − engine.search − serp.render` at the
//!   median, an approximation until the program records nested spans.
//! * `<out>/<workload>.trace.json` — Chrome trace-event JSON (open it in
//!   Perfetto or `chrome://tracing`): one `X` event per span, `cat` = the
//!   layer, `args.parent` = the causing span, so a replay job's calls sit
//!   under that job's span.
//!
//! The JSON result line of a traced run carries [`PER_LAYER`], the subset
//! every workload reports.

pub mod check;
pub mod loadgen;
pub mod procfs;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod study;

use std::path::PathBuf;

/// End-to-end metrics and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload's traced run reports, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 23] = [
    "setup.geo_s",
    "setup.corpus_s",
    "setup.index_s",
    "setup.engine_s",
    "browser.job_us.p50",
    "browser.job_us.p99",
    "net.request_us.p50",
    "net.request_us.p99",
    "net.self_us.p50",
    "engine.search_us.p50",
    "engine.search_us.p99",
    "engine.retrieve_us.p50",
    "engine.retrieve_us.p99",
    "serp.render_us.p50",
    "serp.parse_us.p50",
    "serp.extract_us.p50",
    "crawler.intern_us.p50",
    "crawler.intern_hit_frac",
    "lat_p90_ms",
    "lat_p99_ms",
    "proc.threads_peak",
    "proc.fds_peak",
    "proc.threads_after",
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's full crawl and report.
    StudyFull,
    /// The full plan over a lossy network with checkpoint, kill and resume.
    StudyFaultsResume,
    /// The epoll server under an open-loop mix, then a peak rung.
    ServeDirect,
    /// A 2 × 2 sharded cluster under the same generator.
    ServeRouted,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::StudyFull,
        Workload::StudyFaultsResume,
        Workload::ServeDirect,
        Workload::ServeRouted,
    ];

    /// The workload's name on the command line and in artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyFull => "study_full",
            Workload::StudyFaultsResume => "study_faults_resume",
            Workload::ServeDirect => "serve_direct",
            Workload::ServeRouted => "serve_routed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// World seed and request-mix seed.
    pub seed: u64,
    /// Nominal serve rung length; the peak rung runs a third of it.
    pub seconds: u64,
    /// Record spans and per-layer metrics.
    pub traced: bool,
    /// Where artifacts (and transient checkpoints) go.
    pub out: PathBuf,
}

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit (`s`, `ms`, `us`, `1/s`, `MB`, `count`, `ratio`, …).
    pub unit: &'static str,
}

/// What one workload run produced: correctness verdict, operation counts,
/// output digests, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations the workload asked of the program (SERP jobs, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or went unanswered.
    pub failed: u64,
    /// Output digests, named (`dataset`, `report`, `pages`).
    pub digests: Vec<(&'static str, u64)>,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A correct, empty outcome; checks may falsify it.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record a check: a false `ok` makes the run incorrect.
    pub fn require(&mut self, ok: bool, problem: String) {
        if !ok {
            self.correct = false;
            self.problems.push(problem);
        }
    }

    /// End the run as incorrect.
    pub fn fail(mut self, problem: String) -> Outcome {
        self.require(false, problem);
        self
    }

    /// Record a digest, checked against a golden value when one is known.
    pub fn digest(&mut self, name: &'static str, value: u64, golden: Option<u64>) {
        if let Some(golden) = golden {
            self.require(
                value == golden,
                format!("{name} digest {value:#018x} ≠ golden {golden:#018x}"),
            );
        }
        self.digests.push((name, value));
    }

    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Look up a per-layer metric by name.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// World or cluster builds timed in groups at spread-out points of a run
/// (before, between and after the measured phases); their median is
/// `setup_s`. One build takes ~40 ms, and a shared host can run markedly
/// slower for seconds at a time, so builds timed in one burst would often
/// all land in one slow spell.
#[derive(Debug, Default)]
pub struct SetupClock {
    times: Vec<f64>,
}

/// Builds per group.
pub const SETUP_GROUP: usize = 5;

impl SetupClock {
    /// Time `SETUP_GROUP` builds, dropping each before the next; return the
    /// last one.
    ///
    /// # Errors
    /// The first failed build.
    pub fn group<T>(
        &mut self,
        rec: &mut spans::Recorder,
        what: &str,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_GROUP {
            drop(last.take());
            let started = std::time::Instant::now();
            last = Some(build()?);
            self.times.push(started.elapsed().as_secs_f64());
            rec.record(
                0,
                format!("{what} build {}", self.times.len()),
                "setup",
                started,
            );
        }
        Ok(last.expect("a group builds at least once"))
    }

    /// The median build time so far, seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.times).unwrap_or(0.0)
    }
}

/// The harness's own input generator (splitmix64), so that generated inputs
/// depend on `--seed` and a stream name only, never on the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input stream of a seed.
    pub fn new(seed: u64, stream: &str) -> SplitMix64 {
        SplitMix64(seed ^ geoserp_core::crawler::fnv1a64(stream.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Record `<prefix>.p50` and `<prefix>.p99` of a raw sample, each value
/// multiplied by `scale` (e.g. ms → µs).
pub fn per_layer_percentiles(
    out: &mut Outcome,
    prefix: &str,
    sample: &[f64],
    scale: f64,
    unit: &'static str,
) {
    let sorted = stats::sorted(sample.to_vec());
    for (suffix, p) in [("p50", 0.5), ("p99", 0.99)] {
        let v = stats::percentile(&sorted, p).unwrap_or(0.0) * scale;
        out.layer(&format!("{prefix}.{suffix}"), v, unit);
    }
}

/// Run one workload in this process. A traced run adds the setup-phase
/// timings and the per-SERP layer replay, which every workload reports.
pub fn run_workload(cfg: &RunConfig, rec: &mut spans::Recorder) -> Outcome {
    let mut out = match cfg.workload {
        Workload::StudyFull => study::full(cfg, rec),
        Workload::StudyFaultsResume => study::faults_resume(cfg, rec),
        Workload::ServeDirect => serve::direct(cfg, rec),
        Workload::ServeRouted => serve::routed(cfg, rec),
    };
    if cfg.traced && out.correct {
        replay::setup_phases(cfg.seed, rec, &mut out);
        replay::run(cfg.seed, rec, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench: serde_json::Value = serde_json::from_str(&text).unwrap();
        let e2e: Vec<(String, String)> = bench["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let name = m["name"].as_str().unwrap().to_string();
                (name, m["unit"].as_str().unwrap().to_string())
            })
            .collect();
        let expected: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, expected);
        let layers: Vec<&str> = bench["per_layer"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        assert_eq!(layers, PER_LAYER);
        let workloads: Vec<&str> = bench["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
