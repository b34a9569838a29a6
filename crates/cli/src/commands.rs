//! Implementation of the `geoserp` subcommands. Each returns its output as
//! a `String` so the logic is unit-testable without capturing stdout.

use crate::args::{ArgError, ParsedArgs};
use geoserp_core::crawler::{
    observations_csv, results_csv, to_jsonl, CrawlBackend, CrawlCheckpoint, CrawlOptions,
};
use geoserp_core::prelude::*;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Top-level CLI failure.
#[derive(Debug)]
pub enum CliError {
    Args(ArgError),
    UnknownCommand(String),
    Io(std::io::Error),
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `geoserp help`)")
            }
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<geoserp_core::engine::ConfigError> for CliError {
    fn from(e: geoserp_core::engine::ConfigError) -> Self {
        CliError::Invalid(format!("invalid engine config: {e}"))
    }
}

/// The help text.
pub const HELP: &str = "\
geoserp — location-based search-personalization measurement framework
(reproduction of Kliman-Silver et al., IMC 2015)

USAGE:
    geoserp <command> [options]

COMMANDS:
    run          run a study and print the full per-figure report
                   --seed N        world seed            [2015]
                   --scale S       quick|medium|full     [medium]
                   --index I       retrieval backend: compressed (top-k
                                   posting blocks) or exact (reference);
                                   results are byte-identical [compressed]
                   --components C  SERP component set: paper (organic +
                                   Maps + News, byte-identical to every
                                   committed golden) or rich (adds local
                                   pack, answer box, knowledge panel,
                                   and ads)              [paper]
                   --export DIR    also write dataset exports into DIR
                   --save FILE     also save the dataset as JSON
                   --quiet         suppress the live per-round progress line
                 crash-safe crawls (checkpoint/resume; see EXPERIMENTS.md):
                   --checkpoint FILE       write a crash-safe checkpoint to
                                           FILE (atomically, overwriting)
                   --checkpoint-every N    ... every N completed rounds [5]
                   --resume FILE           continue a killed crawl from its
                                           checkpoint; needs the same seed,
                                           scale, and retry flags — the
                                           dataset is byte-identical to an
                                           uninterrupted run
                   --max-rounds N          stop after N rounds (simulate a
                                           kill; prints a partial summary)
                 retry policy (defaults reproduce the paper's crawler):
                   --retry-attempts N      fetch attempts per job      [3]
                   --retry-backoff-ms MS   first-retry backoff, virtual [500]
                   --round-deadline-ms MS  per-job ghost-time budget; jobs
                                           that can't afford their next
                                           backoff degrade to failed_job
                 observability (virtual-clock spans + metrics registry):
                   --metrics-out FILE      write the run's metrics; a .json
                                           path gets the snapshot JSON that
                                           `geoserp report` reads, any other
                                           path Prometheus text exposition
                   --trace-out FILE        write Chrome trace-event JSON,
                                           one span per lock-step round
                                           with its term and job count
                                           (load in Perfetto or
                                           chrome://tracing)
                 parallel analysis (report bytes never change):
                   --analysis-workers W    auto|N analysis threads [auto]
    analyze      rerun every figure over a saved dataset
                   <file>          dataset JSON from `run --save`
                   --analysis-workers W    as for run
    report       print the per-stage observability breakdown
                   <file>          a metrics snapshot from
                                   `run --metrics-out FILE.json`, or a saved
                                   dataset (crawl counters from its metadata)
                   <host:port>     a live server/router: fetches its
                                   /metrics.json (includes the serve-stage
                                   wall-clock histograms)
    compare      run a study and print the paper-vs-measured markdown
                 comparison with shape verdicts
                   --seed N / --scale S as above
    probe        issue one query and print the parsed SERP
                   <term>          the query (positional, required)
                   --lat X --lon Y spoofed GPS fix       [Cleveland]
                   --seed N        world seed            [2015]
                   --trace         print the network trace afterwards
    validate     run the §2.2 GPS-vs-IP validation experiment
                   --machines N    PlanetLab-style machines [50]
                   --queries N     controversial queries    [20]
                   --seed N        world seed               [2015]
    export       run a study and write observations.csv / results.csv /
                 dataset.jsonl into a directory
                   --out DIR       output directory (required)
                   --seed N / --scale S as above
    serve        serve the search engine over real TCP sockets (the same
                 engine the simulator runs; pages are byte-identical)
                   --addr A        bind address          [127.0.0.1:8080]
                   --workers N     event-loop threads    [4]
                   --keep-alive B  true|false            [true]
                   --max-body N    request body limit, bytes [1048576]
                   --seed N        world seed            [2015]
                   --day D         virtual day served    [0]
                   --queue-depth N admission slack: open connections
                                   beyond --workers before 503s [64]
                   --rate-limit N  serve-layer per-IP requests/min [100000]
                   --index I       exact|compressed index backend; served
                                   pages are byte-identical [compressed]
                   --corpus-scale K  generate the world at K x the base
                                   page count (deterministic; 1 = today's
                                   world, byte-identical)  [1]
                   --components C  paper|rich SERP component set, as for
                                   run; paper serves today's exact bytes
                                   [paper]
                   --smoke         start, self-probe /healthz and /metrics,
                                   then exit (for CI)
                   --no-tracing    disable distributed tracing (request
                                   spans + per-stage histograms); served
                                   pages are byte-identical either way
                   --trace-out F   with --smoke: also trace one /search
                                   and write the assembled Chrome trace
                                   (router mode stitches every process)
                 sharded topology (pages stay byte-identical to direct):
                   --shards N      index shards behind a scatter-gather
                                   router; 0 = single-process  [0]
                   --replicas M    serve replicas per shard    [1]
                   --hedge-ms MS   slow-replica hedge threshold [200]
                 the engine's own 30/min per-IP limit is raised for serving
                 (every TCP client behind one NAT would share it); use
                 --rate-limit to shed load at the socket layer instead
    router       the sharded tier as a first-class command: `serve` with
                 mandatory sharding; same flags, defaults --shards 2
                 --replicas 2
    loadgen      closed-loop load generator against one running server or
                 router; reports throughput (responses received per
                 second) + p50/p99
                   --addr A        the `geoserp serve` or `router` address
                                   (required)
                   --requests N    total requests        [200]
                   --concurrency C client threads        [4]
                   --keep-alive B  true|false            [true]
                   --query Q       search term           [Coffee]
                   --out FILE      also write the JSON report
                   --trace-out F   after the run, pull /spans from --addr
                                   and write the assembled Chrome trace
    trace        assemble per-process span logs into one Chrome trace
                 (load in Perfetto or chrome://tracing)
                   <src>           addr[,addr,...] of running servers —
                                   each one's /spans collector endpoint is
                                   pulled — or a directory of *.json span
                                   dumps (one per process)
                   --out FILE      write the trace here (default: stdout)
    help         this text

Scales: quick (seconds, sanity only), medium (default), full (the paper's
complete 240×59×2×5 plan).
";

fn plan_for(scale: &str) -> Result<ExperimentPlan, CliError> {
    match scale {
        "quick" => Ok(ExperimentPlan {
            days: 2,
            queries_per_category: Some(6),
            locations_per_granularity: Some(6),
            ..ExperimentPlan::paper_full()
        }),
        "medium" => Ok(ExperimentPlan {
            days: 3,
            queries_per_category: Some(16),
            locations_per_granularity: Some(12),
            ..ExperimentPlan::paper_full()
        }),
        "full" => Ok(ExperimentPlan::paper_full()),
        other => Err(CliError::Invalid(format!(
            "--scale {other}: expected quick|medium|full"
        ))),
    }
}

/// Parse `--analysis-workers auto|N` (default `auto`).
fn analysis_options_from(args: &ParsedArgs) -> Result<AnalysisOptions, CliError> {
    let mut options = AnalysisOptions::default();
    if let Some(w) = args.get("analysis-workers") {
        let workers = Workers::parse(w)
            .map_err(|e| CliError::Invalid(format!("--analysis-workers {w}: {e}")))?;
        options = options.workers(workers);
    }
    Ok(options)
}

/// Parse `--index exact|compressed` (default: the engine's default
/// backend, `compressed`).
fn index_backend_from(args: &ParsedArgs) -> Result<IndexBackend, CliError> {
    match args.get("index") {
        None => Ok(IndexBackend::default()),
        Some(s) => s
            .parse()
            .map_err(|e: String| CliError::Invalid(format!("--index: {e}"))),
    }
}

/// Parse `--components paper|rich` (default: the engine's default set,
/// `paper` — byte-identical to every committed golden digest).
fn components_from(args: &ParsedArgs) -> Result<ComponentSet, CliError> {
    match args.get("components") {
        None => Ok(ComponentSet::default()),
        Some(s) => s
            .parse()
            .map_err(|e: String| CliError::Invalid(format!("--components: {e}"))),
    }
}

/// Parse `--corpus-scale N` (default 1: the base world).
fn corpus_scale_from(args: &ParsedArgs) -> Result<u32, CliError> {
    let scale = args.get_u64("corpus-scale", 1)?;
    let scale = u32::try_from(scale)
        .map_err(|_| CliError::Invalid(format!("--corpus-scale {scale}: too large")))?;
    if scale == 0 {
        return Err(CliError::Invalid("--corpus-scale must be positive".into()));
    }
    Ok(scale)
}

fn study_from(args: &ParsedArgs) -> Result<Study, CliError> {
    let seed = args.get_u64("seed", 2015)?;
    let mut plan = plan_for(args.get("scale").unwrap_or("medium"))?;
    // Retry-policy overrides. The policy is part of the plan's stable hash,
    // so a resumed run must repeat the same flags as the checkpointing run.
    let attempts = args.get_u64("retry-attempts", u64::from(plan.retry.max_attempts))?;
    plan.retry.max_attempts = u32::try_from(attempts)
        .map_err(|_| CliError::Invalid(format!("--retry-attempts {attempts}: too large")))?;
    if plan.retry.max_attempts == 0 {
        return Err(CliError::Invalid(
            "--retry-attempts must be positive".into(),
        ));
    }
    plan.retry.backoff_base_ms = args.get_u64("retry-backoff-ms", plan.retry.backoff_base_ms)?;
    if args.get("round-deadline-ms").is_some() {
        plan.retry.round_deadline_ms = Some(args.get_u64("round-deadline-ms", 0)?);
    }
    Ok(Study::builder()
        .seed(seed)
        .plan(plan)
        .engine_config(
            EngineConfig::with_index_backend(index_backend_from(args)?)
                .components(components_from(args)?),
        )
        .analysis_options(analysis_options_from(args)?)
        .build()?)
}

/// `geoserp run`
pub fn cmd_run(args: &ParsedArgs) -> Result<String, CliError> {
    let study = study_from(args)?;
    let ckpt_file = args.get("checkpoint");
    let resume_file = args.get("resume");
    let every = args.get_usize("checkpoint-every", 5)?;
    let max_rounds = match args.get("max-rounds") {
        Some(_) => Some(args.get_usize("max-rounds", 0)?),
        None => None,
    };
    if every == 0 {
        return Err(CliError::Invalid(
            "--checkpoint-every must be positive".into(),
        ));
    }
    if args.get("checkpoint-every").is_some() && ckpt_file.is_none() {
        return Err(CliError::Invalid(
            "--checkpoint-every needs --checkpoint FILE".into(),
        ));
    }
    if max_rounds == Some(0) {
        return Err(CliError::Invalid("--max-rounds must be positive".into()));
    }

    let quiet = args.has("quiet");
    // One observability hub for the whole pipeline: the crawler shares it
    // with the engine and the network simulator, and the figure report adds
    // its per-figure timings — so `--metrics-out` covers every stage.
    let obs = std::sync::Arc::new(geoserp_core::obs::ObsHub::new());
    let crawler = study.crawler_with_obs(std::sync::Arc::clone(&obs));
    let plan = study.plan();
    let (dataset, notes) = if ckpt_file.is_some() || resume_file.is_some() || max_rounds.is_some() {
        run_checkpointed(
            &crawler,
            plan,
            quiet,
            ckpt_file,
            resume_file,
            every,
            max_rounds,
        )?
    } else {
        let ds = if quiet {
            crawler.run(plan)
        } else {
            run_with_live_progress(&crawler, plan)
        };
        (ds, String::new())
    };

    // A deliberately partial crawl is not a dataset worth a figure report:
    // summarize it and point at --resume instead.
    let mut out = if max_rounds.is_some() {
        partial_summary(&dataset)
    } else {
        geoserp_core::report::full_report_with_options(
            &dataset,
            Some(&obs),
            study.analysis_options(),
        )
    };
    out.push_str(&notes);
    if let Some(dir) = args.get("export") {
        write_exports(&dataset, Path::new(dir))?;
        out.push_str(&format!("\n(dataset exports written to {dir})\n"));
    }
    if let Some(file) = args.get("save") {
        let mut w = std::io::BufWriter::new(std::fs::File::create(file)?);
        serde_json::to_writer(&mut w, &dataset).map_err(std::io::Error::from)?;
        // Dropping a `BufWriter` discards its flush error: check it here.
        w.flush()?;
        out.push_str(&format!(
            "(dataset saved to {file}; re-analyze with `geoserp analyze {file}`)\n"
        ));
    }
    if let Some(file) = args.get("metrics-out") {
        let snap = obs.snapshot();
        let body = if file.ends_with(".json") {
            snap.to_json()
        } else {
            snap.to_prometheus()
        };
        std::fs::write(file, body)?;
        out.push_str(&format!(
            "(metrics written to {file}; render with `geoserp report {file}`)\n"
        ));
    }
    if let Some(file) = args.get("trace-out") {
        use geoserp_core::obs::{assemble_chrome_trace, ProcessSpans};
        let spans = ProcessSpans::from_records("crawler", &obs.spans().snapshot());
        std::fs::write(file, assemble_chrome_trace(&[spans]))?;
        out.push_str(&format!(
            "(trace written to {file}; load in Perfetto or chrome://tracing)\n"
        ));
    }
    Ok(out)
}

/// Drive a crawl that checkpoints, resumes, and/or stops early. Returns the
/// dataset plus status notes to append after the report.
fn run_checkpointed(
    crawler: &Crawler,
    plan: &ExperimentPlan,
    quiet: bool,
    ckpt_file: Option<&str>,
    resume_file: Option<&str>,
    every: usize,
    max_rounds: Option<usize>,
) -> Result<(Dataset, String), CliError> {
    let mut notes = String::new();

    let mut opts = CrawlOptions::new(CrawlBackend::from_plan_flag(plan.parallel));
    if let Some(n) = max_rounds {
        opts = opts.stop_after_rounds(n);
    }
    if let Some(file) = resume_file {
        let ckpt = CrawlCheckpoint::load(Path::new(file))
            .map_err(|e| CliError::Invalid(format!("--resume {file}: {e}")))?;
        notes.push_str(&format!(
            "(resumed from {file} at round {}/{})\n",
            ckpt.completed_rounds, ckpt.total_rounds
        ));
        opts = opts.resume(ckpt);
    }

    // The checkpoint sink can't return an error, so the first failed write is
    // parked here and surfaced once the run finishes.
    let save_error: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let save = |c: &CrawlCheckpoint| {
        let file = ckpt_file.expect("sink installed only with --checkpoint");
        if save_error.borrow().is_some() {
            return; // keep the first error
        }
        if let Err(e) = c.save(Path::new(file)) {
            *save_error.borrow_mut() = Some(format!("--checkpoint {file}: {e}"));
        }
    };
    if ckpt_file.is_some() {
        opts = opts.checkpoint_every(every).on_checkpoint(&save);
    }

    let dataset = crawler
        .run_with_options(plan, opts, |p| {
            if quiet {
                return;
            }
            let stride = (p.total_rounds / 100).max(1);
            if p.completed_rounds % stride == 0 || p.completed_rounds == p.total_rounds {
                eprint!(
                    "\r[crawl] round {:>5}/{} day {:>2} {:?} {:<28.28} {:>7} SERPs",
                    p.completed_rounds,
                    p.total_rounds,
                    p.day,
                    p.granularity,
                    p.term,
                    p.observations
                );
            }
        })
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    if !quiet {
        eprintln!();
    }
    if let Some(msg) = save_error.into_inner() {
        return Err(CliError::Invalid(msg));
    }
    if let Some(file) = ckpt_file {
        notes.push_str(&format!(
            "(checkpoints written to {file} every {every} rounds)\n"
        ));
    }
    Ok((dataset, notes))
}

/// The short report printed for a `--max-rounds` partial crawl.
fn partial_summary(dataset: &Dataset) -> String {
    format!(
        "partial crawl: {} observations, {} distinct URLs, {} failed jobs\n\
         (continue it with `geoserp run --resume`; the figure report needs a\n\
         complete crawl)\n",
        dataset.observations().len(),
        dataset.distinct_urls(),
        dataset.meta.failed_jobs,
    )
}

/// Run the study printing a live per-round status line to stderr. The
/// callback fires on the scheduler thread between rounds, so printing never
/// perturbs the crawl's determinism; stdout stays clean for the report.
fn run_with_live_progress(crawler: &Crawler, plan: &ExperimentPlan) -> Dataset {
    let started = std::time::Instant::now();
    let rounds = std::cell::Cell::new(0usize);
    let dataset = crawler.run_with_progress(plan, |p| {
        rounds.set(p.completed_rounds);
        // Overwrite one stderr line; repaint at most ~1% of rounds so huge
        // plans don't spend their time in the terminal.
        let stride = (p.total_rounds / 100).max(1);
        if p.completed_rounds % stride == 0 || p.completed_rounds == p.total_rounds {
            eprint!(
                "\r[crawl] round {:>5}/{} day {:>2} {:?} {:<28.28} {:>7} SERPs",
                p.completed_rounds, p.total_rounds, p.day, p.granularity, p.term, p.observations
            );
        }
    });
    eprintln!(
        "\r[crawl] {} rounds, {} SERPs, {} distinct URLs in {:.1}s{:<24}",
        rounds.get(),
        dataset.observations().len(),
        dataset.distinct_urls(),
        started.elapsed().as_secs_f64(),
        ""
    );
    dataset
}

/// `geoserp analyze <dataset.json>` — rerun every figure over a previously
/// saved dataset, decoupling collection from analysis.
pub fn cmd_analyze(args: &ParsedArgs) -> Result<String, CliError> {
    let file = args
        .positional
        .first()
        .ok_or_else(|| CliError::Invalid("analyze needs a dataset file".into()))?;
    let json = std::fs::read_to_string(file)?;
    let dataset = Dataset::from_json(&json)
        .map_err(|e| CliError::Invalid(format!("{file}: not a geoserp dataset: {e}")))?;
    let options = analysis_options_from(args)?;
    Ok(geoserp_core::report::full_report_with_options(
        &dataset, None, &options,
    ))
}

/// `geoserp report <file|addr>` — print the per-stage observability
/// breakdown. Accepts a metrics snapshot written by `run --metrics-out
/// x.json`, a saved dataset (whose crawl counters live in its metadata),
/// or a live server's `host:port` (fetches `/metrics.json`, the full
/// snapshot including the `_wall_`-marked serve-stage histograms).
pub fn cmd_report(args: &ParsedArgs) -> Result<String, CliError> {
    let file = args.positional.first().ok_or_else(|| {
        CliError::Invalid("report needs a metrics snapshot, dataset file, or host:port".into())
    })?;
    let json = if file.parse::<std::net::SocketAddr>().is_ok() {
        String::from_utf8(http_get(file, "/metrics.json")?)
            .map_err(|e| CliError::Invalid(format!("{file}: /metrics.json not UTF-8: {e}")))?
    } else {
        std::fs::read_to_string(file)?
    };
    if let Ok(snap) = geoserp_core::obs::MetricsSnapshot::from_json(&json) {
        return Ok(geoserp_core::obs::render_run_report(&snap));
    }
    let dataset = Dataset::from_json(&json).map_err(|e| {
        CliError::Invalid(format!(
            "{file}: neither a metrics snapshot nor a geoserp dataset: {e}"
        ))
    })?;
    Ok(geoserp_core::obs::render_run_report(&snapshot_from_meta(
        &dataset,
    )))
}

/// Rebuild the crawl-stage counters a live run registers from a saved
/// dataset's metadata, so `geoserp report` renders the same `[crawler]`
/// section for datasets as for metrics snapshots. The meta's counters come
/// under the registry's own names; the rows the registry keeps no counter
/// for (it records backoff as a histogram) are added here.
fn snapshot_from_meta(dataset: &Dataset) -> geoserp_core::obs::MetricsSnapshot {
    let mut snap = geoserp_core::obs::MetricsSnapshot::default();
    let m = &dataset.meta;
    let jobs = dataset.observations().len() as u64 + m.failed_jobs;
    for (name, value) in m.counters().into_iter().chain([
        ("crawler.jobs", jobs),
        ("crawler.backoff_ms_total", m.backoff_ms),
    ]) {
        snap.counters.insert(name.to_string(), value);
    }
    snap.gauges.insert(
        "crawler.max_job_backoff_ms".to_string(),
        i64::try_from(m.max_job_backoff_ms).unwrap_or(i64::MAX),
    );
    snap
}

/// `geoserp compare` — run a study and emit the paper-vs-measured markdown
/// comparison with shape verdicts.
pub fn cmd_compare(args: &ParsedArgs) -> Result<String, CliError> {
    let study = study_from(args)?;
    let dataset = study.run();
    let cmp = geoserp_core::analysis::compare_with_paper(&dataset);
    let mut out = cmp.markdown.clone();
    out.push_str(&format!(
        "\noverall: {}\n",
        if cmp.all_shapes_hold() {
            "every tracked shape from the paper HOLDS"
        } else {
            "one or more tracked shapes FAIL — see above"
        }
    ));
    Ok(out)
}

/// `geoserp probe <term>`
pub fn cmd_probe(args: &ParsedArgs) -> Result<String, CliError> {
    let term = args
        .positional
        .first()
        .ok_or_else(|| CliError::Invalid("probe needs a query term".into()))?;
    let seed = args.get_u64("seed", 2015)?;
    let lat = args.get_f64("lat", geoserp_core::geo::us::CUYAHOGA_CENTROID.lat_deg)?;
    let lon = args.get_f64("lon", geoserp_core::geo::us::CUYAHOGA_CENTROID.lon_deg)?;
    let coord = Coord::new(lat, lon);

    let study = Study::builder().seed(seed).build()?;
    let crawler = study.crawler();
    let net = crawler.net();
    let host = geoserp_core::engine::SEARCH_HOST;
    let src = geoserp_core::net::ip("198.51.100.99");
    let mut browser = geoserp_core::browser::Browser::new(std::sync::Arc::clone(net), src);
    // `Browser::run_search_job` one step at a time, so that each exchange
    // can be traced: the homepage load, then the query.
    browser.set_geolocation(coord);
    let at = net.clock().now().millis();
    let dst = net
        .dns()
        .resolve(host)
        .map_or("?".into(), |d| d.to_string());
    let stamp = |ms: u64| format!("{:>10}.{:03} {src}", ms / 1000, ms % 1000);
    let mut trace = String::new();
    let mut exchange = |path: &str, query: &[(&str, &str)]| {
        let fetch = browser
            .load(host, path, query)
            .map_err(|e| CliError::Invalid(format!("search failed: {e}")))?;
        let mut req = geoserp_core::net::Request::get(host, path);
        for (k, v) in query {
            req = req.with_query(*k, *v);
        }
        // `load` returns only 2xx pages, and the search service's are 200s.
        trace.push_str(&format!(
            "{} > {dst} GET {host}{}\n{} < {dst} HTTP 200\n",
            stamp(at),
            req.target(),
            stamp(at + fetch.rtt_ms),
        ));
        Ok::<_, CliError>(fetch)
    };
    exchange("/", &[])?;
    let fetch = exchange("/search", &[("q", term.as_str())])?;
    let page = geoserp_core::serp::parse(&fetch.body)
        .map_err(|e| CliError::Invalid(format!("SERP did not parse: {e}")))?;

    let mut out = format!(
        "query: {:?}   gps: {}   served by: {}   reported location: {}\n\n",
        page.query,
        coord.to_gps_string(),
        fetch.datacenter.as_deref().unwrap_or("?"),
        page.reported_location
    );
    for r in page.extract_results() {
        out.push_str(&format!(
            "{:>2}. [{:^7}] {}\n",
            r.rank + 1,
            r.rtype.to_string(),
            r.url
        ));
    }
    if args.has("trace") {
        out.push_str("\nnetwork trace:\n");
        out.push_str(&trace);
    }
    Ok(out)
}

/// `geoserp validate`
pub fn cmd_validate(args: &ParsedArgs) -> Result<String, CliError> {
    let seed = args.get_u64("seed", 2015)?;
    let machines = args.get_usize("machines", 50)?;
    let queries = args.get_usize("queries", 20)?;
    if machines == 0 || queries == 0 {
        return Err(CliError::Invalid(
            "--machines and --queries must be positive".into(),
        ));
    }
    let study = Study::builder().seed(seed).build()?;
    let r = study.validate(machines, queries);
    Ok(format!(
        "validation: {} machines × {} controversial queries\n\
         shared GPS : pairwise overlap {:.1}%  identical pages {:.1}%  footer agreement {:.0}%\n\
         IP fallback: pairwise overlap {:.1}%  identical pages {:.1}%\n\
         (paper: \"94% of the search results received by the machines are identical\")\n",
        r.machines,
        r.queries,
        100.0 * r.gps_mean_pairwise_jaccard,
        100.0 * r.gps_identical_pair_fraction,
        100.0 * r.gps_reported_location_agreement,
        100.0 * r.ip_mean_pairwise_jaccard,
        100.0 * r.ip_identical_pair_fraction,
    ))
}

/// Parse a `--flag true|false` value (default when absent).
fn get_bool(args: &ParsedArgs, flag: &str, default: bool) -> Result<bool, CliError> {
    match args.get(flag) {
        None => Ok(default),
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        Some(other) => Err(CliError::Invalid(format!(
            "--{flag} {other}: expected true|false"
        ))),
    }
}

/// The value flags `serve` and `router` accept.
pub(crate) const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "keep-alive",
    "max-body",
    "seed",
    "day",
    "queue-depth",
    "rate-limit",
    "shards",
    "replicas",
    "hedge-ms",
    "trace-out",
    "index",
    "corpus-scale",
    "components",
];

/// The switches `serve` and `router` accept.
pub(crate) const SERVE_SWITCHES: &[&str] = &["smoke", "no-tracing"];

/// Parse the socket-layer flags shared by `serve` and `router` into a
/// seed, a [`ServeConfig`], and the bind address. The engine's own per-IP
/// limit models Google throttling distinct crawler machines; behind one
/// socket every client shares an IP, so [`ServeConfig`] raises it by
/// default (`engine_rate_limit_max`) and shedding moves to the
/// serve-layer limiter.
fn serve_setup_from(
    args: &ParsedArgs,
) -> Result<(u64, geoserp_core::serve::ServeConfig, String), CliError> {
    use geoserp_core::serve::ServeConfig;
    let seed = args.get_u64("seed", 2015)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let workers = args.get_usize("workers", 4)?;
    let keep_alive = get_bool(args, "keep-alive", true)?;
    let max_body = args.get_usize("max-body", 1024 * 1024)?;
    let day = args.get_u64("day", 0)?;
    let day =
        u32::try_from(day).map_err(|_| CliError::Invalid(format!("--day {day}: too large")))?;
    let queue_depth = args.get_usize("queue-depth", 64)?;
    let rate_limit = args.get_usize("rate-limit", 100_000)?;
    if workers == 0 || queue_depth == 0 || rate_limit == 0 || max_body == 0 {
        return Err(CliError::Invalid(
            "--workers, --queue-depth, --rate-limit, and --max-body must be positive".into(),
        ));
    }
    let config = ServeConfig::new()
        .workers(workers)
        .keep_alive(keep_alive)
        .queue_depth(queue_depth)
        .rate_limit(rate_limit, 60_000)
        .day(day)
        .tracing(!args.has("no-tracing"))
        .limits(geoserp_core::net::WireLimits::new().max_body_bytes(max_body));
    Ok((seed, config, addr))
}

/// Parse `--shards/--replicas/--hedge-ms`. `shards == 0` means "no
/// router": plain single-process serving.
fn topology_from(args: &ParsedArgs, default_shards: u64) -> Result<(u32, u32, u64), CliError> {
    let shards = args.get_u64("shards", default_shards)?;
    let shards = u32::try_from(shards)
        .map_err(|_| CliError::Invalid(format!("--shards {shards}: too large")))?;
    let replicas = args.get_u64("replicas", 1)?;
    let replicas = u32::try_from(replicas)
        .map_err(|_| CliError::Invalid(format!("--replicas {replicas}: too large")))?;
    if replicas == 0 {
        return Err(CliError::Invalid("--replicas must be positive".into()));
    }
    let hedge_ms = args.get_u64("hedge-ms", 200)?;
    if hedge_ms == 0 {
        return Err(CliError::Invalid("--hedge-ms must be positive".into()));
    }
    Ok((shards, replicas, hedge_ms))
}

/// `geoserp serve` — blocks until killed (or returns after a self-probe
/// with `--smoke`). With `--shards N` it starts the full sharded topology
/// (N shards × `--replicas` replicas plus the scatter-gather router) and
/// serves through the router; pages stay byte-identical either way.
pub fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    let (shards, replicas, hedge_ms) = topology_from(args, 0)?;
    serve_blocking(args, shards, replicas, hedge_ms)
}

/// `geoserp router` — the sharded topology as a first-class command:
/// like `serve --shards`, but sharding is mandatory (default 2 × 2).
pub fn cmd_router(args: &ParsedArgs) -> Result<String, CliError> {
    let (shards, replicas, hedge_ms) = topology_from(args, 2)?;
    if shards == 0 {
        return Err(CliError::Invalid(
            "router needs --shards ≥ 1 (use `serve` for single-process)".into(),
        ));
    }
    let replicas = if args.get("replicas").is_none() {
        2
    } else {
        replicas
    };
    serve_blocking(args, shards, replicas, hedge_ms)
}

fn serve_blocking(
    args: &ParsedArgs,
    shards: u32,
    replicas: u32,
    hedge_ms: u64,
) -> Result<String, CliError> {
    use geoserp_core::serve::{ClusterConfig, ServedWorld, ShardedCluster, SocketServer};

    let (seed, config, addr) = serve_setup_from(args)?;
    let engine = EngineConfig::with_index_backend(index_backend_from(args)?)
        .components(components_from(args)?);
    let corpus_scale = corpus_scale_from(args)?;
    if shards == 0 {
        let world = ServedWorld::build_scaled(seed, config.engine_config(engine), corpus_scale)?;
        let server = SocketServer::start(&addr, &world, config)?;
        let local = server.local_addr();
        if args.has("smoke") {
            let mut out = format!("serving search.example.com on {local}\n");
            smoke_probe(&mut out, &local.to_string())?;
            if let Some(file) = args.get("trace-out") {
                trace_one_search(&local.to_string())?;
                let doc = pull_spans(&local.to_string())?;
                std::fs::write(file, geoserp_core::obs::assemble_chrome_trace(&[doc]))?;
                out.push_str(&format!("(trace written to {file})\n"));
            }
            server.shutdown();
            out.push_str("smoke ok, server drained\n");
            return Ok(out);
        }
        eprintln!("geoserp: serving search.example.com on {local} (ctrl-c to stop)");
        // Keep `server` alive while parked.
        loop {
            std::thread::park();
        }
    } else {
        let cluster = ShardedCluster::start(
            &addr,
            seed,
            engine,
            ClusterConfig::new(shards, replicas)
                .hedge_ms(hedge_ms)
                .serve(config)
                .corpus_scale(corpus_scale),
        )?;
        let local = cluster.router_addr();
        if args.has("smoke") {
            let mut out = format!(
                "routing search.example.com on {local} ({shards} shards x {replicas} replicas)\n"
            );
            smoke_probe(&mut out, &local.to_string())?;
            if let Some(file) = args.get("trace-out") {
                trace_one_search(&local.to_string())?;
                std::fs::write(file, cluster.assemble_trace())?;
                out.push_str(&format!("(trace written to {file})\n"));
            }
            cluster.shutdown();
            out.push_str("smoke ok, cluster drained\n");
            return Ok(out);
        }
        eprintln!(
            "geoserp: routing search.example.com on {local} \
             ({shards} shards x {replicas} replicas, ctrl-c to stop)"
        );
        // Keep the cluster alive while parked.
        loop {
            std::thread::park();
        }
    }
}

/// Probe `/healthz` and `/metrics` on a freshly started server, appending
/// one line per probe to `out`.
fn smoke_probe(out: &mut String, addr: &str) -> Result<(), CliError> {
    for path in ["/healthz", "/metrics"] {
        let body = http_get(addr, path)?;
        out.push_str(&format!("GET {path}: {} bytes\n", body.len()));
    }
    Ok(())
}

/// Minimal client for the smoke probe: one request, returns the body.
fn http_get(addr: &str, path: &str) -> Result<Vec<u8>, CliError> {
    http_request(
        addr,
        &geoserp_core::net::Request::get(geoserp_core::engine::SEARCH_HOST, path),
    )
}

/// Issue one traced `/search` so the span logs have a request to show,
/// then give the serve layer a beat to record the response's flush span.
fn trace_one_search(addr: &str) -> Result<(), CliError> {
    let req = geoserp_core::net::Request::get(geoserp_core::engine::SEARCH_HOST, "/search")
        .with_query("q", "Coffee");
    http_request(addr, &req)?;
    std::thread::sleep(std::time::Duration::from_millis(150));
    Ok(())
}

/// Pull one process's `/spans` collector document.
fn pull_spans(addr: &str) -> Result<geoserp_core::obs::ProcessSpans, CliError> {
    let body = http_get(addr, "/spans")?;
    let text = String::from_utf8(body)
        .map_err(|e| CliError::Invalid(format!("{addr}/spans: not UTF-8: {e}")))?;
    geoserp_core::obs::parse_process_spans(&text)
        .map_err(|e| CliError::Invalid(format!("{addr}/spans: {e}")))
}

fn http_request(addr: &str, req: &geoserp_core::net::Request) -> Result<Vec<u8>, CliError> {
    use geoserp_core::net::{encode_request, parse_response, WireLimits};
    use std::io::{Read, Write};
    let path = &req.path;
    let wire = encode_request(req).map_err(|e| CliError::Invalid(e.to_string()))?;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    stream.write_all(&wire)?;
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, _)) = parse_response(&buf, &limits)
            .map_err(|e| CliError::Invalid(format!("GET {path}: {e}")))?
        {
            if !resp.status.is_success() {
                return Err(CliError::Invalid(format!(
                    "GET {path}: status {}",
                    resp.status.code()
                )));
            }
            return Ok(resp.body.to_vec());
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(CliError::Invalid(format!("GET {path}: connection closed")));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// `geoserp loadgen`
pub fn cmd_loadgen(args: &ParsedArgs) -> Result<String, CliError> {
    use geoserp_core::serve::{loadgen, LoadgenConfig};
    let requests = args.get_usize("requests", 200)?;
    let concurrency = args.get_usize("concurrency", 4)?;
    let keep_alive = get_bool(args, "keep-alive", true)?;
    if requests == 0 || concurrency == 0 {
        return Err(CliError::Invalid(
            "--requests and --concurrency must be positive".into(),
        ));
    }

    let addr = args
        .get("addr")
        .ok_or_else(|| CliError::Invalid("loadgen needs --addr (a running server)".into()))?
        .to_string();
    let mut cfg = LoadgenConfig::new()
        .requests(requests)
        .concurrency(concurrency)
        .keep_alive(keep_alive);
    if let Some(q) = args.get("query") {
        cfg = cfg.query(q);
    }
    let report = loadgen::run(&addr, &cfg)?;
    if report.ok == 0 {
        return Err(CliError::Invalid(format!(
            "loadgen against {addr}: all {} requests failed",
            report.requests
        )));
    }
    let mut out = format!(
        "loadgen against {addr}: {} requests, {} ok, {} errors in {:.2}s\n\
         throughput {:.0} req/s   p50 {} us   p99 {} us\n",
        report.requests,
        report.ok,
        report.errors,
        report.elapsed_s,
        report.throughput_rps,
        report.p50_us,
        report.p99_us
    );
    if let Some(file) = args.get("out") {
        std::fs::write(
            file,
            serde_json::to_string_pretty(&report).expect("report serializes"),
        )?;
        out.push_str(&format!("(report written to {file})\n"));
    }
    if let Some(file) = args.get("trace-out") {
        let doc = pull_spans(&addr)?;
        std::fs::write(file, geoserp_core::obs::assemble_chrome_trace(&[doc]))?;
        out.push_str(&format!("(trace written to {file})\n"));
    }
    Ok(out)
}

/// `geoserp trace <src>` — assemble per-process span logs into one merged
/// Chrome trace. `src` is either a comma-separated list of live server
/// addresses (each one's `/spans` collector endpoint is pulled) or a
/// directory of `*.json` span dumps, one per process.
pub fn cmd_trace(args: &ParsedArgs) -> Result<String, CliError> {
    let src = args.positional.first().ok_or_else(|| {
        CliError::Invalid("trace needs addr[,addr,...] or a span-dump directory".into())
    })?;
    let mut docs = Vec::new();
    if src.contains(':') {
        for addr in src.split(',') {
            docs.push(pull_spans(addr.trim())?);
        }
    } else {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(src)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(CliError::Invalid(format!("{src}: no *.json span dumps")));
        }
        for f in &files {
            let text = std::fs::read_to_string(f)?;
            docs.push(
                geoserp_core::obs::parse_process_spans(&text)
                    .map_err(|e| CliError::Invalid(format!("{}: {e}", f.display())))?,
            );
        }
    }
    let trace = geoserp_core::obs::assemble_chrome_trace(&docs);
    match args.get("out") {
        Some(file) => {
            std::fs::write(file, &trace)?;
            Ok(format!(
                "assembled trace over {} process(es) written to {file}\n",
                docs.len()
            ))
        }
        None => Ok(trace),
    }
}

fn write_exports(dataset: &Dataset, dir: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("observations.csv"), observations_csv(dataset))?;
    std::fs::write(dir.join("results.csv"), results_csv(dataset))?;
    std::fs::write(dir.join("dataset.jsonl"), to_jsonl(dataset))?;
    Ok(())
}

/// `geoserp export`
pub fn cmd_export(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = args
        .get("out")
        .ok_or_else(|| CliError::Invalid("export needs --out DIR".into()))?
        .to_string();
    let study = study_from(args)?;
    let dataset = study.run();
    write_exports(&dataset, Path::new(&dir))?;
    // A quick integrity line so scripts can assert on it.
    let categories: std::collections::BTreeSet<_> =
        dataset.observations().iter().map(|o| o.category).collect();
    Ok(format!(
        "wrote observations.csv, results.csv, dataset.jsonl to {dir}\n\
         {} observations, {} distinct URLs, {} categories\n",
        dataset.observations().len(),
        dataset.distinct_urls(),
        categories.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn probe_prints_a_parsed_serp() {
        let p = parse(
            &argv("probe Hospital --seed 3"),
            &["seed", "lat", "lon"],
            &["trace"],
        )
        .unwrap();
        let out = cmd_probe(&p).unwrap();
        assert!(out.contains("reported location: Cleveland, OH"), "{out}");
        assert!(out.contains("[organic ]") || out.contains("organic"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn probe_with_custom_coordinates_and_trace() {
        let p = parse(
            &argv("probe Bank --lat 34.2 --lon -111.6 --trace"),
            &["seed", "lat", "lon"],
            &["trace"],
        )
        .unwrap();
        let out = cmd_probe(&p).unwrap();
        assert!(out.contains("Arizona, USA"), "{out}");
        let (_, trace) = out
            .split_once("\nnetwork trace:\n")
            .unwrap_or_else(|| panic!("trace missing: {out}"));
        assert_eq!(
            trace,
            "         0.000 198.51.100.99 > 10.50.0.1 GET search.example.com/\n\
             \x20        0.065 198.51.100.99 < 10.50.0.1 HTTP 200\n\
             \x20        0.000 198.51.100.99 > 10.50.0.1 GET search.example.com/search?q=Bank\n\
             \x20        0.067 198.51.100.99 < 10.50.0.1 HTTP 200\n"
        );
    }

    #[test]
    fn probe_requires_a_term() {
        let p = parse(&argv("probe"), &[], &[]).unwrap();
        assert!(matches!(cmd_probe(&p), Err(CliError::Invalid(_))));
    }

    #[test]
    fn validate_runs_small() {
        let p = parse(
            &argv("validate --machines 5 --queries 2 --seed 4"),
            &["machines", "queries", "seed"],
            &[],
        )
        .unwrap();
        let out = cmd_validate(&p).unwrap();
        assert!(out.contains("5 machines × 2 controversial queries"));
        assert!(out.contains("shared GPS"));
    }

    #[test]
    fn validate_rejects_zero() {
        let p = parse(&argv("validate --machines 0"), &["machines"], &[]).unwrap();
        assert!(matches!(cmd_validate(&p), Err(CliError::Invalid(_))));
    }

    #[test]
    fn bad_scale_is_reported() {
        let p = parse(&argv("run --scale enormous"), &["scale", "seed"], &[]).unwrap();
        let err = cmd_run(&p).unwrap_err();
        assert!(err.to_string().contains("enormous"));
    }

    #[test]
    fn save_then_analyze_roundtrip() {
        let file = std::env::temp_dir().join(format!("geoserp-ds-{}.json", std::process::id()));
        let files = file.to_string_lossy().to_string();
        let p = parse(
            &argv(&format!("run --scale quick --seed 6 --save {files}")),
            &["scale", "seed", "save", "export"],
            &[],
        )
        .unwrap();
        let out = cmd_run(&p).unwrap();
        assert!(out.contains("dataset saved"));
        let p = parse(&argv(&format!("analyze {files}")), &[], &[]).unwrap();
        let report = cmd_analyze(&p).unwrap();
        assert!(report.contains("Fig. 5"), "analysis over the saved file");
        std::fs::remove_file(&file).ok();
    }

    /// Parse a `run` command line with the full flag grammar `main` uses.
    fn run_args(s: &str) -> ParsedArgs {
        parse(
            &argv(s),
            &[
                "seed",
                "scale",
                "export",
                "save",
                "checkpoint",
                "checkpoint-every",
                "resume",
                "max-rounds",
                "retry-attempts",
                "retry-backoff-ms",
                "round-deadline-ms",
                "metrics-out",
                "trace-out",
                "analysis-workers",
                "index",
                "components",
            ],
            &["quiet"],
        )
        .unwrap()
    }

    #[test]
    fn run_writes_metrics_and_trace_and_report_reconciles() {
        let dir = std::env::temp_dir();
        let tag = format!("{}-obs", std::process::id());
        let metrics = dir.join(format!("geoserp-metrics-{tag}.json"));
        let prom = dir.join(format!("geoserp-metrics-{tag}.prom"));
        let trace = dir.join(format!("geoserp-trace-{tag}.json"));
        let ds_file = dir.join(format!("geoserp-ds-{tag}.json"));
        let (metricss, proms, traces, dss) = (
            metrics.to_string_lossy().to_string(),
            prom.to_string_lossy().to_string(),
            trace.to_string_lossy().to_string(),
            ds_file.to_string_lossy().to_string(),
        );

        let out = cmd_run(&run_args(&format!(
            "run --scale quick --seed 6 --quiet --save {dss} \
             --metrics-out {metricss} --trace-out {traces}"
        )))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        assert!(out.contains("trace written"), "{out}");

        // The trace is Chrome trace-event JSON: a `crawler` process row and
        // one complete event per round (counted below), and every complete
        // event is a round: nothing per job or attempt.
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc["traceEvents"].as_array().expect("a chrome trace");
        let process = events.iter().find(|e| e["ph"].as_str() == Some("M"));
        assert_eq!(process.unwrap()["args"]["name"].as_str(), Some("crawler"));
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert!(spans
            .iter()
            .all(|e| e["cat"].as_str() == Some("crawler.round")));

        // `geoserp report` renders the snapshot, and its crawler totals
        // reconcile with the dataset metadata they are derived from.
        let p = parse(&argv(&format!("report {metricss}")), &[], &[]).unwrap();
        let report = cmd_report(&p).unwrap();
        assert!(report.contains("[crawler]"), "{report}");
        assert!(report.contains("[engine]"), "{report}");
        assert!(report.contains("[net]"), "{report}");
        assert!(report.contains("[latency]"), "{report}");
        let dataset = Dataset::from_json(&std::fs::read_to_string(&ds_file).unwrap()).unwrap();
        let snap = geoserp_core::obs::MetricsSnapshot::from_json(
            &std::fs::read_to_string(&metrics).unwrap(),
        )
        .unwrap();
        assert_eq!(snap.counters["crawler.attempts"], dataset.meta.attempts);
        assert_eq!(
            snap.counters["crawler.requests_issued"],
            dataset.meta.requests_issued
        );
        assert_eq!(
            snap.counters["crawler.failed_jobs"],
            dataset.meta.failed_jobs
        );
        assert_eq!(
            snap.counters["crawler.jobs"],
            dataset.observations().len() as u64 + dataset.meta.failed_jobs
        );
        assert_eq!(spans.len() as u64, snap.counters["crawler.rounds"]);
        assert!(report.contains(&dataset.meta.attempts.to_string()));

        // A non-.json metrics path gets Prometheus text exposition.
        let out = cmd_run(&run_args(&format!(
            "run --scale quick --seed 6 --quiet --metrics-out {proms}"
        )))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE geoserp_crawler_attempts counter"));
        assert!(text.contains("geoserp_net_rtt_ms_bucket{le=\"+Inf\"}"));

        for f in [&metrics, &prom, &trace, &ds_file] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn report_renders_crawl_counters_from_a_saved_dataset() {
        let dir = std::env::temp_dir();
        let ds_file = dir.join(format!("geoserp-dsrep-{}.json", std::process::id()));
        let dss = ds_file.to_string_lossy().to_string();
        cmd_run(&run_args(&format!(
            "run --scale quick --seed 8 --quiet --save {dss}"
        )))
        .unwrap();
        let p = parse(&argv(&format!("report {dss}")), &[], &[]).unwrap();
        let report = cmd_report(&p).unwrap();
        assert!(report.contains("[crawler]"), "{report}");
        assert!(report.contains("attempts"), "{report}");
        let dataset = Dataset::from_json(&std::fs::read_to_string(&ds_file).unwrap()).unwrap();
        assert!(report.contains(&dataset.meta.attempts.to_string()));
        std::fs::remove_file(&ds_file).ok();
    }

    #[test]
    fn report_pulls_stage_waterfall_from_a_live_server() {
        use geoserp_core::serve::{ServeConfig, ServedWorld, SocketServer};
        let config = ServeConfig::new();
        let world = ServedWorld::build(
            7,
            config.engine_config(geoserp_core::engine::EngineConfig::paper_defaults()),
        )
        .unwrap();
        let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
        let addr = server.local_addr().to_string();
        trace_one_search(&addr).unwrap();

        let p = parse(&argv(&format!("report {addr}")), &[], &[]).unwrap();
        let report = cmd_report(&p).unwrap();
        server.shutdown();
        assert!(report.contains("[serve stages]"), "{report}");
        // Single-process serving records every stage except merge (that
        // one only exists router-side, after the scatter).
        for stage in ["queue", "parse", "retrieve", "render", "flush"] {
            assert!(report.contains(stage), "stage {stage} missing: {report}");
        }
    }

    #[test]
    fn report_rejects_garbage_and_requires_a_file() {
        let p = parse(&argv("report"), &[], &[]).unwrap();
        assert!(matches!(cmd_report(&p), Err(CliError::Invalid(_))));
        let file = std::env::temp_dir().join(format!("geoserp-repbad-{}.json", std::process::id()));
        std::fs::write(&file, "{\"not\": \"a snapshot\"}").unwrap();
        let p = parse(
            &argv(&format!("report {}", file.to_string_lossy())),
            &[],
            &[],
        )
        .unwrap();
        let err = cmd_report(&p).unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn checkpoint_kill_resume_matches_an_uninterrupted_run() {
        let dir = std::env::temp_dir();
        let tag = format!("{}-resume", std::process::id());
        let full = dir.join(format!("geoserp-full-{tag}.json"));
        let ck = dir.join(format!("geoserp-ck-{tag}.json"));
        let resumed = dir.join(format!("geoserp-resumed-{tag}.json"));
        let (fulls, cks, resumeds) = (
            full.to_string_lossy().to_string(),
            ck.to_string_lossy().to_string(),
            resumed.to_string_lossy().to_string(),
        );

        // The reference: one uninterrupted quick crawl.
        let out = cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet --save {fulls}"
        )))
        .unwrap();
        assert!(out.contains("dataset saved"), "{out}");

        // The same crawl "killed" after 7 rounds, checkpointing every 3 —
        // the surviving file holds the round-6 boundary.
        let out = cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet \
             --checkpoint {cks} --checkpoint-every 3 --max-rounds 7"
        )))
        .unwrap();
        assert!(out.contains("partial crawl"), "{out}");
        assert!(out.contains("checkpoints written"), "{out}");
        assert!(ck.exists(), "checkpoint file was not written");

        // Resume on a fresh world and save the completed dataset.
        let out = cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet --resume {cks} --save {resumeds}"
        )))
        .unwrap();
        assert!(out.contains("resumed from"), "{out}");
        assert!(out.contains("Fig"), "resumed run prints the full report");

        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "resumed dataset must be byte-identical to the uninterrupted run"
        );
        for f in [&full, &ck, &resumed] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn resume_refuses_a_mismatched_seed() {
        let dir = std::env::temp_dir();
        let ck = dir.join(format!("geoserp-ck-{}-seedck.json", std::process::id()));
        let cks = ck.to_string_lossy().to_string();
        cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet \
             --checkpoint {cks} --checkpoint-every 3 --max-rounds 3"
        )))
        .unwrap();
        let err = cmd_run(&run_args(&format!(
            "run --scale quick --seed 10 --quiet --resume {cks}"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn resume_refuses_a_hand_edited_clock_or_base_day() {
        let dir = std::env::temp_dir();
        let ck = dir.join(format!("geoserp-ck-{}-edited.json", std::process::id()));
        let cks = ck.to_string_lossy().to_string();
        cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet \
             --checkpoint {cks} --checkpoint-every 3 --max-rounds 3"
        )))
        .unwrap();
        let genuine = CrawlCheckpoint::load(&ck).unwrap();
        let mut later = genuine.clone();
        later.clock_ms += 3 * 86_400_000;
        let mut shifted = genuine;
        shifted.base_day += 5;
        for edited in [later, shifted] {
            edited.save(&ck).unwrap();
            let err = cmd_run(&run_args(&format!(
                "run --scale quick --seed 9 --quiet --resume {cks}"
            )))
            .unwrap_err();
            assert!(matches!(err, CliError::Invalid(_)), "{err}");
            assert!(err.to_string().contains("checkpoint clock"), "{err}");
        }
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn resume_refuses_a_checkpoint_whose_counters_do_not_balance() {
        let dir = std::env::temp_dir();
        let ck = dir.join(format!("geoserp-ck-{}-unbalanced.json", std::process::id()));
        let cks = ck.to_string_lossy().to_string();
        cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet \
             --checkpoint {cks} --checkpoint-every 3 --max-rounds 3"
        )))
        .unwrap();
        let mut edited = CrawlCheckpoint::load(&ck).unwrap();
        edited.dataset.meta.attempts = u64::MAX - 1;
        edited.save(&ck).unwrap();
        let err = cmd_run(&run_args(&format!(
            "run --scale quick --seed 9 --quiet --resume {cks}"
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
        assert!(
            err.to_string().contains("accounting does not balance"),
            "{err}"
        );
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn checkpoint_flags_are_validated_before_the_crawl() {
        let err = cmd_run(&run_args(
            "run --scale quick --checkpoint /tmp/x --checkpoint-every 0",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("checkpoint-every"), "{err}");

        let err = cmd_run(&run_args("run --scale quick --checkpoint-every 3")).unwrap_err();
        assert!(err.to_string().contains("--checkpoint"), "{err}");

        let err = cmd_run(&run_args("run --scale quick --max-rounds 0")).unwrap_err();
        assert!(err.to_string().contains("max-rounds"), "{err}");

        let err = cmd_run(&run_args("run --scale quick --retry-attempts 0")).unwrap_err();
        assert!(err.to_string().contains("retry-attempts"), "{err}");

        let err = cmd_run(&run_args(
            "run --scale quick --resume /nonexistent/geoserp-nowhere.ck",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn analysis_workers_flag_never_changes_report_bytes() {
        let inline = cmd_run(&run_args(
            "run --scale quick --seed 11 --quiet --analysis-workers 1",
        ))
        .unwrap();
        let pooled = cmd_run(&run_args(
            "run --scale quick --seed 11 --quiet --analysis-workers 3",
        ))
        .unwrap();
        assert_eq!(inline, pooled, "worker count leaked into report bytes");

        for bad in ["many", "serial"] {
            let argv = format!("run --scale quick --analysis-workers {bad}");
            let err = cmd_run(&run_args(&argv)).unwrap_err();
            assert!(err.to_string().contains("expected auto|N"), "{err}");
        }
    }

    #[test]
    fn analyze_rejects_garbage_files() {
        let file = std::env::temp_dir().join(format!("geoserp-bad-{}.json", std::process::id()));
        std::fs::write(&file, "not json at all").unwrap();
        let p = parse(
            &argv(&format!("analyze {}", file.to_string_lossy())),
            &[],
            &[],
        )
        .unwrap();
        assert!(matches!(cmd_analyze(&p), Err(CliError::Invalid(_))));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn analyze_rejects_datasets_naming_unknown_locations_or_urls() {
        let file = std::env::temp_dir().join(format!("geoserp-stray-{}.json", std::process::id()));
        let path = file.to_string_lossy().to_string();
        cmd_run(&run_args(&format!(
            "run --scale quick --seed 2015 --quiet --save {path}"
        )))
        .unwrap();
        let json = std::fs::read_to_string(&file).unwrap();
        // Rewrite the first observation's location, then its first URL id.
        let first = json.find("\"observations\":[").unwrap();
        for (key, needle) in [
            ("\"location\":", "location 4294967295"),
            ("\"results\":[[", "URL id 4294967295"),
        ] {
            let at = first + json[first..].find(key).unwrap() + key.len();
            let end = at + json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
            std::fs::write(&file, format!("{}4294967295{}", &json[..at], &json[end..])).unwrap();
            let p = parse(&argv(&format!("analyze {path}")), &[], &[]).unwrap();
            match cmd_analyze(&p) {
                Err(CliError::Invalid(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{key} accepted: {:?}", other.map(|_| ())),
            }
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn compare_reports_shape_verdicts() {
        let p = parse(
            &argv("compare --scale quick --seed 2015"),
            &["scale", "seed"],
            &[],
        )
        .unwrap();
        let out = cmd_compare(&p).unwrap();
        assert!(out.contains("## Figure 2"));
        assert!(out.contains("overall:"));
    }

    /// Parse a `serve`/`router` command line with the flag grammar `main`
    /// uses.
    fn serve_args(s: &str) -> ParsedArgs {
        parse(&argv(s), SERVE_FLAGS, SERVE_SWITCHES).unwrap()
    }

    #[test]
    fn serve_smoke_accepts_an_exact_index() {
        let out = cmd_serve(&serve_args(
            "serve --addr 127.0.0.1:0 --index exact --smoke",
        ))
        .unwrap();
        assert!(out.contains("smoke ok"), "{out}");
    }

    #[test]
    fn index_and_corpus_scale_flags_are_validated() {
        let err = cmd_serve(&serve_args(
            "serve --addr 127.0.0.1:0 --index turbo --smoke",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("turbo"), "{err}");
        let err = cmd_serve(&serve_args(
            "serve --addr 127.0.0.1:0 --corpus-scale 0 --smoke",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("corpus-scale"), "{err}");
    }

    #[test]
    fn serve_smoke_accepts_the_rich_component_set() {
        let out = cmd_serve(&serve_args(
            "serve --addr 127.0.0.1:0 --components rich --smoke",
        ))
        .unwrap();
        assert!(out.contains("smoke ok"), "{out}");
    }

    #[test]
    fn components_flag_is_validated() {
        let err = cmd_serve(&serve_args(
            "serve --addr 127.0.0.1:0 --components full --smoke",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--components"), "{err}");
        assert!(err.to_string().contains("full"), "{err}");
        let err = cmd_run(&run_args("run --scale quick --components full")).unwrap_err();
        assert!(err.to_string().contains("--components"), "{err}");
    }

    #[test]
    fn sharded_smoke_probes_the_router() {
        let out = cmd_serve(&serve_args(
            "serve --addr 127.0.0.1:0 --shards 2 --replicas 2 --smoke",
        ))
        .unwrap();
        assert!(out.contains("2 shards x 2 replicas"), "{out}");
        assert!(out.contains("GET /healthz"), "{out}");
        assert!(out.contains("smoke ok, cluster drained"), "{out}");
    }

    #[test]
    fn router_defaults_to_two_by_two() {
        let out = cmd_router(&serve_args("router --addr 127.0.0.1:0 --smoke")).unwrap();
        assert!(out.contains("2 shards x 2 replicas"), "{out}");
    }

    #[test]
    fn router_smoke_trace_out_stitches_every_process() {
        let file = std::env::temp_dir().join(format!("geoserp-trace-{}.json", std::process::id()));
        let files = file.to_string_lossy().to_string();
        let out = cmd_router(&serve_args(&format!(
            "router --addr 127.0.0.1:0 --smoke --trace-out {files}"
        )))
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        let trace = std::fs::read_to_string(&file).unwrap();
        assert!(trace.contains("\"traceEvents\""), "not a chrome trace");
        for name in ["router", "shard0.r0", "shard1.r1"] {
            assert!(trace.contains(name), "process {name} missing: {trace:.300}");
        }
        assert!(trace.contains("request /search"), "{trace:.300}");
        assert!(trace.contains("scatter retrieve"), "{trace:.300}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn trace_assembles_span_dumps_from_a_directory() {
        use geoserp_core::obs::{trace, ObsHub};
        use std::borrow::Cow;
        let dir = std::env::temp_dir().join(format!("geoserp-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let root = trace::TraceContext::root(1);
        let router = std::sync::Arc::new(ObsHub::new());
        trace::record_span_with(
            &router,
            &root,
            Cow::Borrowed("scatter retrieve"),
            "router.scatter",
            2,
            2,
            vec![],
            None,
        );
        let shard = std::sync::Arc::new(ObsHub::new());
        let rpc = root.child("scatter retrieve").child("rpc s0.r0 #0");
        trace::record_span_with(
            &shard,
            &rpc,
            Cow::Borrowed("request /shard/retrieve"),
            "serve.request",
            0,
            8,
            vec![],
            None,
        );
        std::fs::write(
            dir.join("router.json"),
            trace::process_spans_json("router", &router.spans().snapshot()),
        )
        .unwrap();
        std::fs::write(
            dir.join("shard0.r0.json"),
            trace::process_spans_json("shard0.r0", &shard.spans().snapshot()),
        )
        .unwrap();

        let out_file = dir.join("assembled.trace");
        let p = parse(
            &argv(&format!(
                "trace {} --out {}",
                dir.to_string_lossy(),
                out_file.to_string_lossy()
            )),
            &["out"],
            &[],
        )
        .unwrap();
        let out = cmd_trace(&p).unwrap();
        assert!(out.contains("2 process(es)"), "{out}");
        let assembled = std::fs::read_to_string(&out_file).unwrap();
        assert!(assembled.contains("\"traceEvents\""));
        assert!(assembled.contains("scatter retrieve"));
        assert!(assembled.contains("request /shard/retrieve"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_requires_a_source_and_rejects_empty_dirs() {
        let p = parse(&argv("trace"), &["out"], &[]).unwrap();
        assert!(matches!(cmd_trace(&p), Err(CliError::Invalid(_))));
        let dir = std::env::temp_dir().join(format!("geoserp-notraces-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = parse(
            &argv(&format!("trace {}", dir.to_string_lossy())),
            &["out"],
            &[],
        )
        .unwrap();
        let err = cmd_trace(&p).unwrap_err();
        assert!(err.to_string().contains("span dumps"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_requires_an_addr() {
        let p = parse(&argv("loadgen --requests 10"), &["requests"], &[]).unwrap();
        assert!(matches!(cmd_loadgen(&p), Err(CliError::Invalid(_))));
    }

    #[test]
    fn loadgen_fails_when_every_request_fails() {
        // A port that was just listening and is now closed: every connect
        // is refused, so no request gets a response.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let p = parse(
            &argv(&format!(
                "loadgen --addr {addr} --requests 20 --concurrency 2"
            )),
            &["addr", "requests", "concurrency"],
            &[],
        )
        .unwrap();
        match cmd_loadgen(&p) {
            Err(CliError::Invalid(msg)) => assert_eq!(
                msg,
                format!("loadgen against {addr}: all 20 requests failed")
            ),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn router_rejects_shardless_topologies() {
        let err =
            cmd_router(&serve_args("router --addr 127.0.0.1:0 --shards 0 --smoke")).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
        let err =
            cmd_serve(&serve_args("serve --addr 127.0.0.1:0 --replicas 0 --smoke")).unwrap_err();
        assert!(err.to_string().contains("--replicas"), "{err}");
    }

    #[test]
    fn export_writes_files() {
        let dir = std::env::temp_dir().join(format!("geoserp-cli-test-{}", std::process::id()));
        let dirs = dir.to_string_lossy().to_string();
        let p = parse(
            &argv(&format!("export --out {dirs} --scale quick --seed 5")),
            &["out", "scale", "seed"],
            &[],
        )
        .unwrap();
        let out = cmd_export(&p).unwrap();
        assert!(out.contains("observations.csv"));
        for f in ["observations.csv", "results.csv", "dataset.jsonl"] {
            let path = dir.join(f);
            assert!(path.exists(), "{path:?} missing");
            assert!(std::fs::metadata(&path).unwrap().len() > 100);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
