//! The per-SERP layer replay and the setup-phase timings every traced run
//! reports.
//!
//! 20,000 seeded (term, location) jobs run on a fresh `Crawler::new` world,
//! one machine per job in pool order. The virtual clock advances 11 minutes
//! per `pool().len()` jobs, as the crawler's rounds do, so no machine trips
//! the engine's per-IP limit. Each layer call is timed on its own:
//! `Browser::run_search_job` (homepage + search), `SimNet::request`,
//! `SearchEngine::search`, `SearchIndex::retrieve`, `SerpPage::render`,
//! `geoserp_serp::parse`, `SerpPage::extract_results`, and `Dataset::intern`
//! over the page's URLs.

use crate::spans::Recorder;
use crate::{per_layer_percentiles, stats, Outcome, SplitMix64};
use geoserp_core::browser::Browser;
use geoserp_core::corpus::WebCorpus;
use geoserp_core::crawler::{Crawler, Dataset, DatasetMeta};
use geoserp_core::engine::{
    IndexBackend, SearchContext, SearchEngine, SearchIndex, GEOLOCATION_HEADER, SEARCH_HOST,
};
use geoserp_core::geo::{Seed, UsGeography};
use geoserp_core::net::Request;
use std::sync::Arc;
use std::time::Instant;

/// Jobs in the replay.
pub const REPLAY_JOBS: usize = 20_000;
/// Jobs whose per-call spans go into the trace (the rest are timed only,
/// to keep the trace file small).
const TRACED_JOBS: usize = 500;
/// Repetitions behind each setup-phase median.
const SETUP_REPS: usize = 7;

/// Time the world's build phases: geography, corpus, index, engine.
pub fn setup_phases(seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    let seed = Seed::new(seed);
    let mut median = |name: &str, cat: &'static str, f: &mut dyn FnMut()| {
        let mut times = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            f();
            times.push(started.elapsed().as_secs_f64());
            rec.record(0, name, cat, started);
        }
        out.layer(name, stats::median(&times).unwrap_or(0.0), "s");
    };
    let geo = UsGeography::generate(seed);
    let corpus = Arc::new(WebCorpus::generate(&geo, seed.derive("corpus")));
    median("setup.geo_s", "geo", &mut || {
        drop(UsGeography::generate(seed))
    });
    median("setup.corpus_s", "corpus", &mut || {
        drop(WebCorpus::generate(&geo, seed.derive("corpus")))
    });
    median("setup.index_s", "engine", &mut || {
        drop(SearchIndex::build(&corpus, IndexBackend::default()))
    });
    median("setup.engine_s", "engine", &mut || {
        let engine =
            SearchEngine::builder(Arc::clone(&corpus), &geo, seed.derive("engine")).build();
        drop(engine.expect("paper defaults are valid"))
    });
}

/// Per-call wall times of one layer, µs.
#[derive(Default)]
struct Calls(Vec<f64>);

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Instant, Instant) {
        let started = Instant::now();
        let value = f();
        let ended = Instant::now();
        self.0
            .push(ended.duration_since(started).as_secs_f64() * 1e6);
        (value, started, ended)
    }
}

/// Run the replay and record its per-layer metrics.
pub fn run(seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    let crawler = Crawler::new(Seed::new(seed));
    let net = Arc::clone(crawler.net());
    let engine = Arc::clone(crawler.engine());
    let cfg = engine.config().clone();
    let index = SearchIndex::build(crawler.corpus(), cfg.index_backend);
    let terms = crawler.corpus().queries.all();
    let vantage = crawler.vantage();
    let locations: Vec<_> = [&vantage.national, &vantage.state, &vantage.county]
        .into_iter()
        .flatten()
        .collect();
    let machines = crawler.pool().len();
    let mut dataset = Dataset::new(vantage.clone(), DatasetMeta::default());
    let mut rng = SplitMix64::new(seed, "replay");

    let [mut job, mut request, mut search, mut retrieve] = <[Calls; 4]>::default();
    let [mut render, mut parse, mut extract, mut intern] = <[Calls; 4]>::default();
    let (mut urls, mut fresh_urls) = (0usize, 0usize);
    let replay_started = Instant::now();
    let replay_span = rec.alloc();
    for i in 0..REPLAY_JOBS {
        if i > 0 && i % machines == 0 {
            net.clock().advance_minutes(11);
        }
        let term = &terms[rng.below(terms.len())].term;
        let coord = locations[rng.below(locations.len())].coord;
        let gps = coord.to_gps_string();
        let machine = crawler.pool().assign(i);

        let (fetch, a0, a1) = job.time(|| {
            Browser::new(Arc::clone(&net), machine).run_search_job(SEARCH_HOST, term, coord)
        });
        let fetch = match fetch {
            Ok(fetch) => fetch,
            Err(e) => return out.require(false, format!("replay job {i}: {e:?}")),
        };
        let req = Request::get(SEARCH_HOST, "/search")
            .with_query("q", term.as_str())
            .with_header(GEOLOCATION_HEADER, gps.as_str())
            .with_header("User-Agent", "Mozilla/5.0 (iPhone; Safari 8)");
        let (response, b0, b1) = request.time(|| net.request(machine, &req));
        if !matches!(response, Ok((ref r, _)) if r.status.is_success()) {
            return out.require(false, format!("replay request {i} failed"));
        }
        let ctx = SearchContext {
            query: term.clone(),
            gps: Some(coord),
            src: machine,
            datacenter: 0,
            seq: i as u64,
            at_ms: net.clock().now().millis(),
            session: None,
            page: 0,
        };
        let (page, c0, c1) = search.time(|| engine.search(&ctx));
        let (_, d0, d1) =
            retrieve.time(|| index.retrieve(term, cfg.organic_count * 3, cfg.partial_match_score));
        let (_, e0, e1) = render.time(|| page.render());
        let (parsed, f0, f1) = parse.time(|| geoserp_core::serp::parse(&fetch.body));
        let Ok(parsed) = parsed else {
            return out.require(false, format!("replay job {i}: the SERP did not parse"));
        };
        let (results, g0, g1) = extract.time(|| parsed.extract_results());
        let before = dataset.distinct_urls();
        let (_, h0, h1) = intern.time(|| {
            for r in &results {
                dataset.intern(&r.url);
            }
        });
        urls += results.len();
        fresh_urls += dataset.distinct_urls() - before;

        if i < TRACED_JOBS && rec.enabled() {
            let id = rec.alloc();
            for (name, cat, s, e) in [
                ("Browser::run_search_job", "browser", a0, a1),
                ("SimNet::request", "net", b0, b1),
                ("SearchEngine::search", "engine", c0, c1),
                ("SearchIndex::retrieve", "engine", d0, d1),
                ("SerpPage::render", "serp", e0, e1),
                ("serp::parse", "serp", f0, f1),
                ("SerpPage::extract_results", "serp", g0, g1),
                ("Dataset::intern", "crawler", h0, h1),
            ] {
                let child = rec.alloc();
                rec.record_as(child, id, name, cat, 2, s, e);
            }
            rec.record_as(id, replay_span, format!("job {i}"), "crawler", 2, a0, h1);
        }
    }
    rec.record_as(
        replay_span,
        0,
        "layer replay",
        "crawler",
        2,
        replay_started,
        Instant::now(),
    );

    for (prefix, calls) in [
        ("browser.job_us", &job),
        ("net.request_us", &request),
        ("engine.search_us", &search),
        ("engine.retrieve_us", &retrieve),
        ("serp.render_us", &render),
        ("serp.parse_us", &parse),
        ("serp.extract_us", &extract),
        ("crawler.intern_us", &intern),
    ] {
        per_layer_percentiles(out, prefix, &calls.0, 1.0, "us");
    }
    let p50 = |name: &str| out.layer_value(name).unwrap_or(0.0);
    let net_self =
        p50("net.request_us.p50") - p50("engine.search_us.p50") - p50("serp.render_us.p50");
    out.layer("net.self_us.p50", net_self, "us");
    out.layer(
        "crawler.intern_hit_frac",
        1.0 - fresh_urls as f64 / urls.max(1) as f64,
        "ratio",
    );
    out.layer("replay.jobs", REPLAY_JOBS as f64, "count");
}
