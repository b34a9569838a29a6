//! Integration tests for the *operational* methodology of §2.2: lock-step
//! timing, DNS pinning, identical fingerprints, rate-limit avoidance, and
//! the 11-minute history defeat.

use geoserp::engine::{SearchService, SEARCH_HOST};
use geoserp::net::{Request, RequestCtx, Server};
use geoserp::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Milliseconds per simulated day.
const DAY_MS: u64 = 86_400_000;

fn tiny_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 1,
        queries_per_category: Some(2),
        locations_per_granularity: Some(4),
        ..ExperimentPlan::quick()
    }
}

/// Every request a datacenter served: (address, path, virtual arrival ms).
type Served = Arc<Mutex<Vec<(Ipv4Addr, String, u64)>>>;

/// Re-install the search service behind a recorder at every datacenter
/// address, so each address logs the requests it serves and when.
fn record_traffic(crawler: &Crawler) -> Served {
    let net = crawler.net();
    let addrs = SearchService::install(net, Arc::clone(crawler.engine()));
    assert!(addrs.len() > 1, "pinning needs datacenters to choose from");
    let service = Arc::new(SearchService::new(Arc::clone(crawler.engine()), &addrs));
    let seen = Served::default();
    for &addr in &addrs {
        let (service, seen) = (Arc::clone(&service), Arc::clone(&seen));
        net.register_server(
            addr,
            Arc::new(move |ctx: &RequestCtx, req: &Request| {
                let at = ctx.at.millis();
                seen.lock().unwrap().push((addr, req.path.clone(), at));
                service.handle(ctx, req)
            }),
        );
    }
    seen
}

#[test]
fn rounds_run_in_lock_step_and_waits_are_eleven_minutes() {
    let study = Study::builder().seed(5).plan(tiny_plan()).build().unwrap();
    let crawler = study.crawler();
    let seen = record_traffic(&crawler);
    crawler.run(&tiny_plan());

    // Group searches by the virtual instant the service saw them: each
    // round's searches share one instant.
    let mut by_time: BTreeMap<u64, usize> = BTreeMap::new();
    for (_, path, at) in seen.lock().unwrap().iter() {
        if path == "/search" {
            *by_time.entry(*at).or_default() += 1;
        }
    }
    assert!(by_time.len() > 1);
    for count in by_time.values() {
        // 4 locations × 2 roles = 8 simultaneous queries per round.
        assert_eq!(*count, 8, "round sizes: {by_time:?}");
    }
    let times: Vec<u64> = by_time.keys().copied().collect();
    for w in times.windows(2) {
        let gap = w[1] - w[0];
        if w[0] / DAY_MS == w[1] / DAY_MS {
            assert_eq!(gap, 11 * 60_000, "same-day gap at {} ms", w[0]);
        } else {
            assert!(gap > 60 * 60_000, "gap of {gap} ms across a day boundary");
        }
    }
}

#[test]
fn all_traffic_hits_the_pinned_datacenter() {
    let study = Study::builder().seed(5).plan(tiny_plan()).build().unwrap();
    let crawler = study.crawler();
    let seen = record_traffic(&crawler);
    let ds = crawler.run(&tiny_plan());

    let mut served: BTreeMap<(Ipv4Addr, String), u64> = BTreeMap::new();
    for (addr, path, _) in seen.lock().unwrap().iter() {
        *served.entry((*addr, path.clone())).or_default() += 1;
    }
    let pinned = crawler.net().dns().resolve(SEARCH_HOST).unwrap();
    let jobs = ds.observations().len() as u64;
    let expected: BTreeMap<(Ipv4Addr, String), u64> = [
        ((pinned, "/".to_string()), jobs),
        ((pinned, "/search".to_string()), jobs),
    ]
    .into();
    assert_eq!(
        served, expected,
        "DNS pinning must send every homepage load and search to one datacenter"
    );
}

#[test]
fn no_request_was_rate_limited_or_failed() {
    let study = Study::builder().seed(5).plan(tiny_plan()).build().unwrap();
    let crawler = study.crawler();
    let ds = crawler.run(&tiny_plan());
    assert_eq!(ds.meta.failed_jobs, 0);
    let throttled = crawler.obs().metrics().counter("engine.rate_limited");
    assert_eq!(throttled.get(), 0);
    // Every page that was not 2xx counts as a net error, over the whole
    // crawl.
    assert_eq!(ds.meta.net_errors, 0);
}

#[test]
fn treatments_present_identical_fingerprints() {
    use geoserp::browser::Browser;
    let study = Study::builder().seed(5).build().unwrap();
    let crawler = study.crawler();
    let a = Browser::new(Arc::clone(crawler.net()), geoserp::net::ip("198.51.100.1"));
    let b = Browser::new(Arc::clone(crawler.net()), geoserp::net::ip("198.51.100.2"));
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.cookies().is_empty() && b.cookies().is_empty());
}

#[test]
fn eleven_minute_wait_defeats_history_personalization() {
    // Direct engine-level check: a session's previous query influences
    // ranking inside the 10-minute window but not after 11 minutes.
    let study = Study::builder().seed(5).build().unwrap();
    let crawler = study.crawler();
    let engine = crawler.engine();
    let metro = crawler.vantage().baseline(Granularity::County).coord;

    let ctx =
        |q: &str, at_min: u64, session: Option<&str>, seq: u64| geoserp::engine::SearchContext {
            query: q.into(),
            gps: Some(metro),
            src: "198.51.100.10".parse().unwrap(),
            datacenter: 0,
            seq,
            at_ms: at_min * 60_000,
            session: session.map(str::to_owned),
            page: 0,
        };

    // Prime a session with a "coffee" search, then query an ambiguous term.
    engine.search(&ctx("Coffee", 0, Some("s1"), 1_000));
    let within = engine.search(&ctx("Subway", 5, Some("s1"), 1_001));
    let after = engine.search(&ctx("Subway", 16, Some("s1"), 1_001));
    // Same seq → identical noise draws; any difference is the history boost
    // (which may or may not reorder the page — but the *engine state* must
    // differ only within the window; outside it pages must match a fresh
    // session exactly).
    let fresh = engine.search(&ctx("Subway", 16, None, 1_001));
    assert_eq!(after.urls(), fresh.urls(), "expired history must not leak");
    let _ = within;
}
