//! Integration tests for the *operational* methodology of §2.2: lock-step
//! timing, DNS pinning, identical fingerprints, rate-limit avoidance, and
//! the 11-minute history defeat.

use geoserp::engine::{SearchService, SEARCH_HOST};
use geoserp::net::{Request, RequestCtx, Server};
use geoserp::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

fn tiny_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 1,
        queries_per_category: Some(2),
        locations_per_granularity: Some(4),
        ..ExperimentPlan::quick()
    }
}

#[test]
fn rounds_run_in_lock_step_and_waits_are_eleven_minutes() {
    let study = Study::builder().seed(5).plan(tiny_plan()).build().unwrap();
    let crawler = study.crawler();
    let _ds = crawler.run(&tiny_plan());

    // Group jobs by their virtual start: each round's jobs share one
    // instant, and distinct instants are ≥ 11 minutes apart within a day.
    let mut by_time: BTreeMap<u64, usize> = BTreeMap::new();
    for span in crawler.obs().spans().snapshot() {
        if span.cat == "crawler.job" {
            *by_time.entry(span.start_ms).or_default() += 1;
        }
    }
    assert!(!by_time.is_empty());
    for count in by_time.values() {
        // 4 locations × 2 roles = 8 simultaneous queries per round.
        assert_eq!(*count, 8, "round sizes: {by_time:?}");
    }
    let times: Vec<u64> = by_time.keys().copied().collect();
    for w in times.windows(2) {
        let gap = w[1] - w[0];
        // Same-day gaps are exactly the 11-minute wait; day boundaries are
        // larger.
        assert!(
            gap == 11 * 60_000 || gap > 60 * 60_000,
            "unexpected inter-round gap {gap} ms"
        );
    }
}

#[test]
fn all_traffic_hits_the_pinned_datacenter() {
    let study = Study::builder().seed(5).plan(tiny_plan()).build().unwrap();
    let crawler = study.crawler();
    let net = crawler.net();
    // Re-install the service behind a recorder at every datacenter address,
    // so each address reports the paths it served.
    let addrs = SearchService::install(net, Arc::clone(crawler.engine()));
    assert!(addrs.len() > 1, "pinning needs datacenters to choose from");
    let service = Arc::new(SearchService::new(Arc::clone(crawler.engine()), &addrs));
    let seen: Arc<Mutex<BTreeMap<(Ipv4Addr, String), u64>>> = Arc::default();
    for &addr in &addrs {
        let (service, seen) = (Arc::clone(&service), Arc::clone(&seen));
        net.register_server(
            addr,
            Arc::new(move |ctx: &RequestCtx, req: &Request| {
                *seen
                    .lock()
                    .unwrap()
                    .entry((addr, req.path.clone()))
                    .or_default() += 1;
                service.handle(ctx, req)
            }),
        );
    }
    let ds = crawler.run(&tiny_plan());

    let pinned = net.dns().resolve(SEARCH_HOST).unwrap();
    let jobs = ds.observations().len() as u64;
    let expected: BTreeMap<(Ipv4Addr, String), u64> = [
        ((pinned, "/".to_string()), jobs),
        ((pinned, "/search".to_string()), jobs),
    ]
    .into();
    assert_eq!(
        *seen.lock().unwrap(),
        expected,
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
