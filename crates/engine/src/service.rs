//! The network-facing search service.
//!
//! One [`SearchService`] sits behind several datacenter IPs under the DNS
//! name [`SEARCH_HOST`] — the topology that makes the paper's DNS pinning
//! (§2.2) meaningful — and applies per-IP rate limiting, the constraint that
//! forced the paper's 44-machine pool.

use crate::engine::{SearchContext, SearchEngine};
use geoserp_geo::Coord;
use geoserp_net::{
    ip, RateLimitKey, RateLimiter, Request, RequestCtx, Response, Server, SimNet, Status,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// DNS name of the simulated search service.
pub const SEARCH_HOST: &str = "search.example.com";

/// HTTP header carrying the browser's Geolocation-API fix.
pub const GEOLOCATION_HEADER: &str = "X-Geolocation";

/// The [`Server`] wrapper around a [`SearchEngine`].
pub struct SearchService {
    engine: Arc<SearchEngine>,
    limiter: RateLimiter,
    datacenter_of: HashMap<Ipv4Addr, u32>,
    /// Total 429s served, from the engine's observability hub.
    rate_limited: geoserp_obs::Counter,
    /// Per-datacenter 429 counters, indexed like `addrs`.
    rate_limited_by_dc: HashMap<Ipv4Addr, geoserp_obs::Counter>,
}

impl SearchService {
    /// Wrap an engine; `addrs[i]` is datacenter *i*'s address.
    pub fn new(engine: Arc<SearchEngine>, addrs: &[Ipv4Addr]) -> Self {
        let cfg = engine.config();
        assert_eq!(
            addrs.len(),
            cfg.datacenters as usize,
            "one address per configured datacenter"
        );
        let limiter = RateLimiter::new(
            RateLimitKey::PerIp,
            cfg.rate_limit_max,
            cfg.rate_limit_window_ms,
        );
        let metrics = engine.obs().metrics();
        let rate_limited = metrics.counter("engine.rate_limited");
        let rate_limited_by_dc = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, metrics.counter(&format!("engine.rate_limited.dc{i}"))))
            .collect();
        SearchService {
            engine,
            limiter,
            datacenter_of: addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, i as u32))
                .collect(),
            rate_limited,
            rate_limited_by_dc,
        }
    }

    /// Register the service on a simulated network under [`SEARCH_HOST`]:
    /// allocates `10.50.0.1 …` datacenter addresses, installs the service
    /// behind all of them, and returns the addresses (for DNS pinning).
    pub fn install(net: &SimNet, engine: Arc<SearchEngine>) -> Vec<Ipv4Addr> {
        let n = engine.config().datacenters;
        let addrs: Vec<Ipv4Addr> = (1..=n).map(|i| ip(&format!("10.50.0.{i}"))).collect();
        let service = Arc::new(SearchService::new(engine, &addrs));
        net.register_service(SEARCH_HOST, &addrs, service);
        addrs
    }

    fn handle_search(&self, ctx: &RequestCtx, req: &Request) -> Response {
        let Some(query) = req.query_param("q") else {
            return Response::status(Status::BadRequest);
        };
        if !self.limiter.admit(ctx.src, ctx.at) {
            self.rate_limited.inc();
            if let Some(dc) = self.rate_limited_by_dc.get(&ctx.dst) {
                dc.inc();
            }
            return Response::status(Status::TooManyRequests)
                .with_header("X-Reason", "unusual traffic from your computer network");
        }
        let gps = req.header(GEOLOCATION_HEADER).and_then(Coord::parse_gps);
        let session = req.header("Cookie").and_then(|c| {
            c.split(';')
                .map(str::trim)
                .find_map(|kv| kv.strip_prefix("sid="))
                .filter(|v| !v.is_empty())
                .map(str::to_owned)
        });
        let datacenter = *self
            .datacenter_of
            .get(&ctx.dst)
            .expect("request delivered to a registered datacenter address");
        // `start` is the offset of the first result, as in real search URLs;
        // non-numeric values are a client error.
        let page = match req.query_param("start") {
            None => 0,
            Some(v) => match v.parse::<u32>() {
                Ok(start) => start / self.engine.config().organic_count.max(1) as u32,
                Err(_) => return Response::status(Status::BadRequest),
            },
        };
        let sctx = SearchContext {
            query: query.to_string(),
            gps,
            src: ctx.src,
            datacenter,
            seq: ctx.seq,
            at_ms: ctx.at.millis(),
            session,
            page,
        };
        let page = self.engine.search(&sctx);
        let rendered = std::time::Instant::now();
        let body = page.render();
        geoserp_obs::trace::record_stage(
            geoserp_obs::trace::Stage::Render,
            Some(rendered.elapsed().as_micros() as u64),
        );
        let mut resp = Response::ok(body)
            .with_header("Content-Type", "text/x-serp")
            .with_header("X-Datacenter", format!("dc{datacenter}"));
        // "Did you mean" travels as a header; the mobile page renders it as
        // a suggestion chip, which the paper's parser ignores — so it must
        // not perturb the card markup.
        if let Some(suggestion) = self.engine.suggest(query) {
            resp = resp.with_header("X-Did-You-Mean", suggestion);
        }
        resp
    }
}

impl Server for SearchService {
    fn handle(&self, ctx: &RequestCtx, req: &Request) -> Response {
        match req.path.as_str() {
            "/" => Response::ok("<home>geoserp search</home>\n")
                .with_header("Content-Type", "text/html"),
            "/search" => self.handle_search(ctx, req),
            _ => Response::status(Status::NotFound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use geoserp_corpus::WebCorpus;
    use geoserp_geo::{Seed, UsGeography};

    fn install() -> (UsGeography, Arc<SimNet>, Vec<Ipv4Addr>) {
        let geo = UsGeography::generate(Seed::new(2015));
        let corpus = Arc::new(WebCorpus::generate(&geo, Seed::new(2015)));
        let net = Arc::new(SimNet::builder(Seed::new(7)).build());
        // Engine and net share one hub, as a crawl world does.
        let engine = Arc::new(
            SearchEngine::builder(corpus, &geo, Seed::new(2015))
                .config(EngineConfig::paper_defaults())
                .obs(Arc::clone(net.obs()))
                .build()
                .unwrap(),
        );
        let addrs = SearchService::install(&net, engine);
        (geo, net, addrs)
    }

    fn search_req(q: &str, gps: &str) -> Request {
        Request::get(SEARCH_HOST, "/search")
            .with_query("q", q)
            .with_header(GEOLOCATION_HEADER, gps)
            .with_header("User-Agent", "Mozilla/5.0 (iPhone; Safari 8)")
    }

    #[test]
    fn end_to_end_search_over_the_network() {
        let (geo, net, _) = install();
        let gps = geo.cuyahoga_districts[0].coord.to_gps_string();
        let (resp, _) = net
            .request(ip("10.9.1.1"), &search_req("Hospital", &gps))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        let page = geoserp_serp::parse(&resp.body_text()).unwrap();
        assert_eq!(page.query, "Hospital");
        assert_eq!(page.reported_location, "Cleveland, OH");
        assert!((10..=22).contains(&page.result_count()));
    }

    #[test]
    fn homepage_and_unknown_paths() {
        let (_, net, _) = install();
        let (resp, _) = net
            .request(ip("10.9.1.1"), &Request::get(SEARCH_HOST, "/"))
            .unwrap();
        assert!(resp.body_text().contains("geoserp"));
        let (resp, _) = net
            .request(ip("10.9.1.1"), &Request::get(SEARCH_HOST, "/robots.txt"))
            .unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn missing_query_is_bad_request() {
        let (_, net, _) = install();
        let (resp, _) = net
            .request(ip("10.9.1.1"), &Request::get(SEARCH_HOST, "/search"))
            .unwrap();
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn rate_limit_throttles_hot_client_but_not_the_pool() {
        let (geo, net, _) = install();
        let gps = geo.cuyahoga_districts[0].coord.to_gps_string();
        // One machine hammering: must eventually see 429 (limit is 30/min).
        let mut throttled = false;
        for _ in 0..40 {
            let (resp, _) = net
                .request(ip("10.9.1.1"), &search_req("Bank", &gps))
                .unwrap();
            if resp.status == Status::TooManyRequests {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "hot client must be throttled");
        // A different machine in the same /24 is unaffected (per-IP limit).
        let (resp, _) = net
            .request(ip("10.9.1.2"), &search_req("Bank", &gps))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn rate_limit_rejections_are_counted_per_datacenter() {
        let (geo, net, addrs) = install();
        let gps = geo.cuyahoga_districts[0].coord.to_gps_string();
        net.dns().pin(SEARCH_HOST, addrs[1]);
        let mut throttled = 0u64;
        for _ in 0..40 {
            let (resp, _) = net
                .request(ip("10.9.1.1"), &search_req("Bank", &gps))
                .unwrap();
            if resp.status == Status::TooManyRequests {
                throttled += 1;
            }
        }
        assert!(throttled > 0);
        let snap = net.obs().snapshot();
        assert_eq!(snap.counters.get("engine.rate_limited"), Some(&throttled));
        assert_eq!(
            snap.counters.get("engine.rate_limited.dc1"),
            Some(&throttled),
            "pinned datacenter takes every rejection"
        );
        assert_eq!(snap.counters.get("engine.rate_limited.dc0"), Some(&0));
        // Queries that were admitted show up as engine.queries.
        assert_eq!(snap.counters.get("engine.queries"), Some(&(40 - throttled)),);
    }

    #[test]
    fn datacenter_header_matches_dns_rotation_and_pinning() {
        let (geo, net, addrs) = install();
        let gps = geo.cuyahoga_districts[0].coord.to_gps_string();
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            let (resp, _) = net
                .request(ip(&format!("10.9.2.{}", i + 1)), &search_req("Park", &gps))
                .unwrap();
            seen.insert(resp.header("X-Datacenter").unwrap().to_string());
        }
        assert_eq!(seen.len(), 3, "rotation spreads over datacenters: {seen:?}");

        net.dns().pin(SEARCH_HOST, addrs[0]);
        for i in 0..4 {
            let (resp, _) = net
                .request(ip(&format!("10.9.3.{}", i + 1)), &search_req("Park", &gps))
                .unwrap();
            assert_eq!(resp.header("X-Datacenter"), Some("dc0"));
        }
    }

    #[test]
    fn typos_get_a_did_you_mean_header() {
        let (geo, net, _) = install();
        let gps = geo.cuyahoga_districts[0].coord.to_gps_string();
        let (resp, _) = net
            .request(ip("10.9.5.1"), &search_req("starbuks", &gps))
            .unwrap();
        assert_eq!(resp.header("X-Did-You-Mean"), Some("starbucks"));
        // …and the SERP still parses (the suggestion is out-of-band).
        assert!(geoserp_serp::parse(&resp.body_text()).is_ok());
        let (resp, _) = net
            .request(ip("10.9.5.1"), &search_req("Hospital", &gps))
            .unwrap();
        assert_eq!(resp.header("X-Did-You-Mean"), None);
    }

    #[test]
    fn start_parameter_selects_deeper_pages() {
        let (geo, net, _) = install();
        let gps = geo.cuyahoga_districts[0].coord.to_gps_string();
        let (first, _) = net
            .request(ip("10.9.4.1"), &search_req("Hospital", &gps))
            .unwrap();
        let (second, _) = net
            .request(
                ip("10.9.4.1"),
                &search_req("Hospital", &gps).with_query("start", "12"),
            )
            .unwrap();
        let p1 = geoserp_serp::parse(&first.body_text()).unwrap();
        let p2 = geoserp_serp::parse(&second.body_text()).unwrap();
        assert_ne!(p1.urls(), p2.urls());
        assert!(!p2.has_card(geoserp_serp::CardType::Maps));
        // Garbage start values are a client error.
        let (bad, _) = net
            .request(
                ip("10.9.4.1"),
                &search_req("Hospital", &gps).with_query("start", "banana"),
            )
            .unwrap();
        assert_eq!(bad.status, Status::BadRequest);
    }
}
