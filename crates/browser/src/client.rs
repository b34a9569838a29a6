//! The browser client: page loads over the simulated network and the
//! PhantomJS-script equivalent.

use crate::fingerprint::{CookieJar, Fingerprint, GeolocationOverride};
use geoserp_geo::Coord;
use geoserp_net::{NetError, Request, SimNet, Status};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Why a page load failed after retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowserError {
    /// Network-layer failure (DNS, refused, or dropped beyond retry budget).
    Net(NetError),
    /// Server answered with a non-success status.
    Http(Status),
}

impl fmt::Display for BrowserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowserError::Net(e) => write!(f, "network error: {e}"),
            BrowserError::Http(s) => write!(f, "http error: {s}"),
        }
    }
}

impl std::error::Error for BrowserError {}

/// A fetched SERP body plus transport metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SerpFetch {
    /// Raw response body (the SERP wire markup; parsing is the scraper's
    /// job).
    pub body: String,
    /// Virtual round-trip time of the successful request, milliseconds.
    pub rtt_ms: u64,
    /// `X-Datacenter` response header, when present.
    pub datacenter: Option<String>,
}

/// A headless browser bound to one client IP on the simulated network.
#[derive(Clone)]
pub struct Browser {
    net: Arc<SimNet>,
    ip: Ipv4Addr,
    fingerprint: Fingerprint,
    cookies: CookieJar,
    geolocation: GeolocationOverride,
    /// Page-load attempts per request (drops are retried; the paper's
    /// crawler re-ran failed loads).
    pub max_attempts: usize,
}

impl Browser {
    /// A browser with the paper's treatment fingerprint and no cookies.
    pub fn new(net: Arc<SimNet>, ip: Ipv4Addr) -> Self {
        Browser {
            net,
            ip,
            fingerprint: Fingerprint::iphone_safari8(),
            cookies: CookieJar::new(),
            geolocation: GeolocationOverride::denied(),
            max_attempts: 3,
        }
    }

    /// This browser's client IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// The presented fingerprint.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Override the Geolocation API (the JS-shim equivalent).
    pub fn set_geolocation(&mut self, coord: Coord) {
        self.geolocation = GeolocationOverride::at(coord);
    }

    /// Deny geolocation.
    pub fn deny_geolocation(&mut self) {
        self.geolocation = GeolocationOverride::denied();
    }

    /// Cookie access.
    pub fn cookies(&self) -> &CookieJar {
        &self.cookies
    }

    /// Clear cookies (the paper's after-every-query hygiene).
    pub fn clear_cookies(&mut self) {
        self.cookies.clear();
    }

    /// Assemble a request with the browser's full identity.
    fn decorate(&self, mut req: Request) -> Request {
        for (k, v) in self.fingerprint.headers() {
            req = req.with_header(k, v);
        }
        if let Some(cookie) = self.cookies.header_value() {
            req = req.with_header("Cookie", cookie);
        }
        if let Some(gps) = self.geolocation.header_value() {
            req = req.with_header("X-Geolocation", gps);
        }
        req
    }

    /// Load a page, retrying dropped requests up to `max_attempts`.
    pub fn load(
        &self,
        host: &str,
        path: &str,
        query: &[(&str, &str)],
    ) -> Result<SerpFetch, BrowserError> {
        let mut req = Request::get(host, path);
        for (k, v) in query {
            req = req.with_query(*k, *v);
        }
        let req = self.decorate(req);

        for _ in 0..self.max_attempts.max(1) {
            match self.net.request(self.ip, &req) {
                Ok((resp, rtt)) => {
                    if !resp.status.is_success() {
                        return Err(BrowserError::Http(resp.status));
                    }
                    return Ok(SerpFetch {
                        body: resp.body_text(),
                        rtt_ms: rtt,
                        datacenter: resp.header("X-Datacenter").map(str::to_owned),
                    });
                }
                Err(NetError::Dropped) => continue, // transient: retry
                Err(e) => return Err(BrowserError::Net(e)),
            }
        }
        Err(BrowserError::Net(NetError::Dropped))
    }

    /// The PhantomJS-script equivalent (§2.2): "takes a search term and a
    /// latitude/longitude pair as input, loads the mobile version of Google
    /// Search, executes the query, and saves the first page of search
    /// results."
    pub fn run_search_job(
        &mut self,
        host: &str,
        term: &str,
        coord: Coord,
    ) -> Result<SerpFetch, BrowserError> {
        self.set_geolocation(coord);
        // Loading the homepage first mirrors the real flow (and exercises
        // the service the way a browser would).
        self.load(host, "/", &[])?;
        self.load(host, "/search", &[("q", term)])
    }
}

impl fmt::Debug for Browser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Browser")
            .field("ip", &self.ip)
            .field("geolocation", &self.geolocation)
            .field("cookies", &self.cookies.is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_geo::Seed;
    use geoserp_net::{ip, RequestCtx, Response, Server};

    /// A toy server echoing back what the browser presented.
    fn echo_server() -> Arc<dyn Server> {
        Arc::new(|_ctx: &RequestCtx, req: &Request| {
            let ua = req.header("User-Agent").unwrap_or("none");
            let cookie = req.header("Cookie").unwrap_or("none");
            let gps = req.header("X-Geolocation").unwrap_or("none");
            Response::ok(format!("{}|{}|{}|{}", req.target(), ua, cookie, gps))
                .with_header("X-Datacenter", "dc9")
        })
    }

    fn net_with_echo() -> Arc<SimNet> {
        let net = Arc::new(SimNet::builder(Seed::new(3)).build());
        net.register_service("echo.example", &[ip("10.2.0.1")], echo_server());
        net
    }

    #[test]
    fn load_presents_fingerprint_and_geolocation() {
        let net = net_with_echo();
        let mut b = Browser::new(net, ip("10.8.0.1"));
        b.set_geolocation(Coord::new(41.5, -81.7));
        b.cookies.set("sid", "t1");
        let fetch = b
            .load("echo.example", "/search", &[("q", "coffee")])
            .unwrap();
        assert!(fetch.body.contains("/search?q=coffee"));
        assert!(fetch.body.contains("iPhone"));
        assert!(fetch.body.contains("sid=t1"));
        assert!(fetch.body.contains("41.5"));
        assert_eq!(fetch.datacenter.as_deref(), Some("dc9"));
    }

    #[test]
    fn cleared_cookies_and_denied_geolocation_are_absent() {
        let net = net_with_echo();
        let mut b = Browser::new(net, ip("10.8.0.1"));
        b.cookies.set("sid", "x");
        b.clear_cookies();
        b.deny_geolocation();
        let fetch = b.load("echo.example", "/", &[]).unwrap();
        assert!(fetch.body.contains("|none|none"), "{}", fetch.body);
    }

    #[test]
    fn two_browsers_present_identical_fingerprints() {
        let net = net_with_echo();
        let a = Browser::new(Arc::clone(&net), ip("10.8.0.1"));
        let b = Browser::new(net, ip("10.8.0.2"));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn unknown_host_is_a_net_error() {
        let net = net_with_echo();
        let b = Browser::new(net, ip("10.8.0.1"));
        let err = b.load("ghost.example", "/", &[]).unwrap_err();
        assert!(matches!(err, BrowserError::Net(NetError::NoRoute(_))));
    }

    #[test]
    fn http_error_is_surfaced() {
        let net = Arc::new(SimNet::builder(Seed::new(4)).build());
        net.register_service(
            "err.example",
            &[ip("10.2.0.9")],
            Arc::new(|_: &RequestCtx, _: &Request| Response::status(Status::InternalError)),
        );
        let b = Browser::new(net, ip("10.8.0.1"));
        let err = b.load("err.example", "/", &[]).unwrap_err();
        assert_eq!(err, BrowserError::Http(Status::InternalError));
    }

    #[test]
    fn drops_are_retried_until_budget_exhausted() {
        // 100% drop: all attempts fail.
        let net = Arc::new(SimNet::builder(Seed::new(5)).faults(1.0, 0.0).build());
        net.register_service("echo.example", &[ip("10.2.0.1")], echo_server());
        let b = Browser::new(net.clone(), ip("10.8.0.1"));
        let err = b.load("echo.example", "/", &[]).unwrap_err();
        assert_eq!(err, BrowserError::Net(NetError::Dropped));
        // Three attempts were made.
        assert_eq!(net.obs().metrics().counter("net.requests").get(), 3);
    }

    #[test]
    fn moderate_drop_rate_usually_succeeds_with_retries() {
        let net = Arc::new(SimNet::builder(Seed::new(6)).faults(0.3, 0.0).build());
        net.register_service("echo.example", &[ip("10.2.0.1")], echo_server());
        let b = Browser::new(net, ip("10.8.0.1"));
        let ok = (0..50)
            .filter(|_| b.load("echo.example", "/", &[]).is_ok())
            .count();
        assert!(ok >= 45, "only {ok}/50 loads succeeded");
    }
}
