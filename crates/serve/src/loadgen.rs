//! Closed-loop load generator for the socket server.
//!
//! `concurrency` client threads each issue their share of `requests`
//! back-to-back (a new request only after the previous response), the
//! classic closed-loop model — throughput is the rate of responses
//! received, latency is first-byte-to-full-response. One run targets one
//! address (`geoserp loadgen --addr`) and reports throughput and p50/p99
//! latency; paired performance comparisons are perfbench's `serve_direct`
//! and `serve_routed` workloads.

use geoserp_engine::{GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp_net::{encode_request, parse_response, Request, Status, WireLimits};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The GPS fix (`lat,lon`, downtown Cleveland) every request carries in
/// the geolocation header.
const GPS: &str = "41.499300,-81.694400";
/// Socket read/write timeout per request.
const TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables for [`run`]. Build with [`LoadgenConfig::new`] and adjust with
/// the fluent setters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct LoadgenConfig {
    /// Total requests across all client threads.
    pub requests: usize,
    /// Concurrent closed-loop client threads.
    pub concurrency: usize,
    /// Reuse one connection per thread (vs connect-per-request).
    pub keep_alive: bool,
    /// The search term each request carries.
    pub query: String,
}

impl LoadgenConfig {
    /// Defaults: 200 requests, 4 threads, keep-alive on, a Cleveland-pinned
    /// `Coffee` query, 5 s timeout.
    pub fn new() -> Self {
        LoadgenConfig {
            requests: 200,
            concurrency: 4,
            keep_alive: true,
            query: "Coffee".to_string(),
        }
    }

    /// Set the total request count (clamped to ≥ 1 at run).
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Set the client-thread count (clamped to ≥ 1 at run).
    pub fn concurrency(mut self, n: usize) -> Self {
        self.concurrency = n;
        self
    }

    /// Reuse connections (true) or reconnect per request (false).
    pub fn keep_alive(mut self, on: bool) -> Self {
        self.keep_alive = on;
        self
    }

    /// Set the search term.
    pub fn query(mut self, q: impl Into<String>) -> Self {
        self.query = q.into();
        self
    }
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig::new()
    }
}

/// One load-generation run's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Requests attempted.
    pub requests: usize,
    /// `200 OK` responses.
    pub ok: usize,
    /// Non-200 responses plus transport failures.
    pub errors: usize,
    /// Wall-clock duration of the whole run, seconds.
    pub elapsed_s: f64,
    /// Responses received (`200` or not) per second; transport failures
    /// do not count.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

/// The request every loadgen client issues.
fn search_request(cfg: &LoadgenConfig) -> Request {
    Request::get(SEARCH_HOST, "/search")
        .with_query("q", cfg.query.clone())
        .with_header(GEOLOCATION_HEADER, GPS)
        .with_header("User-Agent", "geoserp-loadgen/0.1")
}

/// Issue one request on an open connection; returns the response status.
fn roundtrip(stream: &mut TcpStream, wire: &[u8]) -> std::io::Result<Status> {
    stream.write_all(wire)?;
    stream.flush()?;
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    loop {
        match parse_response(&buf, &limits) {
            Ok(Some((resp, _))) => return Ok(resp.status),
            Ok(None) => {}
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ))
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One closed-loop client thread's work: `n` requests, latencies in µs.
fn client_loop(
    addr: SocketAddr,
    wire: &[u8],
    n: usize,
    keep_alive: bool,
) -> (Vec<u64>, usize, usize) {
    let connect = || -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(TIMEOUT))?;
        s.set_write_timeout(Some(TIMEOUT))?;
        Ok(s)
    };
    let mut latencies = Vec::with_capacity(n);
    let (mut ok, mut errors) = (0usize, 0usize);
    let mut conn: Option<TcpStream> = None;
    for _ in 0..n {
        let started = Instant::now();
        let outcome = (|| -> std::io::Result<Status> {
            if conn.is_none() {
                conn = Some(connect()?);
            }
            let stream = conn.as_mut().expect("just connected");
            roundtrip(stream, wire)
        })();
        match outcome {
            Ok(status) => {
                latencies.push(started.elapsed().as_micros() as u64);
                if status == Status::Ok {
                    ok += 1;
                } else {
                    errors += 1;
                }
                if !keep_alive {
                    conn = None;
                }
            }
            Err(_) => {
                errors += 1;
                conn = None; // reconnect on the next iteration
            }
        }
    }
    (latencies, ok, errors)
}

/// Percentile by the nearest-rank definition: the smallest value in the
/// sorted sample such that at least `p`% of the sample is ≤ it, i.e. the
/// element at rank `⌈(p/100)·N⌉` (1-based). 0 when empty.
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Run one closed-loop load generation against `addr`.
///
/// # Errors
/// Propagates address-resolution failures; per-request transport errors are
/// counted in the report instead.
pub fn run(addr: &str, cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let addr: SocketAddr = addr.parse().map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{addr}: {e}"))
    })?;
    let wire = encode_request(&search_request(cfg))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let requests = cfg.requests.max(1);
    let concurrency = cfg.concurrency.max(1).min(requests);

    let started = Instant::now();
    let mut results = Vec::with_capacity(concurrency);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(concurrency);
        for i in 0..concurrency {
            // Spread the remainder so the shares sum to `requests`.
            let share = requests / concurrency + usize::from(i < requests % concurrency);
            let wire = &wire;
            handles.push(scope.spawn(move || client_loop(addr, wire, share, cfg.keep_alive)));
        }
        for h in handles {
            results.push(h.join().expect("loadgen client thread panicked"));
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let (mut ok, mut errors) = (0usize, 0usize);
    for (l, o, e) in results {
        latencies.extend(l);
        ok += o;
        errors += e;
    }
    latencies.sort_unstable();
    Ok(LoadgenReport {
        requests,
        ok,
        errors,
        elapsed_s,
        throughput_rps: latencies.len() as f64 / elapsed_s.max(f64::EPSILON),
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
    })
}

#[cfg(test)]
mod tests {
    use super::percentile_us;

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile_us(&[], 50.0), 0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile_us(&[42], 50.0), 42);
        assert_eq!(percentile_us(&[42], 99.0), 42);
    }

    #[test]
    fn percentile_two_samples() {
        // p50 rank = ceil(0.5·2) = 1 → the smaller value. The old
        // round((p/100)·(N−1)) formula returned the *larger* one.
        assert_eq!(percentile_us(&[10, 20], 50.0), 10);
        assert_eq!(percentile_us(&[10, 20], 99.0), 20);
    }

    #[test]
    fn percentile_four_samples() {
        let s = [10, 20, 30, 40];
        // p50 rank = ceil(2) = 2 → 20 (old formula said 30: a whole
        // element high).
        assert_eq!(percentile_us(&s, 50.0), 20);
        assert_eq!(percentile_us(&s, 99.0), 40);
    }

    #[test]
    fn percentile_five_samples() {
        let s = [1, 2, 3, 4, 5];
        assert_eq!(percentile_us(&s, 50.0), 3, "odd N: the true median");
        assert_eq!(percentile_us(&s, 99.0), 5);
    }

    #[test]
    fn percentile_hundred_samples() {
        let s: Vec<u64> = (1..=100).collect();
        // With N=100 the nearest rank is exactly p.
        assert_eq!(percentile_us(&s, 50.0), 50);
        assert_eq!(percentile_us(&s, 99.0), 99);
        assert_eq!(percentile_us(&s, 100.0), 100);
        assert_eq!(percentile_us(&s, 0.0), 1, "rank clamps to the minimum");
    }
}
