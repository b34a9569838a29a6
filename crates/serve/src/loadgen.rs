//! Closed-loop load generator for the socket server.
//!
//! `concurrency` client threads each issue their share of `requests`
//! back-to-back (a new request only after the previous response), the
//! classic closed-loop model — throughput is offered load, latency is
//! first-byte-to-full-response. Reports throughput and p50/p99 latency;
//! [`run_matrix`] sweeps worker counts × keep-alive against in-process
//! servers on ephemeral ports and emits the `BENCH_serve.json` payload.

use crate::router::{ClusterConfig, ShardedCluster};
use crate::server::{ServeConfig, ServedWorld, SocketServer};
use geoserp_engine::{EngineConfig, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp_net::{encode_request, parse_response, Request, Status, WireLimits};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
    /// The spoofed GPS fix (`lat,lon`), sent in the geolocation header.
    pub gps: String,
    /// Socket read/write timeout per request, milliseconds.
    pub timeout_ms: u64,
    /// Client think time between requests, milliseconds, spent *holding*
    /// the keep-alive connection (models real browsers: connections far
    /// outnumber in-flight requests). 0 = closed-loop firehose.
    pub think_ms: u64,
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
            gps: "41.499300,-81.694400".to_string(),
            timeout_ms: 5_000,
            think_ms: 0,
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

    /// Set the spoofed GPS fix (`lat,lon`).
    pub fn gps(mut self, gps: impl Into<String>) -> Self {
        self.gps = gps.into();
        self
    }

    /// Set the per-request socket timeout.
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = ms;
        self
    }

    /// Set the between-request think time (connection stays open).
    pub fn think_ms(mut self, ms: u64) -> Self {
        self.think_ms = ms;
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
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

/// One cell of the worker-count × load-shape sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixEntry {
    /// Serving path for this cell: `"epoll"` (the event loop serves the
    /// engine directly) or `"router"` (through the sharded tier). Part of
    /// the `BENCH_serve.json` cell key.
    pub backend: String,
    /// Server worker threads for this cell.
    pub workers: usize,
    /// Whether connections were reused.
    pub keep_alive: bool,
    /// Client threads for this cell (the firehose cells use the sweep's
    /// `concurrency`; the slow-client cells use `8 × workers`).
    pub concurrency: usize,
    /// Client think time between requests (connection held open).
    pub think_ms: u64,
    /// Index shards behind a router, 0 when the engine is served directly
    /// (no router in the path).
    pub shards: usize,
    /// Replicas per shard, 0 when served directly.
    pub replicas: usize,
    /// The measured run.
    pub report: LoadgenReport,
}

/// The full sweep: the committed shape of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixReport {
    /// World seed the served engine was generated from.
    pub seed: u64,
    /// Requests per cell.
    pub requests: usize,
    /// Client threads per cell.
    pub concurrency: usize,
    /// All measured cells.
    pub entries: Vec<MatrixEntry>,
}

impl MatrixReport {
    /// Serialize as pretty JSON (the `BENCH_serve.json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// A human-readable table of the sweep.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "serve loadgen: {} requests x {} client threads per firehose cell (seed {})\n\
             backend   workers  keep-alive  clients  think_ms  shardsxreps  throughput_rps  p50_us  p99_us  errors\n",
            self.requests, self.concurrency, self.seed
        );
        for e in &self.entries {
            let topology = if e.shards == 0 {
                "direct".to_string()
            } else {
                format!("{}x{}", e.shards, e.replicas)
            };
            out.push_str(&format!(
                "{:<8}  {:>7}  {:<10}  {:>7}  {:>8}  {:>11}  {:>14.0}  {:>6}  {:>6}  {:>6}\n",
                e.backend,
                e.workers,
                e.keep_alive,
                e.concurrency,
                e.think_ms,
                topology,
                e.report.throughput_rps,
                e.report.p50_us,
                e.report.p99_us,
                e.report.errors
            ));
        }
        out
    }
}

/// The request every loadgen client issues.
fn search_request(cfg: &LoadgenConfig) -> Request {
    Request::get(SEARCH_HOST, "/search")
        .with_query("q", cfg.query.clone())
        .with_header(GEOLOCATION_HEADER, cfg.gps.clone())
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
    timeout: Duration,
    think: Duration,
) -> (Vec<u64>, usize, usize) {
    let connect = || -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(timeout))?;
        s.set_write_timeout(Some(timeout))?;
        Ok(s)
    };
    let mut latencies = Vec::with_capacity(n);
    let (mut ok, mut errors) = (0usize, 0usize);
    let mut conn: Option<TcpStream> = None;
    for i in 0..n {
        if i > 0 && !think.is_zero() {
            // Think while holding the connection open: the idle-keep-alive
            // load shape that separates the serving cores.
            std::thread::sleep(think);
        }
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
///
/// The previous implementation rounded `(p/100)·(N−1)` to an index, which
/// is neither nearest-rank nor linear interpolation: at N=4 it reported
/// the *third* value as p50 (nearest-rank: the second) and could sit a
/// full element too high on exactly the small samples CI benches run.
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
    let timeout = Duration::from_millis(cfg.timeout_ms.max(1));
    let think = Duration::from_millis(cfg.think_ms);

    let started = Instant::now();
    let mut results = Vec::with_capacity(concurrency);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(concurrency);
        for i in 0..concurrency {
            // Spread the remainder so the shares sum to `requests`.
            let share = requests / concurrency + usize::from(i < requests % concurrency);
            let wire = &wire;
            handles.push(
                scope.spawn(move || client_loop(addr, wire, share, cfg.keep_alive, timeout, think)),
            );
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
        throughput_rps: (ok + errors) as f64 / elapsed_s.max(f64::EPSILON),
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
    })
}

/// Sweep worker counts × load shape against in-process servers on
/// ephemeral loopback ports, one world shared across cells. The engine's
/// own per-IP rate limit is raised far above the offered load (every
/// loadgen client shares the loopback source IP; the paper's 30/min limit
/// would otherwise throttle the benchmark, not the server), and the
/// engine's result cache is enabled — applied identically to every cell —
/// so the sweep measures *serving mechanics* (accept, parse, dispatch,
/// write) rather than the ~300 µs single-core SERP pipeline that would
/// otherwise dominate every cell equally.
///
/// # Errors
/// Returns a description of the first world-build, bind, or run failure.
pub fn run_matrix(
    seed: u64,
    worker_counts: &[usize],
    requests: usize,
    concurrency: usize,
) -> Result<MatrixReport, String> {
    // The engine per-IP limit bump lives on ServeConfig so every serving
    // entry point shares it; the result cache is the bench-only addition.
    let config = ServeConfig::new().engine_config(EngineConfig::with_result_cache(3_600_000));
    let world = ServedWorld::build(seed, config.clone()).map_err(|e| e.to_string())?;
    // Unrecorded warm-up: one slow-client pass at the widest worker count
    // grows the process's fd table and thread-stack cache to the sweep's
    // peak. Without it, the first measured cell to hold that many sockets
    // pays the one-time kernel fd-table growth inside its latency tail.
    if let Some(&widest) = worker_counts.iter().max() {
        run_cell(&world, widest, &slow_client_load(widest))?;
    }
    let mut entries = Vec::new();
    for &workers in worker_counts {
        // Firehose cells: zero think time, keep-alive on/off. The server
        // saturates the CPU, so these mostly pin per-request overhead and
        // connection-setup cost.
        for keep_alive in [true, false] {
            let cfg = LoadgenConfig::new()
                .requests(requests)
                .concurrency(concurrency)
                .keep_alive(keep_alive);
            entries.push(run_cell(&world, workers, &cfg)?);
        }
        entries.push(run_cell(&world, workers, &slow_client_load(workers))?);
    }
    // Router cells: the same offered load through the sharded tier. The
    // 1x1 cell against the direct epoll cell above is the router's
    // scatter-gather overhead (two TCP hops per request) in isolation;
    // wider topologies show fan-out cost and replica headroom.
    for (shards, replicas) in [(1u32, 1u32), (2, 1), (2, 2)] {
        let cfg = LoadgenConfig::new()
            .requests(requests)
            .concurrency(concurrency)
            .keep_alive(true);
        entries.push(run_router_cell(
            seed,
            config.clone(),
            shards,
            replicas,
            &cfg,
        )?);
    }
    Ok(MatrixReport {
        seed,
        requests,
        concurrency,
        entries,
    })
}

/// Think time for the slow-client cells: long enough to dwarf the ~30 µs
/// cached service time, short enough to keep the sweep fast.
const SLOW_CLIENT_THINK_MS: u64 = 20;

/// The slow-client load for `workers` server threads: connections
/// outnumber workers 8:1 and sit idle between requests while staying open
/// — the C10K shape. Each event loop multiplexes all of its open
/// connections at once.
fn slow_client_load(workers: usize) -> LoadgenConfig {
    let clients = workers * 8;
    LoadgenConfig::new()
        .requests(clients * 5)
        .concurrency(clients)
        .keep_alive(true)
        .think_ms(SLOW_CLIENT_THINK_MS)
}

fn run_cell(
    world: &ServedWorld,
    workers: usize,
    cfg: &LoadgenConfig,
) -> Result<MatrixEntry, String> {
    let server = SocketServer::start(
        "127.0.0.1:0",
        world,
        ServeConfig::new()
            .workers(workers)
            .keep_alive(cfg.keep_alive)
            .rate_limit(usize::MAX / 2, 60_000),
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let report =
        run(&server.local_addr().to_string(), cfg).map_err(|e| format!("loadgen failed: {e}"))?;
    server.shutdown();
    Ok(MatrixEntry {
        backend: "epoll".to_string(),
        workers,
        keep_alive: cfg.keep_alive,
        concurrency: cfg.concurrency,
        think_ms: cfg.think_ms,
        shards: 0,
        replicas: 0,
        report,
    })
}

/// One cell measured through the sharded tier: a fresh `shards × replicas`
/// cluster on loopback, loadgen pointed at its router.
fn run_router_cell(
    seed: u64,
    engine: EngineConfig,
    shards: u32,
    replicas: u32,
    cfg: &LoadgenConfig,
) -> Result<MatrixEntry, String> {
    let serve = ServeConfig::new().keep_alive(cfg.keep_alive);
    let workers = serve.workers;
    let cluster = ShardedCluster::start(
        "127.0.0.1:0",
        seed,
        engine,
        ClusterConfig::new(shards, replicas).serve(serve),
    )
    .map_err(|e| format!("cluster start failed: {e}"))?;
    let report =
        run(&cluster.router_addr().to_string(), cfg).map_err(|e| format!("loadgen failed: {e}"))?;
    cluster.shutdown();
    Ok(MatrixEntry {
        backend: "router".to_string(),
        workers,
        keep_alive: cfg.keep_alive,
        concurrency: cfg.concurrency,
        think_ms: cfg.think_ms,
        shards: shards as usize,
        replicas: replicas as usize,
        report,
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
