//! The TCP front end: one [`SearchService`] behind real sockets, speaking
//! the `geoserp-net` wire codec on a readiness-based event loop (see
//! [`crate::epoll`]): `workers` reactor threads, nonblocking
//! accept/read/write state machines driven by the incremental
//! [`parse_request`](geoserp_net::parse_request), and one idle or write
//! deadline per connection.
//!
//! The server sheds load with `503` once `workers + queue_depth`
//! connections are in flight (written off the accept path, so a stalled
//! peer never holds it), applies the serve-layer per-IP rate limit
//! (`429`), rejects IPv6 peers with a typed `400` (the determinism contract
//! is IPv4-only), and drains gracefully on shutdown.
//!
//! # Determinism contract
//!
//! The served page for a given `(query, geolocation header, day)` is
//! byte-identical to what the simulated path produces, because the socket
//! layer reconstructs exactly the [`RequestCtx`] the simulator would build:
//!
//! * `seq` mirrors the simulator's per-source formula
//!   (`src_ip << 32 | counter`, counter starting at 0 per source and
//!   wrapping at `u32::MAX` like the simulator's);
//! * `at` is pinned inside the configured virtual [`ServeConfig::day`]
//!   (`day * DAY_MS + wall_elapsed % DAY_MS`) — engine page bytes depend on
//!   time only through the day index;
//! * every request is dispatched to datacenter 0 (`dst = addrs[0]`), the
//!   socket-transport analogue of the paper's DNS pinning (§2.2).
//!
//! Wall time only enters rate-limit windows and metrics, never page bytes.

use crate::epoll;
use geoserp_engine::{ConfigError, EngineConfig, SearchEngine, SearchService};
use geoserp_geo::{Seed, UsGeography};
use geoserp_net::clock::SimInstant;
use geoserp_net::{
    encode_response, RateLimitKey, RateLimiter, Request, RequestCtx, Response, Server, Status,
    WireLimits, TRACE_HEADER,
};
use geoserp_obs::trace::{self, Stage, TraceContext};
use geoserp_obs::{Counter, ObsHub, SpanRecord};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Milliseconds per simulation day (the engine's time granularity).
pub const DAY_MS: u64 = 86_400_000;

/// Tunables for [`SocketServer::start`]. Build with [`ServeConfig::new`] and
/// adjust with the fluent setters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Event-loop (reactor) threads.
    pub workers: usize,
    /// Admission slack: open connections admitted beyond `workers` before
    /// new ones are shed with `503`s. The in-flight bound is
    /// `workers + queue_depth`.
    pub queue_depth: usize,
    /// Serve multiple requests per connection.
    pub keep_alive: bool,
    /// Read deadline: how long a connection may wait for request bytes
    /// (an idle keep-alive connection included) before it is closed.
    pub read_timeout_ms: u64,
    /// Write deadline: how long a stalled response flush may wait for the
    /// peer to drain it before the connection is closed.
    pub write_timeout_ms: u64,
    /// Wire-level size limits (head bytes, body bytes, header count).
    pub limits: WireLimits,
    /// Serve-layer per-IP rate limit: admitted requests per window.
    pub rate_limit_max: usize,
    /// Serve-layer rate-limit window, milliseconds.
    pub rate_limit_window_ms: u64,
    /// Virtual day this server lives in (engine results vary by day).
    pub day: u32,
    /// Engine per-IP rate-limit ceiling applied when building a world for
    /// serving (see [`ServeConfig::engine_config`]). The engine's own
    /// 30/min limit models Google throttling distinct crawler machines;
    /// behind a socket every client shares one IP, so serving raises it
    /// and shedding moves to the serve-layer limiter above.
    pub engine_rate_limit_max: usize,
    /// Record distributed-tracing spans (request roots, per-stage spans,
    /// `X-Geoserp-Trace` propagation). Off, the serve path records no
    /// spans at all; served bytes are identical either way.
    pub tracing: bool,
    /// Process name this server publishes on its `/spans` collector
    /// endpoint — the row label in an assembled cross-process trace
    /// (`router`, `shard0.r1`, …).
    pub process: String,
}

impl ServeConfig {
    /// Defaults: 4 workers, admission slack of 64, keep-alive on, 5 s
    /// timeouts, default wire limits, a permissive serve-layer rate limit
    /// (100 000/min — the engine's own per-IP limiter is separate), day 0.
    pub fn new() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            keep_alive: true,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            limits: WireLimits::new(),
            rate_limit_max: 100_000,
            rate_limit_window_ms: 60_000,
            day: 0,
            engine_rate_limit_max: usize::MAX / 2,
            tracing: true,
            process: "serve".to_string(),
        }
    }

    /// Set the worker-thread count (clamped to ≥ 1 at start).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the admission slack beyond `workers` (clamped to ≥ 1).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Enable or disable keep-alive.
    pub fn keep_alive(mut self, on: bool) -> Self {
        self.keep_alive = on;
        self
    }

    /// Set the read timeout in milliseconds.
    pub fn read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms;
        self
    }

    /// Set the write timeout in milliseconds.
    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.write_timeout_ms = ms;
        self
    }

    /// Set the wire-level size limits.
    pub fn limits(mut self, limits: WireLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Set the serve-layer per-IP rate limit.
    pub fn rate_limit(mut self, max: usize, window_ms: u64) -> Self {
        self.rate_limit_max = max;
        self.rate_limit_window_ms = window_ms;
        self
    }

    /// Set the virtual day served.
    pub fn day(mut self, day: u32) -> Self {
        self.day = day;
        self
    }

    /// Set the engine per-IP rate-limit ceiling used when serving.
    pub fn engine_rate_limit_max(mut self, max: usize) -> Self {
        self.engine_rate_limit_max = max;
        self
    }

    /// Enable or disable distributed-tracing span recording.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Set the process name published on `/spans`.
    pub fn process(mut self, name: &str) -> Self {
        self.process = name.to_string();
        self
    }

    /// Apply the serve-tier engine overrides to a base engine config: the
    /// per-IP limit bump every serving entry point (CLI `serve` and
    /// `router`, the sharded cluster's router) must share, in one place.
    pub fn engine_config(&self, base: EngineConfig) -> EngineConfig {
        EngineConfig {
            rate_limit_max: self.engine_rate_limit_max,
            ..base
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// A search world ready to put behind a socket: the engine wrapped in its
/// [`SearchService`], the observability hub they share, and the datacenter
/// addresses the service was registered with.
///
/// Seeding mirrors the simulated path exactly — same seed, same geography,
/// corpus, engine, and `10.50.0.*` datacenter addresses as
/// [`SearchService::install`] — which is what makes served pages
/// byte-comparable to simulated ones.
pub struct ServedWorld {
    /// The service (engine + per-IP limiter + datacenter map).
    pub service: Arc<SearchService>,
    /// Hub shared by the engine and the socket layer (`/metrics` reads it).
    pub hub: Arc<ObsHub>,
    /// Datacenter addresses; the socket layer serves as `addrs[0]` (dc0).
    pub addrs: Vec<Ipv4Addr>,
}

impl ServedWorld {
    /// Generate the world for `seed` and wrap it for serving.
    ///
    /// # Errors
    /// Propagates [`ConfigError`] from engine-config validation.
    pub fn build(seed: u64, config: EngineConfig) -> Result<ServedWorld, ConfigError> {
        Self::build_scaled(seed, config, 1)
    }

    /// Like [`ServedWorld::build`], but over a corpus generated at
    /// `corpus_scale` × the base page count
    /// ([`geoserp_corpus::WebCorpus::generate_scaled`]). Scale 1 is the
    /// unscaled world.
    ///
    /// # Errors
    /// Propagates [`ConfigError`] from engine-config validation.
    pub fn build_scaled(
        seed: u64,
        config: EngineConfig,
        corpus_scale: u32,
    ) -> Result<ServedWorld, ConfigError> {
        let world_seed = Seed::new(seed);
        let geo = UsGeography::generate(world_seed);
        let corpus = Arc::new(geoserp_corpus::WebCorpus::generate_scaled(
            &geo,
            world_seed,
            corpus_scale,
        ));
        let hub = Arc::new(ObsHub::new());
        let engine = Arc::new(
            SearchEngine::builder(corpus, &geo, world_seed)
                .config(config)
                .obs(Arc::clone(&hub))
                .build()?,
        );
        let n = engine.config().datacenters;
        let addrs: Vec<Ipv4Addr> = (1..=n)
            .map(|i| format!("10.50.0.{i}").parse().expect("valid address"))
            .collect();
        let service = Arc::new(SearchService::new(engine, &addrs));
        Ok(ServedWorld {
            service,
            hub,
            addrs,
        })
    }
}

/// Socket-layer counters (all registered on the shared hub, so `/metrics`
/// and `geoserp run --metrics-out`-style snapshots see them).
pub(crate) struct ServeMetrics {
    pub(crate) connections: Counter,
    pub(crate) requests: Counter,
    pub(crate) responses: Counter,
    pub(crate) bad_requests: Counter,
    pub(crate) rate_limited: Counter,
    pub(crate) rejected_busy: Counter,
}

impl ServeMetrics {
    fn resolve(hub: &ObsHub) -> Self {
        let m = hub.metrics();
        ServeMetrics {
            connections: m.counter("serve.connections"),
            requests: m.counter("serve.requests"),
            responses: m.counter("serve.responses"),
            bad_requests: m.counter("serve.bad_requests"),
            rate_limited: m.counter("serve.rate_limited"),
            rejected_busy: m.counter("serve.rejected_busy"),
        }
    }
}

/// Per-source request sequence counters, mirroring the simulator's formula.
///
/// The counter half wraps at `u32::MAX` (the simulator's counter is a
/// `u32`, so the mirrored formula must wrap rather than panic in debug
/// builds at the 2³²nd request from one source).
pub(crate) struct SeqCounters(Mutex<HashMap<Ipv4Addr, u32>>);

impl SeqCounters {
    pub(crate) fn new() -> Self {
        SeqCounters(Mutex::new(HashMap::new()))
    }

    /// Next sequence number for `src`: `src_ip << 32 | counter`.
    pub(crate) fn next(&self, src: Ipv4Addr) -> u64 {
        let mut counters = self.0.lock();
        let c = counters.entry(src).or_insert(0);
        let seq = ((u32::from_be_bytes(src.octets()) as u64) << 32) | *c as u64;
        *c = c.wrapping_add(1);
        seq
    }

    #[cfg(test)]
    fn set(&self, src: Ipv4Addr, counter: u32) {
        self.0.lock().insert(src, counter);
    }
}

/// The `400` an IPv6 peer receives: the determinism contract (per-source
/// sequence numbers, rate-limit keys) is defined over IPv4 addresses only.
pub(crate) fn ipv6_reject_response() -> Response {
    Response::status(Status::BadRequest).with_header("X-Reason", "ipv4-only determinism contract")
}

/// The `503` shed when the admission bound is full.
pub(crate) fn shed_response() -> Response {
    Response::status(Status::ServiceUnavailable).with_header("X-Reason", "accept queue full")
}

/// State shared by every event loop of one server.
pub(crate) struct Shared {
    pub(crate) service: Arc<dyn Server>,
    pub(crate) hub: Arc<ObsHub>,
    pub(crate) dc0: Ipv4Addr,
    pub(crate) config: ServeConfig,
    pub(crate) limiter: RateLimiter,
    pub(crate) seq: SeqCounters,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    pub(crate) metrics: ServeMetrics,
}

/// The outcome of routing one request: the response plus, when the
/// request was traced, the context the transport should attribute the
/// response-flush stage span to (recorded *after* the bytes are written).
pub(crate) struct Routed {
    pub(crate) resp: Response,
    pub(crate) trace: Option<TraceContext>,
}

impl Routed {
    fn untraced(resp: Response) -> Routed {
        Routed { resp, trace: None }
    }
}

impl Shared {
    /// Wall milliseconds since the server started (rate-limit windows and
    /// the intra-day clock; never page bytes).
    pub(crate) fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Route one parsed request. `ready` is when the transport became
    /// responsible for this request (connection accepted, or the previous
    /// response finished on a keep-alive connection) and `parse_us` the
    /// wall time the wire parse took — together they time the queue and
    /// parse stages of a traced request.
    pub(crate) fn route(
        &self,
        src: Ipv4Addr,
        req: &Request,
        ready: Instant,
        parse_us: u64,
    ) -> Routed {
        match req.path.as_str() {
            "/healthz" => {
                Routed::untraced(Response::ok("ok\n").with_header("Content-Type", "text/plain"))
            }
            "/metrics" => Routed::untraced(
                Response::ok(self.hub.snapshot().to_prometheus())
                    .with_header("Content-Type", "text/plain; version=0.0.4"),
            ),
            "/metrics.json" => Routed::untraced(
                Response::ok(self.hub.snapshot().to_json())
                    .with_header("Content-Type", "application/json"),
            ),
            "/spans" => Routed::untraced(
                Response::ok(trace::process_spans_json(
                    &self.config.process,
                    &self.hub.spans().snapshot(),
                ))
                .with_header("Content-Type", "application/json"),
            ),
            _ => {
                let dispatched = Instant::now();
                let now_ms = self.now_ms();
                if !self.limiter.admit(src, SimInstant(now_ms)) {
                    self.metrics.rate_limited.inc();
                    return Routed::untraced(
                        Response::status(Status::TooManyRequests)
                            .with_header("X-Reason", "serve-layer rate limit"),
                    );
                }
                let ctx = RequestCtx {
                    src,
                    dst: self.dc0,
                    at: SimInstant(u64::from(self.config.day) * DAY_MS + now_ms % DAY_MS),
                    seq: self.seq.next(src),
                };
                if !self.config.tracing || !self.hub.spans().is_enabled() {
                    return Routed::untraced(self.service.handle(&ctx, req));
                }
                // Derive the deterministic trace context: a fresh root for
                // an edge request, or a child of the caller's rpc span for
                // a downstream hop carrying the propagation header.
                let name = format!("request {}", req.path);
                let (parent, tctx) = match req.header(TRACE_HEADER).and_then(TraceContext::parse) {
                    Some(p) => (p.span, p.at_offset(trace::RPC_OFFSET_MS).child(&name)),
                    None => (0, TraceContext::root(ctx.seq)),
                };
                let queue_us = dispatched
                    .saturating_duration_since(ready)
                    .as_micros()
                    .saturating_sub(parse_us as u128) as u64;
                trace::record_stage_with(&self.hub, &tctx, Stage::Queue, Some(queue_us));
                trace::record_stage_with(&self.hub, &tctx, Stage::Parse, Some(parse_us));
                let handle_started = Instant::now();
                let resp = {
                    let _g = trace::enter(tctx, Arc::clone(&self.hub));
                    self.service.handle(&ctx, req)
                };
                self.hub.spans().record(SpanRecord {
                    id: tctx.span,
                    parent,
                    name: Cow::Owned(name),
                    cat: "serve.request",
                    tid: 0,
                    start_ms: tctx.base_ms,
                    dur_ms: trace::REQUEST_DUR_MS,
                    args: vec![("trace", tctx.trace_hex())],
                    wall_us: Some(handle_started.elapsed().as_micros() as u64),
                });
                Routed {
                    resp,
                    trace: Some(tctx),
                }
            }
        }
    }
}

/// Encode a response, falling back to a bare status if a header that
/// reached us is unencodable (it came from us, so this is defensive).
pub(crate) fn encode_or_bare(resp: &Response) -> Vec<u8> {
    encode_response(resp)
        .or_else(|_| encode_response(&Response::status(resp.status)))
        .expect("bare status responses always encode")
}

/// A running socket server. Dropping it shuts it down gracefully.
pub struct SocketServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    loops: Vec<JoinHandle<()>>,
    /// One waker per event loop, to interrupt their sleeps.
    wakers: Vec<Arc<mio::Waker>>,
}

impl SocketServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `world`.
    ///
    /// # Errors
    /// Propagates bind/spawn I/O errors.
    pub fn start(
        addr: &str,
        world: &ServedWorld,
        config: ServeConfig,
    ) -> std::io::Result<SocketServer> {
        let service: Arc<dyn Server> = Arc::clone(&world.service) as Arc<dyn Server>;
        Self::start_service(
            addr,
            service,
            Arc::clone(&world.hub),
            world.addrs[0],
            config,
        )
    }

    /// Bind `addr` and serve an arbitrary [`Server`] — the generalization
    /// the sharded tier uses to put shard services and the router behind
    /// the very same event loops (and the same `/healthz`, `/metrics`,
    /// limiter, and sequence-counter front matter) as a search world.
    ///
    /// `dc0` is the datacenter address requests are attributed to (the
    /// DNS-pinning analogue); services that ignore it may pass any
    /// address.
    ///
    /// # Errors
    /// Propagates bind/spawn I/O errors.
    pub fn start_service(
        addr: &str,
        service: Arc<dyn Server>,
        hub: Arc<ObsHub>,
        dc0: Ipv4Addr,
        config: ServeConfig,
    ) -> std::io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let limiter = RateLimiter::new(
            RateLimitKey::PerIp,
            config.rate_limit_max.max(1),
            config.rate_limit_window_ms.max(1),
        );
        let metrics = ServeMetrics::resolve(&hub);
        let shared = Arc::new(Shared {
            service,
            hub,
            dc0,
            config,
            limiter,
            seq: SeqCounters::new(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            metrics,
        });
        let (loops, wakers) = epoll::start(Arc::clone(&shared), listener)?;
        Ok(SocketServer {
            shared,
            local_addr,
            loops,
            wakers,
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain in-flight connections, and join every event
    /// loop. Idle keep-alive connections are closed promptly: the drain
    /// path wakes every loop and closes them without waiting out the read
    /// timeout.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for waker in &self.wakers {
            let _ = waker.wake();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_counter_wraps_instead_of_panicking() {
        let seq = SeqCounters::new();
        let src: Ipv4Addr = "10.1.2.3".parse().unwrap();
        let ip_half = (u32::from_be_bytes(src.octets()) as u64) << 32;
        seq.set(src, u32::MAX);
        // The 2^32nd request carries counter u32::MAX …
        assert_eq!(seq.next(src), ip_half | u64::from(u32::MAX));
        // … and the next one wraps to 0 (debug builds used to panic here).
        assert_eq!(seq.next(src), ip_half);
        assert_eq!(seq.next(src), ip_half | 1);
    }

    #[test]
    fn reject_and_shed_responses_have_typed_reasons() {
        let v6 = ipv6_reject_response();
        assert_eq!(v6.status, Status::BadRequest);
        assert_eq!(
            v6.header("X-Reason"),
            Some("ipv4-only determinism contract")
        );
        let shed = shed_response();
        assert_eq!(shed.status, Status::ServiceUnavailable);
        assert_eq!(shed.header("X-Reason"), Some("accept queue full"));
    }
}
