//! The network simulator: routes requests from client IPs to registered
//! servers under DNS, latency, and fault models, counting every step in
//! the metrics registry.

use crate::clock::VirtualClock;
use crate::dns::DnsResolver;
use crate::fault::{FaultDecision, FaultInjector};
use crate::http::{Request, Response};
use crate::server::{RequestCtx, Server};
use geoserp_geo::Seed;
use geoserp_obs::{Counter, Histogram, ObsHub};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Why a request failed at the network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// DNS had no answer for the host.
    NoRoute(String),
    /// No server is listening at the resolved address.
    ConnectionRefused(Ipv4Addr),
    /// The fault injector ate the message.
    Dropped,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoRoute(host) => write!(f, "no route to host {host}"),
            NetError::ConnectionRefused(ip) => write!(f, "connection refused at {ip}"),
            NetError::Dropped => write!(f, "request dropped"),
        }
    }
}

impl std::error::Error for NetError {}

/// Pre-resolved metric handles for the simulator's hot path. Incrementing
/// is a single relaxed atomic op; the registry lock was paid once here.
#[derive(Debug)]
struct NetMetrics {
    requests: Counter,
    responses: Counter,
    rtt_ms: Histogram,
    dns_lookups: Counter,
    no_route: Counter,
    refused: Counter,
    dropped: Counter,
    corrupted: Counter,
}

impl NetMetrics {
    fn resolve(hub: &ObsHub) -> Self {
        let m = hub.metrics();
        NetMetrics {
            requests: m.counter("net.requests"),
            responses: m.counter("net.responses"),
            rtt_ms: m.histogram("net.rtt_ms"),
            dns_lookups: m.counter("net.dns_lookups"),
            no_route: m.counter("net.no_route"),
            refused: m.counter("net.connection_refused"),
            dropped: m.counter("net.dropped"),
            corrupted: m.counter("net.corrupted"),
        }
    }
}

/// Latency model: deterministic per (src, dst) base delay plus bounded
/// per-request jitter, all derived from the simulator seed.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    seed: Seed,
    /// The base ms.
    pub base_ms: u64,
    /// The spread ms.
    pub spread_ms: u64,
}

impl LatencyModel {
    /// Round-trip time for one exchange, in milliseconds.
    pub fn rtt_ms(&self, src: Ipv4Addr, dst: Ipv4Addr, seq: u64) -> u64 {
        let path = self
            .seed
            .derive_idx("lat-src", u32::from_be_bytes(src.octets()) as u64)
            .derive_idx("lat-dst", u32::from_be_bytes(dst.octets()) as u64);
        let mut path_rng = path.rng();
        let path_extra = path_rng.below((self.spread_ms + 1) as usize) as u64;
        let mut jitter_rng = path.derive_idx("jitter", seq).rng();
        let jitter = jitter_rng.below((self.spread_ms / 2 + 1) as usize) as u64;
        self.base_ms + path_extra + jitter
    }
}

/// The deterministic network simulator. Share via [`Arc`].
pub struct SimNet {
    clock: VirtualClock,
    dns: DnsResolver,
    servers: RwLock<HashMap<Ipv4Addr, Arc<dyn Server>>>,
    latency: LatencyModel,
    faults: FaultInjector,
    /// Per-source request counters: seq = src_ip << 32 | counter. Keying by
    /// source makes sequence numbers deterministic even when many client
    /// threads drive the network concurrently (each client is single-
    /// threaded), which is what keeps parallel crawls replayable.
    seq_per_src: Mutex<HashMap<Ipv4Addr, u32>>,
    /// Shared observability hub (metrics + spans) for this world.
    obs: Arc<ObsHub>,
    /// Handles resolved once from `obs` at construction.
    metrics: NetMetrics,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("servers", &self.servers.read().len())
            .field("now", &self.clock.now())
            .finish()
    }
}

/// Configures and constructs a [`SimNet`].
///
/// Obtained from [`SimNet::builder`]. By default the network is perfect
/// (no faults) and reports into a fresh enabled [`ObsHub`].
#[must_use = "call .build() to construct the simulator"]
pub struct SimNetBuilder {
    seed: Seed,
    drop_chance: f64,
    corrupt_chance: f64,
    obs: Option<Arc<ObsHub>>,
}

impl SimNetBuilder {
    /// Enable smoltcp-style fault injection with the given per-message
    /// drop and corruption probabilities.
    pub fn faults(mut self, drop_chance: f64, corrupt_chance: f64) -> Self {
        self.drop_chance = drop_chance;
        self.corrupt_chance = corrupt_chance;
        self
    }

    /// Report into a caller-supplied observability hub (pass
    /// [`ObsHub::disabled`] for zero-cost metrics).
    pub fn obs(mut self, obs: Arc<ObsHub>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Build the simulator.
    pub fn build(self) -> SimNet {
        let SimNetBuilder {
            seed,
            drop_chance,
            corrupt_chance,
            obs,
        } = self;
        let obs = obs.unwrap_or_else(|| Arc::new(ObsHub::new()));
        let metrics = NetMetrics::resolve(&obs);
        SimNet {
            clock: VirtualClock::new(),
            dns: DnsResolver::new(),
            servers: RwLock::new(HashMap::new()),
            latency: LatencyModel {
                seed: seed.derive("latency"),
                base_ms: 40,
                spread_ms: 40,
            },
            faults: FaultInjector::new(seed.derive("faults"), drop_chance, corrupt_chance),
            seq_per_src: Mutex::new(HashMap::new()),
            obs,
            metrics,
        }
    }
}

impl SimNet {
    /// Start building a simulator with default latency (40–80 ms RTT),
    /// no faults, and a fresh enabled [`ObsHub`]; override with
    /// [`SimNetBuilder::faults`] and [`SimNetBuilder::obs`].
    pub fn builder(seed: Seed) -> SimNetBuilder {
        SimNetBuilder {
            seed,
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            obs: None,
        }
    }

    /// The observability hub this world reports into.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The DNS resolver (register records, pin datacenters).
    pub fn dns(&self) -> &DnsResolver {
        &self.dns
    }

    /// The fault injector's `(drop_chance, corrupt_chance)` configuration —
    /// checkpoints record it so a resume can verify the rebuilt world runs
    /// under the same loss model.
    pub fn fault_rates(&self) -> (f64, f64) {
        (self.faults.drop_chance(), self.faults.corrupt_chance())
    }

    /// Snapshot of the per-source request counters, sorted by source
    /// address. Together with the virtual clock this *is* the simulator's
    /// stream position: fault decisions, latency, and every seeded noise
    /// draw downstream are pure functions of `(source, sequence, time)`, so
    /// restoring the cursor replays the exact same randomness.
    pub fn seq_cursor(&self) -> Vec<(Ipv4Addr, u32)> {
        let counters = self.seq_per_src.lock();
        let mut cursor: Vec<(Ipv4Addr, u32)> = counters.iter().map(|(&ip, &c)| (ip, c)).collect();
        cursor.sort_unstable_by_key(|(ip, _)| u32::from_be_bytes(ip.octets()));
        cursor
    }

    /// Restore per-source request counters from [`SimNet::seq_cursor`].
    /// Sources absent from the cursor are reset to zero (a fresh world has
    /// no counters at all, so a full overwrite is the faithful restore).
    pub fn restore_seq_cursor(&self, cursor: &[(Ipv4Addr, u32)]) {
        let mut counters = self.seq_per_src.lock();
        counters.clear();
        for &(ip, c) in cursor {
            counters.insert(ip, c);
        }
    }

    /// Attach a server at an address.
    pub fn register_server(&self, addr: Ipv4Addr, server: Arc<dyn Server>) {
        self.servers.write().insert(addr, server);
    }

    /// Register a named service: DNS record for `host` over `addrs`, same
    /// server object behind every address.
    pub fn register_service(&self, host: &str, addrs: &[Ipv4Addr], server: Arc<dyn Server>) {
        self.dns.register(host, addrs.to_vec());
        for &a in addrs {
            self.register_server(a, Arc::clone(&server));
        }
    }

    /// Issue one request from `src` to `req.host`.
    ///
    /// Returns the response and the virtual RTT. The global clock is *not*
    /// advanced (concurrent clients would race); the caller's scheduler owns
    /// time.
    pub fn request(&self, src: Ipv4Addr, req: &Request) -> Result<(Response, u64), NetError> {
        let now = self.clock.now();
        self.metrics.requests.inc();
        self.metrics.dns_lookups.inc();
        let Some(dst) = self.dns.resolve(&req.host) else {
            self.metrics.no_route.inc();
            return Err(NetError::NoRoute(req.host.clone()));
        };

        let server = {
            let servers = self.servers.read();
            servers.get(&dst).cloned()
        };
        let Some(server) = server else {
            self.metrics.refused.inc();
            return Err(NetError::ConnectionRefused(dst));
        };

        let seq = {
            let mut counters = self.seq_per_src.lock();
            let c = counters.entry(src).or_insert(0);
            let seq = ((u32::from_be_bytes(src.octets()) as u64) << 32) | *c as u64;
            *c += 1;
            seq
        };

        // Fault decisions are pure in the per-source sequence number, so a
        // parallel crawl replays its losses exactly.
        match self.faults.decide(seq) {
            FaultDecision::Drop => {
                self.metrics.dropped.inc();
                return Err(NetError::Dropped);
            }
            FaultDecision::Corrupt | FaultDecision::Deliver => {}
        }

        let rtt = self.latency.rtt_ms(src, dst, seq);
        let ctx = RequestCtx {
            src,
            dst,
            at: now,
            seq,
        };
        let mut resp = server.handle(&ctx, req);

        // Corruption applies to the response body on the return path (an
        // independent decision from the request path, keyed off seq + 2^63).
        let resp_nonce = seq ^ (1 << 63);
        if self.faults.is_active() && self.faults.decide(resp_nonce) == FaultDecision::Corrupt {
            resp.body = self.faults.corrupt(resp_nonce, &resp.body);
            self.metrics.corrupted.inc();
        }

        self.metrics.responses.inc();
        self.metrics.rtt_ms.observe(rtt);
        Ok((resp, rtt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::ip;

    fn echo_server() -> Arc<dyn Server> {
        Arc::new(|ctx: &RequestCtx, req: &Request| {
            Response::ok(format!("{} {} {}", ctx.src, ctx.dst, req.target()))
        })
    }

    #[test]
    fn request_roundtrip() {
        let net = SimNet::builder(Seed::new(1)).build();
        net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
        let (resp, rtt) = net
            .request(ip("10.0.0.9"), &Request::get("svc.example", "/hi"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body_text().contains("/hi"));
        assert!((40..=120).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn unknown_host_is_no_route() {
        let net = SimNet::builder(Seed::new(1)).build();
        let err = net
            .request(ip("10.0.0.9"), &Request::get("ghost.example", "/"))
            .unwrap_err();
        assert_eq!(err, NetError::NoRoute("ghost.example".into()));
        assert_eq!(net.obs().metrics().counter("net.no_route").get(), 1);
    }

    #[test]
    fn dangling_dns_is_connection_refused() {
        let net = SimNet::builder(Seed::new(1)).build();
        net.dns().register("svc.example", vec![ip("10.1.0.1")]);
        let err = net
            .request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
            .unwrap_err();
        assert_eq!(err, NetError::ConnectionRefused(ip("10.1.0.1")));
    }

    #[test]
    fn rotation_spreads_over_datacenters_and_pin_fixes_it() {
        let net = SimNet::builder(Seed::new(1)).build();
        let dcs = [ip("10.1.0.1"), ip("10.1.0.2"), ip("10.1.0.3")];
        net.register_service(
            "svc.example",
            &dcs,
            Arc::new(|ctx: &RequestCtx, _: &Request| Response::ok(ctx.dst.to_string())),
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            let (resp, _) = net
                .request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
                .unwrap();
            seen.insert(resp.body_text());
        }
        assert_eq!(seen.len(), 3, "rotation hits every datacenter");

        net.dns().pin("svc.example", dcs[1]);
        for _ in 0..5 {
            let (resp, _) = net
                .request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
                .unwrap();
            assert_eq!(resp.body_text(), dcs[1].to_string());
        }
    }

    #[test]
    fn drops_surface_as_errors() {
        let net = SimNet::builder(Seed::new(2)).faults(1.0, 0.0).build();
        net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
        let err = net
            .request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
            .unwrap_err();
        assert_eq!(err, NetError::Dropped);
    }

    #[test]
    fn corruption_mangles_but_delivers() {
        let net = SimNet::builder(Seed::new(3)).faults(0.0, 1.0).build();
        net.register_service(
            "svc.example",
            &[ip("10.1.0.1")],
            Arc::new(|_: &RequestCtx, _: &Request| Response::ok("pristine-body-content")),
        );
        let (resp, _) = net
            .request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_ne!(resp.body_text(), "pristine-body-content");
    }

    #[test]
    fn latency_is_deterministic_per_sequence() {
        let mk = || {
            let net = SimNet::builder(Seed::new(7)).build();
            net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
            let mut rtts = Vec::new();
            for _ in 0..5 {
                let (_, rtt) = net
                    .request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
                    .unwrap();
                rtts.push(rtt);
            }
            rtts
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn request_does_not_advance_clock() {
        let net = SimNet::builder(Seed::new(1)).build();
        net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
        net.request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
            .unwrap();
        assert_eq!(net.clock().now().millis(), 0);
    }

    #[test]
    fn seq_cursor_roundtrips_and_replays_the_stream() {
        // Two worlds, same seed. World A issues 5 requests, snapshots its
        // cursor; world B restores the cursor and must see the exact RTTs
        // (i.e. the same stream positions) world A sees next.
        let mk = || {
            let net = SimNet::builder(Seed::new(21)).build();
            net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
            net
        };
        let a = mk();
        let req = Request::get("svc.example", "/");
        for _ in 0..5 {
            a.request(ip("10.0.0.9"), &req).unwrap();
        }
        a.request(ip("10.0.0.10"), &req).unwrap();
        let cursor = a.seq_cursor();
        assert_eq!(cursor, vec![(ip("10.0.0.9"), 5), (ip("10.0.0.10"), 1)]);

        let b = mk();
        b.restore_seq_cursor(&cursor);
        for _ in 0..3 {
            let (_, rtt_a) = a.request(ip("10.0.0.9"), &req).unwrap();
            let (_, rtt_b) = b.request(ip("10.0.0.9"), &req).unwrap();
            assert_eq!(rtt_a, rtt_b, "restored cursor must replay the stream");
        }
    }

    #[test]
    fn restore_seq_cursor_overwrites_stale_counters() {
        let net = SimNet::builder(Seed::new(22)).build();
        net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
        net.request(ip("10.0.0.9"), &Request::get("svc.example", "/"))
            .unwrap();
        net.restore_seq_cursor(&[(ip("10.0.0.10"), 7)]);
        assert_eq!(net.seq_cursor(), vec![(ip("10.0.0.10"), 7)]);
    }

    #[test]
    fn fault_rates_are_exposed() {
        assert_eq!(
            SimNet::builder(Seed::new(1)).build().fault_rates(),
            (0.0, 0.0)
        );
        assert_eq!(
            SimNet::builder(Seed::new(1))
                .faults(0.25, 0.1)
                .build()
                .fault_rates(),
            (0.25, 0.1)
        );
    }

    #[test]
    fn metrics_count_exchanges_and_faults() {
        let net = SimNet::builder(Seed::new(2)).faults(1.0, 0.0).build();
        net.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
        let req = Request::get("svc.example", "/");
        net.request(ip("10.0.0.9"), &req).unwrap_err(); // dropped
        net.request(ip("10.0.0.9"), &Request::get("ghost.example", "/"))
            .unwrap_err(); // no route
        let snap = net.obs().snapshot();
        assert_eq!(snap.counters.get("net.requests"), Some(&2));
        assert_eq!(snap.counters.get("net.dropped"), Some(&1));
        assert_eq!(snap.counters.get("net.no_route"), Some(&1));
        assert_eq!(snap.counters.get("net.dns_lookups"), Some(&2));
        assert_eq!(snap.counters.get("net.responses"), Some(&0));

        let ok = SimNet::builder(Seed::new(3)).build();
        ok.register_service("svc.example", &[ip("10.1.0.1")], echo_server());
        for _ in 0..4 {
            ok.request(ip("10.0.0.9"), &req).unwrap();
        }
        let snap = ok.obs().snapshot();
        assert_eq!(snap.counters.get("net.responses"), Some(&4));
        let rtt = snap.histograms.get("net.rtt_ms").unwrap();
        assert_eq!(rtt.count, 4);
        assert!(rtt.min >= 40 && rtt.max <= 120, "{rtt:?}");
    }

    #[test]
    fn request_context_sequence_is_per_source_and_increments() {
        let net = SimNet::builder(Seed::new(1)).build();
        net.register_service(
            "svc.example",
            &[ip("10.1.0.1")],
            Arc::new(|ctx: &RequestCtx, _: &Request| Response::ok(ctx.seq.to_string())),
        );
        let fetch = |src: &str| -> u64 {
            net.request(ip(src), &Request::get("svc.example", "/"))
                .unwrap()
                .0
                .body_text()
                .parse()
                .unwrap()
        };
        let a0 = fetch("10.0.0.9");
        let a1 = fetch("10.0.0.9");
        let b0 = fetch("10.0.0.10");
        // Same source: counter increments. Different source: independent
        // stream with a distinct high half.
        assert_eq!(a1, a0 + 1);
        assert_ne!(b0 >> 32, a0 >> 32);
        assert_eq!(b0 & 0xffff_ffff, 0);
    }
}
