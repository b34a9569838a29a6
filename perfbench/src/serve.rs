//! The two serve workloads: the epoll server alone (`serve_direct`) and a
//! 2 shards × 2 replicas cluster behind the router (`serve_routed`).
//!
//! Before any load, each fresh server replays the 10-request sequence of
//! `tests/sharded_equivalence.rs` over fresh connections; its pages must
//! equal the in-process engine's answers to the same requests and, at seed
//! 2015, digest to the committed golden value.

use crate::loadgen::{self, ClosedLoop, Mix, OpenLoop};
use crate::spans::Recorder;
use crate::{procfs, stats, Outcome, RunConfig, SetupClock, SplitMix64};
use geoserp_core::crawler::fnv1a64;
use geoserp_core::engine::{EngineConfig, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp_core::geo::{Seed, UsGeography};
use geoserp_core::net::clock::SimInstant;
use geoserp_core::net::WireLimits;
use geoserp_core::net::{encode_request, parse_response, Request, RequestCtx, Response, Server};
use geoserp_core::obs::MetricsSnapshot;
use geoserp_core::serve::{ClusterConfig, ServeConfig, ServedWorld, ShardedCluster, SocketServer};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Offered load of `serve_direct`'s nominal rung, requests per second.
const DIRECT_RATE: f64 = 4000.0;
/// Offered load of `serve_routed`'s nominal rung (the cluster saturates
/// near 1000/s on two cores).
const ROUTED_RATE: f64 = 300.0;
/// Golden digest of the check sequence's pages at seed 2015.
const PAGES_2015: u64 = 0xeb00_3703_74eb_156e;
const SHARDS: u32 = 2;
const REPLICAS: u32 = 2;
const HEDGE_MS: u64 = 200;

/// The serving config: tracing as asked, and the per-IP limit raised the
/// way loadgen raises it, because every client shares 127.0.0.1.
fn serve_config(tracing: bool) -> ServeConfig {
    ServeConfig::new()
        .tracing(tracing)
        .rate_limit(usize::MAX / 2, 60_000)
}

fn engine_config() -> EngineConfig {
    serve_config(false).engine_config(EngineConfig::paper_defaults())
}

fn cluster_config(tracing: bool) -> ClusterConfig {
    ClusterConfig::new(SHARDS, REPLICAS)
        .hedge_ms(HEDGE_MS)
        .serve(serve_config(tracing))
}

fn build_world(seed: u64) -> ServedWorld {
    ServedWorld::build(seed, engine_config()).expect("paper defaults are valid")
}

fn start_cluster(seed: u64, tracing: bool) -> std::io::Result<ShardedCluster> {
    ShardedCluster::start(
        "127.0.0.1:0",
        seed,
        EngineConfig::paper_defaults(),
        cluster_config(tracing),
    )
}

/// Five terms (organic, local, spell-corrected) at two Cuyahoga district
/// fixes each.
fn check_sequence(seed: u64) -> Vec<Request> {
    let geo = UsGeography::generate(Seed::new(seed));
    let mut reqs = Vec::new();
    for term in ["Coffee", "Hospital", "Bank", "starbuks", "Pizza"] {
        for district in [0, 2] {
            reqs.push(
                Request::get(SEARCH_HOST, "/search")
                    .with_query("q", term)
                    .with_header(
                        GEOLOCATION_HEADER,
                        geo.cuyahoga_districts[district].coord.to_gps_string(),
                    )
                    .with_header("User-Agent", "Mozilla/5.0 (iPhone; Safari 8)"),
            );
        }
    }
    reqs
}

/// One request over a fresh connection.
fn request_tcp(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let wire = encode_request(req).map_err(|e| e.to_string())?;
    stream.write_all(&wire).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, _)) = parse_response(&buf, &limits).map_err(|e| e.to_string())? {
            return Ok(resp);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed before a full response".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Status code and body of each response, framed, FNV-1a.
fn pages_digest(responses: &[Response]) -> u64 {
    let mut bytes = Vec::new();
    for r in responses {
        bytes.extend_from_slice(r.status.code().to_string().as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&r.body);
        bytes.push(b'\n');
    }
    fnv1a64(&bytes)
}

/// The pages a fresh server owes the sequence: the in-process service's
/// answers under the context a socket server derives for a fresh loopback
/// client (per-source sequence numbers from 0, datacenter 0, day 0).
fn reference_pages(world: &ServedWorld, reqs: &[Request]) -> Vec<Response> {
    let src = Ipv4Addr::LOCALHOST;
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            let ctx = RequestCtx {
                src,
                dst: world.addrs[0],
                at: SimInstant(0),
                seq: (u64::from(u32::from(src)) << 32) | i as u64,
            };
            world.service.handle(&ctx, req)
        })
        .collect()
}

/// Replay the check sequence against a fresh server and compare.
fn check_pages(
    addr: SocketAddr,
    reqs: &[Request],
    reference: &[Response],
    seed: u64,
    out: &mut Outcome,
) {
    let served: Result<Vec<Response>, String> = reqs.iter().map(|r| request_tcp(addr, r)).collect();
    let served = match served {
        Ok(served) => served,
        Err(e) => return out.require(false, format!("check sequence: {e}")),
    };
    let digest = pages_digest(&served);
    out.require(
        digest == pages_digest(reference),
        "served pages differ from the in-process engine's".into(),
    );
    out.digest("pages", digest, (seed == 2015).then_some(PAGES_2015));
}

/// Both rungs against one address, with process sampling around them.
struct Rungs {
    open: OpenLoop,
    peak: ClosedLoop,
    threads_peak: u64,
    fds_peak: u64,
}

/// Run the open-loop rung, then `between` (untimed), then the peak rung.
fn rungs(
    addr: SocketAddr,
    mix: &Mix,
    rate: f64,
    cfg: &RunConfig,
    rec: &mut Recorder,
    label: &str,
    between: &mut dyn FnMut(&mut Recorder),
) -> Result<Rungs, String> {
    let sampler = cfg.traced.then(procfs::Sampler::start);
    let started = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed, "open-loop");
    let open = loadgen::open_loop(addr, mix, rate, cfg.seconds as f64, &mut rng);
    rec.record(
        0,
        format!("{label} open loop @{rate}/s"),
        "loadgen",
        started,
    );
    between(rec);
    let started = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed, "peak");
    let peak_s = (cfg.seconds as f64 / 3.0).max(1.0);
    let peak = loadgen::closed_loop(addr, mix, peak_s, &mut rng);
    rec.record(0, format!("{label} peak rung"), "loadgen", started);
    let (threads_peak, fds_peak) = sampler.map_or((0, 0), procfs::Sampler::finish);
    Ok(Rungs {
        open: open.map_err(|e| format!("open loop: {e}"))?,
        peak: peak.map_err(|e| format!("peak rung: {e}"))?,
        threads_peak,
        fds_peak,
    })
}

/// The end-to-end metrics and failure counts of the untraced rungs.
fn report(out: &mut Outcome, setup_s: f64, r: &Rungs) {
    let tallies = [&r.open.tally, &r.peak.tally];
    out.attempted = tallies.iter().map(|t| t.attempted()).sum();
    out.failed = tallies.iter().map(|t| t.failed()).sum();
    out.require(out.failed == 0, format!("{} requests failed", out.failed));
    let lat = stats::sorted(r.open.latencies_ms.clone());
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", r.peak.rps(), "1/s");
    out.metric(
        "lat_p50_ms",
        stats::percentile(&lat, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.layer(
        "lat_p90_ms",
        stats::percentile(&lat, 0.9).unwrap_or(0.0),
        "ms",
    );
    out.metric("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    out.layer(
        "lat_p99_ms",
        stats::percentile(&lat, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.layer("lat_samples", lat.len() as f64, "count");
    let lag = stats::sorted(r.open.lag_ms.clone());
    out.layer(
        "loadgen.lag_p99_ms",
        stats::percentile(&lag, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.layer(
        "loadgen.lag_max_ms",
        lag.last().copied().unwrap_or(0.0),
        "ms",
    );
    out.layer("proc.threads_peak", r.threads_peak as f64, "count");
    out.layer("proc.fds_peak", r.fds_peak as f64, "count");
}

/// Histogram buckets: inclusive upper bound → samples.
type Buckets = BTreeMap<u64, u64>;

/// Add the samples histogram `name` gained from `before` to `after` into
/// `into`.
fn add_gained(into: &mut Buckets, before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) {
    let Some(now) = after.histograms.get(name) else {
        return;
    };
    let earlier = before.histograms.get(name);
    for &(bound, n) in &now.buckets {
        let old = earlier
            .and_then(|h| h.buckets.iter().find(|(b, _)| *b == bound))
            .map_or(0, |(_, n)| *n);
        if n > old {
            *into.entry(bound).or_default() += n - old;
        }
    }
}

/// The upper bound of the bucket holding the nearest-rank `q` sample, as
/// the obs registry reports percentiles (0 when empty).
fn bucket_quantile(buckets: &Buckets, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    let target = stats::rank(total as usize, q) as u64;
    let mut seen = 0;
    for (&bound, &n) in buckets {
        seen += n;
        if seen >= target {
            return bound as f64;
        }
    }
    0.0
}

/// Counter growth between two snapshots.
fn grew(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
    (get(after) - get(before)) as f64
}

/// Serve-stage layers from a hub's snapshots around the traced rung.
fn stage_layers(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    stages: &[&str],
) {
    for stage in stages {
        let mut gained = Buckets::new();
        add_gained(
            &mut gained,
            before,
            after,
            &format!("serve.stage.{stage}_wall_us"),
        );
        for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
            let v = bucket_quantile(&gained, q);
            out.layer(&format!("serve.stage.{stage}_us.{suffix}"), v, "us");
        }
    }
    for counter in [
        "serve.requests",
        "serve.responses",
        "serve.rejected_busy",
        "serve.connections",
        "engine.queries",
    ] {
        out.layer(counter, grew(before, after, counter), "count");
    }
}

/// What tracing costs: traced vs untraced p50 and peak.
fn overhead_layers(out: &mut Outcome, untraced: &Rungs, traced: &Rungs) {
    let p50 = |r: &Rungs| {
        stats::percentile(&stats::sorted(r.open.latencies_ms.clone()), 0.5).unwrap_or(0.0)
    };
    let (a, b) = (p50(untraced), p50(traced));
    out.layer("obs.trace_overhead_p50_pct", (b - a) / a * 100.0, "%");
    let (a, b) = (untraced.peak.rps(), traced.peak.rps());
    out.layer("obs.trace_overhead_peak_pct", (a - b) / a * 100.0, "%");
    out.layer("obs.traced_lat_p50_ms", p50(traced), "ms");
    out.layer("obs.traced_peak_rps", traced.peak.rps(), "1/s");
}

/// `serve_direct`.
pub fn direct(cfg: &RunConfig, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let mut setup = SetupClock::default();
    let build = || Ok(build_world(cfg.seed));
    let world = match setup.group(rec, "world", build) {
        Ok(w) => w,
        Err(e) => return out.fail(e),
    };

    let reqs = check_sequence(cfg.seed);
    let reference = reference_pages(&world, &reqs);
    let server = match SocketServer::start("127.0.0.1:0", &world, serve_config(false)) {
        Ok(server) => server,
        Err(e) => return out.fail(format!("server start: {e}")),
    };
    check_pages(server.local_addr(), &reqs, &reference, cfg.seed, &mut out);
    if !out.correct {
        return out;
    }
    let mix = Mix::new(cfg.seed);
    let measured = rungs(
        server.local_addr(),
        &mix,
        DIRECT_RATE,
        cfg,
        rec,
        "direct",
        &mut |rec| {
            setup.group(rec, "world", build).ok();
        },
    );
    server.shutdown();
    setup.group(rec, "world", build).ok();
    let measured = match measured {
        Ok(m) => m,
        Err(e) => return out.fail(e),
    };
    report(&mut out, setup.median(), &measured);
    if cfg.traced {
        out.layer("proc.threads_after", procfs::threads() as f64, "count");
        out.layer("proc.fds_after", procfs::open_fds() as f64, "count");
        let before = world.hub.snapshot();
        let traced = SocketServer::start("127.0.0.1:0", &world, serve_config(true))
            .map_err(|e| e.to_string())
            .and_then(|server| {
                let addr = server.local_addr();
                let r = rungs(
                    addr,
                    &mix,
                    DIRECT_RATE,
                    cfg,
                    rec,
                    "traced direct",
                    &mut |_| {},
                );
                server.shutdown();
                r
            });
        match traced {
            Ok(traced) => {
                let after = world.hub.snapshot();
                stage_layers(
                    &mut out,
                    &before,
                    &after,
                    &["queue", "parse", "retrieve", "render", "flush"],
                );
                overhead_layers(&mut out, &measured, &traced);
            }
            Err(e) => out.require(false, format!("traced rung: {e}")),
        }
    }
    out
}

/// `serve_routed`.
pub fn routed(cfg: &RunConfig, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let mut setup = SetupClock::default();
    let build = || start_cluster(cfg.seed, false).map_err(|e| format!("cluster start: {e}"));
    let cluster = match setup.group(rec, "cluster", build) {
        Ok(c) => c,
        Err(e) => return out.fail(e),
    };

    let reqs = check_sequence(cfg.seed);
    let reference = reference_pages(&build_world(cfg.seed), &reqs);
    check_pages(cluster.router_addr(), &reqs, &reference, cfg.seed, &mut out);
    if !out.correct {
        cluster.shutdown();
        return out;
    }
    let mix = Mix::new(cfg.seed);
    let measured = rungs(
        cluster.router_addr(),
        &mix,
        ROUTED_RATE,
        cfg,
        rec,
        "routed",
        &mut |rec| {
            if let Err(e) = setup.group(rec, "cluster", build) {
                out.require(false, e);
            }
        },
    );
    cluster.shutdown();
    if let Err(e) = setup.group(rec, "cluster", build) {
        out.require(false, e);
    }
    let measured = match measured {
        Ok(m) => m,
        Err(e) => return out.fail(e),
    };
    report(&mut out, setup.median(), &measured);
    if cfg.traced {
        out.layer("proc.threads_after", procfs::threads() as f64, "count");
        out.layer("proc.fds_after", procfs::open_fds() as f64, "count");
        let started = Instant::now();
        let traced_cluster = match start_cluster(cfg.seed, true) {
            Ok(c) => c,
            Err(e) => return out.fail(format!("traced cluster start: {e}")),
        };
        out.layer("setup.cluster_s", started.elapsed().as_secs_f64(), "s");
        let hubs = || -> Vec<MetricsSnapshot> {
            traced_cluster
                .shard_hubs
                .iter()
                .flatten()
                .map(|h| h.snapshot())
                .collect()
        };
        let (before, shards_before) = (traced_cluster.hub.snapshot(), hubs());
        let addr = traced_cluster.router_addr();
        let traced = rungs(
            addr,
            &mix,
            ROUTED_RATE,
            cfg,
            rec,
            "traced routed",
            &mut |_| {},
        );
        let (after, shards_after) = (traced_cluster.hub.snapshot(), hubs());
        traced_cluster.shutdown();
        let traced = match traced {
            Ok(t) => t,
            Err(e) => return out.fail(format!("traced rung: {e}")),
        };
        stage_layers(
            &mut out,
            &before,
            &after,
            &["queue", "parse", "retrieve", "merge", "render", "flush"],
        );
        overhead_layers(&mut out, &measured, &traced);
        router_layers(&mut out, &before, &after, &shards_before, &shards_after);
    }
    out
}

/// Router and shard layers around the traced rung.
fn router_layers(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    shards_before: &[MetricsSnapshot],
    shards_after: &[MetricsSnapshot],
) {
    let requests = grew(before, after, "serve.requests").max(1.0);
    let fanout = |s: &MetricsSnapshot| s.histograms.get("router.fanout").map_or(0, |h| h.sum);
    out.layer(
        "router.fanout_per_req",
        (fanout(after) - fanout(before)) as f64 / requests,
        "count",
    );
    for counter in [
        "router.retries",
        "router.hedge_fired",
        "router.shard_errors",
    ] {
        out.layer(counter, grew(before, after, counter), "count");
    }
    let mut rpc = Buckets::new();
    for i in 0..SHARDS {
        add_gained(
            &mut rpc,
            before,
            after,
            &format!("router.shard{i}.latency_wall_us"),
        );
    }
    let mut retrieve = Buckets::new();
    for (b, a) in shards_before.iter().zip(shards_after) {
        add_gained(&mut retrieve, b, a, "serve.stage.retrieve_wall_us");
    }
    for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
        out.layer(
            &format!("router.rpc_us.{suffix}"),
            bucket_quantile(&rpc, q),
            "us",
        );
        let v = bucket_quantile(&retrieve, q);
        out.layer(&format!("shard.retrieve_us.{suffix}"), v, "us");
    }
    // Busiest replica's share of its shard's requests (0.5 is even).
    let served: Vec<f64> = shards_before
        .iter()
        .zip(shards_after)
        .map(|(b, a)| grew(b, a, "serve.requests"))
        .collect();
    let max_share = served
        .chunks(REPLICAS as usize)
        .map(|shard| {
            let total: f64 = shard.iter().sum();
            shard.iter().fold(0.0f64, |m, &n| m.max(n / total.max(1.0)))
        })
        .fold(0.0, f64::max);
    out.layer("shard.load_max_share", max_share, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_core::obs::HistogramSnapshot;

    fn snapshot(buckets: &[(u64, u64)]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let hist = HistogramSnapshot {
            count: buckets.iter().map(|(_, n)| n).sum(),
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            buckets: buckets.to_vec(),
        };
        snap.histograms.insert("h".into(), hist);
        snap
    }

    #[test]
    fn quantiles_cover_only_the_samples_gained_between_snapshots() {
        let before = snapshot(&[(3, 1), (7, 2)]);
        let after = snapshot(&[(3, 1), (7, 5), (15, 1)]);
        let mut gained = Buckets::new();
        add_gained(&mut gained, &before, &after, "h");
        assert_eq!(gained, Buckets::from([(7, 3), (15, 1)]));
        assert_eq!(bucket_quantile(&gained, 0.5), 7.0);
        assert_eq!(bucket_quantile(&gained, 0.99), 15.0);
        // Merging a second source sums bucket counts.
        add_gained(&mut gained, &MetricsSnapshot::default(), &before, "h");
        assert_eq!(gained, Buckets::from([(3, 1), (7, 5), (15, 1)]));
        assert_eq!(bucket_quantile(&Buckets::new(), 0.5), 0.0);
    }
}
