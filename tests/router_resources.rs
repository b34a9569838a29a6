//! Integration: the router's data plane keeps threads and file descriptors
//! bounded through the serve tier's fault cells, and returns both to
//! baseline on shutdown.
//!
//! This is a test binary of its own, holding a single test: it counts the
//! whole process's threads (`/proc/self/task`) and descriptors
//! (`/proc/self/fd`), which only means something while nothing else runs
//! beside it.

use geoserp::engine::{EngineConfig, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp::geo::{Seed, UsGeography};
use geoserp::net::{encode_request, parse_response, Request, Response, Status, WireLimits};
use geoserp::serve::router::IDLE_POOL_CAP;
use geoserp::serve::{ClusterConfig, ServeConfig, ShardedCluster};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SEED: u64 = 2015;
const SHARDS: usize = 2;
const REPLICAS: usize = 2;

/// (threads, open descriptors) of this process. The descriptor count
/// includes the directory handle the count itself holds, the same in
/// every sample.
fn counts() -> (usize, usize) {
    let entries = |dir: &str| std::fs::read_dir(dir).expect("procfs").count();
    (entries("/proc/self/task"), entries("/proc/self/fd"))
}

/// The highest counts sampled.
#[derive(Default)]
struct Peak {
    threads: usize,
    fds: usize,
}

impl Peak {
    fn sample(&mut self) {
        let (threads, fds) = counts();
        self.threads = self.threads.max(threads);
        self.fds = self.fds.max(fds);
    }
}

/// Three terms at two districts each, as in `tests/fault_injection.rs`.
fn request_sequence() -> Vec<Request> {
    let geo = UsGeography::generate(Seed::new(SEED));
    let mut reqs = Vec::new();
    for term in ["Coffee", "Hospital", "starbuks"] {
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

/// One request over a fresh connection, sampling the process every
/// millisecond while the router works on it.
fn request_sampled(addr: SocketAddr, req: &Request, peak: &mut Peak) -> Response {
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .unwrap();
    stream.write_all(&encode_request(req).unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        peak.sample();
        if let Some((resp, _)) = parse_response(&buf, &limits).unwrap() {
            return resp;
        }
        assert!(Instant::now() < deadline, "router never answered");
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed before a full response"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// Start a cluster, run `cell` against it while sampling, shut it down,
/// and check the resource invariants.
fn check_cell(name: &str, cfg: ClusterConfig, cell: impl FnOnce(&mut ShardedCluster, &mut Peak)) {
    let workers = cfg.serve.workers;
    let baseline = counts();
    let mut cluster =
        ShardedCluster::start("127.0.0.1:0", SEED, EngineConfig::paper_defaults(), cfg).unwrap();
    let (start_threads, start_fds) = counts();
    let mut peak = Peak::default();
    cell(&mut cluster, &mut peak);
    cluster.shutdown();
    let after = counts();

    assert!(
        peak.threads <= start_threads,
        "{name}: {} threads sampled, {start_threads} right after start",
        peak.threads
    );
    // Both ends of every router-to-replica connection live in this
    // process. A replica's connections, idle or in flight, never outnumber
    // the router's serving threads (it is dialed only while its pool is
    // empty), which stay below IDLE_POOL_CAP; the slack also covers the
    // server-side ends of abandoned hedge arms the slow replica still
    // holds. Each serving thread adds one epoll instance, and the client's
    // request connection its two ends.
    let pool_bound = 2 * IDLE_POOL_CAP * SHARDS * REPLICAS;
    let fd_bound = start_fds + pool_bound + workers + 2;
    assert!(
        peak.fds <= fd_bound,
        "{name}: {} descriptors sampled, bound {fd_bound} ({start_fds} at start)",
        peak.fds
    );
    assert_eq!(
        after, baseline,
        "{name}: (threads, fds) after shutdown vs before start"
    );
}

#[test]
fn fault_cells_hold_threads_and_descriptors_bounded_and_release_them_on_shutdown() {
    let reqs = request_sequence();
    let serve = ServeConfig::new();

    // Shard 0's replica 0 answers 500 ms late against an 80 ms hedge, so
    // every scatter that makes it primary races a second replica and
    // abandons the slow arm mid-flight.
    let slow = ClusterConfig::new(SHARDS as u32, REPLICAS as u32)
        .hedge_ms(80)
        .slow_replica(0, 0, 500)
        .serve(serve.clone());
    check_cell("slow replica", slow, |cluster, peak| {
        for req in &reqs {
            let resp = request_sampled(cluster.router_addr(), req, peak);
            assert_eq!(resp.status, Status::Ok);
        }
        let snap = cluster.hub.snapshot();
        assert!(snap.counters["router.hedge_fired"] > 0, "no hedge fired");
    });

    // One replica per shard killed after a warm-up, with pooled
    // connections to both open.
    let killed = ClusterConfig::new(SHARDS as u32, REPLICAS as u32)
        .hedge_ms(5_000)
        .serve(serve);
    check_cell("killed replicas", killed, |cluster, peak| {
        for req in &reqs[..2] {
            let resp = request_sampled(cluster.router_addr(), req, peak);
            assert_eq!(resp.status, Status::Ok);
        }
        cluster.kill_replica(0, 0);
        cluster.kill_replica(1, 1);
        for req in &reqs[2..] {
            let resp = request_sampled(cluster.router_addr(), req, peak);
            assert_eq!(resp.status, Status::Ok);
        }
        let snap = cluster.hub.snapshot();
        assert!(snap.counters["router.retries"] > 0, "no dead primary hit");
    });
}
