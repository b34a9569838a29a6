//! Integration: distributed-trace determinism across the serve tier.
//!
//! The trace contract (see `geoserp::obs::trace`) is that every span's
//! identity and logical timing is a pure function of the request sequence
//! — never of wall clocks, thread ids, or socket timing. These tests
//! replay one fixed request sequence against every serving shape
//! (single-process and routed 2×2) and assert the *assembled Chrome trace
//! JSON is byte-identical* across repeated runs, including a fault cell
//! where a hedge race fires and the losing arm must be marked
//! deterministically.

use geoserp::engine::{EngineConfig, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp::geo::{Seed, UsGeography};
use geoserp::net::{encode_request, parse_response, Request, Response, WireLimits};
use geoserp::obs::{assemble_chrome_trace, parse_process_spans};
use geoserp::serve::{ClusterConfig, ServeConfig, ServedWorld, ShardedCluster, SocketServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SEED: u64 = 2015;

/// Distinct query terms so every request exercises retrieval (the SERP
/// cache never hides the scatter), at two districts each.
fn request_sequence(geo: &UsGeography) -> Vec<Request> {
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

fn request_tcp(addr: SocketAddr, req: &Request) -> Response {
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&encode_request(req).unwrap()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, _)) = parse_response(&buf, &limits).unwrap() {
            return resp;
        }
        let n = stream.read(&mut chunk).expect("server must reply");
        assert!(n > 0, "connection closed before a full response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Replay the sequence one request at a time (a sequential client keeps
/// the serve tier's request-sequence assignment deterministic).
fn replay(addr: SocketAddr, reqs: &[Request]) -> Vec<Response> {
    reqs.iter().map(|r| request_tcp(addr, r)).collect()
}

/// Flush spans are recorded on the serving side as response bytes hit the
/// socket — concurrently with the client reading them. Give the last
/// response's span a beat to land before snapshotting; in the fault cell
/// the losing hedge arm answers up to ~500 ms late.
fn settle(extra_ms: u64) {
    std::thread::sleep(Duration::from_millis(200 + extra_ms));
}

/// One single-process run: serve the sequence, pull the `/spans`
/// collector endpoint over HTTP, and assemble the one-process trace.
fn single_process_trace() -> (String, Vec<Response>) {
    let geo = UsGeography::generate(Seed::new(SEED));
    let config = ServeConfig::new();
    let world =
        ServedWorld::build(SEED, config.engine_config(EngineConfig::paper_defaults())).unwrap();
    let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
    let pages = replay(server.local_addr(), &request_sequence(&geo));
    settle(0);
    let doc = request_tcp(server.local_addr(), &Request::get(SEARCH_HOST, "/spans"));
    server.shutdown();
    let parsed = parse_process_spans(&doc.body).expect("/spans is a process-spans doc");
    assert_eq!(parsed.process, "serve", "default process name");
    (assemble_chrome_trace(&[parsed]), pages)
}

/// One routed 2×2 run: serve the sequence through the router and stitch
/// every process's span log into the merged trace.
fn routed_trace(cfg: ClusterConfig, extra_settle_ms: u64) -> String {
    let geo = UsGeography::generate(Seed::new(SEED));
    let cluster =
        ShardedCluster::start("127.0.0.1:0", SEED, EngineConfig::paper_defaults(), cfg).unwrap();
    replay(cluster.router_addr(), &request_sequence(&geo));
    settle(extra_settle_ms);
    let trace = cluster.assemble_trace();
    cluster.shutdown();
    trace
}

#[test]
fn single_process_traces_are_byte_identical_across_runs() {
    let (trace, pages) = single_process_trace();
    let (trace_again, pages_again) = single_process_trace();

    assert_eq!(pages, pages_again, "pages diverge across runs");
    assert_eq!(trace, trace_again, "assembled trace diverges across runs");

    // The waterfall is present: one request span per request plus the
    // queue → parse → retrieve → render → flush stages.
    assert!(trace.contains("\"traceEvents\""));
    for name in [
        "request /search",
        "queue",
        "parse",
        "retrieve",
        "render",
        "flush",
    ] {
        assert!(trace.contains(name), "stage {name:?} missing");
    }
    assert!(
        !trace.contains("scatter"),
        "single-process trace has no router spans"
    );
}

#[test]
fn routed_traces_are_byte_identical_across_runs() {
    // A large hedge threshold keeps the fault-free cells hedge-free, so
    // the attempt set (one primary rpc per shard per scatter) is exact.
    let cfg = || ClusterConfig::new(2, 2).hedge_ms(5_000);
    let trace = routed_trace(cfg(), 0);
    let trace_again = routed_trace(cfg(), 0);

    assert_eq!(
        trace, trace_again,
        "assembled routed trace diverges across runs"
    );

    // Every process contributes a named row.
    for process in ["router", "shard0.r0", "shard0.r1", "shard1.r0", "shard1.r1"] {
        assert!(trace.contains(process), "process {process:?} missing");
    }
    // The cross-process waterfall: request → scatter → rpc arm → the
    // shard-side request with its own retrieve stage.
    for name in [
        "request /search",
        "scatter retrieve",
        "scatter suggest",
        "rpc s0.r0 #0",
        "rpc s1.r1 #0",
        "request /shard/retrieve",
        "request /shard/suggest",
        "merge",
    ] {
        assert!(trace.contains(name), "span {name:?} missing");
    }
    // Fault-free cells never hedge, and every recorded arm wins.
    assert!(!trace.contains("\"hedge\""), "unexpected hedge span");
    assert!(!trace.contains("\"lose\""), "unexpected losing arm");
    assert!(trace.contains("\"win\""));
}

#[test]
fn hedge_fault_cell_marks_the_losing_arm_deterministically() {
    // Shard 0's replica 0 answers 500 ms late; the 80 ms hedge races a
    // second replica whenever the slow one is ring primary — so hedge
    // spans (and their losing arms) are a pure function of the sequence.
    let cfg = || {
        ClusterConfig::new(2, 2)
            .hedge_ms(80)
            .slow_replica(0, 0, 500)
    };
    let first = routed_trace(cfg(), 600);
    let second = routed_trace(cfg(), 600);
    assert_eq!(first, second, "fault-cell trace diverges across runs");

    // The race is visible end to end: a hedge arm fired, exactly one arm
    // of each race won, and the overtaken primary is marked `lose` — yet
    // its shard-side spans still made it into the assembled trace (the
    // slow replica finishes long after the hedge won).
    assert!(first.contains("\"hedge\""), "no hedge arm recorded");
    assert!(first.contains("\"lose\""), "losing arm not marked");
    assert!(first.contains("\"win\""));
    assert!(!first.contains("\"error\""), "no replica errored");
    for process in ["router", "shard0.r0", "shard0.r1"] {
        assert!(first.contains(process), "process {process:?} missing");
    }
}

#[test]
fn tracing_off_serves_byte_identical_pages_and_an_empty_span_log() {
    let geo = UsGeography::generate(Seed::new(SEED));
    // Each shape serves the sequence and returns the pages plus the number
    // of spans its processes recorded.
    let single = |tracing: bool| {
        let config = ServeConfig::new().tracing(tracing);
        let world =
            ServedWorld::build(SEED, config.engine_config(EngineConfig::paper_defaults())).unwrap();
        let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
        let pages = replay(server.local_addr(), &request_sequence(&geo));
        settle(0);
        let spans = request_tcp(server.local_addr(), &Request::get(SEARCH_HOST, "/spans"));
        server.shutdown();
        let spans = parse_process_spans(&spans.body).unwrap().spans.len();
        (pages, spans as u64)
    };
    let routed = |tracing: bool| {
        let cluster = ShardedCluster::start(
            "127.0.0.1:0",
            SEED,
            EngineConfig::paper_defaults(),
            ClusterConfig::new(2, 2).serve(ServeConfig::new().tracing(tracing)),
        )
        .unwrap();
        let pages = replay(cluster.router_addr(), &request_sequence(&geo));
        settle(0);
        let spans = std::iter::once(&cluster.hub)
            .chain(cluster.shard_hubs.iter().flatten())
            .map(|hub| hub.spans().total_recorded())
            .sum::<u64>();
        cluster.shutdown();
        (pages, spans)
    };
    for (shape, (pages_on, spans_on), (pages_off, spans_off)) in [
        ("single-process", single(true), single(false)),
        ("routed 2x2", routed(true), routed(false)),
    ] {
        assert_eq!(
            pages_on, pages_off,
            "{shape}: tracing changed served page bytes"
        );
        assert_eq!(spans_off, 0, "{shape}: --no-tracing still recorded spans");
        assert!(spans_on > 0, "{shape}: tracing on recorded nothing");
    }
}
