//! Integration: the sharded-tier differential battery.
//!
//! The headline contract of the sharded serving topology: for every query,
//! the page served by the scatter-gather router over N shards × M replicas
//! is **byte-identical** to the page the single-process engine serves for
//! the same request sequence. The sweep covers shards × replicas ∈
//! {1,2,4} × {1,2,3}, and a committed golden FNV digest pins the page
//! bytes themselves, so a "reference and router drifted together"
//! regression cannot hide behind the pairwise comparison.

use geoserp::crawler::fnv1a64;
use geoserp::engine::{EngineConfig, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp::geo::{Seed, UsGeography};
use geoserp::net::{encode_request, parse_response, Request, Response, WireLimits};
use geoserp::serve::{ClusterConfig, ServeConfig, ServedWorld, ShardedCluster, SocketServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SEED: u64 = 2015;

/// FNV-1a digest of the reference request sequence's pages (status line +
/// body per response). If this moves, served SERP bytes changed for every
/// consumer — update it only for an intentional engine or SERP change.
const SHARDED_PAGES_DIGEST: u64 = 0xeb00_3703_74eb_156e;

/// The fixed request sequence every cell replays: five terms (organic,
/// local, spell-corrected) at two district coordinates each. Sequence
/// numbers are per-source-IP, so a fresh server always sees this sequence
/// the same way.
fn request_sequence(geo: &UsGeography) -> Vec<Request> {
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

/// One request over a fresh TCP connection.
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

/// Replay the fixed sequence against a server, returning the responses.
fn replay(addr: SocketAddr, reqs: &[Request]) -> Vec<Response> {
    reqs.iter().map(|r| request_tcp(addr, r)).collect()
}

/// Digest a response stream: status code and body bytes, framed.
fn digest(responses: &[Response]) -> u64 {
    let mut bytes = Vec::new();
    for r in responses {
        bytes.extend_from_slice(&r.status.code().to_string().into_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&r.body);
        bytes.push(b'\n');
    }
    fnv1a64(&bytes)
}

/// The single-process reference: a fresh direct server (no router), same
/// engine config the cluster applies ([`ServeConfig::engine_config`]).
fn reference_pages(geo: &UsGeography) -> Vec<Response> {
    let config = ServeConfig::new();
    let world =
        ServedWorld::build(SEED, config.engine_config(EngineConfig::paper_defaults())).unwrap();
    let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
    let pages = replay(server.local_addr(), &request_sequence(geo));
    server.shutdown();
    pages
}

/// Run one shards × replicas cell and assert byte-identity page by page.
fn check_cell(geo: &UsGeography, reference: &[Response], shards: u32, replicas: u32) {
    let cluster = ShardedCluster::start(
        "127.0.0.1:0",
        SEED,
        EngineConfig::paper_defaults(),
        ClusterConfig::new(shards, replicas),
    )
    .unwrap();
    let routed = replay(cluster.router_addr(), &request_sequence(geo));
    cluster.shutdown();

    assert_eq!(routed.len(), reference.len());
    for (i, (routed, reference)) in routed.iter().zip(reference).enumerate() {
        assert_eq!(
            routed, reference,
            "{shards}x{replicas}: request {i}: routed page differs from single-process"
        );
    }
    assert_eq!(
        digest(&routed),
        SHARDED_PAGES_DIGEST,
        "{shards}x{replicas}: page digest drifted from the golden value"
    );
}

#[test]
fn sharded_pages_match_single_process_across_the_topology_sweep() {
    let geo = UsGeography::generate(Seed::new(SEED));
    let reference = reference_pages(&geo);
    // The reference itself must match the committed golden digest — this is
    // the anchor that keeps the pairwise comparisons honest.
    assert_eq!(
        digest(&reference),
        SHARDED_PAGES_DIGEST,
        "single-process reference drifted from the golden digest"
    );
    for shards in [1u32, 2, 4] {
        for replicas in [1u32, 2, 3] {
            check_cell(&geo, &reference, shards, replicas);
        }
    }
}
