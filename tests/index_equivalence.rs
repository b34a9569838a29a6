//! Integration: the compressed-index differential battery.
//!
//! The headline contract of the compressed inverted index: for every
//! request, the page served from the compressed backend is **byte-identical**
//! to the page served from the exact (uncompressed HashMap) backend — across
//! corpus scales and across single-process vs routed 2×2 topologies. A
//! committed golden FNV digest per scale pins the page bytes themselves, so
//! a "both backends drifted together" regression cannot hide behind the
//! pairwise comparison.
//!
//! This mirrors `tests/sharded_equivalence.rs`; the scale-1 golden digest is
//! the same constant, which proves the scaled generator leaves the base
//! world untouched and that flipping the default backend to `compressed`
//! changed no served byte.

use geoserp::crawler::fnv1a64;
use geoserp::engine::{EngineConfig, IndexBackend, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp::geo::{Seed, UsGeography};
use geoserp::net::{encode_request, parse_response, Request, Response, WireLimits};
use geoserp::serve::{ClusterConfig, ServeConfig, ServedWorld, ShardedCluster, SocketServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SEED: u64 = 2015;

/// Golden FNV-1a digests of the request sequence's pages, per corpus scale.
/// Scale 1 is the same constant `tests/sharded_equivalence.rs` pins — the
/// scaled generator must leave the base world byte-identical. If a digest
/// moves, served SERP bytes changed for every consumer — update it only for
/// an intentional engine or SERP change.
const SCALE_DIGESTS: &[(u32, u64)] = &[(1, 0xeb00_3703_74eb_156e), (5, 0x619b_0a5f_9701_e92d)];

/// The fixed request sequence every cell replays: five terms (organic,
/// local, spell-corrected) at two district coordinates each.
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

/// Pages served by a fresh single-process server at the given scale with
/// the given index backend.
fn single_process_pages(
    geo: &UsGeography,
    index_backend: IndexBackend,
    scale: u32,
) -> Vec<Response> {
    let config = ServeConfig::new();
    let world = ServedWorld::build_scaled(
        SEED,
        config.engine_config(EngineConfig::with_index_backend(index_backend)),
        scale,
    )
    .unwrap();
    let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
    let pages = replay(server.local_addr(), &request_sequence(geo));
    server.shutdown();
    pages
}

/// Pages served by a fresh routed 2×2 cluster at the given scale with the
/// given index backend.
fn routed_pages(geo: &UsGeography, index_backend: IndexBackend, scale: u32) -> Vec<Response> {
    let cluster = ShardedCluster::start(
        "127.0.0.1:0",
        SEED,
        EngineConfig::with_index_backend(index_backend),
        ClusterConfig::new(2, 2).corpus_scale(scale),
    )
    .unwrap();
    let pages = replay(cluster.router_addr(), &request_sequence(geo));
    cluster.shutdown();
    pages
}

/// Assert two response streams are byte-identical, page by page.
fn assert_pages_identical(got: &[Response], want: &[Response], cell: &str) {
    assert_eq!(got.len(), want.len(), "{cell}: response count differs");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            got, want,
            "{cell}: request {i}: compressed page differs from exact"
        );
    }
}

#[test]
fn compressed_pages_match_exact_across_scales_topologies_and_backends() {
    let geo = UsGeography::generate(Seed::new(SEED));
    for &(scale, golden) in SCALE_DIGESTS {
        // The exact backend is the reference, and it must match the
        // committed golden digest — the anchor that keeps the pairwise
        // comparisons honest.
        let exact = single_process_pages(&geo, IndexBackend::Exact, scale);
        assert_eq!(
            digest(&exact),
            golden,
            "scale {scale}: exact reference drifted from the golden digest"
        );

        let compressed = single_process_pages(&geo, IndexBackend::Compressed, scale);
        assert_pages_identical(
            &compressed,
            &exact,
            &format!("scale {scale} single-process"),
        );

        let routed = routed_pages(&geo, IndexBackend::Compressed, scale);
        assert_pages_identical(&routed, &exact, &format!("scale {scale} routed 2x2"));
        assert_eq!(
            digest(&routed),
            golden,
            "scale {scale}: routed page digest drifted from the golden value"
        );
    }
}

#[test]
fn routed_exact_backend_serves_the_same_bytes() {
    // One routed-exact cell: proves the backend knob reaches the shard
    // services (not just the single-process engine) without changing bytes.
    let geo = UsGeography::generate(Seed::new(SEED));
    let routed = routed_pages(&geo, IndexBackend::Exact, 1);
    assert_eq!(
        digest(&routed),
        SCALE_DIGESTS[0].1,
        "routed 2x2 exact: page digest drifted from the golden value"
    );
}
