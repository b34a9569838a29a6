//! Integration: the rich-component differential battery.
//!
//! The contract of the `Rich` component set mirrors the index battery in
//! `tests/index_equivalence.rs`: for a fixed request sequence that triggers
//! every new SERP component (local pack, answer box, knowledge panel, ads),
//! the served pages are **byte-identical** across single-process vs routed
//! 2×2 topologies. A committed golden FNV digest pins the page bytes
//! themselves, so a "every cell drifted together" regression cannot hide
//! behind the pairwise comparison. Every page must also survive the
//! *strict* parser — rich markup is part of the fault-injection contract,
//! not exempt from it.

use geoserp::crawler::fnv1a64;
use geoserp::engine::{ComponentSet, EngineConfig, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp::geo::{Seed, UsGeography};
use geoserp::net::{encode_request, parse_response, Request, Response, WireLimits};
use geoserp::serp::CardType;
use geoserp::serve::{ClusterConfig, ServeConfig, ServedWorld, ShardedCluster, SocketServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SEED: u64 = 2015;

/// Golden FNV-1a digest of the rich request sequence's pages. If it moves,
/// rich SERP bytes changed for every consumer — update it only for an
/// intentional engine or SERP change. (The `Paper` goldens live in
/// `tests/sharded_equivalence.rs` / `tests/index_equivalence.rs` and must
/// never move because of a rich-only change.)
const RICH_DIGEST: u64 = 0xd16f_b7b8_215f_713a;

/// The fixed request sequence every cell replays, crafted to exercise all
/// four rich components: local terms (local pack + ads), a brand term
/// (answer box), a politician entity (knowledge panel), and a controversial
/// term (news, no rich cards — the negative control).
fn request_sequence(geo: &UsGeography, entity: &str) -> Vec<Request> {
    let mut reqs = Vec::new();
    for term in [
        "Hospital",
        "Coffee",
        "Pizza",
        "Starbucks",
        entity,
        "Gun Control",
    ] {
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

/// The first politician of the seed-2015 roster — a deterministic entity
/// query (same seed, same world, same name in every cell).
fn entity_query(geo: &UsGeography) -> String {
    let corpus = geoserp::corpus::WebCorpus::generate(geo, Seed::new(SEED));
    corpus.roster.all()[0].name.clone()
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

fn rich_engine_config() -> EngineConfig {
    EngineConfig::paper_defaults().components(ComponentSet::Rich)
}

/// Pages served by a fresh single-process rich server.
fn single_process_pages(reqs: &[Request]) -> Vec<Response> {
    let config = ServeConfig::new();
    let world =
        ServedWorld::build_scaled(SEED, config.engine_config(rich_engine_config()), 1).unwrap();
    let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
    let pages = replay(server.local_addr(), reqs);
    server.shutdown();
    pages
}

/// Pages served by a fresh routed 2×2 rich cluster.
fn routed_pages(reqs: &[Request]) -> Vec<Response> {
    let cluster = ShardedCluster::start(
        "127.0.0.1:0",
        SEED,
        rich_engine_config(),
        ClusterConfig::new(2, 2),
    )
    .unwrap();
    let pages = replay(cluster.router_addr(), reqs);
    cluster.shutdown();
    pages
}

/// Assert two response streams are byte-identical, page by page.
fn assert_pages_identical(got: &[Response], want: &[Response], cell: &str) {
    assert_eq!(got.len(), want.len(), "{cell}: response count differs");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            got, want,
            "{cell}: request {i}: page differs from reference"
        );
    }
}

#[test]
fn rich_pages_are_identical_across_topologies() {
    let geo = UsGeography::generate(Seed::new(SEED));
    let entity = entity_query(&geo);
    let reqs = request_sequence(&geo, &entity);

    // The single-process server is the reference, anchored to the
    // committed golden digest.
    let reference = single_process_pages(&reqs);
    assert_eq!(
        digest(&reference),
        RICH_DIGEST,
        "rich reference pages drifted from the golden digest"
    );

    // Every page parses strictly, and the stream as a whole carries all
    // four rich component types.
    let mut seen = [false; 4];
    let rich_types = [
        CardType::LocalPack,
        CardType::AnswerBox,
        CardType::KnowledgePanel,
        CardType::Ads,
    ];
    for (i, resp) in reference.iter().enumerate() {
        assert_eq!(resp.status.code(), 200, "request {i}");
        let body = std::str::from_utf8(&resp.body).unwrap();
        let page = geoserp::serp::parse(body)
            .unwrap_or_else(|e| panic!("request {i}: rich page must parse strictly: {e}"));
        for (flag, ty) in seen.iter_mut().zip(rich_types) {
            *flag |= page.has_card(ty);
        }
    }
    for (flag, ty) in seen.iter().zip(rich_types) {
        assert!(flag, "no page in the sequence carried a {ty:?} card");
    }

    // The routed 2×2 cell is byte-identical to the reference.
    let routed = routed_pages(&reqs);
    assert_pages_identical(&routed, &reference, "routed 2x2");
    assert_eq!(
        digest(&routed),
        RICH_DIGEST,
        "routed 2x2: digest drifted from the golden value"
    );
}

#[test]
fn paper_set_stays_free_of_rich_components() {
    // Negative control: the same request sequence served with the default
    // (Paper) engine config must not contain a single rich card — the knob
    // gates composition, not just rendering.
    let geo = UsGeography::generate(Seed::new(SEED));
    let entity = entity_query(&geo);
    let reqs = request_sequence(&geo, &entity);
    let config = ServeConfig::new();
    let world = ServedWorld::build_scaled(
        SEED,
        config.engine_config(EngineConfig::paper_defaults()),
        1,
    )
    .unwrap();
    let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
    let pages = replay(server.local_addr(), &reqs);
    server.shutdown();
    for (i, resp) in pages.iter().enumerate() {
        let body = std::str::from_utf8(&resp.body).unwrap();
        let page = geoserp::serp::parse(body).unwrap();
        for ty in [
            CardType::LocalPack,
            CardType::AnswerBox,
            CardType::KnowledgePanel,
            CardType::Ads,
        ] {
            assert!(!page.has_card(ty), "request {i}: paper page carries {ty:?}");
        }
    }
}
