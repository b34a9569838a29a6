//! The shard side of the sharded search tier.
//!
//! A [`ShardService`] owns one contiguous slice of the corpus as a
//! range-restricted [`SearchIndex`] (either backend) and answers the two
//! integer-only
//! internal endpoints the router scatters to
//! ([`SHARD_RETRIEVE_PATH`], [`SHARD_SUGGEST_PATH`]). It is a plain
//! [`geoserp_net::Server`], so it sits behind the very same socket event
//! loop as the public search service — replicas of a shard are just
//! additional [`SocketServer`](crate::SocketServer)s sharing one
//! `Arc<ShardService>`.
//!
//! Shards deliberately hold **no ranking state**: no noise model, no
//! history, no SERP composer. All of that lives router-side, which is why
//! routed pages can be byte-identical to single-process pages — the only
//! thing that must merge exactly is retrieval, and
//! [`geoserp_engine::shard`] proves that it does.

use bytes::Bytes;
use geoserp_corpus::WebCorpus;
use geoserp_engine::index::SearchIndex;
use geoserp_engine::IndexBackend;
use geoserp_net::shardmsg::{
    ShardRetrieveRequest, ShardRetrieveResponse, ShardSuggestRequest, ShardSuggestResponse,
    SpellCandidate, SHARD_RETRIEVE_PATH, SHARD_SUGGEST_PATH,
};
use geoserp_net::{Method, Request, RequestCtx, Response, Server, Status};
use geoserp_obs::trace::{record_stage, Stage};
use serde::Serialize;
use std::time::Instant;

/// Host name shard-internal requests are addressed to (never resolved —
/// shard sockets are dialed by address).
pub const SHARD_HOST: &str = "shard.internal";

/// One shard: a range-restricted inverted index behind the internal wire
/// endpoints.
pub struct ShardService {
    index: SearchIndex,
}

impl ShardService {
    /// Index the pages of `corpus` whose ids fall in `range` with the
    /// chosen index backend.
    pub fn build(
        corpus: &WebCorpus,
        range: std::ops::Range<u32>,
        backend: IndexBackend,
    ) -> ShardService {
        ShardService {
            index: SearchIndex::build_range(corpus, range, backend),
        }
    }

    fn retrieve(&self, r: &ShardRetrieveRequest) -> ShardRetrieveResponse {
        let (fulls, partials) = self.index.shard_retrieve(&r.query, r.max_partials as usize);
        ShardRetrieveResponse {
            fulls: fulls.into_iter().map(|p| p.0).collect(),
            partials: partials.into_iter().map(|(p, n)| (p.0, n as u32)).collect(),
        }
    }

    fn suggest(&self, r: &ShardSuggestRequest) -> ShardSuggestResponse {
        let (token_dfs, corrections) = self.index.spell_data(&r.query);
        ShardSuggestResponse {
            token_dfs,
            corrections: corrections
                .into_iter()
                .map(|cands| {
                    cands
                        .into_iter()
                        .map(|(token, distance, df)| SpellCandidate {
                            token,
                            distance: distance as u32,
                            df,
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

impl Server for ShardService {
    fn handle(&self, _ctx: &RequestCtx, req: &Request) -> Response {
        // The serve layer enters the request's trace context before
        // dispatching here, so the shard's index work lands in its span
        // log as the `retrieve` stage of the shard-local request.
        match (req.method, req.path.as_str()) {
            (Method::Post, SHARD_RETRIEVE_PATH) => {
                match parse_body::<ShardRetrieveRequest>(&req.body) {
                    Ok(r) => {
                        let started = Instant::now();
                        let resp = self.retrieve(&r);
                        record_stage(Stage::Retrieve, Some(started.elapsed().as_micros() as u64));
                        json_ok(&resp)
                    }
                    Err(e) => bad_body(&e),
                }
            }
            (Method::Post, SHARD_SUGGEST_PATH) => {
                match parse_body::<ShardSuggestRequest>(&req.body) {
                    Ok(r) => {
                        let started = Instant::now();
                        let resp = self.suggest(&r);
                        record_stage(Stage::Retrieve, Some(started.elapsed().as_micros() as u64));
                        json_ok(&resp)
                    }
                    Err(e) => bad_body(&e),
                }
            }
            _ => Response::status(Status::NotFound).with_header("X-Reason", "not a shard endpoint"),
        }
    }
}

/// Build the POST a router sends for one shard's retrieval slice.
pub fn retrieve_request(r: &ShardRetrieveRequest) -> Request {
    post_json(SHARD_RETRIEVE_PATH, r)
}

/// Build the POST a router sends for one shard's spell data.
pub fn suggest_request(r: &ShardSuggestRequest) -> Request {
    post_json(SHARD_SUGGEST_PATH, r)
}

/// Decode a JSON message body in place: straight into `T`, checking
/// UTF-8 only inside strings, with no copy and no per-call buffer.
pub(crate) fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    serde_json::from_slice(body).map_err(|e| e.to_string())
}

fn post_json<T: Serialize>(path: &str, body: &T) -> Request {
    Request {
        method: Method::Post,
        host: SHARD_HOST.to_string(),
        path: path.to_string(),
        query: Vec::new(),
        headers: Vec::new(),
        body: Bytes::from(
            serde_json::to_string(body)
                .expect("shard messages serialize")
                .into_bytes(),
        ),
    }
}

pub(crate) fn json_ok<T: Serialize>(v: &T) -> Response {
    Response::ok(Bytes::from(
        serde_json::to_string(v)
            .expect("shard messages serialize")
            .into_bytes(),
    ))
    .with_header("Content-Type", "application/json")
}

fn bad_body(e: &str) -> Response {
    Response::status(Status::BadRequest).with_header("X-Shard-Error", e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_geo::{Seed, UsGeography};
    use geoserp_net::clock::SimInstant;
    use geoserp_net::ip;

    fn ctx() -> RequestCtx {
        RequestCtx {
            src: ip("10.9.0.1"),
            dst: ip("10.50.0.1"),
            at: SimInstant(0),
            seq: 0,
        }
    }

    fn corpus() -> WebCorpus {
        let geo = UsGeography::generate(Seed::new(2015));
        WebCorpus::generate(&geo, Seed::new(2015))
    }

    #[test]
    fn retrieve_endpoint_matches_direct_index_call() {
        let c = corpus();
        let half = c.pages.len() as u32 / 2;
        let svc = ShardService::build(&c, 0..half, IndexBackend::default());
        let req = ShardRetrieveRequest {
            query: "Coffee".into(),
            max_partials: 144,
        };
        let resp = svc.handle(&ctx(), &retrieve_request(&req));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.header("Content-Type"), Some("application/json"));
        let parsed: ShardRetrieveResponse = parse_body(&resp.body).unwrap();
        assert_eq!(parsed, svc.retrieve(&req));
        assert!(parsed.fulls.iter().all(|&id| id < half), "range respected");
    }

    #[test]
    fn suggest_endpoint_matches_direct_index_call() {
        let c = corpus();
        let svc = ShardService::build(&c, 0..c.pages.len() as u32, IndexBackend::default());
        let req = ShardSuggestRequest {
            query: "starbuks".into(),
        };
        let resp = svc.handle(&ctx(), &suggest_request(&req));
        assert_eq!(resp.status, Status::Ok);
        let parsed: ShardSuggestResponse = parse_body(&resp.body).unwrap();
        assert_eq!(parsed, svc.suggest(&req));
        assert_eq!(parsed.token_dfs, vec![0], "misspelling has zero df");
    }

    #[test]
    fn malformed_body_is_a_typed_400() {
        let c = corpus();
        let svc = ShardService::build(&c, 0..10, IndexBackend::default());
        let mut req = retrieve_request(&ShardRetrieveRequest {
            query: "x".into(),
            max_partials: 1,
        });
        // Garbage, and nesting deep enough to overflow a recursive parser's
        // stack while still inside the default 1 MiB body limit.
        for body in [
            b"{not json".to_vec(),
            vec![b'['; 200_000],
            br#"{"a":"#.repeat(200_000),
        ] {
            req.body = Bytes::from(body);
            let resp = svc.handle(&ctx(), &req);
            assert_eq!(resp.status, Status::BadRequest);
            assert!(resp.header("X-Shard-Error").is_some());
        }
    }

    #[test]
    fn unknown_paths_and_gets_are_404() {
        let c = corpus();
        let svc = ShardService::build(&c, 0..10, IndexBackend::default());
        let get = Request::get(SHARD_HOST, SHARD_RETRIEVE_PATH);
        assert_eq!(svc.handle(&ctx(), &get).status, Status::NotFound);
        let wrong = retrieve_request(&ShardRetrieveRequest {
            query: "x".into(),
            max_partials: 1,
        });
        let mut wrong_path = wrong.clone();
        wrong_path.path = "/search".into();
        assert_eq!(svc.handle(&ctx(), &wrong_path).status, Status::NotFound);
    }
}
