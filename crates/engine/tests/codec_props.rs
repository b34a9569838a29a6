//! Property tests for the compressed posting codec and the top-k retriever.
//!
//! Four invariants, each the load-bearing half of a byte-identity proof:
//!
//! 1. **Round-trip**: delta/varint encoding loses nothing — `decode_all`
//!    returns the input ids, and the serialized form parses back equal.
//! 2. **Seek never skips a hit**: skip-pointer navigation lands on exactly
//!    the first posting ≥ target that a naive forward scan would find, for
//!    any (even non-monotone) target sequence.
//! 3. **Block max-scores are true upper bounds**: every block's metadata
//!    weight dominates every member weight — the soundness condition for
//!    WAND/MaxScore pruning.
//! 4. **Top-k equals exact**: for random mini-corpora and random queries,
//!    the compressed backend's retrieve / shard_retrieve / suggest surfaces
//!    are bit-identical to the exact HashMap backend's.
//!
//! Case count honors `PROPTEST_CASES` (CI runs 256). One deterministic
//! test holds invariant 4 on the seed-2015 world at corpus scale 16, with
//! the paper's 240 queries, and pins the compression ratio there.

use geoserp_corpus::{GeoScope, Page, PageId, PageKind, WebCorpus};
use geoserp_engine::index::SearchIndex;
use geoserp_engine::postings::{PostingList, BLOCK};
use geoserp_engine::{EngineConfig, IndexBackend};
use geoserp_geo::{Seed, UsGeography};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Strictly increasing ids with realistic spread: small dense runs and
/// huge varint-stressing gaps both appear.
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1_000_000_000, 0..700).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #[test]
    fn posting_round_trip_is_lossless(ids in arb_ids()) {
        let list = PostingList::build(&ids);
        prop_assert_eq!(list.len(), ids.len());
        prop_assert_eq!(list.decode_all(), ids.clone());

        let reparsed = PostingList::from_bytes(&list.to_bytes()).unwrap();
        prop_assert_eq!(&reparsed, &list);
        prop_assert_eq!(reparsed.decode_all(), ids);
    }

    #[test]
    fn seek_matches_a_naive_forward_scan(
        ids in arb_ids(),
        targets in proptest::collection::vec(0u32..1_000_000_000, 0..64),
    ) {
        let list = PostingList::build(&ids);
        let mut cursor = list.cursor();
        // The naive model: a forward-only pointer that never rewinds —
        // exactly the contract the leapfrog intersection relies on.
        let mut naive = 0usize;
        for t in targets {
            cursor.seek(t);
            while naive < ids.len() && ids[naive] < t {
                naive += 1;
            }
            prop_assert_eq!(cursor.current(), ids.get(naive).copied(),
                "seek({}) diverged from the scan", t);
        }
    }

    #[test]
    fn block_max_scores_are_true_upper_bounds(
        pairs in proptest::collection::vec((0u32..100_000, 0.0f32..10.0), 1..600)
            .prop_map(|mut v| {
                v.sort_by_key(|&(id, _)| id);
                v.dedup_by_key(|&mut (id, _)| id);
                v
            }),
    ) {
        let ids: Vec<u32> = pairs.iter().map(|&(id, _)| id).collect();
        let weights: Vec<f32> = pairs.iter().map(|&(_, w)| w).collect();
        let list = PostingList::build_weighted(&ids, &weights);

        let mut global_max = f32::NEG_INFINITY;
        for (j, meta) in list.blocks().iter().enumerate() {
            let chunk = &weights[j * BLOCK..(j * BLOCK + meta.count as usize)];
            let chunk_ids = &ids[j * BLOCK..(j * BLOCK + meta.count as usize)];
            prop_assert_eq!(meta.last_id, *chunk_ids.last().unwrap());
            for &w in chunk {
                prop_assert!(meta.max_weight >= w,
                    "block {} max {} below member weight {}", j, meta.max_weight, w);
            }
            global_max = global_max.max(meta.max_weight);
        }
        prop_assert!(list.max_weight() >= global_max);
    }
}

/// A template corpus with no pages and no places, generated once; property
/// cases clone it and install their own random pages. Keeping the roster /
/// query corpus / topics intact keeps it a structurally valid `WebCorpus`.
fn template_corpus() -> &'static WebCorpus {
    static TEMPLATE: OnceLock<WebCorpus> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let seed = Seed::new(7);
        let geo = UsGeography::generate(seed);
        let mut corpus = WebCorpus::generate(&geo, seed);
        corpus.pages.clear();
        corpus.places.clear();
        corpus
    })
}

/// A random mini-corpus: dense page ids, each page a random bag of tokens
/// over a tiny vocabulary (so queries collide with postings constantly).
fn arb_corpus() -> impl Strategy<Value = WebCorpus> {
    const VOCAB: &[&str] = &[
        "apple", "bolt", "cat", "drum", "echo", "fern", "gust", "hill",
    ];
    proptest::collection::vec(proptest::collection::vec(0usize..VOCAB.len(), 1..6), 1..60).prop_map(
        |docs| {
            let mut corpus = template_corpus().clone();
            for (i, picks) in docs.iter().enumerate() {
                let tokens: Vec<String> = picks.iter().map(|&p| VOCAB[p].to_string()).collect();
                corpus.pages.push(Page::new(
                    PageId(i as u32),
                    format!("https://mini.example.com/{i}"),
                    "mini.example.com".to_string(),
                    format!("doc {i}"),
                    tokens,
                    0.5,
                    GeoScope::Global,
                    PageKind::Web,
                ));
            }
            corpus
        },
    )
}

/// Queries over the same vocabulary, with repeats allowed (duplicate query
/// tokens exercise the multiplicity-counting path) plus a miss token.
fn arb_query() -> impl Strategy<Value = String> {
    const TERMS: &[&str] = &[
        "apple",
        "bolt",
        "cat",
        "drum",
        "echo",
        "fern",
        "gust",
        "hill",
        "zzznothing",
    ];
    proptest::collection::vec(0usize..TERMS.len(), 1..5).prop_map(|picks| {
        picks
            .iter()
            .map(|&p| TERMS[p])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// NaN-safe equality: both backends compute the same float expressions, so
/// even NaN lexical scores must agree bit for bit.
fn bits(cands: &[geoserp_engine::index::Candidate]) -> Vec<(PageId, u64)> {
    cands
        .iter()
        .map(|c| (c.page, c.lexical.to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn compressed_top_k_equals_exact_top_k(
        corpus in arb_corpus(),
        query in arb_query(),
        min_candidates in prop_oneof![Just(0usize), Just(3), Just(36), Just(500)],
        partial_score in prop_oneof![Just(0.35f64), Just(0.9), Just(0.0), Just(-1.0)],
        max_partials in prop_oneof![Just(0usize), Just(3), Just(usize::MAX)],
    ) {
        let exact = SearchIndex::build(&corpus, IndexBackend::Exact);
        let comp = SearchIndex::build(&corpus, IndexBackend::Compressed);

        prop_assert_eq!(
            bits(&comp.retrieve(&query, min_candidates, partial_score)),
            bits(&exact.retrieve(&query, min_candidates, partial_score)),
            "retrieve diverged for {:?}", &query
        );
        prop_assert_eq!(
            comp.shard_retrieve(&query, max_partials),
            exact.shard_retrieve(&query, max_partials),
            "shard_retrieve diverged for {:?}", &query
        );
        prop_assert_eq!(
            comp.suggest(&query),
            exact.suggest(&query),
            "suggest diverged for {:?}", &query
        );
    }
}

#[test]
fn scale_16_world_is_bit_identical_across_backends_and_compresses() {
    let seed = Seed::new(2015);
    let geo = UsGeography::generate(seed);
    let base_pages = WebCorpus::generate(&geo, seed).pages.len();
    let corpus = WebCorpus::generate_scaled(&geo, seed, 16);
    assert_eq!(corpus.pages.len(), 194_752);
    assert_eq!(
        corpus.pages.len(),
        16 * base_pages,
        "scale 16 is 16x the world"
    );

    let exact = SearchIndex::build(&corpus, IndexBackend::Exact);
    let comp = SearchIndex::build(&corpus, IndexBackend::Compressed);
    let cfg = EngineConfig::paper_defaults();
    let (min_candidates, partial_score) = (cfg.organic_count * 3, cfg.partial_match_score);
    let queries = corpus.queries.all();
    assert_eq!(queries.len(), 240);
    for term in queries.iter().map(|q| q.term.as_str()) {
        assert_eq!(
            bits(&comp.retrieve(term, min_candidates, partial_score)),
            bits(&exact.retrieve(term, min_candidates, partial_score)),
            "retrieve diverged for {term:?}"
        );
        assert_eq!(
            comp.shard_retrieve(term, usize::MAX),
            exact.shard_retrieve(term, usize::MAX),
            "shard_retrieve diverged for {term:?}"
        );
        assert_eq!(
            comp.suggest(term),
            exact.suggest(term),
            "suggest diverged for {term:?}"
        );
    }

    // Seed 2015 compresses 4,321,188 -> 1,367,607 bytes (3.16x); the 2.5x
    // floor is about 80% of that, so only a codec regression trips it.
    let (exact_bytes, comp_bytes) = (exact.postings_bytes(), comp.postings_bytes());
    assert!(
        2 * exact_bytes >= 5 * comp_bytes,
        "compressed postings {comp_bytes} B are not 2.5x smaller than exact {exact_bytes} B"
    );
}
