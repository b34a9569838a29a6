//! Serialization round-trips for every public configuration/data type that
//! crosses a file boundary (saved datasets, exported configs, traces).

use geoserp::engine::EngineConfig;
use geoserp::prelude::*;

#[test]
fn engine_config_roundtrips() {
    for cfg in [
        EngineConfig::paper_defaults(),
        EngineConfig::noiseless(),
        EngineConfig::alternative_engine(),
        EngineConfig::with_result_cache(60_000),
    ] {
        let json = serde_json::to_string(&cfg).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}

#[test]
fn experiment_plan_roundtrips() {
    for plan in [ExperimentPlan::paper_full(), ExperimentPlan::quick()] {
        let json = serde_json::to_string(&plan).unwrap();
        let back: ExperimentPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}

#[test]
fn geography_and_vantage_roundtrip() {
    let geo = UsGeography::generate(Seed::new(4));
    let json = serde_json::to_string(&geo).unwrap();
    let back: UsGeography = serde_json::from_str(&json).unwrap();
    assert_eq!(geo.states, back.states);
    assert_eq!(geo.ohio_counties, back.ohio_counties);
    assert_eq!(geo.cuyahoga_districts, back.cuyahoga_districts);

    let vp = VantagePoints::paper_defaults(&geo, Seed::new(4).derive("vp"));
    let json = serde_json::to_string(&vp).unwrap();
    let back: VantagePoints = serde_json::from_str(&json).unwrap();
    assert_eq!(vp.national, back.national);
    assert_eq!(vp.state, back.state);
    assert_eq!(vp.county, back.county);
}

#[test]
fn validation_report_roundtrips() {
    let study = Study::builder().seed(3).build().unwrap();
    let report = study.validate(4, 2);
    let json = serde_json::to_string(&report).unwrap();
    let back: ValidationReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn serp_page_roundtrips_via_serde_not_just_markup() {
    use geoserp::serp::{Card, CardType, SerpPage};
    let mut page = SerpPage::new("q", Some("41.0,-81.0"), "dc2", "Cleveland, OH");
    let mut maps = Card::new(CardType::Maps);
    maps.push("u1", "t1");
    page.push_card(maps);
    let json = serde_json::to_string(&page).unwrap();
    let back: SerpPage = serde_json::from_str(&json).unwrap();
    assert_eq!(page, back);
}

#[test]
fn corpus_roundtrips_and_is_equivalent_for_search() {
    // A corpus serialized and restored must drive the engine to identical
    // SERPs (the acid test that nothing analysis-relevant is `serde(skip)`ed
    // without reconstruction).
    let geo = UsGeography::generate(Seed::new(5));
    let corpus = WebCorpus::generate(&geo, Seed::new(5).derive("corpus"));
    let json = serde_json::to_string(&corpus).unwrap();
    let restored: WebCorpus = serde_json::from_str(&json).unwrap();

    let engine_a =
        geoserp::engine::SearchEngine::builder(std::sync::Arc::new(corpus), &geo, Seed::new(5))
            .config(EngineConfig::paper_defaults())
            .build()
            .unwrap();
    let engine_b =
        geoserp::engine::SearchEngine::builder(std::sync::Arc::new(restored), &geo, Seed::new(5))
            .config(EngineConfig::paper_defaults())
            .build()
            .unwrap();
    let ctx = geoserp::engine::SearchContext {
        query: "Hospital".into(),
        gps: Some(geo.cuyahoga_districts[0].coord),
        src: "10.0.0.1".parse().unwrap(),
        datacenter: 0,
        seq: 9,
        at_ms: 86_400_000,
        session: None,
        page: 0,
    };
    assert_eq!(engine_a.search(&ctx), engine_b.search(&ctx));
}

#[test]
fn crawl_checkpoint_roundtrips() {
    use geoserp::crawler::{CrawlBackend, CrawlCheckpoint, CrawlOptions};
    use std::cell::RefCell;

    // Produce a real mid-crawl checkpoint (not a hand-built one): kill a
    // small crawl at round 4 with a boundary every 2 rounds.
    let plan = ExperimentPlan {
        days: 1,
        queries_per_category: Some(1),
        locations_per_granularity: Some(2),
        ..ExperimentPlan::quick()
    };
    let crawler = Study::builder()
        .seed(21)
        .plan(plan.clone())
        .build()
        .unwrap()
        .crawler();
    let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
    let opts = CrawlOptions::new(CrawlBackend::Serial)
        .checkpoint_every(2)
        .on_checkpoint(&sink)
        .stop_after_rounds(4);
    crawler.run_with_options(&plan, opts, |_| {}).unwrap();
    let ckpt = last.into_inner().expect("a checkpoint at round 4");

    // JSON round-trip preserves the digest (and with it every field the
    // digest covers — the whole serialized cursor).
    let back = CrawlCheckpoint::from_json(&ckpt.to_json()).unwrap();
    assert_eq!(ckpt.digest(), back.digest());
    assert_eq!(back.completed_rounds, 4);
    assert_eq!(back.version, geoserp::crawler::CHECKPOINT_VERSION);

    // File round-trip via the atomic save path.
    let path = std::env::temp_dir().join(format!("geoserp-sr-ck-{}.json", std::process::id()));
    ckpt.save(&path).unwrap();
    let loaded = CrawlCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.digest(), loaded.digest());
    std::fs::remove_file(&path).ok();
}

#[test]
fn crawl_checkpoint_rejects_damaged_files_cleanly() {
    use geoserp::crawler::{CheckpointError, CrawlCheckpoint};

    // Truncation at any byte must yield a clean parse error, never a panic
    // and never a silently-short checkpoint.
    let plan = ExperimentPlan {
        days: 1,
        queries_per_category: Some(1),
        locations_per_granularity: Some(1),
        batches: vec![vec![QueryCategory::Local]],
        ..ExperimentPlan::quick()
    };
    let crawler = Study::builder()
        .seed(3)
        .plan(plan.clone())
        .build()
        .unwrap()
        .crawler();
    use geoserp::crawler::{CrawlBackend, CrawlOptions};
    use std::cell::RefCell;
    let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
    let opts = CrawlOptions::new(CrawlBackend::Serial)
        .checkpoint_every(1)
        .on_checkpoint(&sink)
        .stop_after_rounds(1);
    crawler.run_with_options(&plan, opts, |_| {}).unwrap();
    let json = last.into_inner().unwrap().to_json();

    for cut in [0, 1, json.len() / 2, json.len() - 1] {
        let err = CrawlCheckpoint::from_json(&json[..cut]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Parse(_)),
            "cut at {cut}: expected a parse error, got {err}"
        );
    }

    // Valid JSON that isn't a checkpoint fails just as cleanly from disk.
    let path = std::env::temp_dir().join(format!("geoserp-sr-bad-{}.json", std::process::id()));
    std::fs::write(&path, "{\"not\": \"a checkpoint\"}").unwrap();
    assert!(matches!(
        CrawlCheckpoint::load(&path),
        Err(CheckpointError::Parse(_))
    ));
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        CrawlCheckpoint::load(&path),
        Err(CheckpointError::Io(_))
    ));
}
