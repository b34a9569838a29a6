//! Integration: the crash-safe checkpoint/resume battery.
//!
//! The guarantee under test: a crawl killed after *any* round and resumed
//! from its latest surviving checkpoint produces a dataset byte-identical
//! to an uninterrupted run — on every backend, across backends, and under
//! fault injection. A committed golden digest additionally pins the
//! quick-plan crawl bytes so silent world/engine drift cannot hide behind
//! the self-consistency checks.

use geoserp::crawler::{CrawlBackend, CrawlCheckpoint, CrawlOptions, Crawler};
use geoserp::engine::EngineConfig;
use geoserp::prelude::*;
use proptest::prelude::*;
use std::cell::RefCell;

const BACKENDS: [CrawlBackend; 2] = [CrawlBackend::Serial, CrawlBackend::WorkerPool];

/// 9 rounds × 4 jobs: small enough to kill at every single round.
fn small_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 1,
        queries_per_category: Some(1),
        locations_per_granularity: Some(2),
        ..ExperimentPlan::quick()
    }
}

/// 18 rounds × 6 jobs: the shared quick-crawl fixture the golden digest
/// pins (same shape as the fault-injection tiny plan).
fn quick_plan() -> ExperimentPlan {
    ExperimentPlan {
        days: 1,
        queries_per_category: Some(2),
        locations_per_granularity: Some(3),
        ..ExperimentPlan::quick()
    }
}

fn crawler(seed: u64, drop: f64, corrupt: f64) -> Crawler {
    Crawler::with_config_and_faults(
        Seed::new(seed),
        EngineConfig::paper_defaults(),
        drop,
        corrupt,
    )
}

fn run_full(
    seed: u64,
    drop: f64,
    corrupt: f64,
    plan: &ExperimentPlan,
    backend: CrawlBackend,
) -> Dataset {
    crawler(seed, drop, corrupt).run_with_backend(plan, backend, |_| {})
}

/// Kill a crawl after `kill_round` rounds (checkpointing every `every`),
/// then resume the latest surviving checkpoint on a fresh same-seed world,
/// possibly on a different backend. Returns `None` when the kill point
/// predates the first checkpoint — the restart-from-scratch path.
#[allow(clippy::too_many_arguments)]
fn kill_and_resume(
    seed: u64,
    drop: f64,
    corrupt: f64,
    plan: &ExperimentPlan,
    kill_backend: CrawlBackend,
    resume_backend: CrawlBackend,
    kill_round: usize,
    every: usize,
) -> Option<Dataset> {
    let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
    let opts = CrawlOptions::new(kill_backend)
        .checkpoint_every(every)
        .on_checkpoint(&sink)
        .stop_after_rounds(kill_round);
    crawler(seed, drop, corrupt)
        .run_with_options(plan, opts, |_| {})
        .expect("partial runs are valid");
    let ckpt = last.into_inner()?;
    let opts = CrawlOptions::new(resume_backend).resume(ckpt);
    Some(
        crawler(seed, drop, corrupt)
            .run_with_options(plan, opts, |_| {})
            .expect("a same-plan checkpoint resumes on a fresh world"),
    )
}

#[test]
fn killing_at_every_round_resumes_byte_identically() {
    let plan = small_plan();
    for backend in BACKENDS {
        let reference = run_full(42, 0.0, 0.0, &plan, backend).to_json();
        // Round 9 completes the plan; kills at 1..=8 each leave work behind.
        for kill in 1..=8 {
            let resumed = kill_and_resume(42, 0.0, 0.0, &plan, backend, backend, kill, 1)
                .expect("checkpoint_every=1 leaves a checkpoint at every kill");
            assert_eq!(
                resumed.to_json(),
                reference,
                "{backend:?} crawl killed after round {kill} diverged on resume"
            );
        }
    }
}

#[test]
fn checkpoints_resume_across_backends() {
    let plan = small_plan();
    let reference = run_full(7, 0.0, 0.0, &plan, CrawlBackend::Serial).to_json();
    for resume_backend in BACKENDS {
        let resumed = kill_and_resume(
            7,
            0.0,
            0.0,
            &plan,
            CrawlBackend::Serial,
            resume_backend,
            5,
            1,
        )
        .expect("a checkpoint exists at round 5");
        assert_eq!(
            resumed.to_json(),
            reference,
            "serial checkpoint resumed on {resume_backend:?} diverged"
        );
    }
}

/// The committed digest (FNV-1a 64 over the dataset JSON) of the quick-plan
/// crawl at seed 2015 on a clean network. Every backend must reproduce it
/// bit-for-bit. If a deliberate change to the world, engine, SERP markup, or
/// crawler alters collected bytes, this constant must be updated — the test
/// failure message prints the new value.
const GOLDEN_QUICK_DIGEST: u64 = 0xef7f_f951_68d0_d7a3;

#[test]
fn quick_crawl_digest_is_golden_on_every_backend() {
    let plan = quick_plan();
    for backend in BACKENDS {
        let digest = run_full(2015, 0.0, 0.0, &plan, backend).digest();
        assert_eq!(
            digest, GOLDEN_QUICK_DIGEST,
            "{backend:?} quick-plan digest drifted (got {digest:#018x}); if the \
             change to collected bytes is intentional, update GOLDEN_QUICK_DIGEST"
        );
    }
}

const DROPS: [f64; 3] = [0.0, 0.10, 0.30];
const CORRUPTS: [f64; 3] = [0.0, 0.05, 0.15];

/// Uninterrupted small-plan reference datasets per fault cell, computed once
/// (seed 77, serial backend) and shared across property cases.
fn reference_json(drop_i: usize, corrupt_i: usize) -> String {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry((drop_i, corrupt_i))
        .or_insert_with(|| {
            run_full(
                77,
                DROPS[drop_i],
                CORRUPTS[corrupt_i],
                &small_plan(),
                CrawlBackend::Serial,
            )
            .to_json()
        })
        .clone()
}

proptest! {
    /// Resume equivalence over the whole configuration space: fault cell ×
    /// kill round × checkpoint interval × backend. The reference is always
    /// the serial uninterrupted run, so every passing case also re-proves
    /// cross-backend byte equality.
    #[test]
    fn resume_equals_uninterrupted_for_arbitrary_kills(
        drop_i in 0usize..3,
        corrupt_i in 0usize..3,
        kill in 1usize..9,
        every in 1usize..4,
        backend_i in 0usize..BACKENDS.len(),
    ) {
        let plan = small_plan();
        let backend = BACKENDS[backend_i];
        // A kill before the first boundary leaves no checkpoint; that is the
        // restart-from-scratch path, covered by determinism tests.
        if let Some(resumed) = kill_and_resume(
            77, DROPS[drop_i], CORRUPTS[corrupt_i], &plan, backend, backend, kill, every,
        ) {
            prop_assert_eq!(
                resumed.to_json(),
                reference_json(drop_i, corrupt_i),
                "kill={} every={} backend={:?} drop={} corrupt={}",
                kill, every, backend, DROPS[drop_i], CORRUPTS[corrupt_i]
            );
        }
    }
}

#[test]
fn a_checkpoint_round_trips_through_disk_before_resume() {
    // The CLI path: checkpoint → file → load → resume. Byte equality must
    // survive the serialization, not just the in-memory handoff.
    let plan = small_plan();
    let reference = run_full(5, 0.10, 0.05, &plan, CrawlBackend::WorkerPool).to_json();

    let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
    let opts = CrawlOptions::new(CrawlBackend::WorkerPool)
        .checkpoint_every(2)
        .on_checkpoint(&sink)
        .stop_after_rounds(6);
    crawler(5, 0.10, 0.05)
        .run_with_options(&plan, opts, |_| {})
        .unwrap();

    let path = std::env::temp_dir().join(format!("geoserp-it-ck-{}.json", std::process::id()));
    last.into_inner().unwrap().save(&path).unwrap();
    let restored = CrawlCheckpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let resumed = crawler(5, 0.10, 0.05).resume(restored, &plan).unwrap();
    assert_eq!(resumed.to_json(), reference);
}

/// The quick-crawl fixture killed at round 9, as `save` writes it: the
/// document the read-contract property damages.
fn quick_checkpoint_json() -> &'static [u8] {
    static JSON: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    JSON.get_or_init(|| {
        let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
        let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
        let opts = CrawlOptions::new(CrawlBackend::Serial)
            .checkpoint_every(9)
            .on_checkpoint(&sink)
            .stop_after_rounds(9);
        crawler(2015, 0.10, 0.05)
            .run_with_options(&quick_plan(), opts, |_| {})
            .unwrap();
        last.into_inner().unwrap().to_json()
    })
    .as_bytes()
}

/// What a load made of a document: a typed refusal, or a checkpoint's
/// digest.
#[derive(Debug, PartialEq)]
enum Read {
    Parse,
    Mismatch,
    Loaded(u64),
}

/// Load `doc` from a file (the streamed path) and, when it is UTF-8, from
/// a string; the two must agree. A load re-saves to the digest it loaded.
fn read_every_way(doc: &[u8], path: &std::path::Path) -> Read {
    use geoserp::crawler::CheckpointError;
    let read = |r: Result<CrawlCheckpoint, CheckpointError>| match r {
        Ok(c) => {
            let again = CrawlCheckpoint::from_json(&c.to_json()).unwrap();
            assert_eq!(again.digest(), c.digest(), "a load re-saves to its digest");
            Read::Loaded(c.digest())
        }
        Err(CheckpointError::Parse(_)) => Read::Parse,
        Err(CheckpointError::Mismatch(_)) => Read::Mismatch,
        Err(CheckpointError::Io(e)) => panic!("a document on disk read as an I/O error: {e}"),
    };
    std::fs::write(path, doc).unwrap();
    let streamed = read(CrawlCheckpoint::load(path));
    if let Ok(text) = std::str::from_utf8(doc) {
        assert_eq!(read(CrawlCheckpoint::from_json(text)), streamed);
    }
    streamed
}

proptest! {
    /// Every cut of a checkpoint is a `Parse` error; every flipped bit is
    /// a `Parse` or `Mismatch` error or a load, the same on every read
    /// path — never a panic.
    #[test]
    fn damaged_checkpoints_read_as_typed_errors_or_equal_loads(
        at in 0usize..1 << 40,
        bit in 0u8..8,
    ) {
        let json = quick_checkpoint_json();
        let path = std::env::temp_dir().join(format!(
            "geoserp-damaged-ck-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let at = at % json.len();
        prop_assert_eq!(read_every_way(&json[..at], &path), Read::Parse, "cut at {}", at);
        let mut flipped = json.to_vec();
        flipped[at] ^= 1 << bit;
        read_every_way(&flipped, &path);
        std::fs::remove_file(&path).ok();
    }
}
