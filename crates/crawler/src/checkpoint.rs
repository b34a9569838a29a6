//! Crash-safe crawl checkpoints.
//!
//! A [`CrawlCheckpoint`] is a serialized crawl *cursor*: everything needed
//! to rebuild the world from the same seed and continue a crawl so that the
//! final dataset is byte-identical to an uninterrupted run. Because every
//! source of randomness in the simulator is a pure function of (seed,
//! per-source request sequence number, virtual time), the cursor is small:
//! the partial [`Dataset`] (whose metadata carries the crawl counters), the
//! virtual clock, and the network's per-source sequence counters. Nothing
//! inside the engine needs saving — see `Crawler::run_with_options` for
//! the compatibility rules that make that true.
//!
//! Checkpoint files are streamed to `<path>.tmp` and renamed into place, so
//! a crash mid-write leaves the previous checkpoint intact. Loading streams
//! the other way: the file is read through one 64 KiB buffer straight into
//! the checkpoint's fields, with no copy of the text and no value tree, so
//! a load peaks near the size of what it keeps. A truncated or hand-edited
//! file is reported as a clean [`CheckpointError`], never a panic.

use crate::dataset::{json_digest, Dataset};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::net::Ipv4Addr;
use std::path::Path;

/// Bumped whenever the checkpoint layout changes incompatibly; resume
/// refuses checkpoints from other versions instead of misreading them.
/// Version 2 added the `rate_limited` counter; version 3 dropped the
/// separate `stats` copy of the counters, which the dataset metadata
/// already holds.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A crawl cursor: the full state needed to resume a run at a round
/// boundary on a fresh world built from the same seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlCheckpoint {
    /// Layout version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// FNV-1a hash of the plan's JSON — resume refuses a different plan.
    pub plan_hash: u64,
    /// The world seed the crawl ran under.
    pub seed: u64,
    /// The absolute day the run's schedule was anchored at (cannot be
    /// recomputed from a mid-day clock on resume).
    pub base_day: u32,
    /// Rounds fully absorbed into `dataset`.
    pub completed_rounds: usize,
    /// Total rounds of the plan's schedule (consistency check on resume).
    pub total_rounds: usize,
    /// Virtual clock position, ms (post-advance of the last round).
    pub clock_ms: u64,
    /// The network's per-source request sequence counters — the simulator's
    /// entire stream position (noise, latency, and fault decisions are pure
    /// in these).
    pub net_cursor: Vec<(Ipv4Addr, u32)>,
    /// Fault-injector drop probability the run was configured with.
    pub drop_chance: f64,
    /// Fault-injector corruption probability.
    pub corrupt_chance: f64,
    /// The partial dataset: interned URL table + observations so far. Its
    /// metadata holds the crawl counters at the boundary (rounds ≤
    /// `completed_rounds` only, so resume never double-counts a
    /// partially-completed round).
    pub dataset: Dataset,
}

/// Why loading or applying a checkpoint failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint file.
    Io(std::io::Error),
    /// The file exists but is not a valid checkpoint (truncated, corrupted,
    /// or not JSON).
    Parse(String),
    /// The checkpoint is valid but does not belong to this (world, plan,
    /// fault configuration) — resuming it would silently produce a
    /// different dataset, so it is refused.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(msg) => write!(f, "not a valid checkpoint: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl CrawlCheckpoint {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Deserialize from JSON. Restores the dataset's URL index and rejects
    /// foreign layout versions; malformed input, including a dataset that
    /// names a location outside its vantage points or a URL id outside its
    /// table, is a clean error.
    pub fn from_json(s: &str) -> Result<Self, CheckpointError> {
        Self::checked(serde_json::from_str(s))
    }

    /// Validate a freshly read checkpoint: a read error keeps its kind
    /// (I/O or parse), then the layout version, the round counts and the
    /// dataset are checked and the URL index is rebuilt.
    fn checked(read: Result<Self, serde_json::Error>) -> Result<Self, CheckpointError> {
        let mut ckpt = read.map_err(|e| match e.classify() {
            serde_json::Category::Io => CheckpointError::Io(e.into()),
            _ => CheckpointError::Parse(e.to_string()),
        })?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint version {} (this build reads version {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        if ckpt.completed_rounds > ckpt.total_rounds {
            return Err(CheckpointError::Parse(format!(
                "{} completed rounds of {} total",
                ckpt.completed_rounds, ckpt.total_rounds
            )));
        }
        ckpt.dataset.validate().map_err(CheckpointError::Parse)?;
        ckpt.dataset.rebuild_index();
        Ok(ckpt)
    }

    /// The checkpoint's own integrity digest (FNV-1a over its JSON form).
    pub fn digest(&self) -> u64 {
        json_digest(self)
    }

    /// Write atomically: stream the JSON into `<path>.tmp`, then rename
    /// over `path`. A crash mid-write leaves any previous checkpoint
    /// intact.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension(match path.extension() {
            Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
            None => "tmp".to_string(),
        });
        let mut file = BufWriter::new(File::create(&tmp)?);
        serde_json::to_writer(&mut file, self).map_err(std::io::Error::from)?;
        // Dropping a `BufWriter` discards its flush error; `into_inner`
        // reports it, and closes the file before the rename.
        file.into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load a checkpoint file written by [`CrawlCheckpoint::save`],
    /// streaming it through one 64 KiB buffer.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::checked(serde_json::from_reader(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{fnv1a64, DatasetMeta, Observation, Role, UrlId};
    use geoserp_geo::{LocationId, Seed, UsGeography, VantagePoints};

    fn small_checkpoint() -> CrawlCheckpoint {
        let geo = UsGeography::generate(Seed::new(1));
        let vantage = VantagePoints::paper_defaults(&geo, Seed::new(1).derive("vp"));
        let meta = DatasetMeta {
            attempts: 20,
            retries: 4,
            ..DatasetMeta::default()
        };
        let mut dataset = Dataset::new(vantage, meta);
        dataset.intern("https://example.com/a");
        dataset.intern("https://example.com/b");
        CrawlCheckpoint {
            version: CHECKPOINT_VERSION,
            plan_hash: 0xDEAD_BEEF,
            seed: 7,
            base_day: 3,
            completed_rounds: 2,
            total_rounds: 9,
            clock_ms: 86_400_000 * 3 + 660_000,
            net_cursor: vec![
                ("198.51.100.0".parse().unwrap(), 12),
                ("198.51.100.1".parse().unwrap(), 8),
            ],
            drop_chance: 0.1,
            corrupt_chance: 0.05,
            dataset,
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_cursor() {
        let ckpt = small_checkpoint();
        let back = CrawlCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back.plan_hash, ckpt.plan_hash);
        assert_eq!(back.net_cursor, ckpt.net_cursor);
        assert_eq!(back.dataset.meta, ckpt.dataset.meta);
        assert_eq!(back.clock_ms, ckpt.clock_ms);
        assert_eq!(back.digest(), ckpt.digest());
        // The URL index was rebuilt: interning an existing URL dedups.
        let mut ds = back.dataset;
        let id = ds.intern("https://example.com/a");
        assert_eq!(ds.url(id), "https://example.com/a");
        assert_eq!(ds.distinct_urls(), 2);
    }

    #[test]
    fn truncated_json_is_a_clean_parse_error() {
        let json = small_checkpoint().to_json();
        for cut in [1, json.len() / 3, json.len() - 1] {
            let err = CrawlCheckpoint::from_json(&json[..cut]).unwrap_err();
            assert!(matches!(err, CheckpointError::Parse(_)), "cut at {cut}");
        }
    }

    #[test]
    fn foreign_version_is_refused() {
        let mut ckpt = small_checkpoint();
        ckpt.version = CHECKPOINT_VERSION + 1;
        let err = CrawlCheckpoint::from_json(&ckpt.to_json()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn a_version_2_file_with_its_stats_copy_is_refused() {
        let json = small_checkpoint().to_json();
        let v3 = format!("{{\"version\":{CHECKPOINT_VERSION},");
        assert!(json.starts_with(&v3), "{}", &json[..40]);
        let v2 = json.replacen(
            &v3,
            "{\"version\":2,\"stats\":{\"attempts\":20,\"retries\":4},",
            1,
        );
        let err = CrawlCheckpoint::from_json(&v2).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn inconsistent_round_counts_are_refused() {
        let mut ckpt = small_checkpoint();
        ckpt.completed_rounds = ckpt.total_rounds + 1;
        let err = CrawlCheckpoint::from_json(&ckpt.to_json()).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)));
    }

    #[test]
    fn datasets_naming_unknown_locations_or_urls_are_refused() {
        let mut ckpt = small_checkpoint();
        let location = ckpt.dataset.vantage.county[0].id;
        let observation = |location, url| Observation {
            day: 3,
            block_day: 0,
            granularity: geoserp_geo::Granularity::County,
            location,
            term: "park".into(),
            category: geoserp_corpus::QueryCategory::Local,
            role: Role::Treatment,
            results: vec![(UrlId(url), geoserp_serp::ResultType::Organic)],
            datacenter: "dc0".into(),
            reported_location: "Cleveland, OH".into(),
        };
        ckpt.dataset.push(observation(location, 1));
        assert!(CrawlCheckpoint::from_json(&ckpt.to_json()).is_ok());
        for (bad, needle) in [
            (observation(LocationId(u32::MAX), 0), "location 4294967295"),
            (observation(location, 2), "URL id 2"),
        ] {
            let mut ckpt = small_checkpoint();
            ckpt.dataset.push(bad);
            let err = CrawlCheckpoint::from_json(&ckpt.to_json()).unwrap_err();
            assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("geoserp-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crawl.ckpt.json");
        let ckpt = small_checkpoint();
        ckpt.save(&path).unwrap();
        // No tmp file lingers after a successful save.
        assert!(!path.with_extension("json.tmp").exists());
        let back = CrawlCheckpoint::load(&path).unwrap();
        assert_eq!(back.digest(), ckpt.digest());
        // Overwriting is atomic too: the second save replaces the first.
        let mut ckpt2 = ckpt.clone();
        ckpt2.completed_rounds = 5;
        ckpt2.save(&path).unwrap();
        assert_eq!(CrawlCheckpoint::load(&path).unwrap().completed_rounds, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_streams_exactly_the_json_form() {
        let dir = std::env::temp_dir().join(format!("geoserp-ckpt-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crawl.ckpt.json");
        let ckpt = small_checkpoint();
        ckpt.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ckpt.to_json());
        assert_eq!(ckpt.digest(), fnv1a64(ckpt.to_json().as_bytes()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_into_a_missing_directory_is_an_io_error() {
        let path = std::env::temp_dir()
            .join(format!("geoserp-ckpt-missing-{}", std::process::id()))
            .join("crawl.ckpt.json");
        let err = small_checkpoint().save(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert!(!path.exists());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = CrawlCheckpoint::load(Path::new("/nonexistent/geoserp.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
