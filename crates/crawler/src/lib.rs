#![warn(missing_docs)]
//! # geoserp-crawler — the measurement methodology
//!
//! A faithful implementation of the paper's §2 data-collection pipeline
//! against the simulated world:
//!
//! * [`MachinePool`] — "44 machines in a single /24 subnet" for the main
//!   study (defeats per-IP rate limiting) and a 50-machine PlanetLab-style
//!   pool spread across the US for the validation experiment;
//! * [`ExperimentPlan`] — which categories, granularities, days, and
//!   sampling fractions to run; [`ExperimentPlan::paper_full`] is the 30-day
//!   study (120 local+controversial queries × 5 days × 3 granularities,
//!   then 120 politicians × the same), [`ExperimentPlan::quick`] a scaled
//!   smoke-test plan;
//! * [`Crawler`] — builds the world (geography → corpus → engine → network →
//!   service), pins DNS to one datacenter (§2.2 "we statically mapped the
//!   DNS entry"), runs every `(term, location)` pair in lock-step with a
//!   *treatment and a control* issued simultaneously from different
//!   machines, waits 11 virtual minutes between terms (to defeat the
//!   10-minute search-history window), clears cookies after every query,
//!   and parses each SERP with the paper's extraction rule;
//! * [`Dataset`] — the collected observations with interned URLs, ready for
//!   the `geoserp-analysis` figure pipelines, serializable to JSON;
//! * [`validation`] — the §2.2 validation experiment: identical controversial
//!   queries with the same GPS coordinate from 50 machines with wildly
//!   different IP locations, quantifying how dominant the GPS signal is.
//!
//! Crawls are deterministic for every worker count: each machine's jobs run
//! in job-index order on whichever worker claims it, the network hands out
//! per-source sequence numbers, and results are committed in plan order.
//!
//! Crawls are also crash-safe: [`Crawler::run_with_options`] emits a
//! [`CrawlCheckpoint`] (the serialized crawl cursor: partial dataset and its
//! counters, virtual clock, network stream position) every N rounds, and
//! [`Crawler::resume`] continues one on a fresh same-seed world so the final
//! dataset is *byte-identical* to an uninterrupted run, on every backend.
//! Transient-failure handling is governed by the plan's [`RetryPolicy`].

pub mod checkpoint;
pub mod dataset;
pub mod export;
pub mod machines;
pub mod plan;
pub mod retry;
pub mod run;
pub mod validation;
pub mod workers;

pub use checkpoint::{CheckpointError, CrawlCheckpoint, CHECKPOINT_VERSION};
pub use dataset::{fnv1a64, Dataset, DatasetMeta, Observation, Role, UrlId};
pub use export::{observations_csv, results_csv, to_jsonl};
pub use machines::MachinePool;
pub use plan::ExperimentPlan;
pub use retry::RetryPolicy;
pub use run::{CrawlOptions, CrawlProgress, Crawler};
pub use validation::{run_validation, ValidationReport};
pub use workers::CrawlBackend;
