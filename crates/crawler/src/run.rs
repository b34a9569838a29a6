//! The crawl runner: world construction and lock-step execution.

use crate::checkpoint::{CheckpointError, CrawlCheckpoint, CHECKPOINT_VERSION};
use crate::dataset::{Dataset, DatasetMeta, Observation, Role};
use crate::machines::{MachinePool, CLUSTER_SIZE};
use crate::plan::ExperimentPlan;
use crate::retry::RetryPolicy;
use crate::workers::{CrawlBackend, Executor};
use geoserp_browser::{Browser, BrowserError};
use geoserp_corpus::{Query, WebCorpus};
use geoserp_engine::{EngineConfig, SearchEngine, SearchService, SEARCH_HOST};
use geoserp_geo::{Coord, Location, Seed, UsGeography, VantagePoints};
use geoserp_net::{SimNet, Status};
use geoserp_obs::{Counter, Histogram, ObsHub, SpanRecord};
use geoserp_serp::SerpPage;
use std::sync::Arc;

/// Milliseconds per simulated day.
const DAY_MS: u64 = 86_400_000;

/// Where the paper's crawl cluster physically sits (a Boston-area lab —
/// Northeastern ran the original study). Only IP geolocation sees this.
pub const CLUSTER_SITE: Coord = Coord {
    lat_deg: 42.34,
    lon_deg: -71.09,
};

/// Options for [`Crawler::run_with_options`]: the backend plus the
/// checkpoint/resume machinery. `CrawlOptions::new(backend)` gives plain
/// uncheckpointed execution, identical to [`Crawler::run_with_backend`];
/// layer the fluent methods on top of it. The struct is `#[non_exhaustive]`
/// so future options don't break downstream construction — build it through
/// [`CrawlOptions::new`] and the fluent setters.
#[non_exhaustive]
pub struct CrawlOptions<'a> {
    /// How rounds execute (see [`CrawlBackend`]).
    pub backend: CrawlBackend,
    /// Emit a checkpoint after every N completed rounds (0 = never). The
    /// round pipeline drains at each boundary so the checkpoint captures an
    /// idle, fully-absorbed world.
    pub checkpoint_every: usize,
    /// Where checkpoints go. Runs on the scheduler thread between rounds,
    /// so writing files here cannot perturb the crawl's determinism.
    pub on_checkpoint: Option<&'a dyn Fn(&CrawlCheckpoint)>,
    /// Continue a previous run from this cursor instead of starting fresh.
    /// The crawler must be a *fresh* world built from the same seed and
    /// fault configuration as the one that wrote the checkpoint.
    pub resume: Option<CrawlCheckpoint>,
    /// Stop after this many rounds are complete (counted from the start of
    /// the schedule, not the resume point) and return the partial dataset.
    /// Used to simulate kills in tests and by the CLI's `--max-rounds`.
    pub stop_after_rounds: Option<usize>,
}

impl<'a> CrawlOptions<'a> {
    /// Plain uncheckpointed execution on `backend`.
    pub fn new(backend: CrawlBackend) -> Self {
        CrawlOptions {
            backend,
            checkpoint_every: 0,
            on_checkpoint: None,
            resume: None,
            stop_after_rounds: None,
        }
    }

    /// Emit a checkpoint after every `n` completed rounds (0 = never).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Deliver checkpoints to `sink` (runs between rounds on the scheduler
    /// thread).
    pub fn on_checkpoint(mut self, sink: &'a dyn Fn(&CrawlCheckpoint)) -> Self {
        self.on_checkpoint = Some(sink);
        self
    }

    /// Continue a previous run from `checkpoint` instead of starting fresh.
    pub fn resume(mut self, checkpoint: CrawlCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Stop after `n` rounds and return the partial dataset.
    pub fn stop_after_rounds(mut self, n: usize) -> Self {
        self.stop_after_rounds = Some(n);
        self
    }
}

/// A progress snapshot delivered after each lock-step round.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlProgress {
    /// Rounds completed so far (1-based at the first callback).
    pub completed_rounds: usize,
    /// Total rounds the plan will run.
    pub total_rounds: usize,
    /// The round's query term.
    pub term: String,
    /// The granularity.
    pub granularity: geoserp_geo::Granularity,
    /// Absolute simulation day of the round.
    pub day: u32,
    /// Observations collected so far.
    pub observations: usize,
}

/// One lock-step round of the flattened schedule: every listed location
/// fetches `term` twice (treatment + control) at the same virtual instant.
struct RoundDesc<'a> {
    term: &'a Query,
    gran: geoserp_geo::Granularity,
    locs: &'a [Location],
    /// Day within the (batch, granularity) block, 0-based.
    block_day: u32,
    /// Absolute simulation day.
    abs_day: u32,
    /// First round of its day — the scheduler jumps the clock to the day
    /// boundary before dispatching it.
    first_of_day: bool,
}

/// A job's parsed page and the datacenter that served it.
struct JobOutput {
    page: SerpPage,
    datacenter: String,
}

/// What one job's attempts cost, counted on the worker that ran it and
/// folded into the dataset's [`DatasetMeta`] on the scheduler thread.
#[derive(Default)]
struct JobTally {
    /// Fetch attempts, at least one. Every attempt but the first is a
    /// retry, and each counts two requests (homepage + query) in
    /// `requests_issued`.
    attempts: u64,
    parse_failures: u64,
    net_errors: u64,
    /// 429s, also counted in `net_errors`.
    rate_limited: u64,
    /// The job gave up a retry that would have passed the round deadline.
    deadline_giveup: bool,
    /// Ghost-time backoff, virtual ms (saturating).
    backoff_ms: u64,
}

impl JobTally {
    /// Add this job to the crawl's counters; `failed` when it collected no
    /// page.
    fn fold_into(&self, meta: &mut DatasetMeta, failed: bool) {
        meta.attempts += self.attempts;
        meta.retries += self.attempts - 1;
        meta.requests_issued += 2 * self.attempts;
        meta.parse_failures += self.parse_failures;
        meta.net_errors += self.net_errors;
        meta.rate_limited += self.rate_limited;
        meta.deadline_giveups += u64::from(self.deadline_giveup);
        meta.failed_jobs += u64::from(failed);
        meta.backoff_ms = meta.backoff_ms.saturating_add(self.backoff_ms);
        meta.max_job_backoff_ms = meta.max_job_backoff_ms.max(self.backoff_ms);
    }
}

/// `(job index, (tally, page))` for each job of a round.
type RoundResults = Vec<(usize, (JobTally, Option<JobOutput>))>;

/// Pre-resolved crawl-stage metric handles. The crawl's counters live in
/// [`DatasetMeta`]; the registry mirrors them under the names
/// [`DatasetMeta::counters`] gives, plus crawl-only extras (per-machine
/// utilization, backoff distribution, checkpoint write latency).
struct CrawlMetrics {
    rounds: Counter,
    jobs: Counter,
    /// One handle per [`DatasetMeta::counters`] row, in its order.
    meta: [Counter; 8],
    backoff_ms: Histogram,
    /// Host wall time spent in the checkpoint sink, µs (`_wall_` marker:
    /// excluded from deterministic snapshots).
    checkpoint_wall_us: Histogram,
    /// Jobs executed per machine, indexed like the [`MachinePool`].
    machine_jobs: Vec<Counter>,
}

impl CrawlMetrics {
    fn resolve(hub: &ObsHub, n_machines: usize) -> Self {
        let m = hub.metrics();
        CrawlMetrics {
            rounds: m.counter("crawler.rounds"),
            jobs: m.counter("crawler.jobs"),
            meta: DatasetMeta::default()
                .counters()
                .map(|(name, _)| m.counter(name)),
            backoff_ms: m.histogram("crawler.backoff_ms"),
            checkpoint_wall_us: m.histogram("crawler.checkpoint_wall_us"),
            machine_jobs: (0..n_machines)
                .map(|i| m.counter(&format!("crawler.machine_jobs.m{i:02}")))
                .collect(),
        }
    }
}

/// The assembled world plus crawl machinery.
pub struct Crawler {
    seed: Seed,
    geo: Arc<UsGeography>,
    corpus: Arc<WebCorpus>,
    engine: Arc<SearchEngine>,
    net: Arc<SimNet>,
    vantage: VantagePoints,
    pool: MachinePool,
    obs: Arc<ObsHub>,
    metrics: CrawlMetrics,
}

impl Crawler {
    /// Build the full world under the paper's engine configuration.
    pub fn new(seed: Seed) -> Self {
        Self::with_config(seed, EngineConfig::paper_defaults())
    }

    /// Build the world with a custom engine configuration (ablations).
    pub fn with_config(seed: Seed, config: EngineConfig) -> Self {
        Self::with_config_and_faults(seed, config, 0.0, 0.0)
    }

    /// Build the world over a lossy network (smoltcp-style fault injection):
    /// `drop_chance` of losing a message, `corrupt_chance` of flipping one
    /// bit of a response body. The crawler's retry logic must absorb both.
    pub fn with_config_and_faults(
        seed: Seed,
        config: EngineConfig,
        drop_chance: f64,
        corrupt_chance: f64,
    ) -> Self {
        Self::with_config_faults_and_obs(
            seed,
            config,
            drop_chance,
            corrupt_chance,
            Arc::new(ObsHub::new()),
        )
    }

    /// Build the world reporting into a caller-supplied observability hub.
    /// The hub is shared with the network simulator and the engine, so one
    /// snapshot covers the whole pipeline; pass [`ObsHub::disabled`] for a
    /// no-op registry (the overhead benchmark does).
    pub fn with_config_faults_and_obs(
        seed: Seed,
        config: EngineConfig,
        drop_chance: f64,
        corrupt_chance: f64,
        obs: Arc<ObsHub>,
    ) -> Self {
        let geo = Arc::new(UsGeography::generate(seed));
        let corpus = Arc::new(WebCorpus::generate(&geo, seed.derive("corpus")));
        let engine = Arc::new(
            SearchEngine::builder(Arc::clone(&corpus), &geo, seed.derive("engine"))
                .config(config)
                .obs(Arc::clone(&obs))
                .build()
                .expect("crawler engine config must be valid (Study validates at build time)"),
        );
        let net = Arc::new(
            SimNet::builder(seed.derive("net"))
                .faults(drop_chance, corrupt_chance)
                .obs(Arc::clone(&obs))
                .build(),
        );
        let addrs = SearchService::install(&net, Arc::clone(&engine));
        // §2.2: "We statically mapped the DNS entry for the Google Search
        // server, ensuring that all our queries were sent to the same
        // datacenter."
        net.dns().pin(SEARCH_HOST, addrs[0]);

        let vantage = VantagePoints::paper_defaults(&geo, seed.derive("vantage"));
        let pool = MachinePool::cluster(CLUSTER_SIZE, CLUSTER_SITE);
        // The engine's GeoIP database knows where the cluster is — IP
        // geolocation must *not* override the spoofed GPS.
        for (ip, site) in pool.entries() {
            if let Some(site) = site {
                engine.geoip().register(*ip, *site);
            }
        }

        let metrics = CrawlMetrics::resolve(&obs, pool.len());
        Crawler {
            seed,
            geo,
            corpus,
            engine,
            net,
            vantage,
            pool,
            obs,
            metrics,
        }
    }

    /// The observability hub shared by this world's crawler, network
    /// simulator, and engine.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// See the type-level docs: `seed`.
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// See the type-level docs: `geo`.
    pub fn geo(&self) -> &UsGeography {
        &self.geo
    }

    /// See the type-level docs: `corpus`.
    pub fn corpus(&self) -> &WebCorpus {
        &self.corpus
    }

    /// See the type-level docs: `engine`.
    pub fn engine(&self) -> &Arc<SearchEngine> {
        &self.engine
    }

    /// See the type-level docs: `net`.
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// See the type-level docs: `vantage`.
    pub fn vantage(&self) -> &VantagePoints {
        &self.vantage
    }

    /// See the type-level docs: `pool`.
    pub fn pool(&self) -> &MachinePool {
        &self.pool
    }

    /// Execute a plan, returning the collected dataset.
    pub fn run(&self, plan: &ExperimentPlan) -> Dataset {
        self.run_with_progress(plan, |_| {})
    }

    /// Execute a plan with a per-round progress callback (used by the CLI
    /// to print live status; the callback runs on the scheduler thread
    /// between rounds, so it cannot perturb timing or noise).
    ///
    /// Runs are timeline-continuable: a second `run` on the same world
    /// starts at the next *strict* virtual day boundary after the first
    /// finished (virtual time never rewinds), so its absolute days — and
    /// therefore its news pool and noise draws — differ from a fresh
    /// world's.
    pub fn run_with_progress(
        &self,
        plan: &ExperimentPlan,
        progress: impl Fn(&CrawlProgress),
    ) -> Dataset {
        self.run_with_backend(plan, CrawlBackend::from_plan_flag(plan.parallel), progress)
    }

    /// Execute a plan on an explicit backend. Every backend produces a
    /// byte-identical dataset; they differ only in wall-clock.
    pub fn run_with_backend(
        &self,
        plan: &ExperimentPlan,
        backend: CrawlBackend,
        progress: impl Fn(&CrawlProgress),
    ) -> Dataset {
        self.run_with_options(plan, CrawlOptions::new(backend), progress)
            .expect("uncheckpointed runs have no failure modes")
    }

    /// Resume a crawl from a checkpoint. The crawler must be a fresh world
    /// built from the same seed and fault configuration as the run that
    /// wrote the checkpoint; the result is byte-identical to the dataset an
    /// uninterrupted run would have produced.
    pub fn resume(
        &self,
        checkpoint: CrawlCheckpoint,
        plan: &ExperimentPlan,
    ) -> Result<Dataset, CheckpointError> {
        let opts =
            CrawlOptions::new(CrawlBackend::from_plan_flag(plan.parallel)).resume(checkpoint);
        self.run_with_options(plan, opts, |_| {})
    }

    /// Execute a plan with the full option set: explicit backend, periodic
    /// checkpoints, resume from a cursor, and an early-stop round count.
    ///
    /// Checkpoints are emitted at round boundaries with the world idle (the
    /// round pipeline drains first), so a checkpoint at round N captures
    /// exactly the clock, network stream position, and partial dataset
    /// (counters included) an uninterrupted run has after N rounds —
    /// resuming it on a fresh same-seed world replays rounds N+1..
    /// byte-identically, on any backend.
    pub fn run_with_options(
        &self,
        plan: &ExperimentPlan,
        opts: CrawlOptions<'_>,
        progress: impl Fn(&CrawlProgress),
    ) -> Result<Dataset, CheckpointError> {
        let workers = opts.backend.workers();
        self.run_on(plan, opts, workers, progress)
    }

    /// [`run_with_options`](Self::run_with_options) on `workers` executor
    /// workers, whatever `opts.backend` would pick on this host.
    pub(crate) fn run_on(
        &self,
        plan: &ExperimentPlan,
        opts: CrawlOptions<'_>,
        workers: usize,
        progress: impl Fn(&CrawlProgress),
    ) -> Result<Dataset, CheckpointError> {
        plan.validate();
        let CrawlOptions {
            backend: _,
            checkpoint_every,
            on_checkpoint,
            resume,
            stop_after_rounds,
        } = opts;
        let policy = &plan.retry;
        if checkpoint_every > 0 || resume.is_some() {
            self.check_checkpoint_compatible(plan)?;
        }
        let plan_hash = plan.stable_hash();

        let (base_day, rounds, start_round, mut dataset) = match resume {
            Some(mut ckpt) => {
                let rounds = self.resume_schedule(plan, &ckpt)?;
                // Reposition the world at the cursor: clock and per-source
                // request counters are the simulator's entire stream state.
                self.net
                    .clock()
                    .set(geoserp_net::clock::SimInstant(ckpt.clock_ms));
                self.net.restore_seq_cursor(&ckpt.net_cursor);
                ckpt.dataset.rebuild_index();
                (ckpt.base_day, rounds, ckpt.completed_rounds, ckpt.dataset)
            }
            None => {
                // The next strict day boundary: a fresh world (t = 0) starts
                // on day 0; any later time — including one sitting *exactly*
                // on a boundary — advances past it, so a rerun never shares
                // a day (and with it the news pool and noise stream) with
                // earlier activity.
                let now_ms = self.net.clock().now().millis();
                let base_day = if now_ms == 0 {
                    0
                } else {
                    (now_ms / DAY_MS) as u32 + 1
                };
                let dataset = Dataset::new(
                    self.vantage.clone(),
                    DatasetMeta {
                        seed: self.seed.value(),
                        ..DatasetMeta::default()
                    },
                );
                let rounds = self.schedule(plan, base_day);
                (base_day, rounds, 0, dataset)
            }
        };
        let total_rounds = rounds.len();
        let stop_at = stop_after_rounds.unwrap_or(total_rounds).min(total_rounds);
        let mut completed_rounds = start_round;

        // A boundary is checkpoint-worthy when it is a multiple of the
        // interval, covers work done *this* run (not the resume point
        // itself), and isn't the finish line (the final dataset supersedes
        // any checkpoint there).
        let at_boundary = |completed: usize| {
            checkpoint_every > 0
                && completed > start_round
                && completed.is_multiple_of(checkpoint_every)
                && completed < total_rounds
        };
        // The live dataset, whose meta holds the boundary counters, moves
        // into the checkpoint for the sink call and back out afterwards, so
        // a checkpoint costs no dataset copy.
        let emit = |completed: usize, dataset: Dataset| {
            let Some(sink) = on_checkpoint else {
                return dataset;
            };
            let ckpt = self.make_checkpoint(plan_hash, base_day, completed, total_rounds, dataset);
            // Wall-clock only: the sink writes files, and how long that
            // takes is a host property, not a virtual one.
            let started = std::time::Instant::now();
            sink(&ckpt);
            self.metrics
                .checkpoint_wall_us
                .observe(started.elapsed().as_micros() as u64);
            ckpt.dataset
        };

        let fetch = |&(round, round_span): &(&RoundDesc, u64), index: usize| {
            self.fetch_job(round, round_span, index, policy)
        };
        let dataset = std::thread::scope(|scope| {
            let executor = Executor::start(scope, workers, self.pool.len(), &fetch);

            // Reposition the virtual clock for a round: jump to the day
            // boundary at day starts (the schedule is strictly monotone, so
            // this never rewinds). The clock only ever moves here and at
            // the post-round advance — never while a round is in flight.
            let position_clock = |round: &RoundDesc| {
                if round.first_of_day {
                    self.net.clock().set(geoserp_net::clock::SimInstant(
                        round.abs_day as u64 * DAY_MS,
                    ));
                }
            };
            // §2.2: 11 minutes between subsequent queries defeats the
            // 10-minute search-history window.
            let advance_clock = || self.net.clock().advance_minutes(plan.inter_query_wait_min);

            let finish_round = |round: &RoundDesc,
                                results: RoundResults,
                                dataset: &mut Dataset,
                                completed_rounds: &mut usize| {
                self.absorb_round(dataset, round, results);
                *completed_rounds += 1;
                progress(&CrawlProgress {
                    completed_rounds: *completed_rounds,
                    total_rounds,
                    term: round.term.term.clone(),
                    granularity: round.gran,
                    day: round.abs_day,
                    observations: dataset.observations().len(),
                });
            };

            // Pipelined: fetch round N, and intern round N−1's URLs on the
            // scheduler thread while the workers fetch. Absorbing a round
            // touches neither the clock nor the network, so the overlap
            // cannot change a byte; the barrier before the clock advance
            // keeps every fetch of a round at the same virtual instant.
            let mut pending: Option<(&RoundDesc, RoundResults)> = None;
            for round in &rounds[start_round..] {
                // Checkpoints and stops happen with the pipeline drained:
                // absorb the in-flight round *before* this round's dispatch
                // would advance the clock and the network's sequence
                // counters past the boundary.
                let after_pending = completed_rounds + usize::from(pending.is_some());
                if after_pending >= stop_at || at_boundary(after_pending) {
                    if let Some((prev, results)) = pending.take() {
                        finish_round(prev, results, &mut dataset, &mut completed_rounds);
                    }
                    if at_boundary(completed_rounds) {
                        dataset = emit(completed_rounds, dataset);
                    }
                    if completed_rounds >= stop_at {
                        break;
                    }
                }
                position_clock(round);
                let round_start = self.net.clock().now().millis();
                let round_span = self.obs.spans().alloc_id();
                let results = executor.round((round, round_span), round.locs.len() * 2, || {
                    if let Some((prev, results)) = pending.take() {
                        finish_round(prev, results, &mut dataset, &mut completed_rounds);
                    }
                });
                advance_clock();
                self.record_round_span(round_span, round, round_start);
                pending = Some((round, results));
            }
            if let Some((prev, results)) = pending.take() {
                finish_round(prev, results, &mut dataset, &mut completed_rounds);
            }
            dataset
        });
        Ok(dataset)
    }

    /// Check a checkpoint against this world and `plan` before anything
    /// moves, and return the schedule it resumes. Beyond its provenance
    /// (version, plan, seed, fault rates), the cursor must sit on a round
    /// boundary of that schedule: its clock must read the last completed
    /// round's day start plus one inter-query wait per round of that day so
    /// far, and its dataset must balance against that cursor (see
    /// `Dataset::check_accounting`). A hand-edited clock, base day,
    /// observation list or counter is therefore a `Mismatch`, not a panic
    /// on a rewinding clock or an overflowing counter, or a silently
    /// shifted or incomplete dataset.
    fn resume_schedule(
        &self,
        plan: &ExperimentPlan,
        ckpt: &CrawlCheckpoint,
    ) -> Result<Vec<RoundDesc<'_>>, CheckpointError> {
        let mismatch = |msg: String| Err(CheckpointError::Mismatch(msg));
        if ckpt.version != CHECKPOINT_VERSION {
            return mismatch(format!(
                "checkpoint version {} (this build reads version {CHECKPOINT_VERSION})",
                ckpt.version
            ));
        }
        if ckpt.plan_hash != plan.stable_hash() {
            return mismatch("checkpoint was written under a different plan".into());
        }
        if ckpt.seed != self.seed.value() {
            return mismatch(format!(
                "checkpoint seed {} but this world was built from seed {}",
                ckpt.seed,
                self.seed.value()
            ));
        }
        let (own_drop, own_corrupt) = self.net.fault_rates();
        if (ckpt.drop_chance, ckpt.corrupt_chance) != (own_drop, own_corrupt) {
            return mismatch(format!(
                "checkpoint fault rates ({}, {}) but this world has ({own_drop}, {own_corrupt})",
                ckpt.drop_chance, ckpt.corrupt_chance
            ));
        }
        if ckpt.base_day.checked_add(plan.total_days()).is_none() {
            return mismatch(format!(
                "checkpoint base day {} leaves no room for the plan's days",
                ckpt.base_day
            ));
        }
        let rounds = self.schedule(plan, ckpt.base_day);
        if ckpt.total_rounds != rounds.len() {
            return mismatch(format!(
                "checkpoint expects {} total rounds, plan schedules {}",
                ckpt.total_rounds,
                rounds.len()
            ));
        }
        let Some(last) = ckpt
            .completed_rounds
            .checked_sub(1)
            .and_then(|i| rounds.get(i))
        else {
            return mismatch(format!(
                "checkpoint completed {} rounds of a {}-round schedule",
                ckpt.completed_rounds,
                rounds.len()
            ));
        };
        let day_rounds = rounds[..ckpt.completed_rounds]
            .iter()
            .rev()
            .take_while(|r| r.abs_day == last.abs_day)
            .count() as u64;
        let expected_ms =
            u64::from(last.abs_day) * DAY_MS + day_rounds * plan.inter_query_wait_min * 60_000;
        if ckpt.clock_ms != expected_ms {
            return mismatch(format!(
                "checkpoint clock ({} ms) is not where its schedule leaves round {} \
                 ({expected_ms} ms)",
                ckpt.clock_ms, ckpt.completed_rounds
            ));
        }
        let jobs = rounds[..ckpt.completed_rounds]
            .iter()
            .map(|r| r.locs.len() as u64 * 2)
            .sum();
        let max_attempts = u64::from(plan.retry.max_attempts.max(1));
        ckpt.dataset
            .check_accounting(jobs, max_attempts)
            .map_err(CheckpointError::Mismatch)?;
        let now = self.net.clock().now().millis();
        if now > ckpt.clock_ms {
            return mismatch(format!(
                "world clock ({now} ms) is already past the checkpoint ({} ms) — resume \
                 needs a fresh world built from the same seed",
                ckpt.clock_ms
            ));
        }
        Ok(rounds)
    }

    /// Assemble the cursor for `completed_rounds` rounds. Called at a round
    /// boundary with the world idle: the clock sits post-advance of the
    /// last absorbed round and no job of a later round has touched the
    /// network.
    fn make_checkpoint(
        &self,
        plan_hash: u64,
        base_day: u32,
        completed_rounds: usize,
        total_rounds: usize,
        dataset: Dataset,
    ) -> CrawlCheckpoint {
        let (drop_chance, corrupt_chance) = self.net.fault_rates();
        CrawlCheckpoint {
            version: CHECKPOINT_VERSION,
            plan_hash,
            seed: self.seed.value(),
            base_day,
            completed_rounds,
            total_rounds,
            clock_ms: self.net.clock().now().millis(),
            net_cursor: self.net.seq_cursor(),
            drop_chance,
            corrupt_chance,
            dataset,
        }
    }

    /// Engine-internal state (per-IP rate-limiter windows, the optional
    /// SERP cache) is *not* part of the checkpoint cursor. That is sound
    /// only when all of it decays fully within one inter-round wait, so a
    /// resumed fresh world and an uninterrupted one agree at every round
    /// boundary; refuse configurations where it wouldn't.
    fn check_checkpoint_compatible(&self, plan: &ExperimentPlan) -> Result<(), CheckpointError> {
        let wait_ms = plan.inter_query_wait_min.saturating_mul(60_000);
        let cfg = self.engine.config();
        if cfg.rate_limit_window_ms >= wait_ms {
            return Err(CheckpointError::Mismatch(format!(
                "rate-limit window ({} ms) must be shorter than the inter-query wait ({wait_ms} \
                 ms) for checkpoint/resume equivalence",
                cfg.rate_limit_window_ms
            )));
        }
        if let Some(ttl) = cfg.serp_cache_ttl_ms {
            if ttl >= wait_ms {
                return Err(CheckpointError::Mismatch(format!(
                    "SERP cache TTL ({ttl} ms) must be shorter than the inter-query wait \
                     ({wait_ms} ms) for checkpoint/resume equivalence"
                )));
            }
        }
        Ok(())
    }

    /// Record a completed round span: the round ran at `start_ms` (every
    /// job of a lock-step round shares that virtual instant) and owns the
    /// inter-query wait that follows it.
    fn record_round_span(&self, id: u64, round: &RoundDesc, start_ms: u64) {
        self.metrics.rounds.inc();
        let now = self.net.clock().now().millis();
        self.obs.spans().record(SpanRecord {
            id,
            parent: 0,
            name: format!("round {} @{:?}", round.term.term, round.gran).into(),
            cat: "crawler.round",
            tid: 0,
            start_ms,
            dur_ms: now.saturating_sub(start_ms),
            args: vec![
                ("term", round.term.term.clone()),
                ("granularity", format!("{:?}", round.gran)),
                ("day", round.abs_day.to_string()),
            ],
            wall_us: None,
        });
    }

    /// Flatten a plan into its lock-step rounds, in execution order.
    fn schedule<'a>(&'a self, plan: &ExperimentPlan, base_day: u32) -> Vec<RoundDesc<'a>> {
        let mut rounds = Vec::new();
        for (bi, batch) in plan.batches.iter().enumerate() {
            // The batch's term list, in corpus order, optionally subsampled.
            // Subsampled plans take terms evenly spaced through each
            // category, so that a small sample still mixes brands with
            // generic terms (the first local terms are all chains).
            let terms: Vec<&Query> = batch
                .iter()
                .flat_map(|&cat| {
                    let qs = self.corpus.queries.of(cat);
                    let take = plan.queries_per_category.unwrap_or(qs.len()).min(qs.len());
                    (0..take).map(move |i| &qs[i * qs.len() / take.max(1)])
                })
                .collect();

            for (gi, &gran) in plan.granularities.iter().enumerate() {
                let locs = self.vantage.at(gran);
                let take = plan.locations_per_granularity.unwrap_or(locs.len());
                let locs = &locs[..take.min(locs.len())];

                for day in 0..plan.days {
                    let abs_day = base_day + plan.absolute_day(bi, gi, day);
                    for (ti, term) in terms.iter().enumerate() {
                        rounds.push(RoundDesc {
                            term,
                            gran,
                            locs,
                            block_day: day,
                            abs_day,
                            first_of_day: ti == 0,
                        });
                    }
                }
            }
        }
        rounds
    }

    /// Commit one round's results (sorted back into job order) into the
    /// dataset, folding each job's tally into its meta, then publish the
    /// round's change to the registry. Runs on the scheduler thread —
    /// interning and counting are single-writer.
    fn absorb_round(&self, dataset: &mut Dataset, round: &RoundDesc, mut results: RoundResults) {
        results.sort_by_key(|(index, _)| *index);
        let before = dataset.meta.counters();
        self.metrics.jobs.add(results.len() as u64);
        for (index, (tally, output)) in results {
            tally.fold_into(&mut dataset.meta, output.is_none());
            self.metrics.machine_jobs[index % self.pool.len()].inc();
            self.metrics.backoff_ms.observe(tally.backoff_ms);
            let location = &round.locs[index / 2];
            let role = Role::BOTH[index % 2];
            let Some(output) = output else {
                continue;
            };
            let results = output
                .page
                .extract_results()
                .into_iter()
                .map(|r| (dataset.intern(&r.url), r.rtype))
                .collect();
            dataset.push(Observation {
                day: round.abs_day,
                block_day: round.block_day,
                granularity: round.gran,
                location: location.id,
                term: round.term.term.clone(),
                category: round.term.category,
                role,
                results,
                datacenter: output.datacenter,
                reported_location: output.page.reported_location.clone(),
            });
        }
        let after = dataset.meta.counters();
        for ((counter, (_, old)), (_, new)) in self.metrics.meta.iter().zip(before).zip(after) {
            counter.add(new - old);
        }
    }

    /// One job: fresh browser, spoofed GPS, homepage + query, parse, retry
    /// on damage under the plan's [`RetryPolicy`], clear cookies. Counts
    /// its attempts in a [`JobTally`] for the scheduler to fold into the
    /// meta, and writes no metric.
    ///
    /// Observability: emits one `crawler.job` span (parent = the round's
    /// span, tid = machine track) plus one `crawler.attempt` span per fetch
    /// attempt, all stamped from the virtual clock — every job of a
    /// lock-step round starts at the same virtual instant, so the spans are
    /// identical for every worker count.
    fn fetch_job(
        &self,
        round: &RoundDesc,
        round_span: u64,
        index: usize,
        policy: &RetryPolicy,
    ) -> (JobTally, Option<JobOutput>) {
        let machine = self.pool.assign(index);
        let coord = round.locs[index / 2].coord;
        let track = index % self.pool.len();
        let spans_on = self.obs.is_enabled();
        let tid = track as u32 + 1;
        let start_ms = self.net.clock().now().millis();
        let job_span = if spans_on {
            self.obs.spans().alloc_id()
        } else {
            0
        };
        let mut browser = Browser::new(Arc::clone(&self.net), machine);
        browser.max_attempts = policy.load_attempts.max(1) as usize;
        // Backoff runs on a per-job ghost timeline: advancing the shared
        // virtual clock mid-round would perturb the round's other jobs
        // (every fetch of a lock-step round happens at the same virtual
        // instant), so waits are accounted, not enacted.
        let mut tally = JobTally::default();
        // Virtual time the engine spent serving this job's successful
        // search exchanges — the job span's service component.
        let mut serve_ms = 0u64;
        let mut output = None;
        // Spans finished during the job accumulate locally and land in the
        // log as one batch — one ring-lock acquisition per job, not per span.
        let mut pending_spans: Vec<SpanRecord> = Vec::new();
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                let wait = policy.backoff_before(attempt);
                if let Some(deadline) = policy.round_deadline_ms {
                    if tally.backoff_ms.saturating_add(wait) > deadline {
                        // Graceful degradation: record the give-up and let
                        // the job land as a failed_job rather than burning
                        // the rest of the budget past the deadline.
                        tally.deadline_giveup = true;
                        break;
                    }
                }
                tally.backoff_ms = tally.backoff_ms.saturating_add(wait);
            }
            tally.attempts += 1;
            let mut attempt_ms = 0u64;
            let outcome = match browser.run_search_job(SEARCH_HOST, &round.term.term, coord) {
                Ok(fetch) => {
                    attempt_ms = fetch.rtt_ms;
                    match geoserp_serp::parse(&fetch.body) {
                        Ok(page) => {
                            browser.clear_cookies();
                            output = Some(JobOutput {
                                page,
                                datacenter: fetch.datacenter.unwrap_or_default(),
                            });
                            "ok"
                        }
                        Err(_damaged) => {
                            tally.parse_failures += 1;
                            "parse_failure" // corrupted body: refetch
                        }
                    }
                }
                Err(e) => {
                    tally.net_errors += 1;
                    if matches!(e, BrowserError::Http(Status::TooManyRequests)) {
                        // Also a net error (the accounting identity over
                        // retries and failed jobs is unchanged), separately
                        // visible as rate-limiter pressure.
                        tally.rate_limited += 1;
                        "rate_limited"
                    } else {
                        "net_error"
                    }
                }
            };
            serve_ms += attempt_ms;
            if spans_on {
                let id = self.obs.spans().alloc_id();
                pending_spans.push(SpanRecord {
                    id,
                    parent: job_span,
                    // Static names for the retry budget's usual range keep
                    // the per-attempt record allocation-light.
                    name: match attempt {
                        0 => "attempt 0".into(),
                        1 => "attempt 1".into(),
                        2 => "attempt 2".into(),
                        n => format!("attempt {n}").into(),
                    },
                    cat: "crawler.attempt",
                    tid,
                    start_ms,
                    dur_ms: attempt_ms,
                    args: vec![
                        ("job", index.to_string()),
                        ("attempt", attempt.to_string()),
                        ("outcome", outcome.to_string()),
                    ],
                    wall_us: None,
                });
            }
            if output.is_some() {
                break;
            }
        }
        if spans_on {
            pending_spans.push(SpanRecord {
                id: job_span,
                parent: round_span,
                name: format!("job {index}").into(),
                cat: "crawler.job",
                tid,
                start_ms,
                dur_ms: serve_ms.saturating_add(tally.backoff_ms),
                args: vec![
                    ("job", index.to_string()),
                    ("machine", machine.to_string()),
                    (
                        "outcome",
                        if output.is_some() { "ok" } else { "failed" }.to_string(),
                    ),
                ],
                wall_us: None,
            });
        }
        if !pending_spans.is_empty() {
            self.obs.spans().record_batch(pending_spans);
        }
        (tally, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_corpus::QueryCategory;
    use geoserp_geo::Granularity;

    fn quick_plan() -> ExperimentPlan {
        ExperimentPlan {
            days: 1,
            queries_per_category: Some(2),
            locations_per_granularity: Some(3),
            ..ExperimentPlan::quick()
        }
    }

    #[test]
    fn quick_crawl_collects_expected_cells() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        // batch0: 2 local + 2 controversial = 4 terms; batch1: 2 politicians.
        // 6 terms × 3 granularities × 3 locations × 2 roles × 1 day = 108.
        assert_eq!(ds.observations().len(), 108);
        assert_eq!(ds.meta.failed_jobs, 0);
        assert!(ds.meta.requests_issued >= 216);
    }

    #[test]
    fn every_observation_has_paper_sized_pages() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        for o in ds.observations() {
            assert!(
                (8..=22).contains(&o.results.len()),
                "{} at {:?}: {} results",
                o.term,
                o.location,
                o.results.len()
            );
        }
    }

    #[test]
    fn all_queries_hit_the_pinned_datacenter() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        for o in ds.observations() {
            assert_eq!(o.datacenter, "dc0", "DNS pinning violated");
        }
    }

    #[test]
    fn treatment_control_pairs_exist_for_every_cell() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        let gran = Granularity::County;
        // The plan samples 2 terms per category, evenly spaced.
        let qs = crawler.corpus().queries.of(QueryCategory::Local);
        let sampled = [&qs[0], &qs[qs.len() / 2]];
        for loc in &crawler.vantage().county[..3] {
            for q in sampled {
                assert!(
                    ds.pair(0, gran, loc.id, &q.term).is_some(),
                    "missing pair for {} at {}",
                    q.term,
                    loc.region.name
                );
            }
        }
    }

    #[test]
    fn parallel_and_serial_crawls_are_identical() {
        let mut plan = quick_plan();
        plan.parallel = true;
        let a = Crawler::new(Seed::new(7)).run(&plan);
        plan.parallel = false;
        let b = Crawler::new(Seed::new(7)).run(&plan);
        assert_eq!(
            a.observations(),
            b.observations(),
            "determinism under parallelism"
        );
    }

    #[test]
    fn same_seed_reproduces_byte_identical_datasets() {
        let plan = quick_plan();
        let a = Crawler::new(Seed::new(11)).run(&plan);
        let b = Crawler::new(Seed::new(11)).run(&plan);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let plan = quick_plan();
        let a = Crawler::new(Seed::new(11)).run(&plan);
        let b = Crawler::new(Seed::new(12)).run(&plan);
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn reported_locations_match_vantage_regions() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        for o in ds
            .observations()
            .iter()
            .filter(|o| o.granularity == Granularity::County)
        {
            assert_eq!(o.reported_location, "Cleveland, OH");
        }
    }

    #[test]
    fn runs_are_timeline_continuable() {
        // Running the same plan twice on one world must not panic (virtual
        // time never rewinds); the second dataset starts on a later day.
        let crawler = Crawler::new(Seed::new(2015));
        let a = crawler.run(&quick_plan());
        let b = crawler.run(&quick_plan());
        assert_eq!(a.observations().len(), b.observations().len());
        let last_a = a.observations().iter().map(|o| o.day).max().unwrap();
        let first_b = b.observations().iter().map(|o| o.day).min().unwrap();
        assert!(first_b > last_a, "{first_b} vs {last_a}");
    }

    #[test]
    fn progress_callback_covers_every_round() {
        let crawler = Crawler::new(Seed::new(2015));
        let seen = std::cell::RefCell::new(Vec::new());
        let ds = crawler.run_with_progress(&quick_plan(), |p| {
            seen.borrow_mut().push(p.clone());
        });
        let seen = seen.into_inner();
        // 6 terms × 3 granularities × 1 day = 18 rounds.
        assert_eq!(seen.len(), 18);
        assert!(seen.iter().all(|p| p.total_rounds == 18));
        assert_eq!(seen.last().unwrap().completed_rounds, 18);
        assert_eq!(seen.last().unwrap().observations, ds.observations().len());
        // Monotone progress.
        for w in seen.windows(2) {
            assert!(w[0].completed_rounds < w[1].completed_rounds);
            assert!(w[0].observations <= w[1].observations);
        }
    }

    #[test]
    fn no_rate_limiting_fired() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        let throttled = crawler.obs().metrics().counter("engine.rate_limited");
        assert_eq!(
            throttled.get(),
            0,
            "machine pool must stay under the rate limit"
        );
        assert_eq!(ds.meta.rate_limited, 0);
    }

    #[test]
    fn every_backend_produces_byte_identical_datasets() {
        let plan = quick_plan();
        let serial =
            Crawler::new(Seed::new(7)).run_with_backend(&plan, CrawlBackend::Serial, |_| {});
        let pooled =
            Crawler::new(Seed::new(7)).run_with_backend(&plan, CrawlBackend::WorkerPool, |_| {});
        assert_eq!(serial.to_json(), pooled.to_json(), "pool vs serial");
    }

    #[test]
    fn run_starting_exactly_on_a_day_boundary_advances_to_the_next_day() {
        // Regression: with `div_ceil`, a clock parked exactly on a day
        // boundary made the next run reuse that day instead of advancing,
        // so two timelines could share a day's news pool and noise stream.
        let crawler = Crawler::new(Seed::new(2015));
        crawler
            .net()
            .clock()
            .set(geoserp_net::clock::SimInstant(3 * 86_400_000));
        let ds = crawler.run(&quick_plan());
        let first_day = ds.observations().iter().map(|o| o.day).min().unwrap();
        assert_eq!(
            first_day, 4,
            "an exact-boundary clock must advance to the next strict boundary"
        );
    }

    #[test]
    fn fresh_world_still_starts_on_day_zero() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        let first_day = ds.observations().iter().map(|o| o.day).min().unwrap();
        assert_eq!(first_day, 0);
    }

    #[test]
    fn attempt_accounting_is_consistent_on_a_clean_network() {
        let crawler = Crawler::new(Seed::new(2015));
        let ds = crawler.run(&quick_plan());
        // 108 jobs, no faults: one attempt per job, no retries, no errors.
        assert_eq!(ds.meta.attempts, 108);
        assert_eq!(ds.meta.retries, 0);
        assert_eq!(ds.meta.parse_failures, 0);
        assert_eq!(ds.meta.net_errors, 0);
        assert_eq!(ds.meta.requests_issued, 2 * ds.meta.attempts);
    }

    #[test]
    fn attempt_accounting_balances_under_faults() {
        let crawler = Crawler::with_config_and_faults(
            Seed::new(5),
            EngineConfig::paper_defaults(),
            0.05,
            0.05,
        );
        let ds = crawler.run(&quick_plan());
        // Every attempt is the first of a job or a retry; every retry was
        // provoked by a counted failure cause.
        let jobs = 108;
        assert_eq!(ds.meta.attempts, jobs + ds.meta.retries);
        // Each failure (parse or net) provokes a retry, except the final
        // attempt of a permanently failed job.
        assert_eq!(
            ds.meta.parse_failures + ds.meta.net_errors,
            ds.meta.retries + ds.meta.failed_jobs
        );
        assert!(ds.meta.retries > 0, "5% fault rates must provoke retries");
        assert_eq!(ds.meta.requests_issued, 2 * ds.meta.attempts);
        // Retries accumulate ghost backoff; no deadline is configured, so
        // every job stays within the policy's attempt-budget worst case.
        assert!(ds.meta.backoff_ms > 0);
        assert_eq!(ds.meta.deadline_giveups, 0);
        assert!(ds.meta.max_job_backoff_ms <= quick_plan().retry.worst_case_backoff_ms());
    }

    #[test]
    fn requests_issued_lies_between_the_networks_responses_and_requests() {
        // `requests_issued` is two per fetch attempt. `Browser::load`
        // re-sends dropped requests within an attempt, and an attempt whose
        // homepage load fails never sends its search, so the network's own
        // counters bracket it: every attempt sends at least two requests and
        // gets at most two responses.
        for (drop, corrupt) in [(0.0, 0.0), (0.10, 0.05)] {
            let crawler = Crawler::with_config_and_faults(
                Seed::new(7),
                EngineConfig::paper_defaults(),
                drop,
                corrupt,
            );
            let ds = crawler.run_with_backend(&quick_plan(), CrawlBackend::Serial, |_| {});
            let snap = crawler.obs().snapshot();
            let requests = snap.counters["net.requests"];
            let responses = snap.counters["net.responses"];
            let issued = ds.meta.requests_issued;
            assert!(responses <= issued, "{responses} responses > {issued}");
            if drop == 0.0 {
                assert_eq!((responses, requests), (issued, issued));
            } else {
                assert!(issued < requests, "re-sent drops are not in it");
            }
        }
    }

    #[test]
    fn stop_after_rounds_yields_exactly_that_many_rounds() {
        for backend in [CrawlBackend::Serial, CrawlBackend::WorkerPool] {
            let crawler = Crawler::new(Seed::new(2015));
            let opts = CrawlOptions::new(backend).stop_after_rounds(7);
            let ds = crawler
                .run_with_options(&quick_plan(), opts, |_| {})
                .unwrap();
            // 7 rounds × 3 locations × 2 roles = 42 cells.
            assert_eq!(
                ds.observations().len() + ds.meta.failed_jobs as usize,
                42,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn checkpoints_fire_at_every_interior_boundary() {
        for backend in [CrawlBackend::Serial, CrawlBackend::WorkerPool] {
            let crawler = Crawler::new(Seed::new(2015));
            let seen = std::cell::RefCell::new(Vec::new());
            let sink = |c: &CrawlCheckpoint| seen.borrow_mut().push(c.clone());
            let opts = CrawlOptions::new(backend)
                .checkpoint_every(5)
                .on_checkpoint(&sink);
            let ds = crawler
                .run_with_options(&quick_plan(), opts, |_| {})
                .unwrap();
            let seen = seen.into_inner();
            // 18 rounds, every 5: boundaries at 5, 10, 15 (18 itself is the
            // finish line — the returned dataset supersedes it).
            assert_eq!(
                seen.iter().map(|c| c.completed_rounds).collect::<Vec<_>>(),
                vec![5, 10, 15],
                "{backend:?}"
            );
            for c in &seen {
                assert_eq!(c.total_rounds, 18);
                assert_eq!(c.seed, 2015);
                // 6 jobs per round, each fully absorbed at the boundary.
                assert_eq!(
                    c.dataset.observations().len() + c.dataset.meta.failed_jobs as usize,
                    c.completed_rounds * 6
                );
                // The boundary stats live in the checkpoint's dataset meta.
                assert_eq!(c.dataset.meta.attempts, c.completed_rounds as u64 * 6);
            }
            // Checkpoint datasets are prefixes of the final dataset.
            assert_eq!(
                seen.last().unwrap().dataset.observations(),
                &ds.observations()[..15 * 6]
            );
            // Lending the live dataset to each checkpoint leaves no trace:
            // the run ends byte-identical to an uncheckpointed one.
            let plain =
                Crawler::new(Seed::new(2015)).run_with_backend(&quick_plan(), backend, |_| {});
            assert_eq!(ds.to_json(), plain.to_json(), "{backend:?}");
        }
    }

    /// The last checkpoint of a crawl of `plan` at seed 42, checkpointing
    /// every `every` rounds and stopped after `stop`.
    fn checkpoint_at(plan: &ExperimentPlan, every: usize, stop: usize) -> CrawlCheckpoint {
        let last = std::cell::RefCell::new(None);
        let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
        let opts = CrawlOptions::new(CrawlBackend::Serial)
            .checkpoint_every(every)
            .on_checkpoint(&sink)
            .stop_after_rounds(stop);
        Crawler::new(Seed::new(42))
            .run_with_options(plan, opts, |_| {})
            .unwrap();
        last.into_inner().expect("a checkpoint was written")
    }

    #[test]
    fn resume_is_byte_identical_to_an_uninterrupted_run() {
        let plan = quick_plan();
        let full =
            Crawler::new(Seed::new(42)).run_with_backend(&plan, CrawlBackend::Serial, |_| {});
        // Interrupted run: checkpoint every 4 rounds, killed after 10.
        let ckpt = checkpoint_at(&plan, 4, 10);
        assert_eq!(ckpt.completed_rounds, 8);
        // Resume on a fresh same-seed world replays rounds 9..18.
        let resumed = Crawler::new(Seed::new(42)).resume(ckpt, &plan).unwrap();
        assert_eq!(resumed.to_json(), full.to_json());
    }

    #[test]
    fn resume_does_not_double_count_partial_round_stats() {
        // The kill happens mid-interval (round 10 of a 4-round cadence):
        // rounds 9 and 10 were fetched by the interrupted run *after* the
        // round-8 checkpoint, and are fetched again by the resume. The
        // resumed meta must equal the uninterrupted run's — counting those
        // rounds exactly once.
        let plan = quick_plan();
        let faulty = || {
            Crawler::with_config_and_faults(
                Seed::new(13),
                EngineConfig::paper_defaults(),
                0.10,
                0.05,
            )
        };
        let full = faulty().run_with_backend(&plan, CrawlBackend::Serial, |_| {});
        let last = std::cell::RefCell::new(None);
        let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
        let opts = CrawlOptions::new(CrawlBackend::Serial)
            .checkpoint_every(4)
            .on_checkpoint(&sink)
            .stop_after_rounds(10);
        faulty().run_with_options(&plan, opts, |_| {}).unwrap();
        let resumed = faulty().resume(last.into_inner().unwrap(), &plan).unwrap();
        assert_eq!(resumed.meta, full.meta, "attempts/retries counted once");
        assert_eq!(resumed.to_json(), full.to_json());
    }

    #[test]
    fn resume_on_a_used_world_is_refused() {
        let plan = quick_plan();
        let crawler = Crawler::new(Seed::new(42));
        let last = std::cell::RefCell::new(None);
        let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
        let opts = CrawlOptions::new(CrawlBackend::Serial)
            .checkpoint_every(4)
            .on_checkpoint(&sink);
        crawler.run_with_options(&plan, opts, |_| {}).unwrap();
        // The same world's clock is now past the checkpoint.
        let err = crawler
            .resume(last.into_inner().unwrap(), &plan)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("fresh world"), "{err}");
    }

    #[test]
    fn resume_refuses_a_hand_edited_clock_or_base_day() {
        // Two days, two rounds a day at the county granularity: round 4
        // closes day 1, so the cursor's clock reads one day plus two waits.
        let plan = ExperimentPlan {
            days: 2,
            queries_per_category: Some(1),
            locations_per_granularity: Some(2),
            ..ExperimentPlan::quick()
        };
        let ckpt = checkpoint_at(&plan, 2, 4);
        assert_eq!((ckpt.completed_rounds, ckpt.total_rounds), (4, 18));
        assert_eq!(ckpt.clock_ms, 87_720_000);

        // A clock three days ahead used to pass every check and then panic
        // when the next day start rewound the clock.
        let mut later = ckpt.clone();
        later.clock_ms += 3 * DAY_MS;
        // A base day five days on used to resume into a shifted dataset.
        let mut shifted = ckpt.clone();
        shifted.base_day += 5;
        let mut empty = ckpt.clone();
        empty.completed_rounds = 0;
        let mut overflowing = ckpt.clone();
        overflowing.base_day = u32::MAX - 1;
        for (edit, needle) in [
            (later, "checkpoint clock"),
            (shifted, "checkpoint clock"),
            (empty, "completed 0 rounds"),
            (overflowing, "base day"),
        ] {
            let err = Crawler::new(Seed::new(42)).resume(edit, &plan).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
        // The untouched checkpoint still resumes.
        let resumed = Crawler::new(Seed::new(42)).resume(ckpt, &plan).unwrap();
        let full =
            Crawler::new(Seed::new(42)).run_with_backend(&plan, CrawlBackend::Serial, |_| {});
        assert_eq!(resumed.to_json(), full.to_json());
    }

    #[test]
    fn resume_refuses_foreign_plan_seed_and_faults() {
        let plan = quick_plan();
        let ckpt = checkpoint_at(&plan, 4, 18);

        // Wrong plan.
        let mut other_plan = plan.clone();
        other_plan.retry.max_attempts = 5;
        let err = Crawler::new(Seed::new(42))
            .resume(ckpt.clone(), &other_plan)
            .unwrap_err();
        assert!(err.to_string().contains("different plan"), "{err}");

        // Wrong seed.
        let err = Crawler::new(Seed::new(43))
            .resume(ckpt.clone(), &plan)
            .unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");

        // Wrong fault configuration.
        let err = Crawler::with_config_and_faults(
            Seed::new(42),
            EngineConfig::paper_defaults(),
            0.5,
            0.0,
        )
        .resume(ckpt, &plan)
        .unwrap_err();
        assert!(err.to_string().contains("fault rates"), "{err}");
    }

    #[test]
    fn checkpointing_refuses_a_sticky_engine_config() {
        // A SERP cache that outlives the inter-round wait would make a
        // resumed (cold-cache) world diverge from an uninterrupted
        // (warm-cache) one; engine state is not part of the cursor, so the
        // combination is refused up front.
        let cfg = EngineConfig::with_result_cache(20 * 60_000);
        let crawler = Crawler::with_config(Seed::new(1), cfg);
        let opts = CrawlOptions::new(CrawlBackend::Serial).checkpoint_every(1);
        let err = crawler
            .run_with_options(&quick_plan(), opts, |_| {})
            .unwrap_err();
        assert!(err.to_string().contains("SERP cache"), "{err}");
    }

    #[test]
    fn a_zero_deadline_forbids_all_retries() {
        let mut plan = quick_plan();
        plan.retry.round_deadline_ms = Some(0);
        let crawler = Crawler::with_config_and_faults(
            Seed::new(5),
            EngineConfig::paper_defaults(),
            0.5, // heavy loss: some jobs exhaust even the browser's retries
            0.0,
        );
        let ds = crawler.run(&plan);
        // Every job gets exactly one attempt; failures degrade gracefully
        // to recorded failed_jobs instead of retrying past the deadline.
        assert_eq!(ds.meta.attempts, 108);
        assert_eq!(ds.meta.retries, 0);
        assert_eq!(ds.meta.backoff_ms, 0);
        assert!(ds.meta.deadline_giveups > 0);
        assert_eq!(ds.meta.deadline_giveups, ds.meta.failed_jobs);
        // The accounting identity survives deadline give-ups.
        assert_eq!(
            ds.meta.parse_failures + ds.meta.net_errors,
            ds.meta.retries + ds.meta.failed_jobs
        );
        // Completeness: every cell is an observation or a failed job.
        assert_eq!(ds.observations().len() + ds.meta.failed_jobs as usize, 108);
    }

    #[test]
    fn a_saturating_backoff_saturates_the_totals_instead_of_overflowing() {
        // `RetryPolicy::backoff_before` saturates at u64::MAX, so a job's
        // second retry used to overflow its backoff sum: a worker panic
        // that failed the round in debug builds, a silent wrap in release.
        let mut plan = quick_plan();
        plan.retry.backoff_base_ms = u64::MAX / 2 + 1;
        let crawler =
            Crawler::with_config_and_faults(Seed::new(5), EngineConfig::paper_defaults(), 0.5, 0.0);
        let ds = crawler.run(&plan);
        ds.check_accounting(108, 3).unwrap();
        assert!(ds.meta.retries > 0);
        assert_eq!(ds.meta.backoff_ms, u64::MAX);
        assert_eq!(ds.meta.max_job_backoff_ms, u64::MAX);
        // The registry's backoff histogram saturates the same way, so its
        // sum never falls below its max.
        let snap = crawler.obs().snapshot();
        let backoff = &snap.histograms["crawler.backoff_ms"];
        assert_eq!(backoff.sum, ds.meta.backoff_ms);
        assert_eq!(backoff.max, u64::MAX);
    }

    #[test]
    fn resume_refuses_a_checkpoint_that_does_not_balance() {
        let plan = quick_plan();
        let ckpt = checkpoint_at(&plan, 4, 10);
        assert_eq!(ckpt.completed_rounds, 8);
        assert_eq!(ckpt.dataset.observations().len(), 48);

        // One observation deleted by hand: 47 observations and no failed
        // job used to resume into a 107-observation dataset.
        let json = ckpt.to_json();
        let first = json.find("{\"day\":").expect("an observation");
        let end = first + json[first..].find("},").expect("a second one") + 2;
        let short =
            CrawlCheckpoint::from_json(&format!("{}{}", &json[..first], &json[end..])).unwrap();
        assert_eq!(short.dataset.observations().len(), 47);
        // A counter edited near u64::MAX used to wrap as the resumed crawl
        // added to it.
        let mut overflowing = ckpt.clone();
        overflowing.dataset.meta.attempts = u64::MAX - 1;
        for (edit, needle) in [
            (short, "47 observations + 0 failed jobs ≠ 48 jobs"),
            (overflowing, "attempts ≠ 48 jobs + 0 retries"),
        ] {
            let err = Crawler::new(Seed::new(42)).resume(edit, &plan).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
        // The genuine checkpoint balances and resumes.
        let resumed = Crawler::new(Seed::new(42)).resume(ckpt, &plan).unwrap();
        resumed.check_accounting(108, 3).unwrap();
    }

    #[test]
    fn retry_policy_is_inert_on_a_clean_network() {
        // Changing backoff parameters must not perturb a faultless crawl —
        // the defaults promise byte-compatibility with the historical
        // hard-coded behaviour.
        let mut plan = quick_plan();
        let a = Crawler::new(Seed::new(11)).run(&plan);
        plan.retry.backoff_base_ms = 9_999;
        plan.retry.round_deadline_ms = Some(1);
        let b = Crawler::new(Seed::new(11)).run(&plan);
        assert_eq!(a.observations(), b.observations());
        assert_eq!(a.meta.attempts, b.meta.attempts);
    }
}
