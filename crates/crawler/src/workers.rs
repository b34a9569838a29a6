//! The persistent crawl worker pool.
//!
//! §2.2 distributes the query load over 44 machines. `PersistentPool`
//! starts one long-lived worker per machine for the duration of a run and
//! feeds it rounds over a channel.
//!
//! Determinism: the scheduler partitions each round's jobs by machine with
//! the same round-robin rule as the serial path
//! ([`MachinePool::assign`](crate::machines::MachinePool::assign)),
//! and each worker processes its batch strictly in job-index order. The
//! simulated network's noise draws depend only on (source machine, per-source
//! request order, virtual time), and the virtual clock only moves between
//! rounds on the scheduler thread — so a pooled crawl is byte-identical to a
//! serial one.
//!
//! The channel-fed worker machinery itself lives in `geoserp-pool`
//! ([`ShardedPool`]); this module keeps only the crawl-specific adapter:
//! one shard per machine, jobs shaped as (term, coordinate) fetches.

use crate::retry::RetryPolicy;
use crate::run::{CrawlStats, Crawler, JobCtx, JobOutput};
use geoserp_geo::{Coord, Location};
use geoserp_pool::ShardedPool;
use std::sync::Arc;
use std::thread::Scope;

/// How a crawl executes its lock-step rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlBackend {
    /// Every job runs in plan order on the scheduler thread.
    Serial,
    /// Persistent per-machine workers fed over channels, with the scheduler
    /// interning round N's results while the workers fetch round N+1.
    WorkerPool,
}

impl CrawlBackend {
    /// The backend a plan's `parallel` flag selects.
    pub fn from_plan_flag(parallel: bool) -> Self {
        if parallel {
            CrawlBackend::WorkerPool
        } else {
            CrawlBackend::Serial
        }
    }
}

/// One fetch handed to a worker. Owned, so it can cross the channel.
pub(crate) struct WorkJob {
    /// The query term.
    pub term: Arc<str>,
    /// The GPS coordinate to spoof.
    pub coord: Coord,
    /// Span ID of the enclosing round (parent for the job's spans).
    pub round_span: u64,
}

/// `(job index, fetch outcome)` reported back to the scheduler.
pub(crate) type RoundResult = (usize, Option<JobOutput>);

/// One long-lived worker per machine, alive for a whole run: the crawl
/// adapter over [`ShardedPool`]. The shard index doubles as the machine
/// index, so `index % machines` sharding reproduces
/// [`MachinePool::assign`](crate::machines::MachinePool::assign) exactly.
pub(crate) struct PersistentPool {
    inner: ShardedPool<WorkJob, Option<JobOutput>>,
}

impl PersistentPool {
    /// Spawn one worker per machine in `crawler`'s pool as scoped threads.
    /// Workers exit when the pool (and with it the job senders) drops.
    pub fn start<'scope, 'env: 'scope>(
        scope: &'scope Scope<'scope, 'env>,
        crawler: &'env Crawler,
        policy: &'env RetryPolicy,
        stats: &'env CrawlStats,
    ) -> Self {
        let machines = crawler.pool().ips();
        let inner = ShardedPool::start(scope, machines.len(), move |shard, index, job: WorkJob| {
            let ctx = JobCtx {
                index,
                round_span: job.round_span,
            };
            crawler.fetch_job(machines[shard], &job.term, job.coord, policy, stats, ctx)
        });
        PersistentPool { inner }
    }

    /// Queue one round: every location fetches `term` twice (treatment +
    /// control). Returns the number of results to [`collect`](Self::collect).
    pub fn dispatch(&self, term: &Arc<str>, locs: &[Location], round_span: u64) -> usize {
        let total = locs.len() * 2;
        self.inner.dispatch((0..total).map(|index| WorkJob {
            term: Arc::clone(term),
            coord: locs[index / 2].coord,
            round_span,
        }))
    }

    /// Round barrier: wait for exactly `expected` results.
    pub fn collect(&self, expected: usize) -> Vec<RoundResult> {
        self.inner.collect(expected)
    }
}
