//! The crawl executor.
//!
//! §2.2 spreads each lock-step round over 44 machines in one /24 so that
//! the search engine's per-IP rate limit never fires. Those machines are
//! source addresses, not CPUs: the executor runs `W` workers sized to the
//! host, and job `i` of a round belongs to machine `i % machines` (the
//! [`MachinePool::assign`](crate::machines::MachinePool::assign) rule).
//!
//! One claim-and-fetch loop serves every worker count. A worker claims the
//! next unclaimed machine of the round from an atomic cursor and fetches
//! all of that machine's jobs in job-index order, then claims again until
//! every machine is taken. With `W = 1` the loop runs inline on the
//! scheduler thread and spawns nothing; with `W > 1`, `W` scoped workers
//! live for the whole run and each round reaches every one of them once.
//! Results travel back over the round's own channel, which closes once
//! every worker has let go of the round. That is the round barrier, and it
//! turns a worker's panic into a failed round instead of a hang.
//!
//! Determinism: the simulated network's noise draws depend only on (source
//! machine, per-source request order, virtual time). The claim rule fixes
//! every machine's request order whichever worker claims it, and the
//! virtual clock only moves between rounds on the scheduler thread — so a
//! crawl is byte-identical for every worker count.

use geoserp_pool::Workers;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::Scope;

/// How a crawl executes its lock-step rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlBackend {
    /// One worker, inline on the scheduler thread: every job runs in
    /// machine order at dispatch, and no thread is spawned.
    Serial,
    /// One worker per available CPU (at most one per machine), alive for
    /// the whole run, with the scheduler interning round N's results while
    /// the workers fetch round N+1. On a one-CPU host this is `Serial`.
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

    /// The executor's worker count on this host, before
    /// [`Executor::start`] clamps it to the machine count.
    pub(crate) fn workers(self) -> usize {
        match self {
            CrawlBackend::Serial => 1,
            CrawlBackend::WorkerPool => Workers::Auto.resolve(),
        }
    }
}

/// One round as the workers see it: its payload, the next unclaimed
/// machine, and where each claimed machine's results go.
struct Round<J, R> {
    job: J,
    jobs: usize,
    next_machine: AtomicUsize,
    /// Dropped with the last handle on the round, which closes the channel:
    /// that is the round barrier.
    done: mpsc::Sender<Vec<(usize, R)>>,
}

impl<J, R> Round<J, R> {
    /// The claim-and-fetch loop: claim the next unclaimed machine `m`, run
    /// `fetch` on its jobs (`i ≡ m mod machines`) in job-index order, send
    /// the machine's results, and repeat until every machine with a job is
    /// claimed.
    fn drain(&self, machines: usize, fetch: impl Fn(&J, usize) -> R) {
        let busy = self.jobs.min(machines);
        loop {
            // The cursor hands out machines and publishes nothing else: the
            // payload arrived with the round, and results leave by channel.
            let m = self.next_machine.fetch_add(1, Ordering::Relaxed);
            if m >= busy {
                return;
            }
            let batch = (m..self.jobs)
                .step_by(machines)
                .map(|i| (i, fetch(&self.job, i)))
                .collect();
            // Fails only once the scheduler is gone.
            self.done.send(batch).ok();
        }
    }
}

/// Runs rounds of jobs over a fixed set of machines on `W` workers.
pub(crate) struct Executor<'env, J, R, F> {
    machines: usize,
    fetch: &'env F,
    /// One round queue per worker thread; empty when rounds run inline.
    queues: Vec<mpsc::Sender<Arc<Round<J, R>>>>,
}

impl<'env, J, R, F> Executor<'env, J, R, F>
where
    J: Send + Sync + 'env,
    R: Send + 'env,
    F: Fn(&J, usize) -> R + Sync,
{
    /// Start `workers` workers, clamped to `1..=machines`, in `scope`. One
    /// worker runs inline and spawns nothing; more live until the executor
    /// drops.
    pub fn start<'scope>(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        machines: usize,
        fetch: &'env F,
    ) -> Self {
        let workers = workers.clamp(1, machines);
        let queues = if workers == 1 {
            Vec::new()
        } else {
            (0..workers)
                .map(|_| {
                    let (queue, rounds) = mpsc::channel::<Arc<Round<J, R>>>();
                    scope.spawn(move || {
                        for round in rounds {
                            round.drain(machines, fetch);
                        }
                    });
                    queue
                })
                .collect()
        };
        Executor {
            machines,
            fetch,
            queues,
        }
    }

    /// Fetch jobs `0..jobs` of one round, running `overlap` on the calling
    /// thread while the workers fetch (after the fetch when inline).
    /// Returns every job's result, in no particular order.
    pub fn round(&self, job: J, jobs: usize, overlap: impl FnOnce()) -> Vec<(usize, R)> {
        let (done, results) = mpsc::channel();
        let round = Arc::new(Round {
            job,
            jobs,
            next_machine: AtomicUsize::new(0),
            done,
        });
        if self.queues.is_empty() {
            round.drain(self.machines, self.fetch);
        }
        for queue in &self.queues {
            queue
                .send(Arc::clone(&round))
                .expect("crawl workers live as long as the executor");
        }
        drop(round);
        overlap();
        // The channel closes once every worker has let go of the round:
        // after its last claimed machine, or while unwinding from a panic.
        let mut out = Vec::with_capacity(jobs);
        for batch in results {
            out.extend(batch);
        }
        assert_eq!(out.len(), jobs, "a crawl worker panicked mid-round");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    const MACHINES: usize = 44;

    /// What one fetch saw: (round, job index, worker thread).
    type Seen = Mutex<Vec<(u32, usize, ThreadId)>>;

    /// Run `rounds` rounds of `jobs` jobs each on `workers` workers,
    /// recording every fetch; returns each round's sorted results.
    fn run(workers: usize, jobs: usize, rounds: u32, seen: &Seen) -> Vec<Vec<(usize, u64)>> {
        let fetch = |round: &u32, i: usize| {
            seen.lock().expect("no fetch panics while recording").push((
                *round,
                i,
                std::thread::current().id(),
            ));
            u64::from(*round) * 1_000 + i as u64
        };
        std::thread::scope(|scope| {
            let executor = Executor::start(scope, workers, MACHINES, &fetch);
            (0..rounds)
                .map(|round| {
                    let mut out = executor.round(round, jobs, || {});
                    out.sort_unstable();
                    out
                })
                .collect()
        })
    }

    #[test]
    fn every_job_runs_once_per_round_on_every_worker_count() {
        for workers in [0, 1, 2, 3, 44, 64] {
            for jobs in [0, 1, 10, 44, 100] {
                let seen = Seen::default();
                let results = run(workers, jobs, 5, &seen);
                for (round, out) in results.iter().enumerate() {
                    let expected: Vec<(usize, u64)> = (0..jobs)
                        .map(|i| (i, round as u64 * 1_000 + i as u64))
                        .collect();
                    assert_eq!(
                        out, &expected,
                        "workers={workers} jobs={jobs} round={round}"
                    );
                }
                assert_eq!(seen.into_inner().unwrap().len(), 5 * jobs);
            }
        }
    }

    #[test]
    fn each_machine_fetches_its_jobs_in_index_order_on_one_worker() {
        for workers in [1, 2, 3, 44, 64] {
            let seen = Seen::default();
            run(workers, 100, 3, &seen);
            let seen = seen.into_inner().unwrap();
            let threads: HashSet<ThreadId> = seen.iter().map(|(_, _, t)| *t).collect();
            assert!(threads.len() <= workers.min(MACHINES), "workers={workers}");
            if workers == 1 {
                assert_eq!(threads, HashSet::from([std::thread::current().id()]));
            }
            for round in 0..3 {
                for machine in 0..MACHINES {
                    let fetches: Vec<_> = seen
                        .iter()
                        .filter(|(r, i, _)| *r == round && i % MACHINES == machine)
                        .collect();
                    let order: Vec<usize> = fetches.iter().map(|(_, i, _)| *i).collect();
                    let expected: Vec<usize> = (machine..100).step_by(MACHINES).collect();
                    assert_eq!(order, expected, "workers={workers} machine={machine}");
                    assert!(
                        fetches.iter().all(|(_, _, t)| *t == fetches[0].2),
                        "workers={workers}: machine {machine} split across workers"
                    );
                }
            }
        }
    }

    /// The worker-count battery: every worker count reproduces the inline
    /// crawl, which keeps threaded determinism covered even on a one-CPU
    /// host, where `WorkerPool` resolves to one worker.
    mod worker_counts {
        use crate::run::{CrawlOptions, Crawler};
        use crate::{CrawlBackend, CrawlCheckpoint, Dataset, ExperimentPlan};
        use geoserp_engine::EngineConfig;
        use geoserp_geo::Seed;
        use geoserp_obs::{to_chrome_trace, MetricsSnapshot};
        use proptest::prelude::*;
        use std::cell::RefCell;

        /// The checkpoint battery's fault cells.
        const DROPS: [f64; 3] = [0.0, 0.10, 0.30];
        const CORRUPTS: [f64; 3] = [0.0, 0.05, 0.15];

        /// 9 rounds of 12 jobs, one per machine: 12 machines to claim per
        /// round, fewer than most drawn worker counts.
        fn plan() -> ExperimentPlan {
            ExperimentPlan {
                days: 1,
                queries_per_category: Some(1),
                locations_per_granularity: Some(6),
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

        /// An uninterrupted crawl on `workers` workers: the dataset JSON,
        /// the Chrome trace and the deterministic metrics.
        fn observe(
            seed: u64,
            cell: (f64, f64),
            workers: usize,
        ) -> (String, String, MetricsSnapshot) {
            let crawler = crawler(seed, cell.0, cell.1);
            let opts = CrawlOptions::new(CrawlBackend::Serial);
            let dataset = crawler.run_on(&plan(), opts, workers, |_| {}).unwrap();
            let obs = crawler.obs();
            (
                dataset.to_json(),
                to_chrome_trace(&obs.spans().snapshot()),
                obs.snapshot().deterministic(),
            )
        }

        /// Kill a crawl on `workers` after `kill` rounds, with a checkpoint
        /// there, and resume it on a fresh world on `resume_workers`.
        fn kill_and_resume(
            seed: u64,
            cell: (f64, f64),
            workers: usize,
            kill: usize,
            resume_workers: usize,
        ) -> Dataset {
            let last = RefCell::new(None);
            let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
            let opts = CrawlOptions::new(CrawlBackend::Serial)
                .checkpoint_every(kill)
                .on_checkpoint(&sink)
                .stop_after_rounds(kill);
            crawler(seed, cell.0, cell.1)
                .run_on(&plan(), opts, workers, |_| {})
                .unwrap();
            let ckpt = last.into_inner().expect("a checkpoint at the kill");
            let opts = CrawlOptions::new(CrawlBackend::Serial).resume(ckpt);
            crawler(seed, cell.0, cell.1)
                .run_on(&plan(), opts, resume_workers, |_| {})
                .unwrap()
        }

        proptest! {
            /// `workers` = 44 is one worker per machine; above 44 the
            /// executor clamps.
            #[test]
            fn every_worker_count_reproduces_the_inline_crawl(
                seed in 0u64..1_000,
                workers in 1usize..65,
                drop_i in 0usize..3,
                corrupt_i in 0usize..3,
                kill in 1usize..9,
                resume_workers in 1usize..65,
            ) {
                let cell = (DROPS[drop_i], CORRUPTS[corrupt_i]);
                let (json, trace, metrics) = observe(seed, cell, 1);
                let (w_json, w_trace, w_metrics) = observe(seed, cell, workers);
                prop_assert_eq!(&w_json, &json, "seed={} workers={} cell={:?}", seed, workers, cell);
                prop_assert_eq!(w_trace, trace, "trace: seed={} workers={}", seed, workers);
                prop_assert_eq!(w_metrics, metrics, "metrics: seed={} workers={}", seed, workers);
                let resumed = kill_and_resume(seed, cell, workers, kill, resume_workers);
                prop_assert_eq!(
                    resumed.to_json(), json,
                    "seed={} killed at {} on {} workers, resumed on {}",
                    seed, kill, workers, resume_workers
                );
            }
        }
    }

    #[test]
    fn a_panicking_fetch_fails_the_round_instead_of_hanging_it() {
        let fetch = |_: &(), i: usize| assert_ne!(i, 7, "fetch 7 fails");
        for workers in [1, 3] {
            let outcome = std::panic::catch_unwind(|| {
                std::thread::scope(|scope| {
                    Executor::start(scope, workers, MACHINES, &fetch).round((), 20, || {});
                })
            });
            assert!(outcome.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn backends_size_the_executor_from_the_host() {
        assert_eq!(CrawlBackend::Serial.workers(), 1);
        assert_eq!(
            CrawlBackend::WorkerPool.workers(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(CrawlBackend::from_plan_flag(false), CrawlBackend::Serial);
        assert_eq!(CrawlBackend::from_plan_flag(true), CrawlBackend::WorkerPool);
    }
}
