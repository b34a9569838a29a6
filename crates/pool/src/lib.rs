//! Deterministic work sharding, shared by the crawler and the analysis
//! pipeline.
//!
//! Two layers live here:
//!
//! 1. [`ShardedPool`] — the persistent channel-fed worker machinery that
//!    used to live inside `geoserp-crawler`: one long-lived worker per
//!    shard, jobs partitioned round-robin by stable task index, results
//!    funneled back tagged with their index. The crawler keeps its
//!    per-machine pipelined rounds on top of this.
//! 2. [`DetPool::map_indexed`] — a one-shot `map` over a slice: tasks are
//!    statically sharded by index (worker *w* takes every *n*-th task),
//!    results are reassembled in index order. Because the shard function is
//!    a pure function of the task index and results are placed by index,
//!    the output is byte-identical for every worker count, including
//!    inline execution.
//!
//! Determinism contract: nothing in this crate introduces ordering,
//! timing, or RNG dependence. Callers must keep each task's computation a
//! pure function of `(index, task)` — in particular, per-task RNG must be
//! derived from a per-task seed, never threaded across tasks.

#![warn(missing_docs)]

use geoserp_obs::ObsHub;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::Scope;

/// Worker-count policy for the analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workers {
    /// Use the host's available parallelism.
    Auto,
    /// Exactly this many workers (0 and 1 both mean inline execution).
    Fixed(usize),
}

impl Workers {
    /// Parse a CLI value: `auto` or a worker count.
    pub fn parse(s: &str) -> Result<Workers, String> {
        match s {
            "auto" => Ok(Workers::Auto),
            n => n
                .parse::<usize>()
                .map(Workers::Fixed)
                .map_err(|_| format!("expected auto|N, got {n:?}")),
        }
    }

    /// The thread count this policy resolves to on this host.
    pub fn resolve(self) -> usize {
        match self {
            Workers::Fixed(n) => n,
            Workers::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl std::fmt::Display for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workers::Auto => write!(f, "auto"),
            Workers::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// A deterministic `map` executor: fixed worker count, static index
/// sharding, index-ordered reassembly.
#[derive(Debug, Clone, Copy)]
pub struct DetPool {
    workers: usize,
}

impl DetPool {
    /// A pool following `workers` (resolved once, here).
    pub fn new(workers: Workers) -> Self {
        DetPool {
            workers: workers.resolve(),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `items`, returning results in item order regardless of
    /// the worker count. Worker `w` of `n` computes every index `i` with
    /// `i % n == w`; results are scattered back into their index slot, so
    /// the output is byte-identical to `items.iter().enumerate().map(f)`.
    ///
    /// When a hub is given, records under `pool.<name>.*`: the
    /// deterministic task counter, plus worker-count / shard-size /
    /// per-task-latency metrics (the latter carry the `_wall_` marker and
    /// are stripped from deterministic snapshots, like every other host
    /// timing).
    pub fn map_indexed<T, R, F>(
        &self,
        name: &str,
        obs: Option<&ObsHub>,
        items: &[T],
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = self.workers.min(items.len());
        if let Some(hub) = obs {
            hub.metrics()
                .counter(&format!("pool.{name}.tasks"))
                .add(items.len() as u64);
            hub.metrics()
                .gauge(&format!("pool.{name}.workers"))
                .set(n.max(1) as i64);
        }
        if n <= 1 {
            let started = std::time::Instant::now();
            let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            if let Some(hub) = obs {
                hub.metrics()
                    .histogram(&format!("pool.{name}.shard_size"))
                    .observe(items.len() as u64);
                hub.metrics()
                    .gauge(&format!("pool.{name}.w0_busy_wall_us"))
                    .set(started.elapsed().as_micros() as i64);
            }
            return out;
        }

        let task_wall = obs.map(|hub| {
            hub.metrics()
                .histogram(&format!("pool.{name}.task_wall_us"))
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let f = &f;
            let task_wall = task_wall.as_ref();
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    scope.spawn(move || {
                        let shard_started = std::time::Instant::now();
                        let mut out = Vec::with_capacity(items.len() / n + 1);
                        let mut i = w;
                        while i < items.len() {
                            if let Some(h) = task_wall {
                                let t0 = std::time::Instant::now();
                                let r = f(i, &items[i]);
                                h.observe(t0.elapsed().as_micros() as u64);
                                out.push((i, r));
                            } else {
                                out.push((i, f(i, &items[i])));
                            }
                            i += n;
                        }
                        (out, shard_started.elapsed().as_micros())
                    })
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                let (results, busy_us) = handle.join().expect("a pool worker panicked");
                if let Some(hub) = obs {
                    hub.metrics()
                        .histogram(&format!("pool.{name}.shard_size"))
                        .observe(results.len() as u64);
                    hub.metrics()
                        .gauge(&format!("pool.{name}.w{w}_busy_wall_us"))
                        .set(busy_us as i64);
                }
                for (i, r) in results {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }
}

/// Persistent channel-fed workers: one long-lived thread per shard, jobs
/// partitioned round-robin by their stable index, results funneled back
/// `(index, result)`. Extracted from the crawler's per-machine pool so the
/// same machinery can back any sharded, index-deterministic workload.
pub struct ShardedPool<J: Send, R: Send> {
    /// Per-shard job queues.
    job_txs: Vec<mpsc::Sender<Vec<(usize, J)>>>,
    /// Results funnel shared by all workers.
    results_rx: mpsc::Receiver<(usize, R)>,
}

impl<J: Send, R: Send> ShardedPool<J, R> {
    /// Spawn `shards` workers as scoped threads. Each worker `w` runs
    /// `run(w, index, job)` for every job dispatched to its shard, strictly
    /// in dispatch order. Workers exit when the pool (and with it the job
    /// senders) drops.
    pub fn start<'scope, 'env, F>(scope: &'scope Scope<'scope, 'env>, shards: usize, run: F) -> Self
    where
        J: 'scope,
        R: 'scope,
        F: Fn(usize, usize, J) -> R + Send + Sync + 'env,
    {
        assert!(shards > 0, "a sharded pool needs at least one worker");
        let run = Arc::new(run);
        let (results_tx, results_rx) = mpsc::channel::<(usize, R)>();
        let mut job_txs = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<Vec<(usize, J)>>();
            job_txs.push(tx);
            let results_tx = results_tx.clone();
            let run = Arc::clone(&run);
            scope.spawn(move || {
                // Per-shard FIFO: batches arrive in dispatch order and jobs
                // within a batch are pre-sorted by index, so each shard's
                // processing order is a pure function of the dispatch.
                while let Ok(batch) = rx.recv() {
                    for (index, job) in batch {
                        let out = run(shard, index, job);
                        if results_tx.send((index, out)).is_err() {
                            return; // scheduler gone; shut down
                        }
                    }
                }
            });
        }
        // Workers hold the only result senders; `collect` can then detect a
        // dead pool instead of blocking forever.
        drop(results_tx);
        ShardedPool {
            job_txs,
            results_rx,
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.job_txs.len()
    }

    /// Queue one batch of jobs, shard `index % shards`. Returns the number
    /// of results to [`collect`](Self::collect).
    pub fn dispatch(&self, jobs: impl IntoIterator<Item = J>) -> usize {
        let n = self.job_txs.len();
        let mut batches: Vec<Vec<(usize, J)>> = (0..n).map(|_| Vec::new()).collect();
        let mut total = 0;
        for (index, job) in jobs.into_iter().enumerate() {
            batches[index % n].push((index, job));
            total += 1;
        }
        for (tx, batch) in self.job_txs.iter().zip(batches) {
            if !batch.is_empty() {
                tx.send(batch).expect("worker alive while pool exists");
            }
        }
        total
    }

    /// Barrier: wait for exactly `expected` results (arrival order).
    pub fn collect(&self, expected: usize) -> Vec<(usize, R)> {
        (0..expected)
            .map(|_| self.results_rx.recv().expect("a pool worker died"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_parse_roundtrip() {
        assert_eq!(Workers::parse("auto"), Ok(Workers::Auto));
        assert_eq!(Workers::parse("4"), Ok(Workers::Fixed(4)));
        assert!(Workers::parse("four").is_err());
        assert_eq!(
            Workers::parse("serial"),
            Err("expected auto|N, got \"serial\"".to_string())
        );
        for w in [Workers::Auto, Workers::Fixed(3)] {
            assert_eq!(Workers::parse(&w.to_string()), Ok(w));
        }
    }

    #[test]
    fn workers_resolve() {
        assert_eq!(Workers::Fixed(5).resolve(), 5);
        assert!(Workers::Auto.resolve() >= 1);
    }

    #[test]
    fn map_indexed_matches_serial_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| (i as u64) * 1_000 + x * x;
        let reference: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for workers in [0, 1, 2, 3, 7, 8, 300] {
            let pool = DetPool::new(Workers::Fixed(workers));
            assert_eq!(
                pool.map_indexed("test", None, &items, f),
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        let pool = DetPool::new(Workers::Fixed(4));
        assert_eq!(
            pool.map_indexed("t", None, &[] as &[u8], |_, _| 0u8),
            vec![]
        );
        assert_eq!(
            pool.map_indexed("t", None, &[9u8], |i, x| (i, *x)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn map_indexed_records_pool_metrics() {
        let hub = ObsHub::new();
        let items: Vec<u32> = (0..10).collect();
        DetPool::new(Workers::Fixed(3)).map_indexed("unit", Some(&hub), &items, |_, x| x + 1);
        let snap = hub.snapshot();
        assert_eq!(snap.counters.get("pool.unit.tasks"), Some(&10));
        assert_eq!(snap.gauges.get("pool.unit.workers"), Some(&3));
        let shards = snap.histograms.get("pool.unit.shard_size").unwrap();
        assert_eq!(shards.count, 3, "one shard-size sample per worker");
        assert_eq!(shards.sum, 10, "shards partition the tasks");
        assert!(snap.gauges.contains_key("pool.unit.w0_busy_wall_us"));
        // Worker-utilization metrics are host timings: deterministic
        // snapshots must not see them.
        let det = snap.deterministic();
        assert!(det.gauges.contains_key("pool.unit.workers"));
        assert!(!det.gauges.keys().any(|k| k.contains("_busy_wall_")));
        assert!(!det.histograms.contains_key("pool.unit.task_wall_us"));
    }

    #[test]
    fn sharded_pool_round_trips_batches_in_index_order() {
        std::thread::scope(|scope| {
            let pool: ShardedPool<u32, u32> = ShardedPool::start(scope, 3, |_, _, x| x * 2);
            for round in 0..5u32 {
                let n = pool.dispatch((0..10).map(|i| round * 100 + i));
                assert_eq!(n, 10);
                let mut results = pool.collect(n);
                results.sort_by_key(|(i, _)| *i);
                for (i, (idx, out)) in results.into_iter().enumerate() {
                    assert_eq!(idx, i);
                    assert_eq!(out, (round * 100 + i as u32) * 2);
                }
            }
            drop(pool); // hang up the job channels so the scope can join
        });
    }

    #[test]
    fn sharded_pool_passes_shard_and_index() {
        std::thread::scope(|scope| {
            let pool: ShardedPool<(), (usize, usize)> =
                ShardedPool::start(scope, 4, |shard, index, ()| (shard, index));
            let n = pool.dispatch(std::iter::repeat_n((), 9));
            let mut results = pool.collect(n);
            results.sort_by_key(|(i, _)| *i);
            for (index, (shard, seen_index)) in results.into_iter().map(|(_, r)| r).enumerate() {
                assert_eq!(seen_index, index);
                assert_eq!(shard, index % 4, "round-robin sharding by index");
            }
            drop(pool);
        });
    }
}
