//! Deterministic work sharding for the analysis pipeline, and the
//! worker-count policy the crawler sizes its executor with.
//!
//! [`DetPool::map_indexed`] is a one-shot `map` over a slice: tasks are
//! statically sharded by index (worker *w* takes every *n*-th task), and
//! results are reassembled in index order. Because the shard function is a
//! pure function of the task index and results are placed by index, the
//! output is byte-identical for every worker count, including inline
//! execution.
//!
//! Determinism contract: nothing in this crate introduces ordering,
//! timing, or RNG dependence. Callers must keep each task's computation a
//! pure function of `(index, task)` — in particular, per-task RNG must be
//! derived from a per-task seed, never threaded across tasks.

#![warn(missing_docs)]

use geoserp_obs::ObsHub;

/// Worker-count policy: the analysis pipeline's `--analysis-workers`, and
/// the host sizing of the crawl executor.
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
}
