//! Integration: a worker-pool crawl runs at most one thread per available
//! CPU beside the scheduler, however many machines it crawls from, and
//! releases them when the run returns.
//!
//! This is a test binary of its own, holding a single test: it counts the
//! whole process's threads (`/proc/self/task`), which only means something
//! while nothing else runs beside it.

use geoserp::crawler::{Crawler, ExperimentPlan};
use geoserp::prelude::*;
use std::cell::Cell;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_worker_pool_crawl_holds_one_thread_per_cpu_and_releases_them() {
    let plan = ExperimentPlan::quick();
    assert!(plan.parallel, "the quick plan runs on the worker pool");
    let crawler = Crawler::new(Seed::new(2015));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let baseline = threads();

    // The progress callback runs on the scheduler thread between rounds,
    // while the run's workers are alive.
    let peak = Cell::new(0);
    let dataset = crawler.run_with_progress(&plan, |_| peak.set(peak.get().max(threads())));
    assert!(!dataset.observations().is_empty());
    assert!(
        peak.get() <= baseline + cpus,
        "{} threads sampled during the crawl: baseline {baseline} + {cpus} CPUs",
        peak.get()
    );

    // `run` joins its workers before returning; the kernel may still be
    // reaping the last of them for a moment after the join.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), baseline, "threads after the crawl vs before");
}
