//! The read paths build no value tree: the peak live heap of a checkpoint
//! load and of a dataset read stays within twice what the call keeps,
//! plus the reader's 64 KiB buffer.
//!
//! The binary installs its own counting allocator and holds one test, so
//! nothing else allocates while a read is measured.

use geoserp::crawler::{CrawlBackend, CrawlCheckpoint, CrawlOptions, Crawler};
use geoserp::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count a move as the new block live beside the old one.
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `read`, returning its value, the bytes it left live and its peak
/// live heap above the starting point.
fn footprint<T>(read: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = read();
    let kept = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (value, kept, peak)
}

fn assert_within_bound(what: &str, kept: usize, peak: usize) {
    let bound = 2 * kept + 64 * 1024;
    eprintln!("{what}: kept {kept} B, peak {peak} B, bound {bound} B");
    assert!(
        peak <= bound,
        "{what}: peak {peak} B > 2 × {kept} B kept + 64 KiB"
    );
}

#[test]
fn reads_peak_within_twice_what_they_keep() {
    let plan = ExperimentPlan::quick();
    let crawler = || Crawler::new(Seed::new(2015));
    let last: RefCell<Option<CrawlCheckpoint>> = RefCell::new(None);
    let sink = |c: &CrawlCheckpoint| *last.borrow_mut() = Some(c.clone());
    let opts = CrawlOptions::new(CrawlBackend::Serial)
        .checkpoint_every(50)
        .on_checkpoint(&sink)
        .stop_after_rounds(50);
    crawler()
        .run_with_options(&plan, opts, |_| {})
        .expect("a partial quick crawl");
    let ckpt = last.into_inner().expect("a checkpoint at round 50");
    let dir = std::env::temp_dir().join(format!("geoserp-footprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quick.ckpt.json");
    ckpt.save(&path).unwrap();
    let dataset_json = crawler()
        .run_with_backend(&plan, CrawlBackend::Serial, |_| {})
        .to_json();
    let digest = ckpt.digest();
    drop(ckpt);

    let (loaded, kept, peak) = footprint(|| CrawlCheckpoint::load(&path).unwrap());
    assert_eq!(loaded.digest(), digest);
    assert_eq!(loaded.completed_rounds, 50);
    drop(loaded);
    assert_within_bound("checkpoint load", kept, peak);

    let (dataset, kept, peak) = footprint(|| Dataset::from_json(&dataset_json).unwrap());
    assert_eq!(dataset.to_json(), dataset_json);
    drop(dataset);
    assert_within_bound("dataset read", kept, peak);
    std::fs::remove_dir_all(&dir).ok();
}
