//! Completed-span log stamped from the virtual clock.
//!
//! Spans are recorded *after* they finish (start + duration in virtual
//! milliseconds), with explicit parent IDs so nesting survives thread and
//! process boundaries — a router's request span owns the shard RPCs that
//! replicas serve on other threads. A crawl records one root span per
//! lock-step round, on the scheduler thread. IDs are allocated from an
//! atomic counter or derived from a trace context, so raw IDs need not
//! follow content order; the Chrome exporter
//! ([`assemble_chrome_trace`](crate::assemble_chrome_trace)) renumbers
//! deterministically.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// A finished span. All timestamps are virtual-clock milliseconds; the only
/// host-time field is the clearly-marked optional [`SpanRecord::wall_us`],
/// which exporters exclude from deterministic output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span ID (unique within one [`SpanLog`], allocation-ordered).
    pub id: u64,
    /// Parent span ID, or 0 for a root span.
    pub parent: u64,
    /// Human-readable name, e.g. `round Coffee @County`. `Cow` so fixed
    /// names (the serve tier's stage spans) record without allocating.
    pub name: Cow<'static, str>,
    /// Category, e.g. `crawler.round`, `serve.request` or `serve.stage`.
    /// Always a literal at the recording site, so no allocation.
    pub cat: &'static str,
    /// Logical track within the process. Every span recorded today is on
    /// track 0; the field is kept because the `/spans` collector document
    /// carries it.
    pub tid: u32,
    /// Virtual start time in milliseconds.
    pub start_ms: u64,
    /// Virtual duration in milliseconds.
    pub dur_ms: u64,
    /// Extra key/value annotations (deterministic content only). Keys are
    /// literals; only values may be computed.
    pub args: Vec<(&'static str, String)>,
    /// Optional host wall-clock duration in microseconds. Never part of
    /// deterministic exports or digests.
    pub wall_us: Option<u64>,
}

#[derive(Debug, Default)]
struct SpanBuf {
    spans: VecDeque<SpanRecord>,
    /// Total spans ever recorded, including any evicted from the ring.
    total: u64,
}

/// Bounded ring buffer of completed spans plus an ID allocator.
///
/// The buffer and its total-recorded count live under a single mutex so a
/// snapshot always observes a consistent pair.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    capacity: usize,
    next_id: AtomicU64,
    buf: Mutex<SpanBuf>,
}

impl SpanLog {
    /// An enabled log keeping at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span log capacity must be positive");
        Self {
            enabled: true,
            capacity,
            next_id: AtomicU64::new(1),
            buf: Mutex::new(SpanBuf::default()),
        }
    }

    /// A log that discards every record (IDs still allocate, cheaply).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: 1,
            next_id: AtomicU64::new(1),
            buf: Mutex::new(SpanBuf::default()),
        }
    }

    /// Whether records are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocate a fresh span ID (valid even on a disabled log, so callers
    /// never need to branch).
    #[inline]
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span, evicting the oldest if the ring is full.
    pub fn record(&self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        let mut buf = self.buf.lock();
        if buf.spans.len() == self.capacity {
            buf.spans.pop_front();
        }
        buf.spans.push_back(span);
        buf.total += 1;
    }

    /// Copy of the retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.buf.lock().spans.iter().cloned().collect()
    }

    /// Total spans ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.buf.lock().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Owned(name.to_string()),
            cat: "crawler.round",
            tid: 0,
            start_ms: id * 10,
            dur_ms: 5,
            args: vec![],
            wall_us: None,
        }
    }

    #[test]
    fn records_in_order_and_counts_total() {
        let log = SpanLog::new(8);
        for i in 0..3 {
            let id = log.alloc_id();
            log.record(span(id, 0, &format!("s{i}")));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "s0");
        assert_eq!(snap[2].name, "s2");
        assert_eq!(log.total_recorded(), 3);
    }

    #[test]
    fn ring_evicts_oldest_but_total_keeps_counting() {
        let log = SpanLog::new(2);
        for i in 1..=5u64 {
            log.record(span(i, 0, &format!("s{i}")));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "s4");
        assert_eq!(snap[1].name, "s5");
        assert_eq!(log.total_recorded(), 5);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let log = SpanLog::new(1024);
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).map(|_| log.alloc_id()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpanLog::new(0);
    }
}
