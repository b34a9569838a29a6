//! Deterministic observability for the geoserp workspace.
//!
//! Two complementary pieces live here:
//!
//! 1. A [`MetricsRegistry`] of named counters, gauges, and log-bucketed
//!    latency histograms. Handles are pre-resolved `Arc`s over atomics, so
//!    incrementing on a hot path is a single relaxed atomic op — no lock is
//!    taken after registration.
//! 2. A [`SpanLog`] of completed spans stamped from the shared virtual
//!    clock (millisecond timestamps), so instrumented runs stay byte-identical
//!    across crawl backends and golden dataset digests are unaffected. A
//!    crawl records one span per lock-step round; a server, a few per
//!    request.
//!
//! Wall-clock measurements are allowed, but only under metric names carrying
//!    the `_wall_` marker; [`MetricsSnapshot::deterministic`] strips them so
//!    determinism comparisons never see host timing.
//!
//! Exporters: Prometheus-style text ([`MetricsSnapshot::to_prometheus`]),
//! a human [`report::render_run_report`] per-stage breakdown table, and
//! Chrome trace-event JSON loadable in Perfetto / `chrome://tracing`.
//!
//! Every Chrome trace goes through the [`trace`] module, which also carries
//! the span log across process boundaries: deterministic [`TraceContext`]s
//! propagate over the serve tier's wire protocol, and
//! [`assemble_chrome_trace`] stitches one or more per-process span logs
//! (a crawl's is one process) into one causally-linked, byte-stable trace.

#![warn(missing_docs)]

pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use report::render_run_report;
pub use span::{SpanLog, SpanRecord};
pub use trace::{
    assemble_chrome_trace, parse_process_spans, process_spans_json, ProcessSpans, Stage,
    TraceContext,
};

/// Default capacity of the bounded span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 18;

/// One hub per crawl world: a metrics registry plus a span log, shared by
/// every instrumented subsystem (net sim, engine, crawler, analysis).
#[derive(Debug)]
pub struct ObsHub {
    metrics: MetricsRegistry,
    spans: SpanLog,
}

impl ObsHub {
    /// A fully-enabled hub (the default for crawls). Its registry counts
    /// the spans the full ring evicts in `obs.spans_dropped`.
    pub fn new() -> Self {
        let metrics = MetricsRegistry::new();
        let spans = SpanLog::new(DEFAULT_SPAN_CAPACITY, metrics.counter("obs.spans_dropped"));
        Self { metrics, spans }
    }

    /// A no-op hub: every handle it hands out discards writes. For callers
    /// that want zero observability cost, and for checking that
    /// instrumentation never changes what it observes.
    pub fn disabled() -> Self {
        Self {
            metrics: MetricsRegistry::disabled(),
            spans: SpanLog::disabled(),
        }
    }

    /// The metrics registry half.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span log half.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_roundtrip() {
        let hub = ObsHub::new();
        hub.metrics().counter("net.requests").inc();
        hub.metrics().gauge("analysis.fig2_wall_us").set(1234);
        hub.metrics().histogram("net.rtt_ms").observe(41);
        let snap = hub.snapshot();
        assert_eq!(snap.counters.get("net.requests"), Some(&1));
        assert_eq!(snap.gauges.get("analysis.fig2_wall_us"), Some(&1234));
        assert_eq!(snap.histograms.get("net.rtt_ms").unwrap().count, 1);
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = ObsHub::disabled();
        hub.metrics().counter("net.requests").inc();
        hub.metrics().histogram("net.rtt_ms").observe(41);
        hub.spans().record(SpanRecord {
            id: hub.spans().alloc_id(),
            parent: 0,
            name: "round".into(),
            cat: "crawler",
            tid: 0,
            start_ms: 0,
            dur_ms: 1,
            args: vec![],
            wall_us: None,
        });
        let snap = hub.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(hub.spans().snapshot().is_empty());
        assert_eq!(hub.spans().total_recorded(), 0);
    }

    #[test]
    fn deterministic_filter_strips_wall_metrics() {
        let hub = ObsHub::new();
        hub.metrics().counter("crawler.jobs").inc();
        hub.metrics().gauge("analysis.fig2_wall_us").set(99);
        hub.metrics()
            .histogram("crawler.checkpoint_wall_us")
            .observe(17);
        let det = hub.snapshot().deterministic();
        assert_eq!(det.counters.get("crawler.jobs"), Some(&1));
        assert!(det.gauges.is_empty());
        assert!(det.histograms.is_empty());
    }
}
