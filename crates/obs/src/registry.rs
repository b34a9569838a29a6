//! Named counters, gauges, and log-bucketed histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved once through
//! the [`MetricsRegistry`] (which takes a short write lock) and then shared as
//! `Arc`s; every subsequent increment/observe is lock-free atomics. A
//! disabled registry hands out unregistered no-op handles so hot paths cost a
//! single branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Number of buckets in a [`Histogram`]: log2 scale with **2 linear
/// sub-steps per octave**, so relative resolution is ~50% everywhere
/// instead of 2× — a 1.0 ms and a 1.9 ms serve stage no longer collapse
/// into one bucket. Bucket 0 holds the value 0, bucket 1 holds the value
/// 1; for `v >= 2` with `k = floor(log2 v)`, the octave `[2^k, 2^(k+1))`
/// splits at `1.5 * 2^k` into buckets `2k` and `2k+1`. 126 buckets cover
/// the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 126;

fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        1 => 1,
        v => {
            let k = 63 - v.leading_zeros() as usize;
            let half = (1u64 << k) + (1u64 << (k - 1));
            let sub = usize::from(v >= half);
            (2 * k + sub).min(HISTOGRAM_BUCKETS - 1)
        }
    }
}

/// Inclusive upper bound of bucket `i` (saturating for the overflow bucket).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i == 1 {
        1
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        let k = i / 2;
        if i.is_multiple_of(2) {
            // Lower half-octave: [2^k, 1.5 * 2^k).
            (1u64 << k) + (1u64 << (k - 1)) - 1
        } else {
            // Upper half-octave: [1.5 * 2^k, 2^(k+1)).
            (1u64 << (k + 1)) - 1
        }
    }
}

#[derive(Debug)]
struct CounterCell {
    enabled: bool,
    value: AtomicU64,
}

/// A monotonically increasing named counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    pub(crate) fn new(enabled: bool) -> Self {
        Self(Arc::new(CounterCell {
            enabled,
            value: AtomicU64::new(0),
        }))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.enabled {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct GaugeCell {
    enabled: bool,
    value: AtomicI64,
}

/// A named gauge holding the last value set.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    fn new(enabled: bool) -> Self {
        Self(Arc::new(GaugeCell {
            enabled,
            value: AtomicI64::new(0),
        }))
    }

    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.0.enabled {
            self.0.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adjust the gauge by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.0.enabled {
            self.0.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    enabled: bool,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

/// A bucketed histogram of non-negative integer samples (typically
/// latencies in virtual milliseconds or wall-clock microseconds), on a
/// log2 scale with two linear sub-steps per octave (see
/// [`HISTOGRAM_BUCKETS`]). Observation is lock-free.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    fn new(enabled: bool) -> Self {
        Self(Arc::new(HistogramCell {
            enabled,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }))
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        if !self.0.enabled {
            return;
        }
        let cell = &*self.0;
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: an add that overflowed pins the sum at
        // u64::MAX, and every later add overflows again and re-pins it.
        if cell
            .sum
            .fetch_add(value, Ordering::Relaxed)
            .checked_add(value)
            .is_none()
        {
            cell.sum.store(u64::MAX, Ordering::Relaxed);
        }
        cell.max.fetch_max(value, Ordering::Relaxed);
        cell.min.fetch_min(value, Ordering::Relaxed);
    }

    /// Snapshot this histogram (count, sum, min/max, approximate quantiles).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        let buckets: Vec<u64> = cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = cell.count.load(Ordering::Relaxed);
        let sum = cell.sum.load(Ordering::Relaxed);
        let max = cell.max.load(Ordering::Relaxed);
        let min = if count == 0 {
            0
        } else {
            cell.min.load(Ordering::Relaxed)
        };
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return bucket_upper_bound(i).min(max);
                }
            }
            max
        };
        let nonzero: Vec<(u64, u64)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (bucket_upper_bound(i), *n))
            .collect();
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets: nonzero,
        }
    }
}

/// Point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate 50th percentile (bucket upper bound, clamped to max).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Registry of named metrics. Dotted lowercase names (`net.requests`,
/// `crawler.backoff_ms`) group metrics by pipeline stage; names containing
/// the `_wall_` marker are understood to hold host wall-clock measurements
/// and are excluded from [`MetricsSnapshot::deterministic`].
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    inner: RwLock<RegistryInner>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        Self {
            enabled: true,
            inner: RwLock::new(RegistryInner::default()),
        }
    }

    /// A registry whose handles all discard writes and which snapshots empty.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            inner: RwLock::new(RegistryInner::default()),
        }
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::new(false);
        }
        if let Some(c) = self.inner.read().counters.get(name) {
            return c.clone();
        }
        self.inner
            .write()
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter::new(true))
            .clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::new(false);
        }
        if let Some(g) = self.inner.read().gauges.get(name) {
            return g.clone();
        }
        self.inner
            .write()
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge::new(true))
            .clone()
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::new(false);
        }
        if let Some(h) = self.inner.read().histograms.get(name) {
            return h.clone();
        }
        self.inner
            .write()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(true))
            .clone()
    }

    /// Snapshot every registered metric, keys sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Marker substring identifying wall-clock (non-deterministic) metric names.
pub const WALL_MARKER: &str = "_wall_";

/// Point-in-time view of a whole [`MetricsRegistry`]. `BTreeMap` keys make
/// serialization order deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A copy with every wall-clock metric (name containing [`WALL_MARKER`])
    /// removed. Two instrumented runs that are virtually identical must
    /// produce equal deterministic snapshots regardless of backend or host.
    pub fn deterministic(&self) -> MetricsSnapshot {
        let keep = |k: &String| !k.contains(WALL_MARKER);
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Render in the Prometheus text exposition format. Metric names are
    /// sanitized (`.` and other non-alphanumerics become `_`) and prefixed
    /// with `geoserp_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE geoserp_{n} counter\n"));
            out.push_str(&format!("geoserp_{n} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE geoserp_{n} gauge\n"));
            out.push_str(&format!("geoserp_{n} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE geoserp_{n} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in &h.buckets {
                cumulative += count;
                out.push_str(&format!(
                    "geoserp_{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!("geoserp_{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("geoserp_{n}_sum {}\n", h.sum));
            out.push_str(&format!("geoserp_{n}_count {}\n", h.count));
        }
        out
    }

    /// Serialize to pretty JSON (stable key order via `BTreeMap`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parse a snapshot previously written by [`Self::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid metrics snapshot: {e:?}"))
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2_with_two_linear_substeps() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(6), 5);
        assert_eq!(bucket_index(7), 5);
        // 1.0 ms vs 1.9 ms (in µs) land in different buckets now.
        assert_ne!(bucket_index(1000), bucket_index(1900));
        assert_eq!(bucket_index(1023), 19);
        assert_eq!(bucket_index(1024), 20);
        assert_eq!(bucket_index(1535), 20);
        assert_eq!(bucket_index(1536), 21);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 2);
        assert_eq!(bucket_upper_bound(3), 3);
        assert_eq!(bucket_upper_bound(19), 1023);
        assert_eq!(bucket_upper_bound(20), 1535);
        assert_eq!(bucket_upper_bound(21), 2047);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value maps into a bucket whose bound contains it.
        for v in (0u64..4096).chain([u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("net.requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-resolving the same name yields the same underlying cell.
        reg.counter("net.requests").inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("pool.size");
        g.set(44);
        g.add(-2);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_quantiles_track_samples() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("net.rtt_ms");
        for v in [1u64, 2, 3, 40, 41, 42, 80, 120, 500, 900] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 1729);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 900);
        assert!(s.p50 >= 40 && s.p50 <= 63, "p50={}", s.p50);
        assert!(s.p90 >= 500 && s.p90 <= 900, "p90={}", s.p90);
        assert_eq!(s.p99, 900);
        assert!((s.mean() - 172.9).abs() < 1e-9);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = MetricsRegistry::new().histogram("crawler.backoff_ms");
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(7);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX, "the sum never falls below the max");
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let reg = MetricsRegistry::new();
        let s = reg.histogram("empty").snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                buckets: vec![],
            }
        );
    }

    #[test]
    fn prometheus_export_contains_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.queries").add(7);
        reg.gauge("analysis.fig2_wall_us").set(100);
        let h = reg.histogram("net.rtt_ms");
        h.observe(41);
        h.observe(90);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE geoserp_engine_queries counter"));
        assert!(text.contains("geoserp_engine_queries 7"));
        assert!(text.contains("# TYPE geoserp_analysis_fig2_wall_us gauge"));
        assert!(text.contains("# TYPE geoserp_net_rtt_ms histogram"));
        assert!(text.contains("geoserp_net_rtt_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("geoserp_net_rtt_ms_sum 131"));
        assert!(text.contains("geoserp_net_rtt_ms_count 2"));
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let reg = MetricsRegistry::new();
        reg.counter("crawler.jobs").add(108);
        reg.histogram("net.rtt_ms").observe(40);
        // `Gauge::add` wraps, so a gauge can read either extreme.
        let low = reg.gauge("pool.low");
        low.set(i64::MAX);
        low.add(1);
        assert_eq!(low.get(), i64::MIN);
        reg.gauge("pool.high").set(i64::MAX);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let c = reg.counter("hot");
        let h = reg.histogram("hot_hist");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(i % 100);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }
}
