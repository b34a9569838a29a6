//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer's public functions, held in memory and written as one Chrome
//! trace-event file when the run ends.
//!
//! The program's own spans are stamped from the simulation's virtual clock;
//! these are host time, so they show where a run's wall time went. A span
//! records its name, category (the layer), start, duration, and the span
//! that caused it; spans of one job or request share that parent.

use serde_json::{json, Value};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// What ran, e.g. `engine.search`.
    pub name: String,
    /// The layer, e.g. `engine`.
    pub cat: &'static str,
    /// Display row in the trace viewer.
    pub tid: u32,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// An in-memory span log. A disabled recorder keeps nothing, so untraced
/// runs pay one branch per span site.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or discards them.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve an id for a span whose children are recorded before it ends.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span that ran from `start` to `end` under a reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        parent: u64,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            cat,
            tid,
            start_us,
            dur_us,
        });
    }

    /// Record a span that ran from `start` until now; returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
    ) -> u64 {
        let id = self.alloc();
        self.record_as(id, parent, name, cat, 0, start, Instant::now());
        id
    }

    /// The spans kept so far, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render as Chrome trace-event JSON (complete `X` events, µs
    /// timestamps), loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_trace(&self, process: &str) -> String {
        let mut events: Vec<Value> = vec![json!({
            "name": "process_name",
            "ph": "M",
            "pid": 1u32,
            "tid": 0u32,
            "args": json!({ "name": process }),
        })];
        for s in &self.spans {
            events.push(json!({
                "name": s.name.as_str(),
                "cat": s.cat,
                "ph": "X",
                "ts": s.start_us,
                "dur": s.dur_us,
                "pid": 1u32,
                "tid": s.tid,
                "args": json!({ "id": s.id, "parent": s.parent }),
            }));
        }
        serde_json::to_string(&json!({ "traceEvents": events, "displayTimeUnit": "ms" }))
            .expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.record(0, "x", "engine", Instant::now());
        assert!(r.spans().is_empty());
    }

    #[test]
    fn children_point_at_their_parent_and_trace_parses() {
        let mut r = Recorder::new(true);
        let job = r.alloc();
        let started = Instant::now();
        let child = r.record(job, "engine.search", "engine", Instant::now());
        r.record_as(job, 0, "job 0", "crawler", 0, started, Instant::now());
        assert_eq!(r.spans()[0].id, child);
        assert_eq!(r.spans()[0].parent, job);
        assert!(r.spans()[1].dur_us >= r.spans()[0].dur_us);

        let trace: Value = serde_json::from_str(&r.to_chrome_trace("study_full")).unwrap();
        let events = trace["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3, "metadata + two spans");
        assert_eq!(events[1]["ph"].as_str(), Some("X"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(job));
    }
}
