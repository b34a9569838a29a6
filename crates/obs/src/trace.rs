//! Cross-process distributed tracing: deterministic trace contexts, wire
//! propagation, and trace assembly.
//!
//! # Determinism contract
//!
//! A [`TraceContext`] is derived *arithmetically* from the request sequence
//! number (`src_ip << 32 | counter`, the same seq the engine's noise model
//! keys on), never from clocks or allocation order. Span IDs are hashes of
//! the context and a stable label, so they are globally unique across
//! processes **and** byte-stable across runs — which is
//! what lets trace assembly be a plain concatenate-sort-renumber, with
//! causal parent links that survive process boundaries with no rewrite
//! machinery.
//!
//! Span *timestamps* are logical: each request owns a 10-virtual-ms slot
//! (`(seq & 0xffff_ffff) * 10`) and its stages sit at fixed offsets inside
//! the slot ([`Stage`]). Host wall-clock timing rides along in
//! [`SpanRecord::wall_us`] and the `serve.stage.*_wall_us` histograms, and
//! is excluded from every deterministic export.
//!
//! # Propagation
//!
//! Contexts travel as an HTTP header value (the serve tier reserves
//! `X-Geoserp-Trace`; the header *name* constant lives in
//! `geoserp_net::wire` — this crate only defines the value codec):
//!
//! ```text
//! {trace:016x}-{parent_span:016x}-{base_ms:x}
//! ```
//!
//! # Assembly
//!
//! Every server exposes its own span log as a [`ProcessSpans`] JSON
//! document (the `/spans` collector endpoint). A collector pulls one per
//! process — or reads dumped files — and [`assemble_chrome_trace`] merges
//! them into a single Chrome trace with one `pid` row per process, sorted
//! and renumbered by content so the merged document is byte-identical for
//! virtually-identical runs. It is the only Chrome trace writer: a crawl's
//! `--trace-out` is the one-process case, `ProcessSpans::from_records`
//! over the crawler's round spans.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::span::SpanRecord;
use crate::ObsHub;

/// Virtual milliseconds each request's trace slot spans (and the logical
/// duration of its root `request` span).
pub const REQUEST_SLOT_MS: u64 = 10;

/// Logical duration of the root `request` span inside its slot.
pub const REQUEST_DUR_MS: u64 = 8;

/// Logical offset a shard-side RPC starts at inside the parent's slot
/// (the scatter happens at the retrieve stage's offset).
pub const RPC_OFFSET_MS: u64 = 2;

/// The per-request serve stages with fixed logical offsets inside the
/// request's trace slot. Wall-clock durations per stage feed the
/// `serve.stage.<stage>_wall_us` histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accept-to-dispatch wait (connection readiness to routing).
    Queue,
    /// Wire parse of the request head and body.
    Parse,
    /// Retrieval (local index or the scatter to shard replicas).
    Retrieve,
    /// Exact merge of shard parts (router only).
    Merge,
    /// SERP render to page bytes.
    Render,
    /// Response bytes reaching the socket.
    Flush,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Queue,
        Stage::Parse,
        Stage::Retrieve,
        Stage::Merge,
        Stage::Render,
        Stage::Flush,
    ];

    /// Stable stage label (span name and metric suffix).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::Retrieve => "retrieve",
            Stage::Merge => "merge",
            Stage::Render => "render",
            Stage::Flush => "flush",
        }
    }

    /// Logical start offset inside the request slot, virtual ms.
    pub const fn offset_ms(self) -> u64 {
        match self {
            Stage::Queue => 0,
            Stage::Parse => 1,
            Stage::Retrieve => 2,
            Stage::Merge => 4,
            Stage::Render => 5,
            Stage::Flush => 7,
        }
    }

    /// Logical duration, virtual ms.
    pub const fn dur_ms(self) -> u64 {
        match self {
            Stage::Retrieve => 2,
            _ => 1,
        }
    }

    /// Histogram fed with this stage's wall-clock microseconds. The
    /// `_wall_` marker keeps it out of deterministic snapshots.
    pub const fn histogram_name(self) -> &'static str {
        match self {
            Stage::Queue => "serve.stage.queue_wall_us",
            Stage::Parse => "serve.stage.parse_wall_us",
            Stage::Retrieve => "serve.stage.retrieve_wall_us",
            Stage::Merge => "serve.stage.merge_wall_us",
            Stage::Render => "serve.stage.render_wall_us",
            Stage::Flush => "serve.stage.flush_wall_us",
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed injective u64 hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a label, for mixing stable strings into span IDs.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Salt separating trace IDs from every other seq-derived stream.
const TRACE_SALT: u64 = 0x6765_6f73_6572_7001; // "geoserp" | 1

/// The deterministic trace context of one in-flight request: trace ID,
/// current (parent) span ID, and the logical time base of the request's
/// trace slot. `Copy`, so it crosses thread and closure boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace ID shared by every span of one end-to-end request.
    pub trace: u64,
    /// Span ID new child spans parent to.
    pub span: u64,
    /// Logical start of this context's slot, virtual ms.
    pub base_ms: u64,
}

impl TraceContext {
    /// Root context for a request with sequence number `seq`. Both the
    /// trace ID and the root span ID are pure functions of `seq`, so two
    /// runs that assign the same sequence numbers produce identical traces.
    pub fn root(seq: u64) -> TraceContext {
        let trace = mix(seq ^ TRACE_SALT);
        TraceContext {
            trace,
            span: mix(trace ^ fnv1a("root")),
            base_ms: (seq & 0xffff_ffff) * REQUEST_SLOT_MS,
        }
    }

    /// Derive a child context whose `span` is this context's child span
    /// for `label`. Deterministic and label-sensitive.
    pub fn child(&self, label: &str) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self.span_id(label),
            base_ms: self.base_ms,
        }
    }

    /// The (globally unique, deterministic) ID of this context's child
    /// span named `label`.
    pub fn span_id(&self, label: &str) -> u64 {
        let id = mix(self.span ^ fnv1a(label));
        // 0 means "no parent" in SpanRecord; never hand it out.
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Shift the logical time base (e.g. a shard-side RPC starts at the
    /// parent's retrieve offset).
    pub fn at_offset(mut self, off_ms: u64) -> TraceContext {
        self.base_ms += off_ms;
        self
    }

    /// Encode as the `X-Geoserp-Trace` header value.
    pub fn encode(&self) -> String {
        format!("{:016x}-{:016x}-{:x}", self.trace, self.span, self.base_ms)
    }

    /// Parse an `X-Geoserp-Trace` header value. `None` for anything that
    /// does not round-trip through [`TraceContext::encode`].
    pub fn parse(s: &str) -> Option<TraceContext> {
        let mut parts = s.split('-');
        let trace = parts.next().filter(|p| p.len() == 16)?;
        let span = parts.next().filter(|p| p.len() == 16)?;
        let base = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        Some(TraceContext {
            trace: u64::from_str_radix(trace, 16).ok()?,
            span: u64::from_str_radix(span, 16).ok()?,
            base_ms: u64::from_str_radix(base, 16).ok()?,
        })
    }

    /// The trace ID as the 16-hex-digit string spans carry in their args.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace)
    }
}

struct Active {
    ctx: TraceContext,
    hub: Arc<ObsHub>,
}

thread_local! {
    static ACTIVE: RefCell<Vec<Active>> = const { RefCell::new(Vec::new()) };
}

/// Scope guard returned by [`enter`]; leaving the scope restores the
/// previously active context (if any).
#[must_use = "dropping the guard immediately deactivates the context"]
pub struct TraceGuard {
    // !Send so the guard can only drop on the thread that entered.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// Make `ctx` the active trace context of the current thread, recording
/// into `hub`, until the returned guard drops. Instrumentation sites that
/// cannot be handed a hub (the engine's retriever call, a shard service
/// shared by several replica servers) record through this.
pub fn enter(ctx: TraceContext, hub: Arc<ObsHub>) -> TraceGuard {
    ACTIVE.with(|a| a.borrow_mut().push(Active { ctx, hub }));
    TraceGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// The active trace context of the current thread, if any.
pub fn current() -> Option<TraceContext> {
    ACTIVE.with(|a| a.borrow().last().map(|x| x.ctx))
}

/// Record a stage span (and feed its wall-clock histogram) under the
/// active context; no-op without one.
pub fn record_stage(stage: Stage, wall_us: Option<u64>) {
    ACTIVE.with(|a| {
        let a = a.borrow();
        if let Some(active) = a.last() {
            record_stage_with(&active.hub, &active.ctx, stage, wall_us);
        }
    });
}

/// Record a span as a child of `ctx` into `hub`'s span log. The span ID is
/// derived from `(ctx, name)`, so it is deterministic and globally unique.
#[allow(clippy::too_many_arguments)]
pub fn record_span_with(
    hub: &ObsHub,
    ctx: &TraceContext,
    name: Cow<'static, str>,
    cat: &'static str,
    off_ms: u64,
    dur_ms: u64,
    mut args: Vec<(&'static str, String)>,
    wall_us: Option<u64>,
) -> u64 {
    let id = ctx.span_id(&name);
    args.insert(0, ("trace", ctx.trace_hex()));
    hub.spans().record(SpanRecord {
        id,
        parent: ctx.span,
        name,
        cat,
        tid: 0,
        start_ms: ctx.base_ms + off_ms,
        dur_ms,
        args,
        wall_us,
    });
    id
}

/// Record a stage span as a child of `ctx` into `hub`, and observe the
/// stage's wall-clock histogram when a measurement is available.
pub fn record_stage_with(hub: &ObsHub, ctx: &TraceContext, stage: Stage, wall_us: Option<u64>) {
    record_span_with(
        hub,
        ctx,
        Cow::Borrowed(stage.name()),
        "serve.stage",
        stage.offset_ms(),
        stage.dur_ms(),
        Vec::new(),
        wall_us,
    );
    if let Some(w) = wall_us {
        hub.metrics().histogram(stage.histogram_name()).observe(w);
    }
}

/// One span as it travels between processes (the `/spans` document and
/// dump files). Deterministic fields only — wall-clock timing never
/// crosses the collector boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanDto {
    /// Span ID (hash-derived, globally unique for traced spans).
    pub id: u64,
    /// Parent span ID, 0 for roots. May refer into another process.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Span category.
    pub cat: String,
    /// Logical track within the process.
    pub tid: u32,
    /// Logical start, virtual ms.
    pub start_ms: u64,
    /// Logical duration, virtual ms.
    pub dur_ms: u64,
    /// Deterministic key/value annotations.
    pub args: Vec<(String, String)>,
}

impl SpanDto {
    /// Convert a local record for export (drops wall-clock timing).
    pub fn from_record(s: &SpanRecord) -> SpanDto {
        SpanDto {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            cat: s.cat.to_string(),
            tid: s.tid,
            start_ms: s.start_ms,
            dur_ms: s.dur_ms,
            args: s
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// One process's span log, named for its row in the assembled trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessSpans {
    /// Process name (`router`, `shard0.r1`, `serve`, …).
    pub process: String,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanDto>,
}

impl ProcessSpans {
    /// Wrap a local span log for assembly or export.
    pub fn from_records(process: &str, spans: &[SpanRecord]) -> ProcessSpans {
        ProcessSpans {
            process: process.to_string(),
            spans: spans.iter().map(SpanDto::from_record).collect(),
        }
    }
}

/// Render one process's spans as the `/spans` collector document.
pub fn process_spans_json(process: &str, spans: &[SpanRecord]) -> String {
    serde_json::to_string_pretty(&ProcessSpans::from_records(process, spans))
        .expect("process spans serialize")
}

/// Parse a `/spans` document (or a dumped spans file), reading its bytes
/// in place.
///
/// # Errors
/// A description of the JSON or shape mismatch.
pub fn parse_process_spans(doc: &[u8]) -> Result<ProcessSpans, String> {
    serde_json::from_slice(doc).map_err(|e| format!("invalid process spans: {e:?}"))
}

/// Nesting depth via the parent chain across every process (missing or
/// evicted parents terminate; cycles are cut at 64).
fn depth_of(span: &SpanDto, by_id: &HashMap<u64, &SpanDto>) -> u32 {
    let mut depth = 0;
    let mut parent = span.parent;
    while parent != 0 && depth < 64 {
        match by_id.get(&parent) {
            Some(p) => {
                depth += 1;
                parent = p.parent;
            }
            None => break,
        }
    }
    depth
}

/// Stitch per-process span logs into one deterministic Chrome trace.
///
/// Processes are sorted by name and assigned `pid` rows in that order
/// (with `process_name` metadata events); spans are sorted by
/// deterministic content — `(start_ms, depth, pid, tid, name, args)` —
/// then renumbered from 1 in sorted order, with parent links (including
/// cross-process ones) rewritten through the same mapping; a parent that
/// is in no process's log (evicted from its ring) renders as 0. Raw IDs
/// therefore never reach the output, and neither does wall-clock timing:
/// the document is byte-identical for virtually-identical runs regardless
/// of socket timing, crawl worker count or span-ID allocation order.
pub fn assemble_chrome_trace(processes: &[ProcessSpans]) -> String {
    let mut order: Vec<&ProcessSpans> = processes.iter().collect();
    order.sort_by(|a, b| a.process.cmp(&b.process));

    let mut tagged: Vec<(u32, &SpanDto)> = Vec::new();
    for (i, p) in order.iter().enumerate() {
        for s in &p.spans {
            tagged.push((i as u32 + 1, s));
        }
    }
    let by_id: HashMap<u64, &SpanDto> = tagged.iter().map(|(_, s)| (s.id, *s)).collect();
    tagged.sort_by(|(pa, a), (pb, b)| {
        let ka = (
            a.start_ms,
            depth_of(a, &by_id),
            *pa,
            a.tid,
            &a.name,
            &a.args,
        );
        let kb = (
            b.start_ms,
            depth_of(b, &by_id),
            *pb,
            b.tid,
            &b.name,
            &b.args,
        );
        ka.cmp(&kb)
    });
    let renumber: HashMap<u64, u64> = tagged
        .iter()
        .enumerate()
        .map(|(i, (_, s))| (s.id, i as u64 + 1))
        .collect();

    let mut events: Vec<Value> = order
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut args = serde_json::Map::new();
            args.insert("name".to_string(), json!(p.process));
            json!({
                "name": "process_name",
                "ph": "M",
                "pid": i as u32 + 1,
                "tid": 0u32,
                "args": Value::Object(args),
            })
        })
        .collect();
    events.extend(tagged.iter().map(|(pid, s)| {
        let mut args = serde_json::Map::new();
        args.insert("id".to_string(), json!(renumber[&s.id]));
        args.insert(
            "parent".to_string(),
            json!(renumber.get(&s.parent).copied().unwrap_or(0)),
        );
        for (k, v) in &s.args {
            args.insert(k.clone(), json!(v));
        }
        json!({
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "ts": s.start_ms * 1000,
            "dur": s.dur_ms * 1000,
            "pid": pid,
            "tid": s.tid,
            "args": Value::Object(args),
        })
    }));
    let doc = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    });
    serde_json::to_string_pretty(&doc).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_context_is_a_pure_function_of_seq() {
        let a = TraceContext::root(42);
        let b = TraceContext::root(42);
        assert_eq!(a, b);
        assert_ne!(a.trace, TraceContext::root(43).trace);
        assert_eq!(a.base_ms, 42 * REQUEST_SLOT_MS);
        // The counter half drives the slot even behind a src prefix.
        let seq = (0x0a09_0001u64 << 32) | 7;
        assert_eq!(TraceContext::root(seq).base_ms, 7 * REQUEST_SLOT_MS);
    }

    #[test]
    fn child_derivation_is_stable_and_label_sensitive() {
        let root = TraceContext::root(1);
        let a = root.child("retrieve");
        assert_eq!(a, root.child("retrieve"));
        assert_ne!(a.span, root.child("suggest").span);
        assert_eq!(a.trace, root.trace);
        assert_eq!(a.span, root.span_id("retrieve"));
    }

    #[test]
    fn header_value_roundtrips() {
        let ctx = TraceContext::root(0x0a09_0001_0000_0003).child("s0.try0");
        let encoded = ctx.encode();
        assert_eq!(TraceContext::parse(&encoded), Some(ctx));
        assert_eq!(TraceContext::parse(""), None);
        assert_eq!(TraceContext::parse("zz-1-2"), None);
        assert_eq!(
            TraceContext::parse("0123456789abcdef-0123456789abcdef"),
            None
        );
        assert_eq!(
            TraceContext::parse("0123456789abcdef-0123456789abcdef-a-b"),
            None
        );
    }

    #[test]
    fn enter_scopes_the_active_context() {
        assert_eq!(current(), None);
        let hub = Arc::new(ObsHub::new());
        let root = TraceContext::root(5);
        {
            let _g = enter(root, Arc::clone(&hub));
            assert_eq!(current(), Some(root));
            record_stage(Stage::Parse, Some(17));
        }
        assert_eq!(current(), None);
        record_stage(Stage::Queue, Some(99)); // no-op outside a scope
        let spans = hub.spans().snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "parse");
        assert_eq!(spans[0].parent, root.span);
        assert_eq!(spans[0].start_ms, root.base_ms + Stage::Parse.offset_ms());
        assert_eq!(spans[0].wall_us, Some(17));
        let snap = hub.snapshot();
        let h = snap.histograms.get("serve.stage.parse_wall_us").unwrap();
        assert_eq!((h.count, h.max), (1, 17));
        assert!(!snap.histograms.contains_key("serve.stage.queue_wall_us"));
    }

    #[test]
    fn process_spans_roundtrip() {
        let hub = ObsHub::new();
        let ctx = TraceContext::root(9);
        record_span_with(
            &hub,
            &ctx,
            Cow::Borrowed("merge"),
            "router.merge",
            4,
            1,
            vec![("candidates", "12".into())],
            Some(33),
        );
        let json = process_spans_json("router", &hub.spans().snapshot());
        assert!(
            !json.contains("wall"),
            "wall timing must not cross the wire"
        );
        let parsed = parse_process_spans(json.as_bytes()).unwrap();
        assert_eq!(parsed.process, "router");
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].name, "merge");
        assert_eq!(parsed.spans[0].args[0], ("trace".into(), ctx.trace_hex()));
        assert!(parse_process_spans(b"{not json").is_err());
    }

    #[test]
    fn assembly_links_spans_across_processes_and_is_order_invariant() {
        let root = TraceContext::root(3);
        // The attempt context's label IS the rpc span's name, so the
        // shard-side spans parent to the router's rpc span exactly.
        let rpc = root.child("retrieve").child("rpc s0.r1 #0");

        let router_hub = ObsHub::new();
        record_span_with(
            &router_hub,
            &root,
            Cow::Borrowed("request /search"),
            "serve.request",
            0,
            REQUEST_DUR_MS,
            Vec::new(),
            None,
        );
        let shard_hub = ObsHub::new();
        // Shard-side span parents to the router's rpc child span.
        record_stage_with(
            &shard_hub,
            &rpc.at_offset(RPC_OFFSET_MS),
            Stage::Retrieve,
            None,
        );
        // The rpc span itself, router-side, with host timing attached.
        record_span_with(
            &router_hub,
            &root.child("retrieve"),
            Cow::Owned("rpc s0.r1 #0".into()),
            "router.rpc",
            2,
            1,
            vec![("outcome", "win".into())],
            Some(41),
        );
        // A span whose parent is in no log (evicted from its ring).
        record_span_with(
            &router_hub,
            &TraceContext::root(99),
            Cow::Borrowed("orphan"),
            "serve.request",
            0,
            REQUEST_DUR_MS,
            Vec::new(),
            Some(7),
        );

        let router = parse_process_spans(
            process_spans_json("router", &router_hub.spans().snapshot()).as_bytes(),
        )
        .unwrap();
        let shard = parse_process_spans(
            process_spans_json("shard0.r1", &shard_hub.spans().snapshot()).as_bytes(),
        )
        .unwrap();

        let a = assemble_chrome_trace(&[router.clone(), shard.clone()]);
        let b = assemble_chrome_trace(&[shard, router]);
        assert_eq!(a, b, "assembly is invariant to pull order");
        assert!(!a.contains("wall"), "host timing leaked into the trace");

        let doc: Value = serde_json::from_str(&a).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // 2 process_name metadata events + 4 spans.
        assert_eq!(events.len(), 6);
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        assert_eq!(events[0]["args"]["name"].as_str(), Some("router"));
        assert_eq!(events[1]["args"]["name"].as_str(), Some("shard0.r1"));
        let by_name: HashMap<&str, &Value> = events[2..]
            .iter()
            .map(|e| (e["name"].as_str().unwrap(), e))
            .collect();
        let request = by_name["request /search"];
        let rpc_ev = by_name["rpc s0.r1 #0"];
        let shard_retrieve = by_name["retrieve"];
        assert_eq!(request["args"]["parent"].as_u64(), Some(0));
        assert_eq!(by_name["orphan"]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(rpc_ev["pid"].as_u64(), Some(1));
        assert_eq!(shard_retrieve["pid"].as_u64(), Some(2));
        // Causal chain: shard retrieve → router rpc span, across processes.
        assert_eq!(
            shard_retrieve["args"]["parent"].as_u64(),
            rpc_ev["args"]["id"].as_u64()
        );
        assert_eq!(
            shard_retrieve["ts"].as_u64().unwrap(),
            (3 * REQUEST_SLOT_MS + RPC_OFFSET_MS + Stage::Retrieve.offset_ms()) * 1000
        );
    }
}
