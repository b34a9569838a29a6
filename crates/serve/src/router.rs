//! The router: a full search front-end whose *retrieval tier* is remote.
//!
//! [`RemoteRetriever`] implements [`geoserp_engine::Retriever`] by
//! scattering each retrieval (and each spell-suggest) to every shard over
//! TCP, then merging the integer-only responses with
//! [`geoserp_engine::shard`]'s exact-merge functions. The router owns the
//! whole *ranking* tier — intent, verticals, noise, history, SERP
//! composition — and runs it on the merged candidates with the very same
//! engine code the single-process server uses. Byte-identity of routed
//! pages is therefore structural: the only thing that has to be proven
//! equal is retrieval, and the engine's merge tests prove it.
//!
//! # Replica placement and failure handling
//!
//! Each shard has `M` replicas on a consistent-hash ring
//! ([`HashRing`]); requests walk the ring's successor order:
//!
//! * the **primary** (`order[0]`) is dialed first;
//! * if it errors (dead replica: connection refused), the router counts a
//!   `router.retries` and falls through the ring order sequentially;
//! * if it is merely *slow* — no answer within
//!   [`ClusterConfig::hedge_ms`] — the router counts `router.hedge_fired`
//!   and races `order[1]` against it, taking whichever answers first;
//! * only when every replica of a shard has failed does the router give
//!   up on the shard: `router.shard_errors` counts it and the scatter
//!   contributes an empty part (degraded results, never a crash).
//!
//! Because every `/search` makes exactly two scatters (retrieve, then the
//! did-you-mean suggest), and ring placement is a pure function of the
//! per-shard request counter, fault tests can replay the ring and predict
//! `router.retries` / `router.hedge_fired` *exactly*.
//!
//! # Data plane
//!
//! The serving thread drives its whole scatter itself; no thread or
//! channel is involved per RPC. Every shard's primary request is written
//! up front, then one thread-local epoll instance waits on every attempt
//! in flight, with a timeout at the nearest hedge or attempt deadline.
//! In-flight connections are bounded by construction: a serving thread
//! runs one scatter at a time, and a scatter holds at most one connection
//! per replica.
//!
//! * **Pool.** Each replica keeps up to [`IDLE_POOL_CAP`] idle keep-alive
//!   connections. Before reuse, a pooled connection is probed: a
//!   nonblocking read must return `WouldBlock` (EOF means the replica
//!   closed it while idle; bytes would be a response nobody asked for).
//!   A connection returns to the pool only after a response that consumed
//!   exactly the bytes received, without `Connection: close`. Losing hedge
//!   arms and attempts that errored or timed out are closed, never pooled,
//!   so a late answer can never be read as a later request's response.
//!   Fresh connections are counted in `router.dials`.
//! * **Redial.** A pooled connection that hits EOF or a reset before its
//!   first response byte lost a race with the replica's idle close: the
//!   attempt redials once on a fresh connection. That is not a failed
//!   attempt, so it never counts as a retry.
//! * **Deadline.** Each attempt gets one total deadline of the I/O timeout
//!   from launch, covering connect, write, and the whole response.
//!
//! # Distributed tracing
//!
//! When the router's request carries an active trace context (see
//! [`geoserp_obs::trace`]), each scatter records a `router.scatter` span
//! and each replica attempt a `router.rpc` span named
//! `rpc s<shard>.r<replica> #<attempt>`. The attempt's trace context is
//! derived with *that exact name* as the label and stamped onto the shard
//! request as the [`TRACE_HEADER`] header, so the shard-side `request`
//! span parents to the router-side rpc span by construction — including
//! the losing arm of a hedge race, whose span is marked `outcome=lose`.
//! [`ShardedCluster::assemble_trace`] stitches the router's and every
//! replica's span log into one merged Chrome trace.

use crate::server::{ServeConfig, SocketServer};
use crate::shard::{retrieve_request, suggest_request, ShardService};
use crate::topology::{HashRing, ShardPlan, DEFAULT_VNODES};
use geoserp_engine::index::Candidate;
use geoserp_engine::shard::{max_partials, merge_retrieve, merge_suggest};
use geoserp_engine::{ConfigError, EngineConfig, Retriever, SearchEngine, SearchService};
use geoserp_geo::{Seed, UsGeography};
use geoserp_net::shardmsg::{
    ShardRetrieveRequest, ShardRetrieveResponse, ShardSuggestRequest, ShardSuggestResponse,
};
use geoserp_net::{
    encode_request, ip, parse_response, Request, RequestCtx, Response, Server, Status, WireLimits,
    TRACE_HEADER,
};
use geoserp_obs::trace::{self, assemble_chrome_trace, ProcessSpans, Stage, TraceContext};
use geoserp_obs::{Counter, Histogram, ObsHub};
use mio::net::TcpStream;
use mio::{Events, Interest, Poll, Registry, Token};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::RefCell;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle keep-alive connections kept per replica; a connection returned
/// to a full pool is closed.
pub const IDLE_POOL_CAP: usize = 8;
/// Readiness events taken per wait; the rest stay queued for the next.
const EVENTS_CAPACITY: usize = 32;
/// Stack chunk for draining a readable shard connection.
const READ_CHUNK: usize = 16 * 1024;

thread_local! {
    /// The serving thread's reactor: one epoll instance waiting on every
    /// attempt of the scatter this thread drives. Created by the thread's
    /// first scatter, closed when the thread exits.
    static REACTOR: RefCell<Option<Reactor>> = const { RefCell::new(None) };
}

struct Reactor {
    poll: Poll,
    events: Events,
}

/// Router-side counters and histograms (registered on the router's hub, so
/// the router's `/metrics` endpoint exports them).
struct RouterMetrics {
    /// Shards scattered to, observed once per scatter.
    fanout: Histogram,
    /// Hedges launched because a primary exceeded the hedge threshold.
    hedge_fired: Counter,
    /// Errored attempts that were followed by a fallback attempt.
    retries: Counter,
    /// Scatters in which a shard produced no usable response at all.
    shard_errors: Counter,
    /// Fresh shard connections dialed (pool misses and stale redials).
    dials: Counter,
    /// Candidates surviving the exact merge, observed once per retrieve.
    merge_candidates: Histogram,
}

impl RouterMetrics {
    fn resolve(hub: &ObsHub) -> RouterMetrics {
        let m = hub.metrics();
        RouterMetrics {
            fanout: m.histogram("router.fanout"),
            hedge_fired: m.counter("router.hedge_fired"),
            retries: m.counter("router.retries"),
            shard_errors: m.counter("router.shard_errors"),
            dials: m.counter("router.dials"),
            merge_candidates: m.histogram("router.merge_candidates"),
        }
    }
}

/// One shard's replica set as the router sees it.
struct ShardClient {
    /// Replica socket addresses, indexed by replica id.
    addrs: Vec<SocketAddr>,
    /// Idle keep-alive connections, one pool per replica id, most recently
    /// returned last.
    idle: Vec<Mutex<Vec<TcpStream>>>,
    /// Consistent-hash ring over `0..addrs.len()` replica ids.
    ring: HashRing,
    /// Per-shard request counter; the ring key for the next request.
    counter: AtomicU64,
    /// Wall latency of this shard's slice of each scatter, µs. The
    /// `_wall_` marker keeps it out of deterministic snapshots.
    latency: Histogram,
}

impl ShardClient {
    /// The most recently pooled connection to `replica` that is still
    /// idle and open; stale ones are closed on the way.
    fn checkout(&self, replica: usize) -> Option<TcpStream> {
        loop {
            let mut conn = self.idle[replica].lock().pop()?;
            let mut byte = [0u8; 1];
            if matches!(conn.read(&mut byte), Err(e) if e.kind() == ErrorKind::WouldBlock) {
                return Some(conn);
            }
        }
    }

    /// Return a connection after a clean exchange, unless the pool is full.
    fn checkin(&self, replica: usize, conn: TcpStream) {
        let mut idle = self.idle[replica].lock();
        if idle.len() < IDLE_POOL_CAP {
            idle.push(conn);
        }
    }
}

/// One replica attempt of a scatter, kept until its shard's race resolves
/// so every arm's `router.rpc` span can be recorded with its outcome.
struct Attempt<'a> {
    shard: usize,
    replica: usize,
    /// The rpc span's name — also the label the attempt's trace context
    /// was derived with (see [`Scatter::launch`]).
    name: String,
    /// Why this attempt was launched: `primary`, `hedge`, or `retry`.
    kind: &'static str,
    /// Launch instant, for the span's wall-clock annotation.
    started: Instant,
    /// The attempt's one total deadline: launch plus the I/O timeout.
    deadline: Instant,
    /// The request bytes, carrying this attempt's trace header if traced.
    wire: Cow<'a, [u8]>,
    /// Prefix of `wire` already written.
    written: usize,
    /// Response bytes received so far.
    buf: Vec<u8>,
    /// The connection while the attempt is live; `None` once it is over.
    conn: Option<TcpStream>,
    /// `conn` is registered with the reactor.
    registered: bool,
    /// `conn` came from the idle pool, so a close before the first
    /// response byte is a stale connection to redial, not a failure.
    pooled: bool,
    /// The attempt failed before its race ended.
    errored: bool,
}

/// What one pass over an attempt's socket achieved.
enum Io {
    /// Waiting for readiness.
    Pending,
    /// A complete response; `true` when the connection may be pooled.
    Done(Response, bool),
    /// EOF, a socket error, or a malformed response.
    Failed,
}

impl Attempt<'_> {
    /// Write what the socket takes of the request, then read until the
    /// response is complete or the socket would block. A new connection is
    /// registered after its first write, when its interest is known.
    fn exchange(&mut self, registry: &Registry, token: Token, limits: &WireLimits) -> Io {
        let Some(conn) = self.conn.as_mut() else {
            return Io::Pending; // a stray event for an attempt already over
        };
        while self.written < self.wire.len() {
            match conn.write(&self.wire[self.written..]) {
                Ok(0) => return Io::Failed,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Io::Failed,
            }
        }
        let sending = self.written < self.wire.len();
        if !self.registered {
            let interest = if sending {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if registry.register(conn, token, interest).is_err() {
                return Io::Failed;
            }
            self.registered = true;
            // Registration reports readiness that already exists, so the
            // first read waits for the reactor.
            return Io::Pending;
        }
        if sending {
            return Io::Pending;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => return Io::Failed,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    match parse_response(&self.buf, limits) {
                        Ok(Some((resp, used))) => {
                            let closes = resp
                                .header("Connection")
                                .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                            let reusable = used == self.buf.len() && !closes;
                            return Io::Done(resp, reusable);
                        }
                        Ok(None) => {}
                        Err(_) => return Io::Failed,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Io::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Io::Failed,
            }
        }
    }
}

/// One shard's slice of a scatter: the hedge/retry race over its ring
/// order.
struct Race {
    /// Replica ids in ring successor order.
    order: Vec<u32>,
    /// Ring position of the next attempt to launch.
    next: usize,
    /// This race's attempts in launch order, as indices into
    /// [`Scatter::attempts`]; position `i` is attempt `#i`.
    attempts: Vec<usize>,
    /// Attempts still in flight.
    outstanding: usize,
    /// When a hedge is raced against the primary. Cleared once any
    /// attempt finishes or the hedge fires: the window opens only once.
    hedge_at: Option<Instant>,
    /// The race's result once resolved: the winning response, or `None`
    /// when every replica failed.
    result: Option<Option<Response>>,
}

/// One scatter in flight on the serving thread.
struct Scatter<'a> {
    retr: &'a RemoteRetriever,
    req: &'a Request,
    /// The untraced request bytes, shared by every untraced attempt.
    wire: &'a [u8],
    sctx: Option<TraceContext>,
    started: Instant,
    reactor: Reactor,
    /// Every attempt launched; an attempt's index is its reactor token.
    attempts: Vec<Attempt<'a>>,
    /// One race per shard, in shard order.
    races: Vec<Race>,
    /// Attempts to drive before the next wait.
    ready: Vec<usize>,
    /// Races not yet resolved.
    unresolved: usize,
}

impl<'a> Scatter<'a> {
    /// Launch every shard's primary, then drive attempts, hedges, retries
    /// and deadlines until every race has resolved.
    fn run(mut self) -> (Vec<Option<Response>>, Reactor) {
        for (shard, client) in self.retr.shards.iter().enumerate() {
            let key = client.counter.fetch_add(1, Ordering::Relaxed);
            self.races.push(Race {
                order: client.ring.order(key),
                next: 0,
                attempts: Vec::new(),
                outstanding: 0,
                hedge_at: Some(Instant::now() + self.retr.hedge),
                result: None,
            });
            self.launch(shard, "primary");
        }
        loop {
            while let Some(idx) = self.ready.pop() {
                self.drive(idx);
            }
            if self.unresolved == 0 {
                break;
            }
            let now = Instant::now();
            self.fire_timers(now);
            if !self.ready.is_empty() || self.unresolved == 0 {
                continue;
            }
            let hedges = self.races.iter().filter_map(|r| r.hedge_at);
            let deadlines = self
                .attempts
                .iter()
                .filter(|a| a.conn.is_some())
                .map(|a| a.deadline);
            let timeout = hedges
                .chain(deadlines)
                .min()
                .map(|t| t.saturating_duration_since(now));
            let Reactor { poll, events } = &mut self.reactor;
            if poll.poll(events, timeout).is_err() {
                self.abandon();
                break;
            }
            self.ready.extend(events.iter().map(|e| e.token().0));
        }
        let results = self.races.drain(..).map(|r| r.result.flatten()).collect();
        (results, self.reactor)
    }

    /// Launch the next replica in `shard`'s ring order, from the idle pool
    /// or a fresh dial. `false` when the ring order is exhausted.
    fn launch(&mut self, shard: usize, kind: &'static str) -> bool {
        let race = &mut self.races[shard];
        let Some(&replica) = race.order.get(race.next) else {
            return false;
        };
        let replica = replica as usize;
        let no = race.next;
        race.next += 1;
        race.outstanding += 1;
        let idx = self.attempts.len();
        race.attempts.push(idx);
        let name = format!("rpc s{shard}.r{replica} #{no}");
        // The attempt context's label IS the rpc span's name — that
        // equality is what parents the shard-side `request` span to this
        // attempt's span in the assembled trace.
        let wire = match self.sctx {
            Some(c) => {
                let mut traced = self.req.clone();
                traced
                    .headers
                    .push((TRACE_HEADER.to_string(), c.child(&name).encode()));
                Cow::Owned(encode_request(&traced).expect("shard requests encode"))
            }
            None => Cow::Borrowed(self.wire),
        };
        let client = &self.retr.shards[shard];
        let pooled = client.checkout(replica);
        let started = Instant::now();
        self.attempts.push(Attempt {
            shard,
            replica,
            name,
            kind,
            started,
            deadline: started + self.retr.io_timeout,
            wire,
            written: 0,
            buf: Vec::new(),
            pooled: pooled.is_some(),
            conn: pooled.or_else(|| self.retr.dial(client.addrs[replica])),
            registered: false,
            errored: false,
        });
        if self.attempts[idx].conn.is_some() {
            self.ready.push(idx);
        } else {
            self.fail(idx);
        }
        true
    }

    /// Make what progress the attempt's socket allows, and settle its race
    /// if it finished.
    fn drive(&mut self, idx: usize) {
        let a = &mut self.attempts[idx];
        match a.exchange(self.reactor.poll.registry(), Token(idx), &self.retr.limits) {
            Io::Pending => {}
            Io::Done(resp, reusable) => self.win(idx, resp, reusable),
            Io::Failed if a.pooled && a.buf.is_empty() => {
                // The replica closed this pooled connection while it sat
                // idle: redial once, without counting a failed attempt.
                a.pooled = false;
                a.registered = false;
                a.written = 0;
                a.conn = self.retr.dial(self.retr.shards[a.shard].addrs[a.replica]);
                if a.conn.is_some() {
                    self.ready.push(idx);
                } else {
                    self.fail(idx);
                }
            }
            Io::Failed => self.fail(idx),
        }
    }

    /// Fire due hedges and fail attempts past their deadline.
    fn fire_timers(&mut self, now: Instant) {
        for shard in 0..self.races.len() {
            if self.races[shard].hedge_at.is_some_and(|t| t <= now) {
                // A primary that neither answered nor errored within the
                // threshold gets a second replica raced against it.
                self.races[shard].hedge_at = None;
                if self.launch(shard, "hedge") {
                    self.retr.metrics.hedge_fired.inc();
                }
            }
        }
        for idx in 0..self.attempts.len() {
            let a = &self.attempts[idx];
            if a.conn.is_some() && a.deadline <= now {
                self.fail(idx);
            }
        }
    }

    /// The attempt's response wins its race. Its connection rejoins the
    /// pool if the exchange left it clean.
    fn win(&mut self, idx: usize, resp: Response, reusable: bool) {
        let a = &mut self.attempts[idx];
        if let Some(mut conn) = a.conn.take() {
            if reusable && self.reactor.poll.registry().deregister(&mut conn).is_ok() {
                self.retr.shards[a.shard].checkin(a.replica, conn);
            }
        }
        let shard = a.shard;
        self.resolve(shard, Some(idx), Some(resp));
    }

    /// The attempt failed: close it, and once no other arm of its race is
    /// in flight, fall through to the next replica in ring order.
    fn fail(&mut self, idx: usize) {
        let a = &mut self.attempts[idx];
        a.conn = None;
        a.errored = true;
        let shard = a.shard;
        let race = &mut self.races[shard];
        race.outstanding -= 1;
        race.hedge_at = None;
        if race.outstanding > 0 {
            return; // a hedge is still racing; let it decide
        }
        if self.launch(shard, "retry") {
            self.retr.metrics.retries.inc();
        } else {
            self.retr.metrics.shard_errors.inc();
            self.resolve(shard, None, None);
        }
    }

    /// Settle `shard`'s race: close every arm still in flight (the losing
    /// hedge arm), record the rpc spans, and store the result.
    fn resolve(&mut self, shard: usize, winner: Option<usize>, result: Option<Response>) {
        let race = &mut self.races[shard];
        race.hedge_at = None;
        for &i in &race.attempts {
            self.attempts[i].conn = None;
        }
        self.retr
            .record_attempts(self.sctx, &self.attempts, &race.attempts, winner);
        self.retr.shards[shard]
            .latency
            .observe(self.started.elapsed().as_micros() as u64);
        race.result = Some(result);
        self.unresolved -= 1;
    }

    /// The reactor failed: nothing can make progress, so every shard
    /// still racing gives up (counted in `router.shard_errors`).
    fn abandon(&mut self) {
        for shard in 0..self.races.len() {
            if self.races[shard].result.is_none() {
                for &i in &self.races[shard].attempts {
                    let a = &mut self.attempts[i];
                    a.errored |= a.conn.is_some();
                }
                self.retr.metrics.shard_errors.inc();
                self.resolve(shard, None, None);
            }
        }
    }
}

/// A [`Retriever`] that scatters to shard replicas over TCP and merges
/// exactly. Plug into [`geoserp_engine::SearchEngineBuilder::retriever`].
pub struct RemoteRetriever {
    shards: Vec<ShardClient>,
    hedge: Duration,
    io_timeout: Duration,
    limits: WireLimits,
    metrics: RouterMetrics,
    /// The router's hub, where scatter and rpc spans are recorded.
    hub: Arc<ObsHub>,
}

impl RemoteRetriever {
    /// Build a retriever over `shard_addrs[shard][replica]` sockets.
    /// `hedge_ms` is the slow-primary threshold; `io_timeout_ms` is each
    /// attempt's total deadline, from launch to the last response byte.
    pub fn new(
        shard_addrs: Vec<Vec<SocketAddr>>,
        hedge_ms: u64,
        io_timeout_ms: u64,
        hub: Arc<ObsHub>,
    ) -> RemoteRetriever {
        let shards = shard_addrs
            .into_iter()
            .enumerate()
            .map(|(i, addrs)| ShardClient {
                ring: HashRing::new(addrs.len() as u32, DEFAULT_VNODES),
                latency: hub
                    .metrics()
                    .histogram(&format!("router.shard{i}.latency_wall_us")),
                idle: addrs.iter().map(|_| Mutex::new(Vec::new())).collect(),
                addrs,
                counter: AtomicU64::new(0),
            })
            .collect();
        RemoteRetriever {
            shards,
            hedge: Duration::from_millis(hedge_ms.max(1)),
            io_timeout: Duration::from_millis(io_timeout_ms.max(1)),
            // Shard responses can carry thousands of posting ids; give
            // them more body headroom than a public-facing parser would.
            limits: WireLimits::new().max_body_bytes(8 * 1024 * 1024),
            metrics: RouterMetrics::resolve(&hub),
            hub,
        }
    }

    /// Dial a fresh connection to `addr` (counted in `router.dials`).
    /// `None` when the kernel refuses at once; later refusals surface on
    /// the socket.
    fn dial(&self, addr: SocketAddr) -> Option<TcpStream> {
        self.metrics.dials.inc();
        let conn = TcpStream::connect(addr).ok()?;
        let _ = conn.set_nodelay(true);
        Some(conn)
    }

    /// Record one `router.rpc` span per attempt of a resolved race (`ids`
    /// index `attempts`, in launch order) with its outcome: `win` for the
    /// attempt whose response was taken, `error` for attempts that failed,
    /// and `lose` for an arm still in flight when the winner returned — the
    /// losing hedge arm.
    fn record_attempts(
        &self,
        sctx: Option<TraceContext>,
        attempts: &[Attempt],
        ids: &[usize],
        winner: Option<usize>,
    ) {
        let Some(ctx) = sctx else { return };
        for &i in ids {
            let a = &attempts[i];
            let outcome = if winner == Some(i) {
                "win"
            } else if a.errored {
                "error"
            } else {
                "lose"
            };
            trace::record_span_with(
                &self.hub,
                &ctx,
                Cow::Owned(a.name.clone()),
                "router.rpc",
                trace::RPC_OFFSET_MS,
                1,
                vec![
                    ("kind", a.kind.to_string()),
                    ("outcome", outcome.to_string()),
                ],
                Some(a.started.elapsed().as_micros() as u64),
            );
        }
    }

    /// Scatter `req` to every shard at once; responses in shard order.
    /// Each shard races its replicas with hedging and ring-order retry; a
    /// shard whose every replica failed (counted in `router.shard_errors`),
    /// or that answers garbage, contributes `T::default()` — an empty part
    /// the merge treats as "no matches here".
    ///
    /// `label` names the scatter's span (`scatter retrieve` /
    /// `scatter suggest`) and scopes every attempt context beneath it. With
    /// an active trace context, every attempt is recorded as a `router.rpc`
    /// span once its race resolves, and each attempt's wire carries its own
    /// [`TRACE_HEADER`] so shard-side spans link under the correct arm.
    fn scatter<T: serde::Deserialize + Default>(
        &self,
        req: &Request,
        label: &'static str,
    ) -> Vec<T> {
        let rctx = trace::current();
        let sctx = rctx.map(|c| c.child(label));
        let wire = encode_request(req).expect("shard requests encode");
        self.metrics.fanout.observe(self.shards.len() as u64);
        let started = Instant::now();
        let reactor = REACTOR.with(|r| r.borrow_mut().take()).map_or_else(
            || {
                Poll::new().map(|poll| Reactor {
                    poll,
                    events: Events::with_capacity(EVENTS_CAPACITY),
                })
            },
            Ok,
        );
        let responses = match reactor {
            Ok(reactor) => {
                let scatter = Scatter {
                    retr: self,
                    req,
                    wire: &wire,
                    sctx,
                    started,
                    reactor,
                    attempts: Vec::new(),
                    races: Vec::with_capacity(self.shards.len()),
                    ready: Vec::new(),
                    unresolved: self.shards.len(),
                };
                let (responses, reactor) = scatter.run();
                REACTOR.with(|r| *r.borrow_mut() = Some(reactor));
                responses
            }
            // No epoll instance (fd exhaustion): no shard can be reached.
            Err(_) => {
                self.metrics.shard_errors.add(self.shards.len() as u64);
                vec![None; self.shards.len()]
            }
        };
        let out = responses
            .into_iter()
            .map(|resp| {
                let Some(resp) = resp else {
                    return T::default(); // counted when the race failed
                };
                let parsed = (resp.status == Status::Ok)
                    .then(|| crate::shard::parse_body::<T>(&resp.body).ok())
                    .flatten();
                parsed.unwrap_or_else(|| {
                    self.metrics.shard_errors.inc();
                    T::default()
                })
            })
            .collect();
        if let Some(rc) = rctx {
            trace::record_span_with(
                &self.hub,
                &rc,
                Cow::Borrowed(label),
                "router.scatter",
                trace::RPC_OFFSET_MS,
                Stage::Retrieve.dur_ms(),
                vec![("shards", self.shards.len().to_string())],
                Some(started.elapsed().as_micros() as u64),
            );
        }
        out
    }
}

impl Retriever for RemoteRetriever {
    fn retrieve(&self, query: &str, min_candidates: usize, partial_score: f64) -> Vec<Candidate> {
        let req = retrieve_request(&ShardRetrieveRequest {
            query: query.to_string(),
            max_partials: max_partials(min_candidates) as u32,
        });
        let parts: Vec<ShardRetrieveResponse> = self.scatter(&req, "scatter retrieve");
        let started = Instant::now();
        let merged = merge_retrieve(query, min_candidates, partial_score, &parts);
        self.metrics.merge_candidates.observe(merged.len() as u64);
        trace::record_stage(Stage::Merge, Some(started.elapsed().as_micros() as u64));
        merged
    }

    fn suggest(&self, query: &str) -> Option<String> {
        let req = suggest_request(&ShardSuggestRequest {
            query: query.to_string(),
        });
        // No merge stage here: the suggest merge is a handful of string
        // compares, and the request's `merge` span ID is already taken.
        let parts: Vec<ShardSuggestResponse> = self.scatter(&req, "scatter suggest");
        merge_suggest(query, &parts)
    }
}

/// A [`Server`] wrapper that sleeps before delegating — the fault injector
/// for slow-replica (hedge) tests.
pub struct DelayServer {
    inner: Arc<dyn Server>,
    delay: Duration,
}

impl DelayServer {
    /// Wrap `inner`, delaying every request by `delay_ms`.
    pub fn new(inner: Arc<dyn Server>, delay_ms: u64) -> DelayServer {
        DelayServer {
            inner,
            delay: Duration::from_millis(delay_ms),
        }
    }
}

impl Server for DelayServer {
    fn handle(&self, ctx: &RequestCtx, req: &Request) -> Response {
        std::thread::sleep(self.delay);
        self.inner.handle(ctx, req)
    }
}

/// Topology and timing knobs for [`ShardedCluster::start`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Index shards (clamped to ≥ 1).
    pub shards: u32,
    /// Replicas per shard (clamped to ≥ 1).
    pub replicas: u32,
    /// Slow-primary threshold before the router hedges, milliseconds.
    pub hedge_ms: u64,
    /// Socket-layer configuration, shared by the router and (with a
    /// permissive per-IP limit — all its traffic is the router's one IP)
    /// the shard servers.
    pub serve: ServeConfig,
    /// Fault injection: delay every request to `(shard, replica)` by the
    /// given milliseconds.
    pub slow_replica: Option<(u32, u32, u64)>,
    /// Corpus scale factor for the cluster's world
    /// ([`geoserp_corpus::WebCorpus::generate_scaled`]); 1 is the base
    /// world.
    pub corpus_scale: u32,
}

impl ClusterConfig {
    /// Defaults: `shards × replicas` topology, 200 ms hedge, default
    /// [`ServeConfig`], no injected faults, unscaled corpus.
    pub fn new(shards: u32, replicas: u32) -> ClusterConfig {
        ClusterConfig {
            shards: shards.max(1),
            replicas: replicas.max(1),
            hedge_ms: 200,
            serve: ServeConfig::new(),
            slow_replica: None,
            corpus_scale: 1,
        }
    }

    /// Set the hedge threshold in milliseconds.
    pub fn hedge_ms(mut self, ms: u64) -> ClusterConfig {
        self.hedge_ms = ms;
        self
    }

    /// Set the socket-layer configuration.
    pub fn serve(mut self, serve: ServeConfig) -> ClusterConfig {
        self.serve = serve;
        self
    }

    /// Inject a fixed per-request delay into one replica.
    pub fn slow_replica(mut self, shard: u32, replica: u32, delay_ms: u64) -> ClusterConfig {
        self.slow_replica = Some((shard, replica, delay_ms));
        self
    }

    /// Set the corpus scale factor (clamped to ≥ 1).
    pub fn corpus_scale(mut self, scale: u32) -> ClusterConfig {
        self.corpus_scale = scale.max(1);
        self
    }
}

/// A complete sharded serving topology on loopback: `shards × replicas`
/// shard servers plus one router front-end, all on ephemeral ports.
///
/// The router's world is built exactly like
/// [`ServedWorld::build`](crate::ServedWorld::build) — same seed-derived
/// geography, corpus, noise model, and datacenter addresses — except its
/// engine retrieves through a [`RemoteRetriever`]. That symmetry is the
/// byte-identity contract.
pub struct ShardedCluster {
    router: Option<SocketServer>,
    router_addr: SocketAddr,
    /// Router-side hub: engine + serve + `router.*` metrics and spans.
    pub hub: Arc<ObsHub>,
    /// Per-replica hubs, `shard_hubs[shard][replica]` — each replica's
    /// serve metrics and spans, under process name `shard<s>.r<r>`. Kept
    /// here so a killed replica's spans survive for trace assembly.
    pub shard_hubs: Vec<Vec<Arc<ObsHub>>>,
    /// `replicas[shard][replica]`; `None` once killed.
    replicas: Vec<Vec<Option<SocketServer>>>,
    addrs: Vec<Vec<SocketAddr>>,
}

impl ShardedCluster {
    /// Build the world for `seed`, start every shard replica and the
    /// router (bound to `addr`, e.g. `127.0.0.1:0`), and wire them up.
    /// `engine` is the base engine config; the serve-tier overrides from
    /// `cfg.serve` ([`ServeConfig::engine_config`]) are applied on top.
    ///
    /// # Errors
    /// Propagates bind/spawn I/O errors; engine-config validation errors
    /// surface as `InvalidInput`.
    pub fn start(
        addr: &str,
        seed: u64,
        engine: EngineConfig,
        cfg: ClusterConfig,
    ) -> std::io::Result<ShardedCluster> {
        let world_seed = Seed::new(seed);
        let geo = UsGeography::generate(world_seed);
        let corpus = Arc::new(geoserp_corpus::WebCorpus::generate_scaled(
            &geo,
            world_seed,
            cfg.corpus_scale,
        ));
        let plan = ShardPlan::contiguous(corpus.pages.len() as u32, cfg.shards);
        // Shards index with the same backend the router's engine config
        // names; captured here because `engine` moves into the router
        // build below.
        let index_backend = engine.index_backend;

        // Shard tier: one ShardService per shard, M socket servers each.
        // All shard traffic originates from the router's single loopback
        // IP, so the per-IP serve limiter must be permissive here. Each
        // replica gets its own hub so assembled traces can attribute
        // spans to the exact process that recorded them.
        let shard_serve = cfg.serve.clone().rate_limit(usize::MAX / 2, 60_000);
        let dc0 = ip("10.50.0.1");
        let mut shard_hubs: Vec<Vec<Arc<ObsHub>>> = Vec::new();
        let mut replicas: Vec<Vec<Option<SocketServer>>> = Vec::new();
        let mut addrs: Vec<Vec<SocketAddr>> = Vec::new();
        for (s, range) in plan.ranges.iter().enumerate() {
            let service: Arc<ShardService> =
                Arc::new(ShardService::build(&corpus, range.clone(), index_backend));
            let mut hubs = Vec::new();
            let mut shard_replicas = Vec::new();
            let mut shard_addrs = Vec::new();
            for r in 0..cfg.replicas {
                let mut svc: Arc<dyn Server> = Arc::clone(&service) as Arc<dyn Server>;
                if let Some((fs, fr, delay_ms)) = cfg.slow_replica {
                    if fs == s as u32 && fr == r {
                        svc = Arc::new(DelayServer::new(svc, delay_ms));
                    }
                }
                let replica_hub = Arc::new(ObsHub::new());
                let server = SocketServer::start_service(
                    "127.0.0.1:0",
                    svc,
                    Arc::clone(&replica_hub),
                    dc0,
                    shard_serve.clone().process(&format!("shard{s}.r{r}")),
                )?;
                shard_addrs.push(server.local_addr());
                hubs.push(replica_hub);
                shard_replicas.push(Some(server));
            }
            shard_hubs.push(hubs);
            replicas.push(shard_replicas);
            addrs.push(shard_addrs);
        }

        // Router tier: a full search world whose retrieval is remote.
        let hub = Arc::new(ObsHub::new());
        let retriever = RemoteRetriever::new(
            addrs.clone(),
            cfg.hedge_ms,
            cfg.serve.read_timeout_ms,
            Arc::clone(&hub),
        );
        let engine = Arc::new(
            SearchEngine::builder(corpus, &geo, world_seed)
                .config(cfg.serve.engine_config(engine))
                .obs(Arc::clone(&hub))
                .retriever(Box::new(retriever))
                .build()
                .map_err(|e: ConfigError| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
                })?,
        );
        let n = engine.config().datacenters;
        let dc_addrs: Vec<Ipv4Addr> = (1..=n)
            .map(|i| format!("10.50.0.{i}").parse().expect("valid address"))
            .collect();
        let service = Arc::new(SearchService::new(engine, &dc_addrs));
        let router = SocketServer::start_service(
            addr,
            service as Arc<dyn Server>,
            Arc::clone(&hub),
            dc_addrs[0],
            cfg.serve.process("router"),
        )?;
        let router_addr = router.local_addr();
        Ok(ShardedCluster {
            router: Some(router),
            router_addr,
            hub,
            shard_hubs,
            replicas,
            addrs,
        })
    }

    /// Assemble the cluster's span logs — the router's plus every shard
    /// replica's — into one merged, deterministic Chrome trace. Reads the
    /// hubs directly (equivalent to pulling each process's `/spans`
    /// collector endpoint), so killed replicas are still represented.
    pub fn assemble_trace(&self) -> String {
        let mut procs = vec![ProcessSpans::from_records(
            "router",
            &self.hub.spans().snapshot(),
        )];
        for (s, hubs) in self.shard_hubs.iter().enumerate() {
            for (r, hub) in hubs.iter().enumerate() {
                procs.push(ProcessSpans::from_records(
                    &format!("shard{s}.r{r}"),
                    &hub.spans().snapshot(),
                ));
            }
        }
        assemble_chrome_trace(&procs)
    }

    /// The router's bound address — where clients send `/search`.
    pub fn router_addr(&self) -> SocketAddr {
        self.router_addr
    }

    /// Replica socket addresses, `[shard][replica]`.
    pub fn shard_addrs(&self) -> &[Vec<SocketAddr>] {
        &self.addrs
    }

    /// Kill one replica: its server shuts down and later connects are
    /// refused. Idempotent; out-of-range indices are a no-op.
    pub fn kill_replica(&mut self, shard: usize, replica: usize) {
        if let Some(server) = self
            .replicas
            .get_mut(shard)
            .and_then(|rs| rs.get_mut(replica))
            .and_then(Option::take)
        {
            server.shutdown();
        }
    }

    /// Shut everything down: router first (stop new scatters), then the
    /// shard replicas.
    pub fn shutdown(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for shard in self.replicas.drain(..) {
            for server in shard.into_iter().flatten() {
                server.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned(fulls: Vec<u32>) -> Arc<dyn Server> {
        Arc::new(move |_ctx: &RequestCtx, _req: &Request| {
            crate::shard::json_ok(&ShardRetrieveResponse {
                fulls: fulls.clone(),
                partials: vec![],
            })
        })
    }

    fn start_toy(svc: Arc<dyn Server>) -> SocketServer {
        start_toy_with(svc, ServeConfig::new())
    }

    fn start_toy_with(svc: Arc<dyn Server>, config: ServeConfig) -> SocketServer {
        SocketServer::start_service(
            "127.0.0.1:0",
            svc,
            Arc::new(ObsHub::new()),
            ip("10.50.0.1"),
            config,
        )
        .unwrap()
    }

    /// The wire bytes of a shard answer carrying `fulls`.
    fn part_bytes(fulls: Vec<u32>) -> Vec<u8> {
        let part = ShardRetrieveResponse {
            fulls,
            partials: vec![],
        };
        geoserp_net::encode_response(&crate::shard::json_ok(&part)).unwrap()
    }

    /// Read one request off a raw toy connection into `buf`; `false` on
    /// EOF or error first.
    fn read_request(stream: &mut std::net::TcpStream, buf: &mut Vec<u8>) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((_, used)) = geoserp_net::parse_request(buf, &WireLimits::new()).unwrap() {
                buf.drain(..used);
                return true;
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return false,
                Ok(k) => buf.extend_from_slice(&chunk[..k]),
            }
        }
    }

    /// A hand-rolled replica for wire shapes the socket server never
    /// produces. It serves `conns` connections one after another; the
    /// `n`th request it reads (from 1, across connections) is answered with
    /// `reply(n)`, or its connection is closed unanswered on `None`.
    fn raw_toy(
        conns: usize,
        reply: impl Fn(usize) -> Option<Vec<u8>> + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut n = 0;
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                while read_request(&mut stream, &mut buf) {
                    n += 1;
                    match reply(n) {
                        Some(bytes) if stream.write_all(&bytes).is_ok() => {}
                        _ => break,
                    }
                }
            }
        });
        (addr, handle)
    }

    fn counter(hub: &ObsHub, name: &str) -> u64 {
        hub.snapshot().counters.get(name).copied().unwrap_or(0)
    }

    /// A refused-connection address: bind, read the port, drop the
    /// listener.
    fn dead_addr() -> SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    fn toy_request() -> Request {
        retrieve_request(&ShardRetrieveRequest {
            query: "coffee".into(),
            max_partials: 4,
        })
    }

    #[test]
    fn retries_past_a_dead_primary_in_ring_order() {
        let live = start_toy(canned(vec![7]));
        // Place the dead replica wherever the ring sends request 0 first.
        let order = HashRing::new(2, DEFAULT_VNODES).order(0);
        let mut addrs = vec![live.local_addr(); 2];
        addrs[order[0] as usize] = dead_addr();
        addrs[order[1] as usize] = live.local_addr();
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(vec![addrs], 5_000, 2_000, Arc::clone(&hub));
        let parts: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(parts[0].fulls, vec![7], "fallback replica answered");
        let snap = hub.snapshot();
        assert_eq!(snap.counters.get("router.retries"), Some(&1));
        assert_eq!(snap.counters.get("router.hedge_fired"), Some(&0));
        assert_eq!(snap.counters.get("router.shard_errors"), Some(&0));
        live.shutdown();
    }

    #[test]
    fn hedges_a_slow_primary_and_takes_the_fast_replica() {
        let slow = start_toy(Arc::new(DelayServer::new(canned(vec![1]), 600)));
        let fast = start_toy(canned(vec![2]));
        let order = HashRing::new(2, DEFAULT_VNODES).order(0);
        let mut addrs = vec![fast.local_addr(); 2];
        addrs[order[0] as usize] = slow.local_addr();
        addrs[order[1] as usize] = fast.local_addr();
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(vec![addrs], 60, 5_000, Arc::clone(&hub));
        let parts: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(parts[0].fulls, vec![2], "hedge won the race");
        let snap = hub.snapshot();
        assert_eq!(snap.counters.get("router.hedge_fired"), Some(&1));
        assert_eq!(snap.counters.get("router.retries"), Some(&0));
        slow.shutdown();
        fast.shutdown();
    }

    #[test]
    fn all_replicas_dead_degrades_to_an_empty_part() {
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(
            vec![vec![dead_addr(), dead_addr()]],
            5_000,
            1_000,
            Arc::clone(&hub),
        );
        let parts: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(parts[0], ShardRetrieveResponse::default());
        let snap = hub.snapshot();
        assert_eq!(snap.counters.get("router.shard_errors"), Some(&1));
        assert_eq!(
            snap.counters.get("router.retries"),
            Some(&1),
            "the first failure fell through to the second replica"
        );
    }

    #[test]
    fn non_ok_shard_response_counts_as_a_shard_error() {
        let broken: Arc<dyn Server> =
            Arc::new(|_: &RequestCtx, _: &Request| Response::status(Status::InternalError));
        let server = start_toy(broken);
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(
            vec![vec![server.local_addr()]],
            5_000,
            1_000,
            Arc::clone(&hub),
        );
        let parts: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(parts[0], ShardRetrieveResponse::default());
        assert_eq!(hub.snapshot().counters.get("router.shard_errors"), Some(&1));
        server.shutdown();
    }

    #[test]
    fn sequential_scatters_dial_once_and_reuse_the_pooled_connection() {
        let live = start_toy(canned(vec![4]));
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(
            vec![vec![live.local_addr()]],
            5_000,
            2_000,
            Arc::clone(&hub),
        );
        for _ in 0..5 {
            let parts: Vec<ShardRetrieveResponse> =
                retr.scatter(&toy_request(), "scatter retrieve");
            assert_eq!(parts[0].fulls, vec![4]);
        }
        assert_eq!(counter(&hub, "router.dials"), 1);
        assert_eq!(retr.shards[0].idle[0].lock().len(), 1);
        live.shutdown();
    }

    #[test]
    fn late_answers_of_losing_hedge_arms_are_never_read_as_later_responses() {
        // Each replica answers with a part naming the request (its
        // `max_partials`). The slow one answers its first request 300 ms
        // late, so scatter 1's primary loses to the 50 ms hedge with its
        // answer still in flight on its connection.
        let naming_toy = |first_delay_ms: u64| {
            let served = AtomicU64::new(0);
            start_toy(Arc::new(move |_: &RequestCtx, req: &Request| {
                if served.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(first_delay_ms));
                }
                let r: ShardRetrieveRequest = crate::shard::parse_body(&req.body).unwrap();
                crate::shard::json_ok(&ShardRetrieveResponse {
                    fulls: vec![r.max_partials],
                    partials: vec![],
                })
            }))
        };
        let (slow, fast) = (naming_toy(300), naming_toy(0));
        let ring = HashRing::new(2, DEFAULT_VNODES);
        let loser = ring.order(0)[0] as usize;
        let scatters = 8u32;
        assert!(
            (1..u64::from(scatters)).any(|key| ring.order(key)[0] as usize == loser),
            "fixture too small: the losing replica is never primary again"
        );
        let mut addrs = vec![fast.local_addr(); 2];
        addrs[loser] = slow.local_addr();
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(vec![addrs], 50, 5_000, Arc::clone(&hub));
        let started = Instant::now();
        for n in 1..=scatters {
            if n == 2 {
                // The next scatters that make the slow replica primary start
                // inside their hedge window before the late answer lands: a
                // pooled loser would pass the probe and deliver it first.
                std::thread::sleep(Duration::from_millis(260).saturating_sub(started.elapsed()));
            }
            let req = retrieve_request(&ShardRetrieveRequest {
                query: "coffee".into(),
                max_partials: n,
            });
            let parts: Vec<ShardRetrieveResponse> = retr.scatter(&req, "scatter retrieve");
            assert_eq!(parts[0].fulls, vec![n], "scatter {n} read another answer");
        }
        assert!(counter(&hub, "router.hedge_fired") >= 1);
        slow.shutdown();
        fast.shutdown();
    }

    #[test]
    fn responses_with_trailing_bytes_or_connection_close_are_not_pooled() {
        let close = geoserp_net::encode_response(
            &crate::shard::json_ok(&ShardRetrieveResponse {
                fulls: vec![3],
                partials: vec![],
            })
            .with_header("Connection", "close"),
        )
        .unwrap();
        let mut trailing = part_bytes(vec![3]);
        trailing.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        for reply in [close, trailing] {
            let (addr, toy) = raw_toy(2, move |_| Some(reply.clone()));
            let hub = Arc::new(ObsHub::new());
            let retr = RemoteRetriever::new(vec![vec![addr]], 5_000, 2_000, Arc::clone(&hub));
            for _ in 0..2 {
                let parts: Vec<ShardRetrieveResponse> =
                    retr.scatter(&toy_request(), "scatter retrieve");
                assert_eq!(parts[0].fulls, vec![3]);
                assert!(
                    retr.shards[0].idle[0].lock().is_empty(),
                    "connection pooled"
                );
            }
            assert_eq!(counter(&hub, "router.dials"), 2);
            drop(retr);
            toy.join().unwrap();
        }
    }

    #[test]
    fn a_pooled_connection_holding_stray_bytes_fails_the_probe() {
        // Connection 1 answers, then sends an answer nobody asked for while
        // it sits in the pool; connection 2 answers normally.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let toy = std::thread::spawn(move || {
            for (fulls, stray) in [(1, true), (2, false)] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                assert!(read_request(&mut stream, &mut buf));
                stream.write_all(&part_bytes(vec![fulls])).unwrap();
                if stray {
                    std::thread::sleep(Duration::from_millis(30));
                    stream.write_all(&part_bytes(vec![99])).unwrap();
                }
                // Hold the connection until the router closes it.
                while read_request(&mut stream, &mut buf) {}
            }
        });
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(vec![vec![addr]], 5_000, 2_000, Arc::clone(&hub));
        let first: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(first[0].fulls, vec![1]);
        std::thread::sleep(Duration::from_millis(100));
        let second: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(second[0].fulls, vec![2], "stray answer read as a response");
        assert_eq!(counter(&hub, "router.dials"), 2);
        drop(retr);
        toy.join().unwrap();
    }

    #[test]
    fn a_pooled_connection_the_replica_closed_while_idle_is_redialed() {
        let toy = start_toy_with(canned(vec![5]), ServeConfig::new().read_timeout_ms(50));
        let hub = Arc::new(ObsHub::new());
        let retr =
            RemoteRetriever::new(vec![vec![toy.local_addr()]], 5_000, 2_000, Arc::clone(&hub));
        let first: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(first[0].fulls, vec![5]);
        // Past the replica's 50 ms idle timeout: it closed the connection.
        std::thread::sleep(Duration::from_millis(200));
        let second: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(second[0].fulls, vec![5]);
        assert_eq!(counter(&hub, "router.retries"), 0);
        assert_eq!(counter(&hub, "router.shard_errors"), 0);
        assert_eq!(counter(&hub, "router.dials"), 2);
        toy.shutdown();
    }

    #[test]
    fn a_pooled_connection_closed_before_its_answer_is_redialed_without_a_retry() {
        // The toy drops request 2 unanswered on the pooled connection — the
        // replica's idle close racing the router's reuse. The redialed
        // request is the toy's third.
        let (addr, toy) = raw_toy(2, |n| (n != 2).then(|| part_bytes(vec![n as u32])));
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(vec![vec![addr]], 5_000, 2_000, Arc::clone(&hub));
        let first: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(first[0].fulls, vec![1]);
        let second: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        assert_eq!(second[0].fulls, vec![3], "redialed once");
        assert_eq!(counter(&hub, "router.retries"), 0);
        assert_eq!(counter(&hub, "router.shard_errors"), 0);
        assert_eq!(counter(&hub, "router.dials"), 2);
        drop(retr);
        toy.join().unwrap();
    }

    #[test]
    fn each_attempt_has_one_total_deadline_not_a_per_read_timeout() {
        // The toy trickles its answer a byte every 20 ms: every read lands
        // well inside 200 ms, but the whole answer takes seconds.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let toy = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for byte in part_bytes(vec![9]) {
                if stream.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let hub = Arc::new(ObsHub::new());
        let retr = RemoteRetriever::new(vec![vec![addr]], 5_000, 200, Arc::clone(&hub));
        let started = Instant::now();
        let parts: Vec<ShardRetrieveResponse> = retr.scatter(&toy_request(), "scatter retrieve");
        let took = started.elapsed();
        assert_eq!(parts[0], ShardRetrieveResponse::default());
        assert!(took >= Duration::from_millis(200), "{took:?}");
        assert!(took < Duration::from_millis(1_000), "{took:?}");
        assert_eq!(counter(&hub, "router.shard_errors"), 1);
        assert!(
            retr.shards[0].idle[0].lock().is_empty(),
            "timed-out attempt pooled"
        );
        drop(retr);
        toy.join().unwrap();
    }
}
