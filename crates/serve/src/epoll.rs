//! The readiness-based serving core: `workers` epoll event loops over
//! nonblocking sockets.
//!
//! # Architecture
//!
//! Loop 0 owns the listener. Accepted connections are admitted against a
//! shared in-flight bound of `workers + queue_depth` open connections —
//! beyond it they are shed with a `503` written nonblocking, so a stalled
//! peer can never hold up the accept path — and distributed round-robin
//! across the loops via lock-guarded inboxes plus an eventfd [`Waker`] per
//! loop.
//!
//! Each loop owns its connections outright, in a [`Slab`] keyed by epoll
//! token; each connection owns its read and write buffers and drops them
//! on close. A connection has one deadline at a time — its keep-alive
//! idle / read deadline, or its write deadline while a flush is pending —
//! kept in the connection and in the loop's `(deadline_ms, key)` set, one
//! entry per connection. The loop sleeps until the first entry and closes
//! every connection whose deadline has passed.
//!
//! A connection is a small state machine (`pump`): parse every complete
//! request buffered (the incremental [`parse_request`] handles pipelining),
//! route, append encoded responses to the write buffer, flush. On a partial
//! write the loop switches the connection's interest to WRITABLE-only —
//! reads pause, so a client that stops reading backpressures through its
//! TCP window instead of growing our buffers — and arms a write deadline.
//! When the flush completes the pump resumes reading.
//!
//! All registrations are edge-triggered, so every read/write/accept path
//! drains to `WouldBlock` before returning to the poller.
//!
//! # Drain
//!
//! Shutdown wakes every loop: the listener is dropped, idle keep-alive
//! connections are closed *immediately* (no waiting out the read timeout —
//! this is what bounds shutdown latency), connections with queued response
//! bytes finish flushing under their write deadline, and each loop exits
//! once its slab is empty.

use crate::server::{encode_or_bare, ipv6_reject_response, shed_response, Shared};
use crate::slab::Slab;
use geoserp_net::{parse_request, Response, Status};
use geoserp_obs::trace::{self, Stage, TraceContext};
use mio::event::Source;
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token the per-loop waker fires with.
const WAKER_KEY: usize = usize::MAX;
/// Token the listener (loop 0 only) fires with.
const LISTENER_KEY: usize = usize::MAX - 1;
/// Stack chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;
/// Soft cap on buffered request bytes before the pump interleaves
/// processing with reading (bounds memory under a pipelining flood).
/// Only honored while the parser is consuming: a single incomplete
/// request larger than the cap must keep reading (bounded by the wire
/// limits) or the pump would livelock.
const READ_SOFT_CAP: usize = 64 * 1024;
/// Events per poll call.
const EVENTS_CAPACITY: usize = 256;

/// A connection handed from the accept loop to its owning event loop,
/// stamped with its accept instant (the start of the first request's
/// queue-wait stage).
type Handoff = (TcpStream, Ipv4Addr, Instant);

/// How another thread reaches one event loop.
struct Injector {
    inbox: Arc<Mutex<Vec<Handoff>>>,
    waker: Arc<Waker>,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    src: Ipv4Addr,
    /// Bytes received, not yet parsed into a complete request.
    read_buf: Vec<u8>,
    /// Encoded responses queued for the peer.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Queued *routed* responses as `(end offset in write_buf, trace
    /// context, queued-at instant)`, end offsets ascending
    /// (`serve.responses` counts a response only once its last byte has
    /// been written to the socket, never when it is queued; the flush
    /// stage span is recorded at the same point).
    resp_ends: Vec<(usize, Option<TraceContext>, Instant)>,
    /// Queue-wait clock for the request in flight: the accept instant,
    /// reset each time a response is queued.
    ready: Instant,
    /// When the loop closes the connection: the idle / read deadline, or
    /// the write deadline while a flush is pending. `(deadline_ms, key)`
    /// is the connection's entry in [`EventLoop::deadlines`].
    deadline_ms: u64,
    /// Close once `write_buf` drains (shutdown, `Connection: close`,
    /// keep-alive off, or a protocol error was answered).
    close_after_flush: bool,
    /// Interest currently registered is WRITABLE-only (reads paused).
    wants_writable: bool,
    /// Peer sent EOF.
    eof: bool,
}

impl Conn {
    /// Remove the queued responses whose bytes have fully reached the
    /// socket, yielding their trace contexts and queued-at instants.
    /// Returns an empty (non-allocating) vec on the common nothing-
    /// completed path.
    fn take_flushed(&mut self) -> Vec<(Option<TraceContext>, Instant)> {
        let written = self.written;
        let n = self
            .resp_ends
            .iter()
            .take_while(|(end, _, _)| *end <= written)
            .count();
        if n == 0 {
            return Vec::new();
        }
        self.resp_ends
            .drain(..n)
            .map(|(_, t, at)| (t, at))
            .collect()
    }
}

enum Flush {
    /// Write buffer fully drained; connection still open.
    Flushed,
    /// Partial write: WRITABLE interest + write deadline armed.
    Pending,
    /// Connection closed (error, or `close_after_flush` completed).
    Closed,
}

enum Fill {
    /// New bytes buffered (or EOF just observed) — reprocess.
    Progress,
    /// Nothing to read now; wait for the next readable edge.
    Idle,
    /// Connection closed on read error.
    Closed,
}

/// Event-loop join handles plus one shutdown waker per loop.
pub(crate) type LoopHandles = (Vec<JoinHandle<()>>, Vec<Arc<Waker>>);

/// Spawn `shared.config.workers` event loops. Returns their join handles
/// and one waker per loop (used by [`crate::SocketServer`] to signal
/// shutdown).
pub(crate) fn start(
    shared: Arc<Shared>,
    listener: std::net::TcpListener,
) -> std::io::Result<LoopHandles> {
    let nloops = shared.config.workers.max(1);
    let capacity = nloops + shared.config.queue_depth.max(1);
    let open = Arc::new(AtomicUsize::new(0));

    let mut seeds = Vec::with_capacity(nloops);
    let mut injectors = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), Token(WAKER_KEY))?);
        let inbox: Arc<Mutex<Vec<Handoff>>> = Arc::new(Mutex::new(Vec::new()));
        injectors.push(Injector {
            inbox: Arc::clone(&inbox),
            waker: Arc::clone(&waker),
        });
        seeds.push((poll, inbox));
    }
    let mut mio_listener = TcpListener::from_std_checked(listener)?;
    seeds[0]
        .0
        .registry()
        .register(&mut mio_listener, Token(LISTENER_KEY), Interest::READABLE)?;

    let wakers: Vec<Arc<Waker>> = injectors.iter().map(|i| Arc::clone(&i.waker)).collect();
    let injectors = Arc::new(injectors);
    let mut listener_slot = Some(mio_listener);
    let mut handles = Vec::with_capacity(nloops);
    for (index, (poll, inbox)) in seeds.into_iter().enumerate() {
        let mut el = EventLoop {
            index,
            shared: Arc::clone(&shared),
            poll,
            conns: Slab::new(),
            deadlines: BTreeSet::new(),
            inbox,
            open: Arc::clone(&open),
            capacity,
            listener: if index == 0 {
                listener_slot.take()
            } else {
                None
            },
            peers: Arc::clone(&injectors),
            next_peer: 0,
            draining: false,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("geoserp-epoll-{index}"))
                .spawn(move || el.run())?,
        );
    }
    Ok((handles, wakers))
}

struct EventLoop {
    index: usize,
    shared: Arc<Shared>,
    poll: Poll,
    conns: Slab<Conn>,
    /// `(deadline_ms, key)`, one entry per connection in `conns`, soonest
    /// first.
    deadlines: BTreeSet<(u64, usize)>,
    inbox: Arc<Mutex<Vec<Handoff>>>,
    /// Connections currently admitted, across all loops.
    open: Arc<AtomicUsize>,
    /// Admission bound on `open`.
    capacity: usize,
    /// Loop 0 only.
    listener: Option<TcpListener>,
    /// Every loop's injector, for round-robin distribution (loop 0 only).
    peers: Arc<Vec<Injector>>,
    next_peer: usize,
    draining: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        loop {
            debug_assert_eq!(self.deadlines.len(), self.conns.len());
            let now = self.shared.now_ms();
            let timeout = self
                .deadlines
                .first()
                .map(|&(at, _)| Duration::from_millis(at.saturating_sub(now)));
            if self.poll.poll(&mut events, timeout).is_err() {
                // Persistent selector failure: nothing readiness-based can
                // recover; bail out rather than spin.
                break;
            }
            let mut accept_ready = false;
            for ev in events.iter() {
                match ev.token().0 {
                    WAKER_KEY => {} // its work (inbox, shutdown) is below
                    LISTENER_KEY => accept_ready = true,
                    key => {
                        if self.conns.get_mut(key).is_none() {
                            continue; // closed earlier this batch
                        }
                        if ev.is_readable() {
                            self.pump(key);
                        } else if ev.is_writable() {
                            if let Flush::Flushed = self.flush(key) {
                                self.pump(key);
                            }
                        }
                    }
                }
            }
            if !self.draining && self.shared.shutdown.load(Ordering::Relaxed) {
                self.begin_drain();
            }
            self.drain_inbox();
            if accept_ready {
                self.accept_all();
            }
            let now = self.shared.now_ms();
            while let Some(&(at, key)) = self.deadlines.first() {
                if at > now {
                    break;
                }
                // Deadline passed (idle keep-alive, read stall, or a write
                // the peer refuses to drain): drop the connection.
                self.deadlines.pop_first();
                self.close(key);
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
    }

    /// Drive one connection as far as readiness allows: parse and serve
    /// everything buffered, flush, read more, repeat until `WouldBlock`
    /// (or the connection closes / stalls on write).
    fn pump(&mut self, key: usize) {
        loop {
            let consumed = self.process_requests(key);
            self.finish_eof(key);
            match self.flush(key) {
                Flush::Closed | Flush::Pending => return,
                Flush::Flushed => {}
            }
            match self.fill(key, consumed > 0) {
                Fill::Closed => return,
                Fill::Progress => continue,
                Fill::Idle => {
                    self.await_readable(key);
                    return;
                }
            }
        }
    }

    /// Parse and route every complete request in the read buffer,
    /// appending encoded responses to the write buffer. Returns the
    /// number of request bytes consumed (0 means the parser is waiting
    /// for more bytes — [`Self::fill`] must then read past the soft cap).
    fn process_requests(&mut self, key: usize) -> usize {
        let mut consumed = 0;
        loop {
            let (src, ready, parse_res, parse_us) = match self.conns.get_mut(key) {
                Some(c) if !c.close_after_flush => {
                    let parse_started = Instant::now();
                    let res = parse_request(&c.read_buf[consumed..], &self.shared.config.limits);
                    (
                        c.src,
                        c.ready,
                        res,
                        parse_started.elapsed().as_micros() as u64,
                    )
                }
                _ => break,
            };
            match parse_res {
                Ok(Some((req, used))) => {
                    consumed += used;
                    self.shared.metrics.requests.inc();
                    let close_requested = req
                        .header("Connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    let routed = self.shared.route(src, &req, ready, parse_us);
                    let bytes = encode_or_bare(&routed.resp);
                    let Some(c) = self.conns.get_mut(key) else {
                        break;
                    };
                    c.write_buf.extend_from_slice(&bytes);
                    c.resp_ends
                        .push((c.write_buf.len(), routed.trace, Instant::now()));
                    c.ready = Instant::now();
                    if !self.shared.config.keep_alive
                        || close_requested
                        || self.shared.shutdown.load(Ordering::Relaxed)
                    {
                        c.close_after_flush = true;
                        break;
                    }
                }
                Ok(None) => break, // need more bytes
                Err(e) => {
                    self.shared.metrics.bad_requests.inc();
                    let resp = Response::status(Status::BadRequest)
                        .with_header("X-Serve-Error", e.to_string());
                    let bytes = encode_or_bare(&resp);
                    let Some(c) = self.conns.get_mut(key) else {
                        break;
                    };
                    c.write_buf.extend_from_slice(&bytes);
                    c.close_after_flush = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            if let Some(c) = self.conns.get_mut(key) {
                c.read_buf.drain(..consumed);
            }
        }
        consumed
    }

    /// After EOF: answer a trailing half-request with a `400` ("connection
    /// closed mid-request", counted in `serve.bad_requests`) and mark the
    /// connection to close once flushed.
    fn finish_eof(&mut self, key: usize) {
        let leftover = match self.conns.get_mut(key) {
            Some(c) if c.eof => {
                let leftover = !c.read_buf.is_empty() && !c.close_after_flush;
                if leftover {
                    c.read_buf.clear();
                    let resp = Response::status(Status::BadRequest)
                        .with_header("X-Serve-Error", "connection closed mid-request");
                    c.write_buf.extend_from_slice(&encode_or_bare(&resp));
                }
                c.close_after_flush = true;
                leftover
            }
            _ => return,
        };
        if leftover {
            self.shared.metrics.bad_requests.inc();
        }
    }

    /// Write as much of the pending response bytes as the socket takes.
    fn flush(&mut self, key: usize) -> Flush {
        loop {
            let res = {
                let Some(c) = self.conns.get_mut(key) else {
                    return Flush::Closed;
                };
                if c.written >= c.write_buf.len() {
                    break;
                }
                c.stream.write(&c.write_buf[c.written..])
            };
            match res {
                Ok(0) => {
                    self.close(key);
                    return Flush::Closed;
                }
                Ok(n) => {
                    let flushed = match self.conns.get_mut(key) {
                        Some(c) => {
                            c.written += n;
                            c.take_flushed()
                        }
                        None => Vec::new(),
                    };
                    if !flushed.is_empty() {
                        self.shared.metrics.responses.add(flushed.len() as u64);
                        for (tctx, queued_at) in flushed {
                            if let Some(tctx) = tctx {
                                trace::record_stage_with(
                                    &self.shared.hub,
                                    &tctx,
                                    Stage::Flush,
                                    Some(queued_at.elapsed().as_micros() as u64),
                                );
                            }
                        }
                    }
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                    let write_timeout = self.shared.config.write_timeout_ms;
                    self.set_writable(key, true);
                    self.arm_deadline(key, write_timeout);
                    return Flush::Pending;
                }
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(key);
                    return Flush::Closed;
                }
            }
        }
        let close_now = {
            let Some(c) = self.conns.get_mut(key) else {
                return Flush::Closed;
            };
            c.write_buf.clear();
            c.written = 0;
            c.resp_ends.clear();
            c.close_after_flush
        };
        if close_now {
            self.close(key);
            return Flush::Closed;
        }
        self.set_writable(key, false);
        Flush::Flushed
    }

    /// Read until `WouldBlock`, EOF, error, or a buffer cap.
    ///
    /// `parser_progressed` is whether the preceding parse pass consumed
    /// bytes. If it did, the soft cap applies: pause at [`READ_SOFT_CAP`]
    /// and let the pump process the buffered pipeline. If it did not, the
    /// buffer holds one incomplete request — stopping at the soft cap
    /// would livelock the pump (nothing to parse, nothing to flush,
    /// nothing read), so reading continues to a hard cap instead. The
    /// hard cap is unreachable by a request the wire limits accept: at
    /// `max_head_bytes + max_body_bytes` buffered, `parse_request` must
    /// either produce a request or a typed error, both of which make
    /// progress.
    fn fill(&mut self, key: usize, parser_progressed: bool) -> Fill {
        let limits = &self.shared.config.limits;
        let cap = if parser_progressed {
            READ_SOFT_CAP
        } else {
            READ_SOFT_CAP + limits.max_head_bytes + limits.max_body_bytes
        };
        let mut chunk = [0u8; READ_CHUNK];
        let mut progress = false;
        loop {
            let res = match self.conns.get_mut(key) {
                Some(c) => {
                    if c.read_buf.len() >= cap {
                        // Process what we have before buffering more.
                        return Fill::Progress;
                    }
                    c.stream.read(&mut chunk)
                }
                None => return Fill::Closed,
            };
            match res {
                Ok(0) => {
                    if let Some(c) = self.conns.get_mut(key) {
                        c.eof = true;
                    }
                    return Fill::Progress;
                }
                Ok(n) => {
                    if let Some(c) = self.conns.get_mut(key) {
                        c.read_buf.extend_from_slice(&chunk[..n]);
                    }
                    progress = true;
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                    return if progress { Fill::Progress } else { Fill::Idle };
                }
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(key);
                    return Fill::Closed;
                }
            }
        }
    }

    /// Resume read interest and arm the idle/read deadline.
    fn await_readable(&mut self, key: usize) {
        self.set_writable(key, false);
        let read_timeout = self.shared.config.read_timeout_ms;
        self.arm_deadline(key, read_timeout);
    }

    /// Switch between READABLE (normal) and WRITABLE-only (flush stalled:
    /// reads pause so the peer's refusal to read backpressures through its
    /// TCP window instead of growing our buffers).
    fn set_writable(&mut self, key: usize, on: bool) {
        let Some(c) = self.conns.get_mut(key) else {
            return;
        };
        if c.wants_writable == on {
            return;
        }
        c.wants_writable = on;
        let interest = if on {
            Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        let _ = self
            .poll
            .registry()
            .reregister(&mut c.stream, Token(key), interest);
    }

    /// Set the connection's one deadline `timeout_ms` from now, replacing
    /// its entry in the deadline set.
    fn arm_deadline(&mut self, key: usize, timeout_ms: u64) {
        let at = self.shared.now_ms() + timeout_ms.max(1);
        let Some(c) = self.conns.get_mut(key) else {
            return;
        };
        self.deadlines.remove(&(c.deadline_ms, key));
        c.deadline_ms = at;
        self.deadlines.insert((at, key));
    }

    /// Drop the connection, its buffers and its deadline entry.
    fn close(&mut self, key: usize) {
        if let Some(mut conn) = self.conns.remove(key) {
            self.deadlines.remove(&(conn.deadline_ms, key));
            let _ = conn.stream.deregister(self.poll.registry());
            self.open.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Loop 0: accept until `WouldBlock`, admitting or shedding, and deal
    /// connections round-robin across the loops.
    fn accept_all(&mut self) {
        loop {
            let res = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match res {
                Ok((stream, peer)) => {
                    if self.draining {
                        continue; // dropping the socket refuses the peer
                    }
                    // Every connect is counted exactly once: shed ones in
                    // `serve.rejected_busy` only, admitted ones in
                    // `serve.connections` (IPv6 peers included — they pass
                    // admission and are then rejected with a typed `400`).
                    if self.open.load(Ordering::SeqCst) >= self.capacity {
                        self.shared.metrics.rejected_busy.inc();
                        best_effort_write(stream, &shed_response());
                        continue;
                    }
                    self.shared.metrics.connections.inc();
                    let src = match peer.ip() {
                        IpAddr::V4(v4) => v4,
                        IpAddr::V6(_) => {
                            self.shared.metrics.bad_requests.inc();
                            best_effort_write(stream, &ipv6_reject_response());
                            continue;
                        }
                    };
                    self.open.fetch_add(1, Ordering::SeqCst);
                    let accepted = Instant::now();
                    let target = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if target == self.index {
                        self.adopt(stream, src, accepted);
                    } else {
                        self.peers[target]
                            .inbox
                            .lock()
                            .push((stream, src, accepted));
                        let _ = self.peers[target].waker.wake();
                    }
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient per-connection failure (e.g. ECONNABORTED):
                // keep accepting.
                Err(_) => {}
            }
        }
    }

    /// Take ownership of an admitted connection: arm the read deadline,
    /// register, and pump once (the socket may already hold a request).
    fn adopt(&mut self, stream: TcpStream, src: Ipv4Addr, accepted: Instant) {
        let _ = stream.set_nodelay(true);
        let conn = Conn {
            stream,
            src,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            resp_ends: Vec::new(),
            ready: accepted,
            deadline_ms: 0,
            close_after_flush: false,
            wants_writable: false,
            eof: false,
        };
        let key = self.conns.insert(conn);
        self.arm_deadline(key, self.shared.config.read_timeout_ms);
        let registered = {
            let c = self.conns.get_mut(key).expect("just inserted");
            self.poll
                .registry()
                .register(&mut c.stream, Token(key), Interest::READABLE)
                .is_ok()
        };
        if !registered {
            self.close(key);
            return;
        }
        self.pump(key);
    }

    /// Adopt every connection other threads handed this loop.
    fn drain_inbox(&mut self) {
        loop {
            let batch: Vec<Handoff> = std::mem::take(&mut *self.inbox.lock());
            if batch.is_empty() {
                return;
            }
            for (stream, src, accepted) in batch {
                if self.draining {
                    // Admitted before shutdown hit; refuse by close.
                    self.open.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                self.adopt(stream, src, accepted);
            }
        }
    }

    /// Shutdown observed: stop accepting, close idle connections *now*,
    /// let pending flushes finish under their write deadlines.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(mut l) = self.listener.take() {
            let _ = l.deregister(self.poll.registry());
        }
        for key in self.conns.keys() {
            let idle = match self.conns.get_mut(key) {
                Some(c) => c.written >= c.write_buf.len(),
                None => continue,
            };
            if idle {
                // Idle keep-alive (or mid-request — its half-request gets
                // no reply, same as a network partition).
                self.close(key);
            } else if let Some(c) = self.conns.get_mut(key) {
                c.close_after_flush = true;
            }
        }
    }
}

/// One nonblocking write of an encoded response, then close by drop.
/// Whatever the kernel buffer refuses is lost — the peer sees a reset,
/// which is still a refusal. Never blocks the accept path.
fn best_effort_write(mut stream: TcpStream, resp: &Response) {
    let _ = stream.write(&encode_or_bare(resp));
}
