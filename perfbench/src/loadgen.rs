//! The serve workloads' load generator: one process, two keep-alive
//! pipelined connections, at most two threads.
//!
//! * [`open_loop`] — independent users: a seeded Poisson arrival stream at a
//!   fixed rate, split at random over the two connections. A writer thread
//!   sends each request at its due time whatever the server is doing; the
//!   calling thread reads responses. Latency runs from each request's *due*
//!   time, so a stall also charges the requests queued behind it, and the
//!   writer's own lateness is reported as lag.
//! * [`closed_loop`] — callers that wait: each connection keeps
//!   [`PEAK_DEPTH`] requests outstanding and sends a new one per response;
//!   one thread drives both. Its throughput is the peak the server sustains.
//!
//! Every response must be `200`; every 16th body must parse as a SERP. A
//! failed, refused or unanswered request is a latency sample of infinity.

use crate::SplitMix64;
use geoserp_core::corpus::WebCorpus;
use geoserp_core::engine::{GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp_core::geo::{Seed, UsGeography, VantagePoints};
use geoserp_core::net::{encode_request, parse_response, Request, Response, Status, WireLimits};
use mio::{Events, Interest, Poll, Token};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and, for the open loop, client threads).
pub const CONNECTIONS: usize = 2;
/// Outstanding requests per connection on the closed-loop peak rung.
pub const PEAK_DEPTH: usize = 32;
/// Every this many responses, the body is parsed as a SERP.
pub const PARSE_EVERY: u64 = 16;
/// How long responses may trail the last send before they count as lost.
const DRAIN_GRACE: Duration = Duration::from_secs(3);
/// How close to a request's due time the open-loop writer stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_micros(60);
/// How long one blocked write may wait for socket space.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);
const USER_AGENT: &str = "Mozilla/5.0 (iPhone; Safari 8)";

/// The request mix: the 240 paper queries × the 59 vantage GPS fixes of a
/// seed's world, pre-encoded on the wire.
pub struct Mix {
    wires: Vec<Vec<u8>>,
}

impl Mix {
    /// Generate the seed's world inputs and encode every (query, fix) pair.
    pub fn new(seed: u64) -> Mix {
        let seed = Seed::new(seed);
        let geo = UsGeography::generate(seed);
        let corpus = WebCorpus::generate(&geo, seed);
        let vantage = VantagePoints::paper_defaults(&geo, seed.derive("vantage"));
        let fixes: Vec<String> = [&vantage.national, &vantage.state, &vantage.county]
            .into_iter()
            .flatten()
            .map(|l| l.coord.to_gps_string())
            .collect();
        let mut wires = Vec::new();
        for query in corpus.queries.all() {
            for gps in &fixes {
                let req = Request::get(SEARCH_HOST, "/search")
                    .with_query("q", query.term.as_str())
                    .with_header(GEOLOCATION_HEADER, gps.as_str())
                    .with_header("User-Agent", USER_AGENT);
                wires.push(encode_request(&req).expect("generated requests encode"));
            }
        }
        Mix { wires }
    }

    fn pick(&self, rng: &mut SplitMix64) -> &[u8] {
        &self.wires[rng.below(self.wires.len())]
    }
}

/// Outcome counts of one rung.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests written to a socket.
    pub sent: u64,
    /// Responses with another status.
    pub non_ok: u64,
    /// Sampled bodies that did not parse.
    pub parse_failures: u64,
    /// Requests lost to a connection or write error.
    pub transport_errors: u64,
    /// Requests sent but never answered.
    pub unanswered: u64,
}

impl Tally {
    /// Requests that did not succeed.
    pub fn failed(&self) -> u64 {
        self.non_ok + self.parse_failures + self.transport_errors + self.unanswered
    }

    /// Requests attempted (sent or lost before sending).
    pub fn attempted(&self) -> u64 {
        self.sent + self.transport_errors
    }

    /// Judge the `n`-th response (0-based, across the rung); true if it
    /// succeeded.
    fn judge(&mut self, resp: &Response, n: u64) -> bool {
        if resp.status != Status::Ok {
            self.non_ok += 1;
            return false;
        }
        if n.is_multiple_of(PARSE_EVERY) && geoserp_core::serp::parse(&resp.body_text()).is_err() {
            self.parse_failures += 1;
            return false;
        }
        true
    }
}

/// Incremental response reader over one nonblocking connection.
struct Inbox {
    buf: Vec<u8>,
    closed: bool,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            buf: Vec::with_capacity(64 * 1024),
            closed: false,
        }
    }

    /// Read until the socket would block; marks the inbox closed on EOF or
    /// error.
    fn fill(&mut self, stream: &mut impl Read) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }

    /// The next complete response, if buffered. A malformed stream closes
    /// the inbox.
    fn next(&mut self, limits: &WireLimits) -> Option<Response> {
        match parse_response(&self.buf, limits) {
            Ok(Some((resp, used))) => {
                self.buf.drain(..used);
                Some(resp)
            }
            Ok(None) => None,
            Err(_) => {
                self.closed = true;
                None
            }
        }
    }
}

fn limits() -> WireLimits {
    WireLimits::new().max_body_bytes(8 * 1024 * 1024)
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Write all of `bytes` to a nonblocking socket, waiting out full buffers.
fn write_fully(stream: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + WRITE_PATIENCE;
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The open-loop rung's results.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// One latency per scheduled request, ms from its due time; failures
    /// are `INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// How late the writer sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Outcome counts.
    pub tally: Tally,
}

/// One scheduled request.
struct Arrival {
    due: Duration,
    conn: usize,
    wire: usize,
}

/// Drive a Poisson stream of `rate` requests per second for `seconds`.
///
/// # Errors
/// Connection setup failures; per-request failures are counted instead.
pub fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    rate: f64,
    seconds: f64,
    rng: &mut SplitMix64,
) -> io::Result<OpenLoop> {
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            break;
        }
        schedule.push(Arrival {
            due: Duration::from_secs_f64(t),
            conn: rng.below(CONNECTIONS),
            wire: rng.below(mix.wires.len()),
        });
    }
    let due_by_conn: Vec<Vec<Duration>> = (0..CONNECTIONS)
        .map(|c| {
            schedule
                .iter()
                .filter(|a| a.conn == c)
                .map(|a| a.due)
                .collect()
        })
        .collect();

    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let stream = connect(addr)?;
        writers.push(stream.try_clone()?);
        // Nonblocking applies to the shared socket, writer clone included.
        readers.push(mio::net::TcpStream::from_std_checked(stream)?);
    }
    let mut poll = Poll::new()?;
    for (c, r) in readers.iter_mut().enumerate() {
        poll.registry().register(r, Token(c), Interest::READABLE)?;
    }

    let written: Vec<AtomicU64> = (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect();
    let broken: Vec<AtomicBool> = (0..CONNECTIONS).map(|_| AtomicBool::new(false)).collect();
    let writer_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = schedule.last().map_or(Duration::ZERO, |a| a.due);

    let mut out = OpenLoop {
        latencies_ms: Vec::with_capacity(schedule.len()),
        ..OpenLoop::default()
    };
    let lag_ms = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut lag_ms = Vec::with_capacity(schedule.len());
            for a in &schedule {
                if broken[a.conn].load(Ordering::Acquire) {
                    continue;
                }
                // Sleep to just short of the due time, then spin: a plain
                // sleep wakes 50–100 µs late, a large share of a 0.2 ms
                // response time.
                let due = start + a.due;
                if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                if write_fully(&mut writers[a.conn], &mix.wires[a.wire]).is_err() {
                    broken[a.conn].store(true, Ordering::Release);
                    continue;
                }
                written[a.conn].fetch_add(1, Ordering::Release);
            }
            writer_done.store(true, Ordering::Release);
            lag_ms
        });

        let limits = limits();
        let mut inboxes: Vec<Inbox> = (0..CONNECTIONS).map(|_| Inbox::new()).collect();
        let mut received = [0usize; CONNECTIONS];
        let mut events = Events::with_capacity(8);
        let mut n = 0u64;
        loop {
            if poll
                .poll(&mut events, Some(Duration::from_millis(10)))
                .is_err()
            {
                break;
            }
            for c in 0..CONNECTIONS {
                inboxes[c].fill(&mut readers[c]);
                let now = Instant::now();
                while let Some(resp) = inboxes[c].next(&limits) {
                    let Some(due) = due_by_conn[c].get(received[c]) else {
                        inboxes[c].closed = true; // more responses than requests
                        break;
                    };
                    let ok = out.tally.judge(&resp, n);
                    n += 1;
                    out.latencies_ms.push(if ok {
                        now.saturating_duration_since(start + *due).as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    });
                    received[c] += 1;
                }
                if inboxes[c].closed {
                    broken[c].store(true, Ordering::Release);
                }
            }
            let done = writer_done.load(Ordering::Acquire);
            let all_in = (0..CONNECTIONS).all(|c| {
                inboxes[c].closed || received[c] as u64 == written[c].load(Ordering::Acquire)
            });
            if done && all_in || Instant::now() > start + last_due + DRAIN_GRACE {
                break;
            }
        }
        // Stop the writer early if the drain deadline cut the rung short.
        for b in &broken {
            b.store(true, Ordering::Release);
        }
        let lag_ms = writer.join().expect("writer thread panicked");
        for c in 0..CONNECTIONS {
            let sent = written[c].load(Ordering::Acquire);
            out.tally.sent += sent;
            out.tally.unanswered += sent - received[c] as u64;
            out.tally.transport_errors += due_by_conn[c].len() as u64 - sent;
        }
        lag_ms
    });
    out.lag_ms = lag_ms;
    out.latencies_ms.extend(std::iter::repeat_n(
        f64::INFINITY,
        (out.tally.unanswered + out.tally.transport_errors) as usize,
    ));
    Ok(out)
}

/// The closed-loop rung's results.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Responses received within the rung's window.
    pub completed: u64,
    /// The window, seconds.
    pub window_s: f64,
    /// Outcome counts.
    pub tally: Tally,
}

impl ClosedLoop {
    /// Successful responses per second within the window.
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.window_s
    }
}

/// Keep [`PEAK_DEPTH`] requests outstanding on each connection for
/// `seconds`, from one thread.
///
/// # Errors
/// Connection setup failures; per-request failures are counted instead.
pub fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    seconds: f64,
    rng: &mut SplitMix64,
) -> io::Result<ClosedLoop> {
    let mut poll = Poll::new()?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut stream = mio::net::TcpStream::from_std_checked(connect(addr)?)?;
        poll.registry().register(
            &mut stream,
            Token(c),
            Interest::READABLE | Interest::WRITABLE,
        )?;
        conns.push(stream);
    }
    let limits = limits();
    let mut inboxes: Vec<Inbox> = (0..CONNECTIONS).map(|_| Inbox::new()).collect();
    let mut outboxes: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
    let mut outstanding = [0u64; CONNECTIONS];
    let mut out = ClosedLoop {
        window_s: seconds,
        ..ClosedLoop::default()
    };
    for c in 0..CONNECTIONS {
        for _ in 0..PEAK_DEPTH {
            outboxes[c].extend_from_slice(mix.pick(rng));
            outstanding[c] += 1;
            out.tally.sent += 1;
        }
    }
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut events = Events::with_capacity(8);
    let mut n = 0u64;
    loop {
        poll.poll(&mut events, Some(Duration::from_millis(10)))?;
        let now = Instant::now();
        for c in 0..CONNECTIONS {
            inboxes[c].fill(&mut conns[c]);
            while let Some(resp) = inboxes[c].next(&limits) {
                let ok = out.tally.judge(&resp, n);
                n += 1;
                outstanding[c] -= 1;
                if now < end {
                    out.completed += u64::from(ok);
                    outboxes[c].extend_from_slice(mix.pick(rng));
                    outstanding[c] += 1;
                    out.tally.sent += 1;
                }
            }
            // Flush what the socket takes; the rest waits for WRITABLE.
            while !outboxes[c].is_empty() && !inboxes[c].closed {
                match conns[c].write(&outboxes[c]) {
                    Ok(0) => inboxes[c].closed = true,
                    Ok(k) => drop(outboxes[c].drain(..k)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => inboxes[c].closed = true,
                }
            }
        }
        let idle = (0..CONNECTIONS).all(|c| outstanding[c] == 0 || inboxes[c].closed);
        if now >= end && idle || now >= end + DRAIN_GRACE {
            break;
        }
    }
    out.tally.unanswered = outstanding.iter().sum();
    Ok(out)
}
