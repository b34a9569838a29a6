//! Network event log — a pcap-like debug trace of what the simulator did
//! most recently.
//!
//! A bounded ring buffer, so long studies don't grow without limit:
//! `geoserp probe --trace` prints it, and tests inspect what a short run
//! left in it (e.g. "all queries hit the pinned datacenter").
//!
//! **A window, not a count.** [`EventLog::snapshot`] and
//! [`EventLog::to_text`] see only the most recent `capacity` events; older
//! ones are evicted, and the log keeps no totals. Lifetime totals live in
//! the metrics registry (`net.requests`, `net.dropped`, `net.timeouts`,
//! ...) and, for the crawl, in the dataset's metadata.

use crate::clock::SimInstant;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// What happened to one message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetEventKind {
    /// Request delivered to a server.
    Request {
        /// Target host name.
        host: String,
        /// Path plus query string.
        target: String,
    },
    /// Response returned to the client.
    Response {
        /// Numeric HTTP status.
        status: u16,
    },
    /// DNS lookup failed.
    NoRoute {
        /// The unresolvable host name.
        host: String,
    },
    /// Fault injector dropped the message.
    Dropped,
    /// Fault injector corrupted the response body.
    Corrupted,
    /// The client timed out waiting for the exchange.
    TimedOut,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetEvent {
    /// Virtual-clock timestamp at which the event was observed.
    pub at: SimInstant,
    /// Source address — the client machine that initiated the exchange.
    pub src: Ipv4Addr,
    /// Destination, when one was resolved.
    pub dst: Option<Ipv4Addr>,
    /// What happened to the message (request, response, or fault).
    pub kind: NetEventKind,
}

/// Bounded, thread-safe event log.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    events: Mutex<VecDeque<NetEvent>>,
}

impl EventLog {
    /// Keep at most `capacity` most-recent events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        EventLog {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
        }
    }

    /// Append an event, evicting the oldest if full.
    pub fn record(&self, event: NetEvent) {
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Snapshot of retained events, oldest first.
    pub fn snapshot(&self) -> Vec<NetEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Export retained events as a tcpdump-style text trace.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in self.events.lock().iter() {
            let t = e.at.millis();
            let dst = e
                .dst
                .map(|d| d.to_string())
                .unwrap_or_else(|| "?".to_string());
            let line = match &e.kind {
                NetEventKind::Request { host, target } => {
                    format!(
                        "{:>10}.{:03} {} > {} GET {host}{target}",
                        t / 1000,
                        t % 1000,
                        e.src,
                        dst
                    )
                }
                NetEventKind::Response { status } => {
                    format!(
                        "{:>10}.{:03} {} < {} HTTP {status}",
                        t / 1000,
                        t % 1000,
                        e.src,
                        dst
                    )
                }
                NetEventKind::NoRoute { host } => {
                    format!(
                        "{:>10}.{:03} {} !> {host}: no route",
                        t / 1000,
                        t % 1000,
                        e.src
                    )
                }
                NetEventKind::Dropped => {
                    format!(
                        "{:>10}.{:03} {} > {} DROPPED",
                        t / 1000,
                        t % 1000,
                        e.src,
                        dst
                    )
                }
                NetEventKind::Corrupted => {
                    format!(
                        "{:>10}.{:03} {} < {} CORRUPTED",
                        t / 1000,
                        t % 1000,
                        e.src,
                        dst
                    )
                }
                NetEventKind::TimedOut => {
                    format!(
                        "{:>10}.{:03} {} < {} TIMEOUT",
                        t / 1000,
                        t % 1000,
                        e.src,
                        dst
                    )
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip;

    fn ev(t: u64, kind: NetEventKind) -> NetEvent {
        NetEvent {
            at: SimInstant(t),
            src: ip("10.0.0.1"),
            dst: Some(ip("10.1.0.1")),
            kind,
        }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let log = EventLog::new(10);
        log.record(ev(1, NetEventKind::Dropped));
        log.record(ev(2, NetEventKind::Corrupted));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].at, SimInstant(1));
        assert_eq!(snap[1].at, SimInstant(2));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let log = EventLog::new(3);
        for t in 0..5 {
            log.record(ev(t, NetEventKind::Dropped));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].at, SimInstant(2));
    }

    #[test]
    fn text_export_reads_like_tcpdump() {
        let log = EventLog::new(8);
        log.record(ev(
            1_234,
            NetEventKind::Request {
                host: "search.example.com".into(),
                target: "/search?q=x".into(),
            },
        ));
        log.record(ev(1_345, NetEventKind::Response { status: 429 }));
        log.record(ev(1_400, NetEventKind::TimedOut));
        let text = log.to_text();
        assert!(text.contains("GET search.example.com/search?q=x"), "{text}");
        assert!(text.contains("HTTP 429"));
        assert!(text.contains("TIMEOUT"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        EventLog::new(0);
    }
}
