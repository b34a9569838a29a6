#![warn(missing_docs)]
//! # geoserp-net — deterministic message-level network simulator
//!
//! The paper's crawler had to navigate real operational constraints: Google
//! rate-limits aggressive clients (hence "44 machines in a single /24
//! subnet"), DNS load-balances across datacenters (hence "we statically
//! mapped the DNS entry for the Google Search server"), and the validation
//! experiment ran from 50 PlanetLab machines with distinct IPs. This crate
//! reproduces those constraints as a *deterministic, virtual-time* network —
//! in the event-driven, no-surprises spirit of smoltcp rather than a real
//! socket stack, because determinism is what makes a simulated measurement
//! study reproducible.
//!
//! Components:
//!
//! * [`VirtualClock`] — shared millisecond clock; nothing in geoserp ever
//!   reads wall time;
//! * [`Request`] / [`Response`] — a minimal HTTP-shaped message pair
//!   ([`bytes::Bytes`] bodies, ordered headers, query parameters);
//! * [`DnsResolver`] — name → set of server IPs, round-robin by default,
//!   with the static-override facility the paper used to pin one datacenter;
//! * [`FaultInjector`] — probabilistic drop / byte-corruption
//!   (smoltcp-style `--drop-chance` / `--corrupt-chance`);
//! * [`RateLimiter`] — per-source sliding-window limits, keyed by exact IP or
//!   /24, the constraint that forced the paper's machine pool;
//! * [`Server`] — trait for simulated services; [`SimNet`] routes requests
//!   from client IPs to registered servers and counts every exchange, fault
//!   and failure in the shared metrics registry (`net.*`).
//!
//! Everything is `Send + Sync`; the crawler drives many clients from scoped
//! threads against one shared [`SimNet`].

pub mod clock;
pub mod dns;
pub mod fault;
pub mod http;
pub mod ratelimit;
pub mod server;
pub mod shardmsg;
pub mod sim;
pub mod wire;

pub use clock::VirtualClock;
pub use dns::DnsResolver;
pub use fault::FaultInjector;
pub use http::{Method, Request, Response, Status};
pub use ratelimit::{RateLimitKey, RateLimiter};
pub use server::{RequestCtx, Server};
pub use shardmsg::{
    ShardRetrieveRequest, ShardRetrieveResponse, ShardSuggestRequest, ShardSuggestResponse,
    SpellCandidate, SHARD_RETRIEVE_PATH, SHARD_SUGGEST_PATH,
};
pub use sim::{NetError, SimNet, SimNetBuilder};
pub use wire::{
    encode_request, encode_response, parse_request, parse_response, WireError, WireLimits,
    TRACE_HEADER,
};

/// Convenience: parse an IPv4 address, panicking on bad literals (for tests
/// and fixtures).
pub fn ip(s: &str) -> std::net::Ipv4Addr {
    s.parse().expect("valid IPv4 literal")
}

/// The /24 prefix of an IPv4 address (the granularity Google-style rate
/// limiting and the paper's machine pool care about).
pub fn subnet24(addr: std::net::Ipv4Addr) -> [u8; 3] {
    let o = addr.octets();
    [o[0], o[1], o[2]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_helper_parses() {
        assert_eq!(ip("10.1.2.3").octets(), [10, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "valid IPv4")]
    fn ip_helper_panics_on_garbage() {
        ip("not-an-ip");
    }

    #[test]
    fn subnet_extraction() {
        assert_eq!(subnet24(ip("192.168.7.200")), [192, 168, 7]);
        assert_eq!(subnet24(ip("192.168.7.1")), subnet24(ip("192.168.7.254")));
        assert_ne!(subnet24(ip("192.168.7.1")), subnet24(ip("192.168.8.1")));
    }
}
