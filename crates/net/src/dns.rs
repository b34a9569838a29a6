//! Simulated DNS.
//!
//! The search service is fronted by several datacenter IPs behind one name;
//! plain resolution rotates across them (load balancing), which is itself a
//! noise source (different datacenters may serve different index replicas).
//! §2.2 of the paper eliminates this confound by statically mapping the DNS
//! entry — [`DnsResolver::pin`] reproduces exactly that.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe name → IPs resolver: round-robin rotation with static
/// overrides.
#[derive(Debug, Default)]
pub struct DnsResolver {
    records: RwLock<HashMap<String, Vec<Ipv4Addr>>>,
    overrides: RwLock<HashMap<String, Ipv4Addr>>,
    counter: AtomicU64,
}

impl DnsResolver {
    /// See the type-level docs: `new`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) the address set for a name.
    pub fn register(&self, name: impl Into<String>, addrs: Vec<Ipv4Addr>) {
        assert!(!addrs.is_empty(), "a DNS record needs at least one address");
        self.records.write().insert(name.into(), addrs);
    }

    /// Statically map `name` to a single address, bypassing rotation — the
    /// paper's "/etc/hosts" datacenter pinning. The address must be one of
    /// the name's registered addresses (you can only pin to a real server).
    pub fn pin(&self, name: &str, addr: Ipv4Addr) {
        let records = self.records.read();
        let addrs = records
            .get(name)
            .unwrap_or_else(|| panic!("cannot pin unregistered name {name}"));
        assert!(
            addrs.contains(&addr),
            "{addr} is not a registered address of {name}"
        );
        drop(records);
        self.overrides.write().insert(name.to_string(), addr);
    }

    /// Resolve a name. Overrides win; otherwise round-robin over the record
    /// set (deterministic: an internal counter, not wall-clock or entropy).
    pub fn resolve(&self, name: &str) -> Option<Ipv4Addr> {
        if let Some(&addr) = self.overrides.read().get(name) {
            return Some(addr);
        }
        let records = self.records.read();
        let addrs = records.get(name)?;
        let i = self.counter.fetch_add(1, Ordering::Relaxed) as usize % addrs.len();
        Some(addrs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip;

    #[test]
    fn round_robin_rotation() {
        let dns = DnsResolver::new();
        dns.register("search.example.com", vec![ip("10.0.0.1"), ip("10.0.0.2")]);
        let a = dns.resolve("search.example.com").unwrap();
        let b = dns.resolve("search.example.com").unwrap();
        let c = dns.resolve("search.example.com").unwrap();
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn pin_fixes_the_answer() {
        let dns = DnsResolver::new();
        dns.register("search.example.com", vec![ip("10.0.0.1"), ip("10.0.0.2")]);
        dns.pin("search.example.com", ip("10.0.0.2"));
        for _ in 0..5 {
            assert_eq!(dns.resolve("search.example.com"), Some(ip("10.0.0.2")));
        }
    }

    #[test]
    fn unknown_name_is_none() {
        let dns = DnsResolver::new();
        assert_eq!(dns.resolve("nope.example"), None);
    }

    #[test]
    #[should_panic(expected = "not a registered address")]
    fn pin_requires_registered_address() {
        let dns = DnsResolver::new();
        dns.register("a.example", vec![ip("10.0.0.1")]);
        dns.pin("a.example", ip("10.9.9.9"));
    }

    #[test]
    #[should_panic(expected = "cannot pin unregistered")]
    fn pin_requires_registered_name() {
        let dns = DnsResolver::new();
        dns.pin("a.example", ip("10.0.0.1"));
    }

    #[test]
    #[should_panic(expected = "at least one address")]
    fn register_rejects_empty() {
        let dns = DnsResolver::new();
        dns.register("a.example", vec![]);
    }
}
