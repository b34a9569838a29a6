//! Crawl machine pools.
//!
//! §2.2: "We distributed our query load over 44 machines in a single /24
//! subnet to avoid being rate-limited by Google." The validation experiment
//! instead used "50 different PlanetLab machines across the US", i.e.
//! machines whose IP geolocation is scattered — that scatter is what lets
//! the experiment prove GPS dominates IP.

use geoserp_geo::Coord;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A pool of crawl machines: IPs plus (for PlanetLab-style pools) the
/// physical location their IPs geolocate to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachinePool {
    machines: Vec<(Ipv4Addr, Option<Coord>)>,
}

/// Size of the paper's main crawl cluster.
pub const CLUSTER_SIZE: usize = 44;

/// Size of the paper's PlanetLab validation pool.
pub const PLANETLAB_SIZE: usize = 50;

impl MachinePool {
    /// The main study cluster: `count` machines in one /24
    /// (`198.51.100.0/24`, TEST-NET-2), all physically at `site` — the
    /// university lab hosting the crawl. Only IP geolocation sees the site.
    pub fn cluster(count: usize, site: Coord) -> Self {
        assert!((1..=254).contains(&count), "a /24 holds 1..=254 hosts");
        MachinePool {
            machines: (1..=count as u8)
                .map(|h| (Ipv4Addr::new(198, 51, 100, h), Some(site)))
                .collect(),
        }
    }

    /// A PlanetLab-style pool: one machine per site, each in its own /24
    /// (`203.0.113.0/24`-adjacent ranges) and physically at the given
    /// coordinates.
    pub fn planetlab(sites: &[Coord]) -> Self {
        assert!(!sites.is_empty() && sites.len() <= 254, "1..=254 sites");
        MachinePool {
            machines: sites
                .iter()
                .enumerate()
                .map(|(i, &c)| (Ipv4Addr::new(203, 0, i as u8 + 1, 10), Some(c)))
                .collect(),
        }
    }

    /// Machine addresses in pool order.
    pub fn ips(&self) -> Vec<Ipv4Addr> {
        self.machines.iter().map(|(ip, _)| *ip).collect()
    }

    /// `(ip, physical location)` pairs.
    pub fn entries(&self) -> &[(Ipv4Addr, Option<Coord>)] {
        &self.machines
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True if the pool has no machines (constructors prevent this).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machine serving job number `i` (round-robin).
    ///
    /// Invariant relied on by the crawl executor: job `i` maps to pool slot
    /// `i % len()`, so fetching each machine's jobs in job-index order
    /// fixes every machine's request order for any worker count.
    pub fn assign(&self, i: usize) -> Ipv4Addr {
        self.machines[i % self.machines.len()].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_net::subnet24;

    #[test]
    fn cluster_is_one_slash24() {
        let site = Coord::new(42.34, -71.09); // a Boston-area lab
        let pool = MachinePool::cluster(CLUSTER_SIZE, site);
        assert_eq!(pool.len(), 44);
        assert!(!pool.is_empty());
        let subnets: std::collections::HashSet<[u8; 3]> =
            pool.ips().iter().map(|&ip| subnet24(ip)).collect();
        assert_eq!(subnets.len(), 1, "all machines share one /24");
    }

    #[test]
    fn cluster_ips_are_distinct() {
        let pool = MachinePool::cluster(44, Coord::new(0.0, 0.0));
        let mut ips = pool.ips();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 44);
    }

    #[test]
    fn planetlab_machines_have_distinct_subnets() {
        let sites: Vec<Coord> = (0..PLANETLAB_SIZE)
            .map(|i| Coord::new(30.0 + i as f64 * 0.3, -120.0 + i as f64))
            .collect();
        let pool = MachinePool::planetlab(&sites);
        assert_eq!(pool.len(), 50);
        let subnets: std::collections::HashSet<[u8; 3]> =
            pool.ips().iter().map(|&ip| subnet24(ip)).collect();
        assert_eq!(subnets.len(), 50, "every machine in its own /24");
        for ((_, loc), site) in pool.entries().iter().zip(&sites) {
            assert_eq!(loc.as_ref(), Some(site));
        }
    }

    #[test]
    fn round_robin_assignment_wraps() {
        let pool = MachinePool::cluster(3, Coord::new(0.0, 0.0));
        assert_eq!(pool.assign(0), pool.assign(3));
        assert_ne!(pool.assign(0), pool.assign(1));
    }

    #[test]
    fn assignment_matches_slot_index_partitioning() {
        // The crawl executor claims jobs as `i % len()` per machine; that
        // must agree with `assign` for every job index.
        let pool = MachinePool::cluster(CLUSTER_SIZE, Coord::new(0.0, 0.0));
        let ips = pool.ips();
        for i in 0..3 * CLUSTER_SIZE {
            assert_eq!(pool.assign(i), ips[i % ips.len()], "job {i}");
        }
    }

    #[test]
    #[should_panic(expected = "/24 holds")]
    fn oversized_cluster_rejected() {
        MachinePool::cluster(300, Coord::new(0.0, 0.0));
    }
}
