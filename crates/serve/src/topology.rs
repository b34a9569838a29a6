//! Cluster topology: how the corpus splits into shards and how the router
//! places requests on replicas.
//!
//! * [`ShardPlan`] — contiguous, balanced page-id ranges. Contiguity is
//!   what makes the scatter-gather merge provably exact: every page's
//!   postings live whole inside one shard, so shard-local match
//!   classification is the global one (see `geoserp_engine::shard`).
//! * [`HashRing`] — consistent hashing with virtual nodes over a shard's
//!   replica set. The router walks the ring's successors for its failover
//!   order, so adding a replica only claims keys for the newcomer
//!   (minimal disruption — proptested) instead of reshuffling everyone.

/// FNV-1a 64-bit (the same tiny hash the crawler's digests use; local so
/// the serve crate stays dependency-light).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Finalizing mixer (splitmix64's) applied to key hashes before ring
/// lookup. FNV-1a of short near-identical inputs has weak avalanche:
/// consecutive counter keys land ~`prime` apart, i.e. inside one narrow
/// arc of the ring, starving most replicas. The mixer restores uniform
/// dispersion (the distribution proptest pins the resulting bound).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Contiguous balanced page-id ranges, one per shard. The first
/// `total % shards` shards take one extra page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `ranges[i]` is shard *i*'s half-open page-id slice.
    pub ranges: Vec<std::ops::Range<u32>>,
}

impl ShardPlan {
    /// Split `total` pages into `shards` contiguous ranges (shards clamped
    /// to ≥ 1).
    pub fn contiguous(total: u32, shards: u32) -> ShardPlan {
        let shards = shards.max(1);
        let base = total / shards;
        let rem = total % shards;
        let mut ranges = Vec::with_capacity(shards as usize);
        let mut lo = 0u32;
        for i in 0..shards {
            let len = base + u32::from(i < rem);
            ranges.push(lo..lo + len);
            lo += len;
        }
        ShardPlan { ranges }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The shard owning a page id (ranges are contiguous from 0, so this
    /// is a binary search).
    pub fn shard_of(&self, page: u32) -> Option<u32> {
        self.ranges
            .iter()
            .position(|r| r.contains(&page))
            .map(|i| i as u32)
    }
}

/// Consistent-hash ring over replica ids `0..replicas`, with `vnodes`
/// virtual nodes per replica.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, replica)` sorted by point.
    points: Vec<(u64, u32)>,
    replicas: u32,
}

/// Virtual nodes per replica: enough that per-replica load stays within a
/// small factor of fair share (the distribution proptest pins bounds).
pub const DEFAULT_VNODES: usize = 128;

impl HashRing {
    /// Build a ring for `replicas` replicas (clamped to ≥ 1) with `vnodes`
    /// points each. Replica *r*'s points are
    /// `mix64(fnv1a64("replica-r/vnode-v"))` — stable, so growing the
    /// replica set only *adds* points (the mixer is as necessary here as
    /// for keys: unmixed, a replica's vnodes clump into a few arcs).
    pub fn new(replicas: u32, vnodes: usize) -> HashRing {
        let replicas = replicas.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(replicas as usize * vnodes);
        for r in 0..replicas {
            for v in 0..vnodes {
                points.push((
                    mix64(fnv1a64(format!("replica-{r}/vnode-{v}").as_bytes())),
                    r,
                ));
            }
        }
        points.sort_unstable();
        HashRing { points, replicas }
    }

    /// The replica owning `key`: the first ring point at or after the
    /// key's hash, wrapping at the top.
    pub fn pick(&self, key: u64) -> u32 {
        self.points[self.successor_index(key)].1
    }

    /// The full failover order for `key`: walk the ring's successors,
    /// keeping the first occurrence of each replica. `order(key)[0]` is
    /// [`HashRing::pick`]; the rest are the hedge/retry targets, every
    /// replica exactly once.
    pub fn order(&self, key: u64) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.replicas as usize);
        let start = self.successor_index(key);
        for i in 0..self.points.len() {
            let r = self.points[(start + i) % self.points.len()].1;
            if !out.contains(&r) {
                out.push(r);
                if out.len() == self.replicas as usize {
                    break;
                }
            }
        }
        out
    }

    fn successor_index(&self, key: u64) -> usize {
        let h = mix64(fnv1a64(&key.to_be_bytes()));
        match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_contiguous_balanced_and_complete() {
        for (total, shards) in [(10u32, 3u32), (9, 3), (1, 4), (0, 2), (100, 1)] {
            let plan = ShardPlan::contiguous(total, shards);
            assert_eq!(plan.shard_count(), shards as usize);
            let mut next = 0u32;
            for r in &plan.ranges {
                assert_eq!(r.start, next, "contiguous from zero");
                next = r.end;
            }
            assert_eq!(next, total, "every page owned");
            let (min, max) = plan
                .ranges
                .iter()
                .map(|r| r.end - r.start)
                .fold((u32::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
            assert!(max - min <= 1, "balanced within one page");
        }
        assert_eq!(ShardPlan::contiguous(10, 2).shard_of(4), Some(0));
        assert_eq!(ShardPlan::contiguous(10, 2).shard_of(5), Some(1));
        assert_eq!(ShardPlan::contiguous(10, 2).shard_of(10), None);
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_replicas() {
        let ring = HashRing::new(3, DEFAULT_VNODES);
        for key in 0..200u64 {
            assert_eq!(ring.pick(key), ring.pick(key));
            let order = ring.order(key);
            assert_eq!(order.len(), 3);
            assert_eq!(order[0], ring.pick(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "every replica appears once");
        }
    }

    #[test]
    fn single_replica_ring_always_picks_it() {
        let ring = HashRing::new(1, 4);
        for key in 0..50u64 {
            assert_eq!(ring.pick(key), 0);
            assert_eq!(ring.order(key), vec![0]);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
