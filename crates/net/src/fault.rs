//! Fault injection, in the style of smoltcp's example options
//! (`--drop-chance`, `--corrupt-chance`).
//!
//! The paper's crawler retried failed page loads; fault injection lets the
//! crawler's retry logic be tested deterministically. Faults default to off
//! for the reproduction experiments (network loss is not a phenomenon the
//! paper studies).
//!
//! Decisions are *pure functions of a nonce* (the network's per-source
//! request sequence number) rather than draws from a shared stream — so a
//! parallel crawl makes exactly the same fault decisions regardless of how
//! its threads interleave, which keeps lossy crawls replayable.

use bytes::{Bytes, BytesMut};
use geoserp_geo::Seed;
use serde::{Deserialize, Serialize};

/// What the injector decided to do to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultDecision {
    /// Deliver.
    Deliver,
    /// Drop.
    Drop,
    /// Corrupt.
    Corrupt,
}

/// Probabilistic message mangler. Stateless: decisions depend only on the
/// seed and the caller-provided nonce.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    drop_chance: f64,
    corrupt_chance: f64,
    seed: Seed,
}

impl FaultInjector {
    /// Chances are probabilities in `[0, 1]`; both zero means a perfect
    /// network.
    pub fn new(seed: Seed, drop_chance: f64, corrupt_chance: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_chance), "drop_chance in [0,1]");
        assert!(
            (0.0..=1.0).contains(&corrupt_chance),
            "corrupt_chance in [0,1]"
        );
        FaultInjector {
            drop_chance,
            corrupt_chance,
            seed: seed.derive("fault-injector"),
        }
    }

    /// The configured drop probability.
    pub fn drop_chance(&self) -> f64 {
        self.drop_chance
    }

    /// The configured corruption probability.
    pub fn corrupt_chance(&self) -> f64 {
        self.corrupt_chance
    }

    /// True if any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop_chance > 0.0 || self.corrupt_chance > 0.0
    }

    /// Decide the fate of the message identified by `nonce`.
    pub fn decide(&self, nonce: u64) -> FaultDecision {
        if !self.is_active() {
            return FaultDecision::Deliver;
        }
        let mut rng = self.seed.derive_idx("decision", nonce).rng();
        if rng.chance(self.drop_chance) {
            FaultDecision::Drop
        } else if rng.chance(self.corrupt_chance) {
            FaultDecision::Corrupt
        } else {
            FaultDecision::Deliver
        }
    }

    /// Mutate one bit of `body`, deterministically for the given nonce
    /// (smoltcp corrupts exactly one octet). Empty bodies pass through.
    pub fn corrupt(&self, nonce: u64, body: &Bytes) -> Bytes {
        if body.is_empty() {
            return body.clone();
        }
        let mut rng = self.seed.derive_idx("corrupt", nonce).rng();
        let idx = rng.below(body.len());
        let bit = 1u8 << rng.below(8);
        let mut m = BytesMut::from(&body[..]);
        m[idx] ^= bit;
        m.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_injector_always_delivers() {
        let f = FaultInjector::new(Seed::new(1), 0.0, 0.0);
        assert!(!f.is_active());
        for nonce in 0..100 {
            assert_eq!(f.decide(nonce), FaultDecision::Deliver);
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let f = FaultInjector::new(Seed::new(2), 0.3, 0.0);
        let drops = (0..10_000u64)
            .filter(|&n| f.decide(n) == FaultDecision::Drop)
            .count();
        assert!((2_500..3_500).contains(&drops), "{drops}");
    }

    #[test]
    fn corrupt_changes_exactly_one_bit() {
        let f = FaultInjector::new(Seed::new(3), 0.0, 1.0);
        let body = Bytes::from_static(b"hello, serp!");
        let mangled = f.corrupt(42, &body);
        assert_eq!(body.len(), mangled.len());
        let diff_bits: u32 = body
            .iter()
            .zip(mangled.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
    }

    #[test]
    fn corrupt_empty_body_is_noop() {
        let f = FaultInjector::new(Seed::new(4), 0.0, 1.0);
        assert!(f.corrupt(0, &Bytes::new()).is_empty());
    }

    #[test]
    fn decisions_are_pure_in_the_nonce() {
        let f = FaultInjector::new(Seed::new(5), 0.2, 0.2);
        for nonce in 0..50 {
            assert_eq!(f.decide(nonce), f.decide(nonce), "nonce {nonce}");
        }
        // Different nonces differ somewhere.
        let all: std::collections::HashSet<FaultDecision> = (0..200).map(|n| f.decide(n)).collect();
        assert!(all.len() > 1);
    }

    #[test]
    fn corruption_is_pure_in_the_nonce() {
        let f = FaultInjector::new(Seed::new(6), 0.0, 1.0);
        let body = Bytes::from_static(b"stable content here");
        assert_eq!(f.corrupt(9, &body), f.corrupt(9, &body));
        assert_ne!(f.corrupt(9, &body), f.corrupt(10, &body));
    }

    #[test]
    #[should_panic(expected = "drop_chance")]
    fn rejects_bad_probability() {
        FaultInjector::new(Seed::new(0), 1.5, 0.0);
    }
}
