//! Virtual time.
//!
//! All timestamps in geoserp are milliseconds on a shared [`VirtualClock`].
//! The crawler's lock-step scheduler advances the clock explicitly (e.g. the
//! paper's 11-minute wait between subsequent queries, §2.2); nothing sleeps
//! and nothing reads the OS clock, so runs are reproducible and fast.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A millisecond timestamp on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimInstant(pub u64);

impl SimInstant {
    /// Milliseconds since the start of the simulation.
    pub fn millis(self) -> u64 {
        self.0
    }
}

/// Shared, thread-safe virtual clock.
///
/// Cheap to clone (an [`Arc`] around an atomic); all clones see the same
/// timeline.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now_ms: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.now_ms.load(Ordering::SeqCst))
    }

    /// Advance by `ms` milliseconds; returns the new time.
    pub fn advance_ms(&self, ms: u64) -> SimInstant {
        SimInstant(self.now_ms.fetch_add(ms, Ordering::SeqCst) + ms)
    }

    /// Advance by whole minutes (the paper's waits are quoted in minutes).
    pub fn advance_minutes(&self, minutes: u64) -> SimInstant {
        self.advance_ms(minutes * 60_000)
    }

    /// Jump to an absolute time; panics if that would move time backwards.
    pub fn set(&self, at: SimInstant) {
        let prev = self.now_ms.swap(at.0, Ordering::SeqCst);
        assert!(
            prev <= at.0,
            "virtual time may not go backwards ({prev} -> {})",
            at.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now().millis(), 0);
        assert_eq!(c.advance_ms(250).millis(), 250);
        assert_eq!(c.now().millis(), 250);
    }

    #[test]
    fn minutes_helper() {
        let c = VirtualClock::new();
        c.advance_minutes(11); // the paper's inter-query wait
        assert_eq!(c.now().millis(), 11 * 60_000);
    }

    #[test]
    fn clones_share_the_timeline() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        c.advance_ms(10);
        assert_eq!(c2.now().millis(), 10);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn set_cannot_rewind() {
        let c = VirtualClock::new();
        c.advance_ms(100);
        c.set(SimInstant(50));
    }
}
