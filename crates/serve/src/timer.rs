//! Hashed timer wheel for the event loop: keep-alive idle
//! timeouts, read stalls, and write deadlines.
//!
//! Deadlines hash into `slots` buckets by tick index (`deadline / tick_ms %
//! slots`); the wheel advances a cursor over ticks and drains due entries.
//! Cancellation is lazy: every timer carries the connection's *generation*
//! at arm time, and the reactor ignores entries whose generation no longer
//! matches (the connection re-armed, finished, or the slot was reused).
//! That makes arm/cancel O(1) with no per-timer allocation beyond the slot
//! vectors, at the cost of stale entries riding the wheel until their tick
//! comes up — which is exactly the hashed-wheel trade-off.
//!
//! Accuracy is one tick: a deadline fires in the first `expire` call whose
//! `now` reaches it, and [`TimerWheel::poll_timeout`] never lets the
//! reactor oversleep by more than a tick while timers are pending.

/// One armed timer: fires at `deadline_ms` for connection slot `token`,
/// valid only while the connection's generation is still `gen`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// Absolute deadline, server-relative milliseconds.
    pub deadline_ms: u64,
    /// Connection slot index the timer belongs to.
    pub token: usize,
    /// Generation the owning slot had when the timer was armed.
    pub gen: u64,
}

/// The wheel: `slots` buckets of `tick_ms` granularity.
#[derive(Debug)]
pub struct TimerWheel {
    tick_ms: u64,
    slots: Vec<Vec<TimerEntry>>,
    /// Last tick index `expire` fully processed.
    cursor: u64,
    len: usize,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `tick_ms` each (both clamped ≥ 1).
    pub fn new(tick_ms: u64, slots: usize) -> TimerWheel {
        TimerWheel {
            tick_ms: tick_ms.max(1),
            slots: vec![Vec::new(); slots.max(1)],
            cursor: 0,
            len: 0,
        }
    }

    /// Number of armed (possibly stale) entries riding the wheel.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the wheel empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arm a timer. Deadlines already behind the cursor are hashed onto the
    /// cursor's own tick so they fire on the next [`TimerWheel::expire`].
    pub fn insert(&mut self, deadline_ms: u64, token: usize, gen: u64) {
        let tick = (deadline_ms / self.tick_ms).max(self.cursor);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(TimerEntry {
            deadline_ms,
            token,
            gen,
        });
        self.len += 1;
    }

    /// How long the reactor may sleep at `now_ms` without missing a tick:
    /// `None` when no timers are armed (sleep on I/O alone), otherwise at
    /// most one tick.
    pub fn poll_timeout(&self, now_ms: u64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        // Sleep to the next tick boundary (≥ 1 ms so a boundary-sitting
        // reactor still yields to the OS).
        let next_boundary = (now_ms / self.tick_ms + 1) * self.tick_ms;
        Some((next_boundary - now_ms).max(1))
    }

    /// Advance the wheel to `now_ms`, appending every due entry to `out`.
    /// Stale entries (their owner re-armed) are delivered too — the caller
    /// drops them by generation check.
    pub fn expire(&mut self, now_ms: u64, out: &mut Vec<TimerEntry>) {
        let now_tick = now_ms / self.tick_ms;
        if now_tick < self.cursor {
            return;
        }
        // Visit each slot at most once even after a long sleep: ticks past
        // `slots.len()` wrap onto slots already visited this call.
        let first = self.cursor;
        let last = now_tick.min(first + self.slots.len() as u64 - 1);
        for tick in first..=last {
            let slot = (tick % self.slots.len() as u64) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline_ms <= now_ms {
                    out.push(bucket.swap_remove(i));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        // The current tick stays under the cursor: its entries due later
        // in this tick must be visited again by the next call.
        self.cursor = now_tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel, now: u64) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        wheel.expire(now, &mut out);
        out
    }

    #[test]
    fn fires_at_the_deadline_not_before() {
        let mut wheel = TimerWheel::new(10, 8);
        wheel.insert(105, 1, 1);
        assert!(drain(&mut wheel, 99).is_empty());
        let fired = drain(&mut wheel, 110);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 1);
        assert!(wheel.is_empty());
    }

    #[test]
    fn a_deadline_later_in_the_current_tick_fires_in_that_tick() {
        let mut wheel = TimerWheel::new(10, 8);
        wheel.insert(105, 1, 1);
        assert!(drain(&mut wheel, 101).is_empty(), "not due yet");
        assert_eq!(drain(&mut wheel, 110).len(), 1, "not stranded a rotation");
    }

    #[test]
    fn far_deadlines_survive_wheel_wraparound() {
        // 8 slots × 10 ms: a deadline 800 ms out hashes onto a slot the
        // cursor passes many times before it is due.
        let mut wheel = TimerWheel::new(10, 8);
        wheel.insert(805, 3, 1);
        for now in (0..800).step_by(25) {
            assert!(drain(&mut wheel, now).is_empty(), "early fire at {now}");
        }
        assert_eq!(drain(&mut wheel, 810).len(), 1);
    }

    #[test]
    fn long_sleep_expires_everything_due() {
        let mut wheel = TimerWheel::new(10, 8);
        for t in 0..20 {
            wheel.insert(t * 7, t as usize, 1);
        }
        // One giant jump: every slot visited once, all 20 due.
        let fired = drain(&mut wheel, 1_000_000);
        assert_eq!(fired.len(), 20);
        assert!(wheel.is_empty());
    }

    #[test]
    fn poll_timeout_bounds_the_sleep_only_while_armed() {
        let mut wheel = TimerWheel::new(10, 8);
        assert_eq!(wheel.poll_timeout(123), None);
        wheel.insert(5_000, 1, 1);
        let t = wheel.poll_timeout(123).unwrap();
        assert!((1..=10).contains(&t), "one tick max, got {t}");
        // A caller sitting exactly on a boundary still sleeps.
        assert!(wheel.poll_timeout(120).unwrap() >= 1);
    }

    #[test]
    fn stale_generations_are_delivered_for_the_caller_to_drop() {
        let mut wheel = TimerWheel::new(10, 4);
        wheel.insert(10, 7, 1); // armed at gen 1
        wheel.insert(20, 7, 2); // re-armed at gen 2
        let fired = drain(&mut wheel, 30);
        assert_eq!(fired.len(), 2, "lazy cancellation delivers both");
        assert!(fired.iter().any(|e| e.gen == 1) && fired.iter().any(|e| e.gen == 2));
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut wheel = TimerWheel::new(10, 8);
        let mut out = Vec::new();
        wheel.expire(500, &mut out); // move the cursor forward first
        wheel.insert(100, 1, 1); // already past
        wheel.expire(500, &mut out);
        assert_eq!(out.len(), 1, "the cursor's own tick is swept again");
    }
}
