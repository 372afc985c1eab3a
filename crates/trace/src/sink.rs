// lint:allow-file(D2): the one sanctioned wall-clock source — every other
// module in the workspace reaches wall time only through the `Clock` trait,
// and deterministic trace streams never carry it at all (DESIGN.md §8).

//! The real wall clock, quarantined.
//!
//! [`WallClock`] is the only implementation of [`Clock`] that reads
//! `std::time`. It timestamps the *sched* channel (worker/job/cache-race
//! events, explicitly outside the byte-identity contract) and the engine's
//! batch wall-time stat. Nothing on an algorithmic path may construct one;
//! lint rule D2 keeps it that way.

use std::time::Instant;

use crate::clock::Clock;

/// Monotone wall clock measuring nanoseconds since its own construction.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Starts a clock at "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // Saturate rather than wrap: a batch outliving 2^64 ns (~584 years)
        // is not a case worth a wider field.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_from_its_origin() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
