//! A fixed-interval arrival clock for open-loop load generation.
//!
//! Closed-loop benches (issue the next request when the previous one
//! returns) systematically under-report tail latency: a slow request delays
//! the requests behind it, so the very samples that would have shown the
//! queueing are never issued — coordinated omission. The open-loop
//! discipline fixes this by scheduling arrival times on a fixed grid
//! *before* any request runs: request `i` is due at `start + i·interval`
//! regardless of how long earlier requests took, and latency is measured
//! from the *scheduled* arrival, so time spent waiting behind a stall is
//! charged to the stalled requests.
//!
//! [`ArrivalClock`] encapsulates that grid. The bench's `tcp` section
//! drives its sender connections with it, under the interleaving convention
//! that lane `c` of `C` owns arrivals `c, c + C, c + 2C, …`; the time from a
//! scheduled arrival to the actual send is the generator's own lateness,
//! which the bench reports beside the latency instead of hiding in it.

use std::time::{Duration, Instant};

/// A fixed arrival grid: request `i` is due at `start + i·interval` (see
/// the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ArrivalClock {
    start: Instant,
    interval_nanos: u64,
    duration: Duration,
}

impl ArrivalClock {
    /// A clock offering `offered_qps` arrivals per second for `duration`,
    /// starting `lead` from now (a small lead lets worker threads spawn
    /// before the first arrival is due).
    pub fn new(offered_qps: u64, duration: Duration, lead: Duration) -> Self {
        ArrivalClock {
            start: Instant::now() + lead,
            interval_nanos: 1_000_000_000 / offered_qps.max(1),
            duration,
        }
    }

    /// The scheduled arrival instant of request `i`, or `None` when it
    /// falls past the run's duration.
    pub fn arrival(&self, i: u64) -> Option<Instant> {
        let offset = Duration::from_nanos(i.saturating_mul(self.interval_nanos));
        if offset >= self.duration {
            None
        } else {
            Some(self.start + offset)
        }
    }

    /// Sleeps until request `i` is due and returns its scheduled arrival
    /// instant (immediately, without sleeping, when the clock is already
    /// behind schedule), or `None` when `i` falls past the run's duration.
    /// Measure latency as `arrival.elapsed()` after the request completes —
    /// that charges queueing delay to the request that was scheduled to
    /// observe it.
    pub fn wait_for(&self, i: u64) -> Option<Instant> {
        let arrival = self.arrival(i)?;
        let now = Instant::now();
        if arrival > now {
            std::thread::sleep(arrival - now);
        }
        Some(arrival)
    }

    /// The nanosecond spacing between consecutive arrivals.
    pub fn interval_nanos(&self) -> u64 {
        self.interval_nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_fixed_and_bounded() {
        let clock = ArrivalClock::new(1_000, Duration::from_millis(10), Duration::ZERO);
        assert_eq!(clock.interval_nanos(), 1_000_000);
        let a0 = clock.arrival(0).unwrap();
        let a3 = clock.arrival(3).unwrap();
        assert_eq!(a3 - a0, Duration::from_millis(3));
        // 10 ms at 1 kqps → arrivals 0..=9 exist, 10 does not.
        assert!(clock.arrival(9).is_some());
        assert!(clock.arrival(10).is_none());
    }

    #[test]
    fn wait_returns_scheduled_arrival_even_when_late() {
        let clock = ArrivalClock::new(1_000_000, Duration::from_millis(5), Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        // Arrival 0 was due ~2 ms ago: wait_for must not sleep and the
        // elapsed time since the *scheduled* arrival reflects the delay.
        let scheduled = clock.wait_for(0).unwrap();
        assert!(scheduled.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn zero_offered_load_is_clamped() {
        let clock = ArrivalClock::new(0, Duration::from_secs(1), Duration::ZERO);
        assert_eq!(clock.interval_nanos(), 1_000_000_000);
    }
}
