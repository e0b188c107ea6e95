//! FIFO resource timelines.
//!
//! A [`Timeline`] models a resource that serves one request at a time (a NAND
//! parallel unit, a channel bus, a CPU core, a dispatch thread). Requests are
//! served in acquisition order: a request arriving at `t` while the resource
//! is busy until `b` starts at `max(t, b)` and occupies the resource for its
//! service time. The timeline also accumulates busy time so experiments can
//! report utilization, and tracks total queueing delay so interference can be
//! quantified (this is how the GC-locality experiment counts "affected" I/O).

use crate::{SimDuration, SimTime};

/// A single-server FIFO resource on the virtual clock.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    busy_until: SimTime,
    busy_time: SimDuration,
    queue_delay: SimDuration,
    served: u64,
    delayed: u64,
}

/// Outcome of acquiring a resource: when service started and ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When the request reached the head of the queue and service began.
    pub start: SimTime,
    /// When the resource becomes free again (request completion).
    pub end: SimTime,
}

impl Grant {
    /// Queueing delay experienced by the request (start − arrival).
    pub fn wait(&self, arrival: SimTime) -> SimDuration {
        self.start.saturating_since(arrival)
    }
}

impl Timeline {
    /// A fresh, idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves a request arriving `now` with the given service time.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = now.max(self.busy_until);
        let end = start + service;
        if start > now {
            self.queue_delay += start - now;
            self.delayed += 1;
        }
        self.busy_until = end;
        self.busy_time += service;
        self.served += 1;
        Grant { start, end }
    }

    /// The instant the resource next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total service time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Total queueing delay imposed on requests.
    pub fn total_queue_delay(&self) -> SimDuration {
        self.queue_delay
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Number of requests that had to queue.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Utilization over `[SimTime::ZERO, horizon]`, in `[0, 1]`.
    ///
    /// Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_time.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    /// Resets all counters and frees the resource (crash simulation).
    pub fn reset(&mut self) {
        *self = Timeline::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut tl = Timeline::new();
        let g = tl.acquire(t(10), d(5));
        assert_eq!(g.start, t(10));
        assert_eq!(g.end, t(15));
        assert_eq!(g.wait(t(10)), SimDuration::ZERO);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut tl = Timeline::new();
        tl.acquire(t(0), d(10));
        let g = tl.acquire(t(2), d(5));
        assert_eq!(g.start, t(10));
        assert_eq!(g.end, t(15));
        assert_eq!(g.wait(t(2)), d(8));
        assert_eq!(tl.delayed(), 1);
        assert_eq!(tl.total_queue_delay(), d(8));
    }

    #[test]
    fn gap_between_requests_leaves_idle_time() {
        let mut tl = Timeline::new();
        tl.acquire(t(0), d(10));
        let g = tl.acquire(t(100), d(10));
        assert_eq!(g.start, t(100));
        assert_eq!(tl.busy_time(), d(20));
        // Utilization over 200us horizon: 20/200.
        let u = tl.utilization(SimTime::from_nanos(200 * US));
        assert!((u - 0.1).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamps_to_one_and_handles_zero_horizon() {
        let mut tl = Timeline::new();
        tl.acquire(t(0), d(100));
        assert_eq!(tl.utilization(SimTime::ZERO), 0.0);
        assert_eq!(tl.utilization(t(10)), 1.0);
    }

    #[test]
    fn served_and_reset() {
        let mut tl = Timeline::new();
        tl.acquire(t(0), d(1));
        tl.acquire(t(0), d(1));
        assert_eq!(tl.served(), 2);
        tl.reset();
        assert_eq!(tl.served(), 0);
        assert_eq!(tl.busy_until(), SimTime::ZERO);
        assert_eq!(tl.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn sequence_is_work_conserving() {
        // A batch of back-to-back requests ends exactly at sum of services.
        let mut tl = Timeline::new();
        let mut last = Grant {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        };
        for _ in 0..100 {
            last = tl.acquire(SimTime::ZERO, d(3));
        }
        assert_eq!(last.end, t(300));
        assert_eq!(tl.busy_time(), d(300));
    }
}
