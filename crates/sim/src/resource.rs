//! Single-server resource timelines.
//!
//! Both types model a resource that serves one request at a time and
//! accumulate busy time (utilization) and total queueing delay (how the
//! GC-locality experiment counts "affected" I/O). They differ in which order
//! they serve requests in:
//!
//! * [`Timeline`] serves in *acquisition* order: a request arriving at `t`
//!   while the resource is busy until `b` starts at `max(t, b)`. A caller
//!   that books several steps of one operation into the virtual future makes
//!   every later call queue behind them, idle gaps included. The group
//!   channel, the host link and the host-side resources (LightLSM's dispatch
//!   thread, lsmkv's throttle, OX-ELEOS's cores) use it.
//! * [`ArrivalTimeline`] serves in *arrival* order by back-filling: it keeps
//!   the booked busy intervals, and a request takes the earliest idle gap at
//!   or after its arrival that fits its service time. A request never delays
//!   one already booked. The NAND parallel units use it. The channel and the
//!   host link stay FIFO for now: back-filling the channel moves the
//!   closed-loop WAL's wait from reads into writes, and back-filling the host
//!   link lets a writer overrun its neighbours' reads, which needs read
//!   priority over queued programs first.

use crate::{SimDuration, SimTime};
use std::collections::VecDeque;

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
        utilization(self.busy_time, horizon)
    }

    /// Resets all counters and frees the resource (crash simulation).
    pub fn reset(&mut self) {
        *self = Timeline::default();
    }
}

/// Most busy intervals an [`ArrivalTimeline`] remembers. Past it the two
/// oldest merge, so the oldest gap is forgotten and serving before it falls
/// back to FIFO. 64 and 512 grant the same instants on every oxperf update
/// workload; 8 does not.
const MAX_INTERVALS: usize = 64;

/// A single-server resource on the virtual clock that serves requests in
/// arrival order by back-filling idle gaps (see the module doc).
#[derive(Clone, Debug, Default)]
pub struct ArrivalTimeline {
    /// Booked `[start, end)` intervals: sorted, disjoint, never touching.
    busy: VecDeque<(SimTime, SimTime)>,
    busy_time: SimDuration,
    queue_delay: SimDuration,
}

impl ArrivalTimeline {
    /// A fresh, idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves a request arriving at `arrival` with the given service time in
    /// the earliest gap at or after `arrival` that fits it.
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        self.acquire_after(arrival, arrival, service)
    }

    /// [`ArrivalTimeline::acquire`] for a request that also may not start
    /// before `floor` (an order it must keep with earlier requests). Its
    /// queueing delay still counts from `arrival`.
    pub fn acquire_after(
        &mut self,
        arrival: SimTime,
        floor: SimTime,
        service: SimDuration,
    ) -> Grant {
        let ready = arrival.max(floor);
        let (start, at) = match self.busy.back() {
            Some(&(_, last_end)) if ready < last_end => self.first_fit(ready, service),
            _ => (ready, self.busy.len()),
        };
        let end = start + service;
        if !service.is_zero() {
            self.book(at, start, end);
        }
        self.queue_delay += start - arrival;
        self.busy_time += service;
        Grant { start, end }
    }

    /// The earliest start at or after `arrival` with `service` free before
    /// the next booked interval, and the index that interval has.
    fn first_fit(&self, arrival: SimTime, service: SimDuration) -> (SimTime, usize) {
        let first = self.busy.partition_point(|&(_, end)| end <= arrival);
        let mut start = arrival;
        for i in first..self.busy.len() {
            let (next_start, next_end) = self.busy[i];
            if start + service <= next_start {
                return (start, i);
            }
            start = next_end;
        }
        (start, self.busy.len())
    }

    /// Books `[start, end)` before interval `at`, coalescing with the
    /// neighbours it touches, then enforces [`MAX_INTERVALS`].
    fn book(&mut self, at: usize, start: SimTime, end: SimTime) {
        let joins_prev = at > 0 && self.busy[at - 1].1 == start;
        let joins_next = at < self.busy.len() && self.busy[at].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.busy[at - 1].1 = self.busy[at].1;
                self.busy.remove(at);
            }
            (true, false) => self.busy[at - 1].1 = end,
            (false, true) => self.busy[at].0 = start,
            (false, false) => self.busy.insert(at, (start, end)),
        }
        if self.busy.len() > MAX_INTERVALS {
            if let Some((oldest_start, _)) = self.busy.pop_front() {
                self.busy[0].0 = oldest_start;
            }
        }
    }

    /// The end of the latest booked interval: after it the resource is idle
    /// for good (earlier gaps may still be free).
    pub fn busy_until(&self) -> SimTime {
        self.busy.back().map_or(SimTime::ZERO, |&(_, end)| end)
    }

    /// Total service time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Total queueing delay imposed on requests.
    pub fn total_queue_delay(&self) -> SimDuration {
        self.queue_delay
    }

    /// Utilization over `[SimTime::ZERO, horizon]`, in `[0, 1]`.
    ///
    /// Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        utilization(self.busy_time, horizon)
    }

    /// Resets all counters and frees the resource (crash simulation).
    pub fn reset(&mut self) {
        *self = ArrivalTimeline::default();
    }
}

fn utilization(busy: SimDuration, horizon: SimTime) -> f64 {
    if horizon == SimTime::ZERO {
        return 0.0;
    }
    (busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

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

    #[test]
    fn a_request_back_fills_a_gap_that_fits_it() {
        let mut tl = ArrivalTimeline::new();
        tl.acquire(t(100), d(10));
        let g = tl.acquire(t(0), d(20));
        assert_eq!((g.start, g.end), (t(0), t(20)));
        assert_eq!(g.wait(t(0)), SimDuration::ZERO);
        assert_eq!(tl.busy_until(), t(110), "the latest end still bounds it");
        assert_eq!(tl.busy_time(), d(30));
    }

    #[test]
    fn a_gap_too_small_is_skipped() {
        let mut tl = ArrivalTimeline::new();
        tl.acquire(t(0), d(10));
        tl.acquire(t(30), d(10));
        // Arrives inside [0, 10); the gap [10, 30) is 5 µs short.
        let g = tl.acquire(t(5), d(25));
        assert_eq!((g.start, g.end), (t(40), t(65)));
        assert_eq!(tl.total_queue_delay(), d(35));
        // A request that fits the gap still takes it.
        let g = tl.acquire(t(5), d(20));
        assert_eq!((g.start, g.end), (t(10), t(30)));
        assert_eq!(tl.busy.len(), 1, "[0, 65) is one busy stretch now");
    }

    #[test]
    fn a_floor_holds_the_start_back_and_the_wait_counts_from_the_arrival() {
        let mut tl = ArrivalTimeline::new();
        tl.acquire(t(100), d(10));
        let g = tl.acquire_after(t(0), t(50), d(20));
        assert_eq!((g.start, g.end), (t(50), t(70)));
        assert_eq!(tl.total_queue_delay(), d(50));
        // The gap left before [100, 110) still takes what fits.
        assert_eq!(tl.acquire_after(t(0), t(60), d(30)).start, t(70));
        assert_eq!(tl.acquire_after(t(0), t(60), d(1)).start, t(110));
    }

    #[test]
    fn touching_intervals_coalesce() {
        let mut tl = ArrivalTimeline::new();
        tl.acquire(t(0), d(10));
        tl.acquire(t(20), d(10));
        tl.acquire(t(40), d(10));
        assert_eq!(tl.busy.len(), 3);
        tl.acquire(t(10), d(10)); // touches both neighbours
        assert_eq!(tl.busy, [(t(0), t(30)), (t(40), t(50))]);
        tl.acquire(t(35), d(5)); // touches the next one only
        tl.acquire(t(50), d(5)); // appended, touching the last
        assert_eq!(tl.busy, [(t(0), t(30)), (t(35), t(55))]);
        tl.acquire(t(30), d(5));
        assert_eq!(tl.busy, [(t(0), t(55))]);
    }

    #[test]
    fn booked_intervals_never_move_and_each_request_takes_the_earliest_gap() {
        for seed in 0..50 {
            let mut rng = Prng::seed_from_u64(seed);
            let mut tl = ArrivalTimeline::new();
            let mut granted: Vec<Grant> = Vec::new();
            // Few enough requests that no gap is forgotten.
            for _ in 0..MAX_INTERVALS / 2 {
                let arrival = t(rng.gen_range(1_000));
                let service = d(1 + rng.gen_range(40));
                let g = tl.acquire(arrival, service);
                assert_eq!(g.end, g.start + service, "seed {seed}");
                assert!(g.start >= arrival, "seed {seed}");
                let overlaps =
                    |s: SimTime, e: SimTime| granted.iter().any(|b| s < b.end && b.start < e);
                assert!(
                    !overlaps(g.start, g.end),
                    "seed {seed}: {g:?} moved a booking"
                );
                // No earlier start at or after the arrival would have fitted:
                // every candidate is the arrival or the end of a booking.
                let earlier = std::iter::once(arrival)
                    .chain(granted.iter().map(|b| b.end))
                    .filter(|&s| s >= arrival && s < g.start)
                    .find(|&s| !overlaps(s, s + service));
                assert_eq!(earlier, None, "seed {seed}: {g:?} skipped a gap");
                granted.push(g);
            }
        }
    }

    #[test]
    fn past_the_bound_the_oldest_gap_is_forgotten() {
        let mut tl = ArrivalTimeline::new();
        // Busy [20i, 20i + 10): a 10 µs gap after each interval.
        let book = |tl: &mut ArrivalTimeline, i: u64| tl.acquire(t(20 * i), d(10));
        for i in 0..MAX_INTERVALS as u64 {
            book(&mut tl, i);
        }
        assert_eq!(tl.busy.len(), MAX_INTERVALS);
        assert_eq!(tl.clone().acquire(t(10), d(5)).start, t(10));
        book(&mut tl, MAX_INTERVALS as u64);
        assert_eq!(tl.busy.len(), MAX_INTERVALS);
        assert_eq!(tl.busy[0], (t(0), t(30)), "the two oldest merged");
        // The oldest gap is gone: serving there is FIFO behind [0, 30).
        assert_eq!(tl.acquire(t(10), d(5)).start, t(30));
    }

    #[test]
    fn with_non_decreasing_arrivals_it_grants_what_the_fifo_timeline_grants() {
        for seed in 0..20 {
            let mut rng = Prng::seed_from_u64(seed);
            let mut fifo = Timeline::new();
            let mut arrival = ArrivalTimeline::new();
            let mut now = SimTime::ZERO;
            for step in 0..2_000 {
                now += d(rng.gen_range(30));
                let service = d(1 + rng.gen_range(25));
                let want = fifo.acquire(now, service);
                assert_eq!(
                    arrival.acquire(now, service),
                    want,
                    "seed {seed} step {step}"
                );
                assert_eq!(arrival.busy_until(), fifo.busy_until());
            }
            assert_eq!(arrival.total_queue_delay(), fifo.total_queue_delay());
            assert_eq!(arrival.busy_time(), fifo.busy_time());
            arrival.reset();
            assert_eq!(arrival.busy_until(), SimTime::ZERO);
        }
    }
}
