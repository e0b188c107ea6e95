//! Fixed-window event time series.
//!
//! Figure 6 of the paper plots throughput (operations per second) against
//! elapsed time. [`TimeSeries`] bins completion events into fixed virtual-time
//! windows and reports per-window rates.

use crate::{SimDuration, SimTime};

/// One aggregated window of a [`TimeSeries`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Window start time.
    pub start: SimTime,
    /// Events recorded in the window.
    pub count: u64,
    /// Events per virtual second over the window.
    pub rate_per_sec: f64,
}

/// Bins events at virtual timestamps into fixed-size windows.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    window: SimDuration,
    counts: Vec<u64>,
    total: u64,
}

impl TimeSeries {
    /// Creates a series with the given window size (must be non-zero).
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        TimeSeries {
            window,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Window size.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records `n` events completing at time `at`.
    pub fn record_at(&mut self, at: SimTime, n: u64) {
        let idx = (at.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-window aggregates, in time order (includes empty interior windows).
    pub fn windows(&self) -> Vec<Window> {
        let w_ns = self.window.as_nanos();
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &count)| Window {
                start: SimTime::from_nanos(i as u64 * w_ns),
                count,
                rate_per_sec: count as f64 / self.window.as_secs_f64(),
            })
            .collect()
    }

    /// Peak single-window rate (0.0 if empty).
    pub fn peak_rate(&self) -> f64 {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.window.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts() -> TimeSeries {
        TimeSeries::new(SimDuration::from_secs(1))
    }

    #[test]
    fn events_land_in_right_window() {
        let mut s = ts();
        s.record_at(SimTime::from_millis(100), 1);
        s.record_at(SimTime::from_millis(999), 1);
        s.record_at(SimTime::from_millis(1000), 1);
        s.record_at(SimTime::from_millis(2500), 5);
        let w = s.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].count, 2);
        assert_eq!(w[1].count, 1);
        assert_eq!(w[2].count, 5);
        assert_eq!(w[2].start, SimTime::from_secs(2));
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn rates_are_per_second() {
        let mut s = TimeSeries::new(SimDuration::from_millis(500));
        s.record_at(SimTime::from_millis(100), 50);
        let w = s.windows();
        assert!((w[0].rate_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_interior_windows_are_reported() {
        let mut s = ts();
        s.record_at(SimTime::from_secs(3), 1);
        let w = s.windows();
        assert_eq!(w.len(), 4);
        assert_eq!(w[1].count, 0);
        assert_eq!(w[2].count, 0);
    }

    #[test]
    fn mean_and_peak_rates() {
        let mut s = ts();
        s.record_at(SimTime::from_millis(500), 10);
        s.record_at(SimTime::from_millis(1500), 30);
        assert!((s.peak_rate() - 30.0).abs() < 1e-9);
        assert_eq!(ts().peak_rate(), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        TimeSeries::new(SimDuration::ZERO);
    }
}
