//! Measurement utilities for experiments: counters, latency histograms and
//! fixed-window throughput time series.

mod histogram;
mod timeseries;

pub use histogram::Histogram;
pub use timeseries::{TimeSeries, Window};

/// A monotonically increasing event counter with a byte tally.
///
/// Used for per-component I/O accounting (reads/writes/erases issued, bytes
/// moved) throughout the device and FTL layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    ops: u64,
    bytes: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event moving `bytes` bytes.
    #[inline]
    pub fn record(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Records `ops` events moving `bytes` bytes in total.
    #[inline]
    pub fn record_many(&mut self, ops: u64, bytes: u64) {
        self.ops += ops;
        self.bytes += bytes;
    }

    /// Events recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Adds another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.ops += other.ops;
        self.bytes += other.bytes;
    }
}

/// The nearest-rank `q`-quantile (0..=1) of samples sorted ascending: the
/// sample at index `round((len - 1) * q)`; 0 with no samples. Exact, unlike
/// [`Histogram::quantile`], which answers from buckets.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rounds_to_the_closest_sample() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        let s = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&s, 0.0), 10);
        assert_eq!(nearest_rank(&s, 0.5), 30); // 1.5 rounds away from zero
        assert_eq!(nearest_rank(&s, 0.49), 20);
        assert_eq!(nearest_rank(&s, 1.0), 40);
        assert_eq!(nearest_rank(&s, 2.0), 40);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.record(4096);
        c.record(4096);
        c.record_many(3, 300);
        assert_eq!(c.ops(), 5);
        assert_eq!(c.bytes(), 8492);
    }

    #[test]
    fn counter_merge() {
        let mut a = Counter::new();
        a.record(1);
        let mut b = Counter::new();
        b.record(2);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.ops(), 3);
        assert_eq!(a.bytes(), 6);
    }
}
