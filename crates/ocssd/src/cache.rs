//! Controller write-back cache admission model.
//!
//! The paper's drives acknowledge writes as soon as they land in controller
//! DRAM ("the Open-Channel SSD implements a write-back policy where writes
//! complete as soon as they hit the storage controller cache", §4.3). The
//! cache has finite capacity: once outstanding (not-yet-programmed) data
//! exceeds it, new writes stall until earlier programs finish — which is how
//! sustained write workloads become bound by NAND drain bandwidth, and how
//! flush/compaction interference on parallel units feeds back into client
//! write latency (Figures 5 and 6).
//!
//! Implementation: each admitted write unit is scheduled onto its PU/channel
//! timeline immediately (its *drain completion* time is known at admission),
//! and the cache tracks `(bytes, drain_done)` records in a completion-ordered
//! heap. A write arriving when occupancy would exceed capacity completes only
//! after enough earlier drains finish.

use ox_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Write-back cache sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes of controller DRAM dedicated to write buffering.
    pub capacity_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 64 MB of write buffer — small relative to workload footprints so
        // sustained writes feel NAND drain bandwidth, as on the real drive.
        CacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Admission-controlled write-back cache.
pub(crate) struct WriteCache {
    capacity: u64,
    occupancy: u64,
    // (drain completion time, bytes) of outstanding units, earliest first.
    outstanding: BinaryHeap<Reverse<(SimTime, u64)>>,
    // High-water mark of everything ever admitted (for flush-all).
    last_drain_done: SimTime,
    stalls: u64,
}

impl WriteCache {
    pub(crate) fn new(config: CacheConfig) -> Self {
        WriteCache {
            capacity: config.capacity_bytes.max(1),
            occupancy: 0,
            outstanding: BinaryHeap::new(),
            last_drain_done: SimTime::ZERO,
            stalls: 0,
        }
    }

    /// Releases records whose drain completed by `now`.
    fn release_until(&mut self, now: SimTime) {
        while let Some(&Reverse((t, bytes))) = self.outstanding.peek() {
            if t > now {
                break;
            }
            self.outstanding.pop();
            self.occupancy -= bytes;
        }
    }

    /// Admits a write of `bytes` arriving at `now`. Returns the time the
    /// cache has room (i.e. when the host write can be acknowledged, before
    /// adding DMA cost). The caller must then call [`WriteCache::commit`]
    /// with the unit's drain completion time.
    pub(crate) fn admit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.release_until(now);
        let mut at = now;
        if bytes >= self.capacity {
            // Oversized single write: degenerate to write-through (wait for
            // everything, then for itself — handled by caller via drain time).
            while let Some(&Reverse((t, _))) = self.outstanding.peek() {
                at = at.max(t);
                self.release_until(at);
            }
            if at > now {
                self.stalls += 1;
            }
            return at;
        }
        while self.occupancy + bytes > self.capacity {
            let Some(&Reverse((t, _))) = self.outstanding.peek() else {
                break;
            };
            at = at.max(t);
            self.release_until(at);
        }
        if at > now {
            self.stalls += 1;
        }
        at
    }

    /// Records an admitted unit that finishes draining to NAND at `done`.
    pub(crate) fn commit(&mut self, bytes: u64, done: SimTime) {
        self.occupancy += bytes;
        self.outstanding.push(Reverse((done, bytes)));
        self.last_drain_done = self.last_drain_done.max(done);
    }

    /// Time by which every write admitted so far is durable.
    pub(crate) fn flush_deadline(&self, now: SimTime) -> SimTime {
        self.last_drain_done.max(now)
    }

    /// Number of writes that stalled on a full cache.
    pub(crate) fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Power failure: all buffered data is gone.
    pub(crate) fn crash(&mut self) {
        self.occupancy = 0;
        self.outstanding.clear();
        self.last_drain_done = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    impl WriteCache {
        /// Occupancy in bytes once drains completed by `now` are released.
        fn occupancy_at(&mut self, now: SimTime) -> u64 {
            self.release_until(now);
            self.occupancy
        }
    }

    fn cache(bytes: u64) -> WriteCache {
        WriteCache::new(CacheConfig {
            capacity_bytes: bytes,
        })
    }

    #[test]
    fn admits_immediately_when_room() {
        let mut c = cache(1000);
        assert_eq!(c.admit(t(5), 400), t(5));
        c.commit(400, t(100));
        assert_eq!(c.admit(t(6), 400), t(6));
        c.commit(400, t(200));
        assert_eq!(c.occupancy_at(t(6)), 800);
        assert_eq!(c.stalls(), 0);
    }

    #[test]
    fn stalls_until_drain_frees_room() {
        let mut c = cache(1000);
        c.admit(t(0), 600);
        c.commit(600, t(100));
        c.admit(t(0), 400);
        c.commit(400, t(200));
        // Full: next write must wait for the 600-byte unit draining at 100us.
        assert_eq!(c.admit(t(1), 500), t(100));
        c.commit(500, t(300));
        assert_eq!(c.stalls(), 1);
    }

    #[test]
    fn drained_units_free_space_automatically() {
        let mut c = cache(1000);
        c.admit(t(0), 1000);
        c.commit(1000, t(50));
        assert_eq!(c.occupancy_at(t(49)), 1000);
        assert_eq!(c.occupancy_at(t(50)), 0);
        assert_eq!(c.admit(t(60), 1000), t(60));
    }

    #[test]
    fn oversized_write_waits_for_everything() {
        let mut c = cache(100);
        c.admit(t(0), 90);
        c.commit(90, t(500));
        let at = c.admit(t(1), 150);
        assert_eq!(at, t(500));
    }

    #[test]
    fn flush_deadline_covers_all_admitted() {
        let mut c = cache(1000);
        c.admit(t(0), 10);
        c.commit(10, t(300));
        c.admit(t(0), 10);
        c.commit(10, t(200));
        assert_eq!(c.flush_deadline(t(0)), t(300));
        assert_eq!(c.flush_deadline(t(400)), t(400));
    }

    #[test]
    fn crash_empties_cache() {
        let mut c = cache(1000);
        c.admit(t(0), 500);
        c.commit(500, t(100));
        c.crash();
        assert_eq!(c.occupancy_at(t(0)), 0);
        assert_eq!(c.flush_deadline(t(0)), t(0));
    }

    #[test]
    fn stall_ordering_is_fifo_by_drain_time() {
        let mut c = cache(100);
        c.admit(t(0), 60);
        c.commit(60, t(300));
        c.admit(t(0), 40);
        c.commit(40, t(100));
        // Needs 50 bytes: the 40-byte unit drains first (t=100) freeing 40,
        // still not enough; the 60-byte unit at t=300 frees the rest.
        assert_eq!(c.admit(t(1), 50), t(300));
    }
}
