//! Per-chunk state machine and write-pointer discipline.
//!
//! OCSSD 2.0 chunk states: `Free` (erased, writable from sector 0), `Open`
//! (partially written; next write must land on the write pointer), `Closed`
//! (fully written), `Offline` (worn out or grown bad). Writes advance the
//! write pointer in `ws_min` multiples; a reset returns the chunk to `Free`
//! and bumps its wear count.
//!
//! The chunk also tracks the *durable prefix*: sectors acknowledged by the
//! write-back cache but not yet programmed to NAND are lost on power failure,
//! so `write_ptr` (acknowledged) and the durable pointer can differ until the
//! cache drains. [`Chunk::crash`] rolls the chunk back to its durable prefix,
//! which is exactly what a host FTL observes after `kill -9` (paper §4.3).

use ox_sim::SimTime;
use std::collections::VecDeque;

/// OCSSD 2.0 chunk state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChunkState {
    /// Erased; writable starting at sector 0.
    Free,
    /// Partially written; next write must start at the write pointer.
    Open,
    /// Fully written; read-only until reset.
    Closed,
    /// Retired by the device (wear-out or media failure).
    Offline,
}

/// Snapshot of chunk metadata, as returned by the *report chunk* admin
/// command (what FTL recovery scans after a crash).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Current state.
    pub state: ChunkState,
    /// Next writable sector (= number of durable sectors after a crash).
    pub write_ptr: u32,
    /// Program/erase cycles endured.
    pub wear: u32,
}

/// One write acknowledged by the cache but possibly not yet on media.
#[derive(Clone, Copy, Debug)]
struct PendingWrite {
    sectors: u32,
    durable_at: SimTime,
}

/// Internal chunk bookkeeping.
#[derive(Clone, Debug)]
pub(crate) struct Chunk {
    state: ChunkState,
    write_ptr: u32,
    wear: u32,
    pending: VecDeque<PendingWrite>,
    /// When the latest program or erase completes (zero once the device
    /// restarts). Kept apart from `pending`, which reads prune.
    floor: SimTime,
}

impl Chunk {
    pub(crate) fn new() -> Self {
        Chunk {
            state: ChunkState::Free,
            write_ptr: 0,
            wear: 0,
            pending: VecDeque::new(),
            floor: SimTime::ZERO,
        }
    }

    pub(crate) fn state(&self) -> ChunkState {
        self.state
    }

    pub(crate) fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    #[cfg(test)]
    pub(crate) fn wear(&self) -> u32 {
        self.wear
    }

    pub(crate) fn info(&self) -> ChunkInfo {
        ChunkInfo {
            state: self.state,
            write_ptr: self.write_ptr,
            wear: self.wear,
        }
    }

    pub(crate) fn set_offline(&mut self) {
        self.state = ChunkState::Offline;
        self.pending.clear();
    }

    /// Retires the chunk for writing after a failed program: a chunk holding
    /// data closes early (the failed unit never landed, the written prefix
    /// stays readable until the host migrates it), an empty chunk goes
    /// offline. Pending drains of earlier, acknowledged writes proceed.
    pub(crate) fn freeze(&mut self) {
        if self.write_ptr == 0 {
            self.set_offline();
        } else if self.state != ChunkState::Offline {
            self.state = ChunkState::Closed;
        }
    }

    /// Whether a write of `sectors` starting at `start` is legal, and if so
    /// records it (acknowledged now, durable at `durable_at`).
    ///
    /// Caller has already validated alignment against the geometry.
    pub(crate) fn accept_write(
        &mut self,
        start: u32,
        sectors: u32,
        chunk_sectors: u32,
        durable_at: SimTime,
    ) {
        debug_assert!(matches!(self.state, ChunkState::Free | ChunkState::Open));
        debug_assert_eq!(start, self.write_ptr);
        debug_assert!(start + sectors <= chunk_sectors);
        self.write_ptr += sectors;
        self.state = if self.write_ptr == chunk_sectors {
            ChunkState::Closed
        } else {
            ChunkState::Open
        };
        self.pending.push_back(PendingWrite {
            sectors,
            durable_at,
        });
        self.floor = self.floor.max(durable_at);
    }

    /// Drops pending entries that are durable as of `now`.
    fn prune(&mut self, now: SimTime) {
        while matches!(self.pending.front(), Some(p) if p.durable_at <= now) {
            self.pending.pop_front();
        }
    }

    /// Number of sectors guaranteed on media as of `now`.
    pub(crate) fn durable_ptr(&mut self, now: SimTime) -> u32 {
        self.prune(now);
        let pending: u32 = self.pending.iter().map(|p| p.sectors).sum();
        self.write_ptr - pending
    }

    /// Whether sector `s` must be served from the controller cache at `now`
    /// (written and acknowledged, but not yet programmed).
    #[cfg(test)]
    pub(crate) fn is_cached(&mut self, s: u32, now: SimTime) -> bool {
        s < self.write_ptr && s >= self.durable_ptr(now)
    }

    /// Time at which everything currently pending becomes durable.
    pub(crate) fn drain_deadline(&self) -> Option<SimTime> {
        self.pending.iter().map(|p| p.durable_at).max()
    }

    /// The earliest instant the chunk's next program or erase may start:
    /// when its latest program or erase completes. A parallel unit that
    /// back-fills would otherwise run a later-issued command first.
    pub(crate) fn floor(&self) -> SimTime {
        self.floor
    }

    /// Resets the chunk (erase), which completes at `erased_at`. Caller
    /// validated the state. Returns the new wear count.
    pub(crate) fn reset(&mut self, erased_at: SimTime) -> u32 {
        self.floor = erased_at;
        debug_assert!(matches!(
            self.state,
            ChunkState::Open | ChunkState::Closed | ChunkState::Free
        ));
        self.state = ChunkState::Free;
        self.write_ptr = 0;
        self.wear += 1;
        self.pending.clear();
        self.wear
    }

    /// Power failure at `now`: lose every write that was not yet durable and
    /// roll the write pointer back to the durable prefix. Returns the range
    /// of sectors lost (`[new_wp, old_wp)`).
    pub(crate) fn crash(&mut self, now: SimTime) -> std::ops::Range<u32> {
        let old = self.write_ptr;
        let durable = self.durable_ptr(now);
        self.write_ptr = durable;
        self.pending.clear();
        self.floor = SimTime::ZERO;
        if self.state != ChunkState::Offline {
            self.state = if durable == 0 {
                ChunkState::Free
            } else if old > durable || self.state == ChunkState::Open {
                ChunkState::Open
            } else {
                self.state
            };
        }
        durable..old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK_SECTORS: u32 = 96;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn fresh_chunk_is_free() {
        let c = Chunk::new();
        assert_eq!(c.state(), ChunkState::Free);
        assert_eq!(c.write_ptr(), 0);
        assert_eq!(c.wear(), 0);
    }

    #[test]
    fn writes_advance_pointer_and_close_at_capacity() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(10));
        assert_eq!(c.state(), ChunkState::Open);
        assert_eq!(c.write_ptr(), 24);
        c.accept_write(24, 48, CHUNK_SECTORS, t(20));
        c.accept_write(72, 24, CHUNK_SECTORS, t(30));
        assert_eq!(c.state(), ChunkState::Closed);
        assert_eq!(c.write_ptr(), CHUNK_SECTORS);
    }

    #[test]
    fn durable_pointer_lags_until_drain() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        c.accept_write(24, 24, CHUNK_SECTORS, t(200));
        assert_eq!(c.durable_ptr(t(0)), 0);
        assert_eq!(c.durable_ptr(t(100)), 24);
        assert_eq!(c.durable_ptr(t(150)), 24);
        assert_eq!(c.durable_ptr(t(200)), 48);
    }

    #[test]
    fn cached_window_tracks_pending_writes() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        assert!(c.is_cached(0, t(50)));
        assert!(c.is_cached(23, t(50)));
        assert!(!c.is_cached(24, t(50))); // unwritten
        assert!(!c.is_cached(0, t(100))); // now durable
    }

    #[test]
    fn crash_rolls_back_to_durable_prefix() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        c.accept_write(24, 24, CHUNK_SECTORS, t(200));
        let lost = c.crash(t(150));
        assert_eq!(lost, 24..48);
        assert_eq!(c.write_ptr(), 24);
        assert_eq!(c.state(), ChunkState::Open);
    }

    #[test]
    fn crash_with_nothing_durable_frees_chunk() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        let lost = c.crash(t(0));
        assert_eq!(lost, 0..24);
        assert_eq!(c.state(), ChunkState::Free);
        assert_eq!(c.write_ptr(), 0);
    }

    #[test]
    fn crash_on_closed_chunk_with_pending_tail_reopens() {
        let mut c = Chunk::new();
        c.accept_write(0, 72, CHUNK_SECTORS, t(10));
        c.accept_write(72, 24, CHUNK_SECTORS, t(100));
        assert_eq!(c.state(), ChunkState::Closed);
        c.crash(t(50));
        assert_eq!(c.state(), ChunkState::Open);
        assert_eq!(c.write_ptr(), 72);
    }

    #[test]
    fn crash_on_fully_durable_chunk_is_a_no_op() {
        let mut c = Chunk::new();
        c.accept_write(0, CHUNK_SECTORS, CHUNK_SECTORS, t(10));
        let lost = c.crash(t(20));
        assert!(lost.is_empty());
        assert_eq!(c.state(), ChunkState::Closed);
        assert_eq!(c.write_ptr(), CHUNK_SECTORS);
    }

    #[test]
    fn reset_frees_and_wears() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(10));
        assert_eq!(c.reset(t(20)), 1);
        assert_eq!(c.state(), ChunkState::Free);
        assert_eq!(c.write_ptr(), 0);
        assert_eq!(c.reset(t(30)), 2);
    }

    #[test]
    fn floor_is_the_latest_program_or_erase_and_a_crash_clears_it() {
        let mut c = Chunk::new();
        assert_eq!(c.floor(), SimTime::ZERO);
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        assert_eq!(c.floor(), t(100));
        assert_eq!(c.durable_ptr(t(200)), 24, "a read prunes the drained unit");
        assert_eq!(c.floor(), t(100), "but not the floor");
        c.reset(t(500));
        assert_eq!(c.floor(), t(500));
        c.accept_write(0, 24, CHUNK_SECTORS, t(900));
        assert_eq!(c.floor(), t(900));
        c.crash(t(1_000));
        assert_eq!(c.floor(), SimTime::ZERO, "the device restarts idle");
    }

    #[test]
    fn drain_deadline_is_max_pending() {
        let mut c = Chunk::new();
        assert_eq!(c.drain_deadline(), None);
        c.accept_write(0, 24, CHUNK_SECTORS, t(300));
        c.accept_write(24, 24, CHUNK_SECTORS, t(200));
        assert_eq!(c.drain_deadline(), Some(t(300)));
    }

    #[test]
    fn offline_clears_pending_and_sticks() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        c.set_offline();
        assert_eq!(c.state(), ChunkState::Offline);
        c.crash(t(0));
        assert_eq!(c.state(), ChunkState::Offline);
    }

    #[test]
    fn freeze_closes_written_chunk_and_offlines_empty_one() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(100));
        c.freeze();
        assert_eq!(c.state(), ChunkState::Closed);
        assert_eq!(c.write_ptr(), 24, "failed program must not advance wp");
        assert_eq!(c.drain_deadline(), Some(t(100)), "earlier writes drain");
        let mut empty = Chunk::new();
        empty.freeze();
        assert_eq!(empty.state(), ChunkState::Offline);
    }

    #[test]
    fn info_snapshot() {
        let mut c = Chunk::new();
        c.accept_write(0, 24, CHUNK_SECTORS, t(1));
        let i = c.info();
        assert_eq!(i.state, ChunkState::Open);
        assert_eq!(i.write_ptr, 24);
        assert_eq!(i.wear, 0);
    }
}
