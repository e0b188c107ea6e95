//! The LSM key-value store.
//!
//! Single-writer semantics per operation (callers serialize through
//! [`SharedDb`]); flushes and compactions are driven by background actors
//! calling [`Db::flush_once`] / [`Db::compact_once`] with their own virtual
//! clocks, which is how flush/compaction interference shows up in client
//! latency (Figures 5 and 6).
//!
//! Every write carries a monotonically increasing sequence number;
//! [`Db::snapshot`] pins a read view at the current sequence, and
//! [`Db::scan_range`] iterates the merged key space under such a view.
//! Range deletes land as range tombstones and flow through flushes and
//! compactions until no older overlapping data survives below them.
//!
//! Rate limiting follows RocksDB: L0 buildup first *slows* writes (an added
//! delay per put), then *stalls* them (the put must be retried later). The
//! resulting sawtooth is the throughput oscillation of Figure 6.

use crate::block::{with_entries, EntryView, FindVisible};
use crate::compaction::{
    CompactionJob, CompactionStats, Entry, GroupPruner, MergeIter, TableStream, PREFETCH_DEPTH,
};
use crate::memtable::{shared_memtable, MemCursor, RangeTombstone, SharedMemtable};
use crate::sstable::{TableBuilder, TableHandle};
use crate::store::{StoreError, TableStore};
use crate::version::{LevelMeta, Version};
use ocssd::Payload;
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Database tuning knobs (RocksDB-flavoured).
#[derive(Clone, Copy, Debug)]
pub struct DbConfig {
    /// Memtable budget before rotation.
    pub memtable_bytes: usize,
    /// Immutable memtables allowed before writes stall.
    pub max_immutables: usize,
    /// L0 table count triggering compaction.
    pub l0_compaction_trigger: usize,
    /// L0 table count adding a write delay (RocksDB "slowdown").
    pub l0_slowdown: usize,
    /// L0 table count stalling writes entirely.
    pub l0_stall: usize,
    /// Target size of L1 in blocks; deeper levels multiply.
    pub level_base_blocks: u64,
    /// Per-level size multiplier.
    pub level_multiplier: u64,
    /// Number of levels (L0 included).
    pub max_levels: usize,
    /// Output table size budget (bytes); clamped to the store's capacity.
    pub table_bytes: usize,
}

/// Initial delayed-write rate while slowed down (bytes per virtual second);
/// adapts to measured compaction throughput, as RocksDB's
/// `delayed_write_rate` controller does.
const DELAYED_WRITE_RATE: f64 = 256.0 * 1024.0 * 1024.0;
/// How long a stalled put waits before retrying.
const STALL_RETRY: SimDuration = SimDuration::from_millis(2);
/// CPU cost charged per put.
const PUT_CPU: SimDuration = SimDuration::from_nanos(1_200);
/// CPU cost charged per get (before device reads).
const GET_CPU: SimDuration = SimDuration::from_nanos(1_000);
/// CPU cost per entry when building/merging tables.
const BUILD_CPU_PER_ENTRY: SimDuration = SimDuration::from_nanos(250);
/// Bloom bits per key of every table built.
const BITS_PER_KEY: u32 = 10;
/// Concurrent compactions allowed (RocksDB background workers).
const MAX_PARALLEL_COMPACTIONS: usize = 4;

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            memtable_bytes: 4 * 1024 * 1024,
            max_immutables: 2,
            l0_compaction_trigger: 4,
            l0_slowdown: 8,
            l0_stall: 12,
            level_base_blocks: 512,
            level_multiplier: 8,
            max_levels: 4,
            table_bytes: 24 * 1024 * 1024,
        }
    }
}

/// Database failure modes.
#[derive(Clone, Debug)]
pub enum DbError {
    /// Backend failure.
    Store(StoreError),
    /// Empty key.
    EmptyKey,
    /// Invalid range (start ≥ end).
    BadRange,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Store(e) => write!(f, "store: {e}"),
            DbError::EmptyKey => write!(f, "empty key"),
            DbError::BadRange => write!(f, "bad range"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<StoreError> for DbError {
    fn from(e: StoreError) -> Self {
        DbError::Store(e)
    }
}

/// Outcome of a put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Applied; completion time given.
    Done(SimTime),
    /// Write stalled (L0/immutable pressure); retry at the given time.
    Stalled(SimTime),
}

/// A pinned read view: every read through it sees exactly the writes with
/// sequence numbers ≤ its own, no matter what lands afterwards. Obtained
/// from [`Db::snapshot`]; must be handed back via [`Db::release_snapshot`]
/// so compaction can reclaim the versions it was pinning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    seq: u64,
}

impl Snapshot {
    /// The sequence number this view is pinned at.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Operation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbStats {
    /// Puts applied.
    pub puts: u64,
    /// Gets served.
    pub gets: u64,
    /// Gets that found a value.
    pub hits: u64,
    /// Range deletes applied.
    pub range_deletes: u64,
    /// Puts delayed by the slowdown trigger.
    pub slowdowns: u64,
    /// Puts rejected with a stall.
    pub stalls: u64,
    /// Data blocks read on the get path.
    pub get_blocks_read: u64,
    /// Data blocks read by iterators, counted when each is released.
    pub scan_blocks_read: u64,
    /// Bloom filter negatives that skipped a table probe.
    pub bloom_skips: u64,
}

/// The LSM store.
pub struct Db {
    store: Arc<dyn TableStore>,
    config: DbConfig,
    /// The active memtable; iterators created while it is active keep
    /// walking it after it is sealed, flushed and gone from here.
    mem: SharedMemtable,
    /// Sealed memtables awaiting flush, oldest first, with flush generation.
    immutables: VecDeque<(u64, SharedMemtable)>,
    next_mem_seq: u64,
    /// Next write sequence number (starts at 1; 0 = "sees nothing").
    next_seq: u64,
    /// Open snapshot sequence numbers → refcount.
    snapshots: BTreeMap<u64, u64>,
    /// Table id → live iterator pin count. Pinned tables removed by a
    /// compaction are parked in `deferred` instead of being deleted.
    pins: BTreeMap<u64, u32>,
    /// Tables removed from the version but still pinned by iterators.
    deferred: BTreeSet<u64>,
    /// Completion times of flushes still in flight (virtual time): sealed
    /// memtables being written count against the write-pressure gate until
    /// their flush completes.
    inflight_flushes: Vec<SimTime>,
    /// Shared delayed-write token line: while L0 is over the slowdown
    /// trigger, puts serialize through this at the adaptive drain rate.
    throttle: ox_sim::Timeline,
    /// EMA of compaction output throughput (bytes per virtual second) —
    /// the rate the throttle admits writes at.
    drain_rate: f64,
    version: Version,
    stats: DbStats,
    cstats: CompactionStats,
    compaction_cursor: Vec<usize>,
    /// In-flight incremental compactions (≤ `MAX_PARALLEL_COMPACTIONS`).
    actives: Vec<ActiveCompaction>,
    active_cursor: usize,
    /// Table ids owned by an in-flight compaction.
    compacting: std::collections::HashSet<u64>,
    obs: Obs,
}

/// State of one incremental compaction.
struct ActiveCompaction {
    from: usize,
    to: usize,
    removed: Vec<u64>,
    drop_tombstones: bool,
    merge: MergeIter,
    builder: TableBuilder,
    outputs: Vec<Arc<TableHandle>>,
    frontier: SimTime,
    started: SimTime,
    /// Input range tombstones (deduplicated); carried to the final output
    /// unless provably dead at the bottom level.
    input_rts: Vec<RangeTombstone>,
    /// Whether a surviving output entry still needs the tombstone at the
    /// same index in `input_rts` to stay hidden.
    rt_covered: Vec<bool>,
    /// Snapshot boundaries captured when the compaction started. Snapshots
    /// released later only allow *more* pruning; snapshots taken later sit
    /// above every sequence and always see the newest kept version.
    boundaries: Vec<u64>,
    /// Version group of the key currently being merged (seq desc), each
    /// version still where its input block holds it.
    group: Vec<EntryView>,
    pruner: GroupPruner,
    entries_out: u64,
    tombstones_dropped: u64,
    rts_dropped: u64,
    shadowed: u64,
    blocks_written: u64,
}

impl Db {
    /// Opens an empty database over a table store, reporting into the
    /// store's sinks: flushes as `lsm.flush` spans, completed compactions as
    /// `lsm.compaction`, write-pressure events as `lsm.stall` /
    /// `lsm.slowdown`.
    pub fn new(store: Arc<dyn TableStore>, mut config: DbConfig) -> Self {
        config.table_bytes = config.table_bytes.min(store.table_capacity_bytes());
        Db {
            config,
            mem: shared_memtable(),
            immutables: VecDeque::new(),
            next_mem_seq: 1,
            next_seq: 1,
            snapshots: BTreeMap::new(),
            pins: BTreeMap::new(),
            deferred: BTreeSet::new(),
            inflight_flushes: Vec::new(),
            throttle: ox_sim::Timeline::new(),
            drain_rate: DELAYED_WRITE_RATE,
            version: Version::new(config.max_levels),
            stats: DbStats::default(),
            cstats: CompactionStats::default(),
            compaction_cursor: vec![0; config.max_levels],
            actives: Vec::new(),
            active_cursor: 0,
            compacting: std::collections::HashSet::new(),
            obs: store.obs(),
            store,
        }
    }

    /// Reopens a database from tables surviving in the backend after a
    /// crash (see `LightLsmStore::surviving_tables`). Each table's meta
    /// region is read back from media (charging virtual time) to rebuild
    /// its index, bloom filter and range tombstones; recovered tables enter
    /// L0 newest-first and compaction re-forms the levels. The write
    /// sequence restarts *above* every recovered sequence number. Returns
    /// the database and the recovery completion time.
    pub fn open_with_tables(
        store: Arc<dyn TableStore>,
        config: DbConfig,
        tables: &[(u64, u32)],
        now: SimTime,
    ) -> Result<(Db, SimTime), DbError> {
        let mut db = Db::new(store.clone(), config);
        let block_bytes = store.block_bytes();
        let mut t = now;
        // Newest (highest id) first, so L0 probe order favours fresh data.
        let mut sorted: Vec<(u64, u32)> = tables.to_vec();
        sorted.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
        for &(id, blocks) in &sorted {
            // Gather the whole table to parse its embedded meta region.
            let mut bytes = Vec::with_capacity(blocks as usize * block_bytes);
            for b in 0..blocks {
                let (block, done) = store.read_block_shared(t, id, b)?;
                t = done;
                bytes.extend_from_slice(block.bytes());
                bytes.resize((b as usize + 1) * block_bytes, 0);
            }
            match TableHandle::from_bytes(id, block_bytes, &bytes) {
                Some(handle) => db.version.add_l0(Arc::new(handle)),
                None => {
                    // Unparseable table (should not happen for tables the
                    // FTL committed): drop it from the backend.
                    t = store.delete_table(t, id)?;
                }
            }
        }
        db.next_seq = db.version.max_seq() + 1;
        db.next_mem_seq = db.next_seq;
        Ok((db, t))
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Operation counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Flush/compaction counters.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.cstats
    }

    /// Per-level table layout.
    pub fn level_metas(&self) -> Vec<LevelMeta> {
        self.version.level_metas()
    }

    /// Sequence number the next write will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Pins a read view at the current sequence number. Must be paired with
    /// [`Db::release_snapshot`] — open snapshots stop compaction from
    /// pruning the versions they can see.
    pub fn snapshot(&mut self) -> Snapshot {
        let seq = self.next_seq - 1;
        *self.snapshots.entry(seq).or_insert(0) += 1;
        Snapshot { seq }
    }

    /// Releases a snapshot taken with [`Db::snapshot`].
    pub fn release_snapshot(&mut self, snap: Snapshot) {
        if let Some(c) = self.snapshots.get_mut(&snap.seq) {
            *c -= 1;
            if *c == 0 {
                self.snapshots.remove(&snap.seq);
            }
        }
    }

    /// Open snapshot boundaries (ascending) plus the "latest" reader.
    fn boundaries(&self) -> Vec<u64> {
        let mut b: Vec<u64> = self.snapshots.keys().copied().collect();
        b.push(u64::MAX);
        b
    }

    /// Whether background work is pending (immutables to flush, a
    /// compaction-worthy level, or unpinned deferred tables to reclaim).
    pub fn has_background_work(&self) -> bool {
        !self.immutables.is_empty()
            || !self.actives.is_empty()
            || self.deferred.iter().any(|id| !self.pins.contains_key(id))
            || self.pick_compaction().is_some()
    }

    fn write_pressure(&mut self, now: SimTime) -> Option<PutOutcome> {
        self.inflight_flushes.retain(|&done| done > now);
        let sealed = self.immutables.len() + self.inflight_flushes.len();
        if sealed >= self.config.max_immutables || self.version.l0_count() >= self.config.l0_stall {
            return Some(PutOutcome::Stalled(now + STALL_RETRY));
        }
        None
    }

    /// Charges the RocksDB-style delayed-write admission for `bytes` when
    /// L0 is over the slowdown trigger.
    fn admit(&mut self, mut t: SimTime, bytes: usize) -> SimTime {
        if self.version.l0_count() >= self.config.l0_slowdown {
            let bytes = bytes.max(1);
            let aggregate = self.drain_rate * self.actives.len().max(1) as f64;
            let service = SimDuration::from_nanos((bytes as f64 * 1e9 / aggregate.max(1.0)) as u64);
            t = self.throttle.acquire(t, service).end;
            self.stats.slowdowns += 1;
            self.obs.metrics.record("lsm.slowdown", bytes as u64);
        }
        t
    }

    /// Seals the active memtable and starts a new one.
    fn rotate(&mut self) {
        let full = std::mem::replace(&mut self.mem, shared_memtable());
        let seq = self.next_mem_seq;
        self.next_mem_seq += 1;
        self.immutables.push_back((seq, full));
    }

    /// Inserts a key/value pair.
    pub fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> Result<PutOutcome, DbError> {
        self.write_internal(now, key, Some(value))
    }

    /// Deletes a key (point tombstone).
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> Result<PutOutcome, DbError> {
        self.write_internal(now, key, None)
    }

    fn write_internal(
        &mut self,
        now: SimTime,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Result<PutOutcome, DbError> {
        if key.is_empty() {
            return Err(DbError::EmptyKey);
        }
        if let Some(stall) = self.write_pressure(now) {
            self.stats.stalls += 1;
            self.obs.metrics.record("lsm.stall", 0);
            self.obs.tracer.instant(now, "lsm", "stall", 0);
            return Ok(stall);
        }
        let t = now + PUT_CPU;
        let t = self.admit(t, key.len() + value.map_or(0, <[u8]>::len));
        let seq = self.next_seq;
        self.next_seq += 1;
        let mem_bytes = {
            let mut mem = self.mem.lock();
            match value {
                Some(v) => mem.put(key, seq, v),
                None => mem.delete(key, seq),
            }
            mem.approximate_bytes()
        };
        self.stats.puts += 1;
        if mem_bytes >= self.config.memtable_bytes {
            self.rotate();
        }
        Ok(PutOutcome::Done(t))
    }

    /// Deletes every key in `[start, end)` with one range tombstone.
    pub fn delete_range(
        &mut self,
        now: SimTime,
        start: &[u8],
        end: &[u8],
    ) -> Result<PutOutcome, DbError> {
        if start.is_empty() || end.is_empty() {
            return Err(DbError::EmptyKey);
        }
        if start >= end {
            return Err(DbError::BadRange);
        }
        if let Some(stall) = self.write_pressure(now) {
            self.stats.stalls += 1;
            self.obs.metrics.record("lsm.stall", 0);
            self.obs.tracer.instant(now, "lsm", "stall", 0);
            return Ok(stall);
        }
        let t = now + PUT_CPU;
        let t = self.admit(t, start.len() + end.len());
        let seq = self.next_seq;
        self.next_seq += 1;
        let mem_bytes = {
            let mut mem = self.mem.lock();
            mem.delete_range(start, end, seq);
            mem.approximate_bytes()
        };
        self.stats.range_deletes += 1;
        self.obs
            .metrics
            .record("lsm.range_delete", (start.len() + end.len()) as u64);
        if mem_bytes >= self.config.memtable_bytes {
            self.rotate();
        }
        Ok(PutOutcome::Done(t))
    }

    /// Looks up a key at the latest sequence. Returns the value (if any)
    /// and the completion time.
    pub fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(Option<Vec<u8>>, SimTime), DbError> {
        self.get_visible(now, key, u64::MAX)
    }

    /// Looks up a key under a pinned snapshot.
    pub fn get_at(
        &mut self,
        now: SimTime,
        key: &[u8],
        snap: Snapshot,
    ) -> Result<(Option<Vec<u8>>, SimTime), DbError> {
        self.get_visible(now, key, snap.seq)
    }

    fn get_visible(
        &mut self,
        now: SimTime,
        key: &[u8],
        snap: u64,
    ) -> Result<(Option<Vec<u8>>, SimTime), DbError> {
        if key.is_empty() {
            return Err(DbError::EmptyKey);
        }
        self.stats.gets += 1;
        let mut t = now + GET_CPU;

        // `rt_max`: highest covering range-tombstone sequence ≤ snap, across
        // every source. All tombstones live in memory (memtables and table
        // handles), so this costs no device time.
        //
        // `best`, memory first: versions flow memtable → immutables →
        // tables in per-key sequence order, so the first source holding a
        // visible version holds the newest visible one.
        let mut rt_max = None;
        let mut best: Option<(u64, Option<Vec<u8>>)> = None;
        for mem in self.memtables_newest_first() {
            let mem = mem.lock();
            rt_max = rt_max.max(mem.max_covering_tombstone(key, snap));
            if best.is_none() {
                best = mem
                    .point_visible(key, snap)
                    .map(|(s, v)| (s, v.map(<[u8]>::to_vec)));
            }
        }
        for h in self.version.tables_with_range_dels() {
            rt_max = rt_max.max(h.covering_tombstone(key, snap));
        }

        if best.is_none() {
            // Tables: the data block is read from the device every time (no
            // block cache, per the paper's benchmark configuration); index
            // and bloom live in memory. Probe order is irrelevant for
            // correctness — the winner is the highest visible sequence — but
            // `max_seq` lets stale tables be skipped without device reads.
            for h in self.version.tables_for_get(key) {
                if let Some((bs, _)) = &best {
                    if *bs >= h.max_seq {
                        continue;
                    }
                }
                if rt_max.is_some_and(|r| r >= h.max_seq) {
                    continue; // every version in the table is hidden
                }
                t += SimDuration::from_nanos(150); // bloom probe
                if !h.bloom.maybe_contains(key) {
                    self.stats.bloom_skips += 1;
                    continue;
                }
                let Some(mut b) = h.block_for(key) else {
                    continue;
                };
                loop {
                    let (block, done) = self
                        .store
                        .read_block_shared(t, h.id, b)
                        .map_err(DbError::from)?;
                    t = done;
                    self.stats.get_blocks_read += 1;
                    // The walk starts at the block's anchor below the key,
                    // not at its first entry (a run spilling over from the
                    // block before starts at offset 0 either way).
                    let from = h.seek_in_block(b, &block, key);
                    let found = with_entries(&block, from, |entries| {
                        entries.visible(key, snap).into_owned()
                    });
                    match found {
                        FindVisible::Found(s, v) => {
                            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                                best = Some((s, v));
                            }
                            break;
                        }
                        FindVisible::Absent => break,
                        FindVisible::Continue => {
                            // The key's version run spills into the next
                            // block.
                            b += 1;
                            if b >= h.data_blocks {
                                break;
                            }
                        }
                    }
                }
            }
        }

        let visible = match (best, rt_max) {
            (Some((s, v)), Some(r)) => {
                if s > r {
                    v
                } else {
                    None // the range tombstone hides the newest version
                }
            }
            (Some((_, v)), None) => v,
            (None, _) => None,
        };
        if visible.is_some() {
            self.stats.hits += 1;
        }
        Ok((visible, t))
    }

    /// Rotates the active memtable into the immutable queue (e.g. before a
    /// read-only phase). No-op when empty.
    pub fn seal_memtable(&mut self) {
        if !self.mem.lock().is_empty() {
            self.rotate();
        }
    }

    /// The active memtable, then the sealed ones from newest to oldest.
    fn memtables_newest_first(&self) -> impl Iterator<Item = &SharedMemtable> {
        std::iter::once(&self.mem).chain(self.immutables.iter().rev().map(|(_, imm)| imm))
    }

    /// Deletes deferred tables whose last iterator pin is gone. Returns the
    /// advanced clock and whether anything was reclaimed.
    fn reap_deferred(&mut self, mut t: SimTime) -> Result<(SimTime, bool), DbError> {
        let ready: Vec<u64> = self
            .deferred
            .iter()
            .copied()
            .filter(|id| !self.pins.contains_key(id))
            .collect();
        let did = !ready.is_empty();
        for id in ready {
            self.deferred.remove(&id);
            t = self.store.delete_table(t, id)?;
        }
        Ok((t, did))
    }

    /// Flushes the oldest immutable memtable into an L0 table. Versions no
    /// open snapshot can see are pruned as they stream out (the memtable's
    /// own range tombstones count as covering); the tombstones themselves
    /// are persisted in the table's meta region. Returns the completion
    /// time, or `None` when there is nothing to flush.
    pub fn flush_once(&mut self, now: SimTime) -> Result<Option<SimTime>, DbError> {
        let (now, reaped) = self.reap_deferred(now)?;
        let Some((gen, imm)) = self.immutables.pop_front() else {
            return Ok(if reaped { Some(now) } else { None });
        };
        let imm = imm.lock();
        let mut t = now + BUILD_CPU_PER_ENTRY * imm.len() as u64;
        let boundaries = self.boundaries();
        let mut builder = TableBuilder::new(self.store.block_bytes(), BITS_PER_KEY);
        let rts = imm.range_dels();
        let mut pruner = GroupPruner::default();
        let mut flush_group =
            |key: &[u8], group: &[(u64, Option<&[u8]>)], builder: &mut TableBuilder| {
                pruner.prune(
                    group.iter().map(|(s, v)| (*s, v.is_none())),
                    rts.iter().filter(|rt| rt.covers(key)).map(|rt| rt.seq),
                    &boundaries,
                    false,
                );
                for &i in pruner.kept() {
                    let (s, v) = group[i];
                    builder.add(key, s, v);
                }
            };
        let mut pending_key: Option<&[u8]> = None;
        let mut pending: Vec<(u64, Option<&[u8]>)> = Vec::new();
        for (k, s, v) in imm.iter_versions() {
            if pending_key == Some(k) {
                pending.push((s, v));
            } else {
                if let Some(pk) = pending_key {
                    flush_group(pk, &pending, &mut builder);
                }
                pending_key = Some(k);
                pending.clear();
                pending.push((s, v));
            }
        }
        if let Some(pk) = pending_key {
            flush_group(pk, &pending, &mut builder);
        }
        for rt in rts {
            builder.add_range_del(rt.clone());
        }
        if builder.is_empty() {
            // Unreachable for sealed memtables (they always hold data), but
            // cheap to guard: nothing survived pruning, nothing to write.
            return Ok(Some(t));
        }
        let (blocks, mut handle) = builder.finish();
        let bytes: usize = blocks.iter().map(Payload::len).sum();
        let (id, done) = self.store.flush_table_blocks(t, &blocks)?;
        t = done;
        handle.id = id;
        handle.seq = gen;
        self.cstats.flushes += 1;
        self.cstats.flush_nanos += t.saturating_since(now).as_nanos();
        self.cstats.blocks_written += handle.data_blocks as u64;
        self.version.add_l0(Arc::new(handle));
        self.inflight_flushes.push(t);
        self.obs.metrics.record("lsm.flush", bytes as u64);
        self.obs
            .metrics
            .observe("lsm.flush_latency_ns", t.saturating_since(now).as_nanos());
        self.obs.tracer.span(now, t, "lsm", "flush", bytes as u64);
        Ok(Some(t))
    }

    fn level_target_blocks(&self, level: usize) -> u64 {
        self.config.level_base_blocks
            * self
                .config
                .level_multiplier
                .pow(level.saturating_sub(1) as u32)
    }

    fn pick_compaction(&self) -> Option<CompactionJob> {
        // L0 pressure first (skipped while any L0 input is being compacted).
        if self.version.l0_count() >= self.config.l0_compaction_trigger {
            let l0: Vec<Arc<TableHandle>> = self.version.level(0).to_vec();
            let min = l0.iter().map(|t| t.min_key.clone()).min()?;
            let max = l0.iter().map(|t| t.max_key.clone()).max()?;
            let mut inputs = l0;
            inputs.extend(self.version.overlapping(1, &min, &max).into_iter().cloned());
            if inputs.iter().all(|h| !self.compacting.contains(&h.id)) {
                return Some(CompactionJob {
                    from_level: 0,
                    to_level: 1,
                    inputs,
                    drop_tombstones: self.bottom_is(1),
                });
            }
        }
        // Size pressure on deeper levels.
        for level in 1..self.version.max_levels() - 1 {
            if self.version.level_blocks(level) <= self.level_target_blocks(level) {
                continue;
            }
            let tables = self.version.level(level);
            if tables.is_empty() {
                continue;
            }
            // Try each table starting at the cursor until a conflict-free
            // job is found.
            for probe in 0..tables.len() {
                let pick = (self.compaction_cursor[level] + probe) % tables.len();
                let input = tables[pick].clone();
                if self.compacting.contains(&input.id) {
                    continue;
                }
                let mut inputs = vec![input.clone()];
                inputs.extend(
                    self.version
                        .overlapping(level + 1, &input.min_key, &input.max_key)
                        .into_iter()
                        .cloned(),
                );
                if inputs.iter().any(|h| self.compacting.contains(&h.id)) {
                    continue;
                }
                return Some(CompactionJob {
                    from_level: level,
                    to_level: level + 1,
                    inputs,
                    drop_tombstones: self.bottom_is(level + 1),
                });
            }
        }
        None
    }

    fn bottom_is(&self, level: usize) -> bool {
        (level + 1..self.version.max_levels()).all(|l| self.version.level(l).is_empty())
    }

    /// Prunes and emits the finished version group of one key into the
    /// active compaction's builder, cutting output tables between groups.
    fn emit_group(
        ac: &mut ActiveCompaction,
        store: &Arc<dyn TableStore>,
        config: &DbConfig,
        block_bytes: usize,
        t: &mut SimTime,
    ) -> Result<(), DbError> {
        let Some(first) = ac.group.first() else {
            return Ok(());
        };
        let key = first.key();
        let out = ac.pruner.prune(
            ac.group.iter().map(|e| (e.seq(), e.value().is_none())),
            ac.input_rts
                .iter()
                .filter(|rt| rt.covers(key))
                .map(|rt| rt.seq),
            &ac.boundaries,
            ac.drop_tombstones,
        );
        ac.shadowed += out.shadowed;
        ac.tombstones_dropped += out.tombstones_dropped;
        // Cut between groups only, so a key's version run never splits
        // across output tables.
        if !ac.pruner.kept().is_empty()
            && ac.builder.projected_total_bytes() + block_bytes > config.table_bytes
            && !ac.builder.is_empty()
        {
            let b = std::mem::replace(
                &mut ac.builder,
                TableBuilder::new(block_bytes, BITS_PER_KEY),
            );
            let h = Self::flush_output(store, b, t)?;
            ac.blocks_written += h.data_blocks as u64;
            ac.outputs.push(h);
        }
        for &i in ac.pruner.kept() {
            // The one copy a surviving version gets: input block to output
            // block.
            let e = &ac.group[i];
            ac.builder.add(key, e.seq(), e.value());
            ac.entries_out += 1;
            for (ri, rt) in ac.input_rts.iter().enumerate() {
                if e.seq() < rt.seq && rt.covers(key) {
                    ac.rt_covered[ri] = true;
                }
            }
        }
        ac.group.clear();
        Ok(())
    }

    /// Advances background compaction by one bounded step and returns the
    /// virtual time reached, or `None` when no compaction work exists.
    ///
    /// Compactions are *incremental*: each call merges a bounded slice of
    /// input (so a multi-second compaction does not execute as one atomic
    /// virtual-time block, which would starve concurrent flushes of device
    /// resources), and several compactions can be in flight at once — one
    /// per background worker, as in RocksDB. Input tables stay readable
    /// until their compaction completes — and longer, if a pinned iterator
    /// still streams from them (deletion is deferred to the last unpin).
    pub fn compact_once(&mut self, now: SimTime) -> Result<Option<SimTime>, DbError> {
        let (now, reaped) = self.reap_deferred(now)?;
        // Start a new compaction if a trigger fires on conflict-free inputs.
        if self.actives.len() < MAX_PARALLEL_COMPACTIONS {
            if let Some(job) = self.pick_compaction() {
                if job.from_level > 0 {
                    self.compaction_cursor[job.from_level] =
                        self.compaction_cursor[job.from_level].wrapping_add(1);
                }
                let block_bytes = self.store.block_bytes();
                for h in &job.inputs {
                    self.compacting.insert(h.id);
                }
                // Compaction reads every input to the end: full readahead
                // from the first block.
                let streams: Vec<TableStream> = job
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(rank, h)| TableStream::new(vec![h.clone()], rank, PREFETCH_DEPTH))
                    .collect();
                let mut input_rts: Vec<RangeTombstone> = job
                    .inputs
                    .iter()
                    .flat_map(|h| h.range_dels.iter().cloned())
                    .collect();
                input_rts.sort();
                input_rts.dedup();
                let rt_covered = vec![false; input_rts.len()];
                self.actives.push(ActiveCompaction {
                    from: job.from_level,
                    to: job.to_level,
                    removed: job.inputs.iter().map(|h| h.id).collect(),
                    drop_tombstones: job.drop_tombstones,
                    merge: MergeIter::new(streams, self.store.clone()),
                    builder: TableBuilder::new(block_bytes, BITS_PER_KEY),
                    outputs: Vec::new(),
                    frontier: now,
                    started: now,
                    input_rts,
                    rt_covered,
                    boundaries: self.boundaries(),
                    group: Vec::new(),
                    pruner: GroupPruner::default(),
                    entries_out: 0,
                    tombstones_dropped: 0,
                    rts_dropped: 0,
                    shadowed: 0,
                    blocks_written: 0,
                });
            }
        }
        if self.actives.is_empty() {
            return Ok(if reaped { Some(now) } else { None });
        }

        // Advance one active compaction (round-robin across workers).
        let idx = self.active_cursor % self.actives.len();
        self.active_cursor = self.active_cursor.wrapping_add(1);
        let mut ac = self.actives.swap_remove(idx);
        let mut t = ac.frontier.max(now);
        let block_bytes = self.store.block_bytes();
        let budget_entries = 4 * block_bytes / 1024; // ≈ 4 blocks of 1 KB entries
        let mut processed = 0usize;
        let mut finished = false;
        loop {
            if processed >= budget_entries {
                break;
            }
            match ac.merge.next(&mut t).map_err(DbError::from)? {
                Some(entry) => {
                    processed += 1;
                    t += BUILD_CPU_PER_ENTRY;
                    if ac.group.first().is_some_and(|e| e.key() != entry.key()) {
                        Self::emit_group(&mut ac, &self.store, &self.config, block_bytes, &mut t)?;
                    }
                    ac.group.push(entry);
                }
                None => {
                    Self::emit_group(&mut ac, &self.store, &self.config, block_bytes, &mut t)?;
                    finished = true;
                    break;
                }
            }
        }

        if finished {
            // Range tombstones ride along to the final output unless this is
            // the bottom level and nothing they could hide survives: no kept
            // output entry under them, and no live non-input table holding
            // older overlapping data.
            for ri in 0..ac.input_rts.len() {
                let rt = &ac.input_rts[ri];
                let keep = !ac.drop_tombstones
                    || ac.rt_covered[ri]
                    || self.version.all_tables().any(|h| {
                        !ac.removed.contains(&h.id)
                            && h.entries > 0
                            && h.min_seq < rt.seq
                            && rt.overlaps(&h.min_key, &h.max_key)
                    });
                if keep {
                    let rt = rt.clone();
                    ac.builder.add_range_del(rt);
                } else {
                    ac.rts_dropped += 1;
                }
            }
            if !ac.builder.is_empty() {
                let b = std::mem::replace(
                    &mut ac.builder,
                    TableBuilder::new(block_bytes, BITS_PER_KEY),
                );
                let h = Self::flush_output(&self.store, b, &mut t)?;
                ac.blocks_written += h.data_blocks as u64;
                ac.outputs.push(h);
            }
            for id in &ac.removed {
                self.compacting.remove(id);
                if self.pins.contains_key(id) {
                    // A live iterator still streams from this table; delete
                    // it when the last pin is released.
                    self.deferred.insert(*id);
                } else {
                    t = self.store.delete_table(t, *id)?;
                }
            }
            self.version
                .apply_edit(ac.from, ac.to, &ac.removed, std::mem::take(&mut ac.outputs));
            // Track compaction drain speed for the write controller.
            let duration = t.saturating_since(ac.started).as_secs_f64();
            if duration > 0.0 && ac.blocks_written > 0 {
                let rate = ac.blocks_written as f64 * block_bytes as f64 / duration;
                self.drain_rate = 0.7 * self.drain_rate + 0.3 * rate;
            }
            self.cstats.compactions += 1;
            self.cstats.compaction_nanos += t.saturating_since(ac.started).as_nanos();
            self.cstats.blocks_read += ac.merge.take_blocks_read();
            self.cstats.blocks_written += ac.blocks_written;
            self.cstats.entries_out += ac.entries_out;
            self.cstats.tombstones_dropped += ac.tombstones_dropped;
            self.cstats.range_tombstones_dropped += ac.rts_dropped;
            self.cstats.entries_shadowed += ac.shadowed;
            let out_bytes = ac.blocks_written * block_bytes as u64;
            self.obs.metrics.record("lsm.compaction", out_bytes);
            self.obs.metrics.observe(
                "lsm.compaction_latency_ns",
                t.saturating_since(ac.started).as_nanos(),
            );
            self.obs
                .tracer
                .span(ac.started, t, "lsm", "compaction", out_bytes);
        } else {
            ac.frontier = t;
            self.actives.push(ac);
        }
        Ok(Some(t))
    }

    fn flush_output(
        store: &Arc<dyn TableStore>,
        builder: TableBuilder,
        t: &mut SimTime,
    ) -> Result<Arc<TableHandle>, DbError> {
        let (blocks, mut handle) = builder.finish();
        let (id, done) = store.flush_table_blocks(*t, &blocks)?;
        *t = done;
        handle.id = id;
        Ok(Arc::new(handle))
    }

    /// Iterates `[start, end)` (or to the end of the key space when `end`
    /// is `None`) under a pinned snapshot. The snapshot must stay
    /// registered for the iterator's lifetime; every table the iterator may
    /// stream from is pinned against deletion until the iterator is
    /// released via [`Db::release_iter`] (or automatically, for iterators
    /// obtained through [`SharedDb`]).
    ///
    /// Creating the iterator reads nothing: it merges a cursor over the
    /// memtables, one stream per L0 table and one stream per sorted level
    /// (see [`Version::scan_runs`]), and each stream fetches its first
    /// block on the first [`DbIter::next`].
    pub fn scan_range(&mut self, snap: Snapshot, start: &[u8], end: Option<&[u8]>) -> DbIter {
        let snap_seq = snap.seq;
        let mems: Vec<SharedMemtable> = self.memtables_newest_first().cloned().collect();
        // Range tombstones all live in memory; collecting them up front
        // keeps the view complete however late a table is opened.
        let mut rts: Vec<RangeTombstone> = Vec::new();
        for mem in &mems {
            rts.extend(visible_range_dels(mem.lock().range_dels(), snap_seq));
        }
        for h in self.version.tables_with_range_dels() {
            rts.extend(visible_range_dels(&h.range_dels, snap_seq));
        }
        let runs = self.version.scan_runs(start, end);
        // Pins are id refcounts: a table a compaction replaces before the
        // iterator reaches it is parked in `deferred`, not deleted.
        let pinned: Vec<u64> = runs.iter().flatten().map(|h| h.id).collect();
        for id in &pinned {
            *self.pins.entry(*id).or_insert(0) += 1;
        }
        let streams: Vec<TableStream> = runs
            .into_iter()
            .enumerate()
            .map(|(rank, run)| {
                let mut s = TableStream::new(run, rank, 0);
                s.seek(start);
                s
            })
            .collect();
        DbIter {
            merge: MergeIter::new(streams, self.store.clone()),
            mem: MemCursor::new(mems, start, snap_seq),
            rts,
            snap: snap_seq,
            owns_snapshot: false,
            pinned,
            end: end.map(<[u8]>::to_vec),
            last_key: Vec::new(),
            table_pending: None,
            done: false,
            lifetime: None,
            owner: None,
        }
    }

    /// Iterates the whole database from `start` under a freshly pinned
    /// snapshot owned by the iterator — later writes never leak into the
    /// scan. Release with [`Db::release_iter`] (automatic for iterators
    /// obtained through [`SharedDb`]).
    pub fn scan_from(&mut self, start: &[u8]) -> DbIter {
        let snap = self.snapshot();
        let mut it = self.scan_range(snap, start, None);
        it.owns_snapshot = true;
        it
    }

    fn release_scan(&mut self, scan: ReleasedScan) {
        for id in &scan.pinned {
            if let Some(c) = self.pins.get_mut(id) {
                *c -= 1;
                if *c == 0 {
                    self.pins.remove(id);
                }
            }
        }
        if let Some(s) = scan.snapshot {
            self.release_snapshot(s);
        }
        self.stats.scan_blocks_read += scan.blocks_read;
        if let Some((opened, last)) = scan.lifetime {
            self.obs.metrics.record("lsm.scan.blocks", scan.blocks_read);
            self.obs
                .tracer
                .span(opened, last, "lsm", "scan", scan.blocks_read);
        }
    }

    /// Unpins an iterator's tables (and its snapshot, for
    /// [`Db::scan_from`] iterators), letting compaction reclaim them.
    pub fn release_iter(&mut self, iter: &mut DbIter) {
        iter.owner = None;
        let scan = iter.release();
        self.release_scan(scan);
    }
}

fn visible_range_dels(
    rts: &[RangeTombstone],
    snap: u64,
) -> impl Iterator<Item = RangeTombstone> + '_ {
    rts.iter().filter(move |rt| rt.seq <= snap).cloned()
}

/// What an iterator hands back to its database when it is released.
struct ReleasedScan {
    pinned: Vec<u64>,
    snapshot: Option<Snapshot>,
    blocks_read: u64,
    /// Virtual time of the first and the last `next()`, if there was one.
    lifetime: Option<(SimTime, SimTime)>,
}

/// A key/value pair returned by iteration.
pub type KvPair = (Vec<u8>, Vec<u8>);

/// A merged snapshot iterator (range scans and read-sequential workloads).
///
/// The iterator sees exactly the database state at its snapshot: the
/// memtables of that moment are walked lazily, every table it may read is
/// pinned against deletion, and newer writes are filtered by sequence
/// number. Obtained via
/// [`Db::scan_range`] / [`Db::scan_from`] (caller releases) or through
/// [`SharedDb`] (released automatically on drop).
pub struct DbIter {
    merge: MergeIter,
    mem: MemCursor,
    rts: Vec<RangeTombstone>,
    snap: u64,
    owns_snapshot: bool,
    pinned: Vec<u64>,
    end: Option<Vec<u8>>,
    /// Key of the last version looked at; empty before the first (no key
    /// is).
    last_key: Vec<u8>,
    table_pending: Option<EntryView>,
    done: bool,
    /// Virtual time entering the first `next()` and leaving the last one.
    lifetime: Option<(SimTime, SimTime)>,
    owner: Option<SharedDb>,
}

impl DbIter {
    fn next_table(&mut self, t: &mut SimTime) -> Result<Option<EntryView>, DbError> {
        if let Some(e) = self.table_pending.take() {
            return Ok(Some(e));
        }
        loop {
            match self.merge.next(t)? {
                Some(e) if e.seq() > self.snap => continue,
                next => return Ok(next),
            }
        }
    }

    /// Takes what the database needs back; the iterator keeps nothing
    /// pinned afterwards, so a second release is a no-op.
    fn release(&mut self) -> ReleasedScan {
        let owned = std::mem::take(&mut self.owns_snapshot);
        ReleasedScan {
            pinned: std::mem::take(&mut self.pinned),
            snapshot: owned.then_some(Snapshot { seq: self.snap }),
            blocks_read: self.merge.take_blocks_read(),
            lifetime: self.lifetime.take(),
        }
    }

    /// Next live entry in key order; advances `t` for block reads. Returns
    /// `None` at the end of the range.
    pub fn next(&mut self, t: &mut SimTime) -> Result<Option<KvPair>, DbError> {
        let opened = self.lifetime.map_or(*t, |(opened, _)| opened);
        let out = self.next_live(t);
        self.lifetime = Some((opened, *t));
        out
    }

    fn next_live(&mut self, t: &mut SimTime) -> Result<Option<KvPair>, DbError> {
        if self.done {
            return Ok(None);
        }
        loop {
            let table_next = self.next_table(t)?;
            // Merge memory and tables in (key asc, seq desc) order; equal
            // sequence numbers cannot collide across the two sides.
            let use_mem = match (self.mem.front(), &table_next) {
                (Some((mk, ms, _)), Some(te)) => match mk.as_slice().cmp(te.key()) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => *ms >= te.seq(),
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => {
                    self.done = true;
                    return Ok(None);
                }
            };
            let version = if use_mem {
                self.table_pending = table_next;
                self.mem.pop_front().map(ScanVersion::Mem)
            } else {
                table_next.map(ScanVersion::Table)
            };
            let Some(version) = version else {
                self.done = true;
                return Ok(None); // unreachable: the side chosen has an entry
            };
            let (key, seq) = (version.key(), version.seq());
            if self.end.as_deref().is_some_and(|e| key >= e) {
                self.done = true;
                return Ok(None);
            }
            // Only the newest visible version of a key counts; older ones
            // arrive right after it and are skipped here.
            if self.last_key == key {
                continue;
            }
            self.last_key.clear();
            self.last_key.extend_from_slice(key);
            let rt_max = self
                .rts
                .iter()
                .filter(|rt| rt.covers(key))
                .map(|rt| rt.seq)
                .max();
            if rt_max.is_some_and(|r| seq < r) {
                continue; // range-deleted under this snapshot
            }
            // A point tombstone yields nothing; a live version is the first
            // thing a table entry is copied for.
            if let Some(pair) = version.into_pair() {
                return Ok(Some(pair));
            }
        }
    }
}

/// The version a scan looks at next: owned if it comes from a memtable,
/// still in its block if it comes from a table.
enum ScanVersion {
    Mem(Entry),
    Table(EntryView),
}

impl ScanVersion {
    fn key(&self) -> &[u8] {
        match self {
            ScanVersion::Mem((key, ..)) => key,
            ScanVersion::Table(e) => e.key(),
        }
    }

    fn seq(&self) -> u64 {
        match self {
            ScanVersion::Mem((_, seq, _)) => *seq,
            ScanVersion::Table(e) => e.seq(),
        }
    }

    /// Key and value, or `None` for a tombstone.
    fn into_pair(self) -> Option<KvPair> {
        match self {
            ScanVersion::Mem((key, _, value)) => Some((key, value?)),
            ScanVersion::Table(e) => Some((e.key().to_vec(), e.value()?.to_vec())),
        }
    }
}

impl Drop for DbIter {
    fn drop(&mut self) {
        if let Some(owner) = self.owner.take() {
            let scan = self.release();
            owner.with(move |db| db.release_scan(scan));
        }
    }
}

/// A database shared between simulation actors.
#[derive(Clone)]
pub struct SharedDb(Arc<Mutex<Db>>);

impl SharedDb {
    /// Wraps a database for shared use.
    pub fn new(db: Db) -> Self {
        SharedDb(Arc::new(Mutex::new(db)))
    }

    /// Runs `f` with exclusive access.
    pub fn with<R>(&self, f: impl FnOnce(&mut Db) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// See [`Db::put`].
    pub fn put(&self, now: SimTime, key: &[u8], value: &[u8]) -> Result<PutOutcome, DbError> {
        self.0.lock().put(now, key, value)
    }

    /// See [`Db::get`].
    pub fn get(&self, now: SimTime, key: &[u8]) -> Result<(Option<Vec<u8>>, SimTime), DbError> {
        self.0.lock().get(now, key)
    }

    /// See [`Db::get_at`].
    pub fn get_at(
        &self,
        now: SimTime,
        key: &[u8],
        snap: Snapshot,
    ) -> Result<(Option<Vec<u8>>, SimTime), DbError> {
        self.0.lock().get_at(now, key, snap)
    }

    /// See [`Db::delete`].
    pub fn delete(&self, now: SimTime, key: &[u8]) -> Result<PutOutcome, DbError> {
        self.0.lock().delete(now, key)
    }

    /// See [`Db::delete_range`].
    pub fn delete_range(
        &self,
        now: SimTime,
        start: &[u8],
        end: &[u8],
    ) -> Result<PutOutcome, DbError> {
        self.0.lock().delete_range(now, start, end)
    }

    /// See [`Db::snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.0.lock().snapshot()
    }

    /// See [`Db::release_snapshot`].
    pub fn release_snapshot(&self, snap: Snapshot) {
        self.0.lock().release_snapshot(snap)
    }

    /// See [`Db::flush_once`].
    pub fn flush_once(&self, now: SimTime) -> Result<Option<SimTime>, DbError> {
        self.0.lock().flush_once(now)
    }

    /// See [`Db::compact_once`].
    pub fn compact_once(&self, now: SimTime) -> Result<Option<SimTime>, DbError> {
        self.0.lock().compact_once(now)
    }

    /// See [`Db::seal_memtable`].
    pub fn seal_memtable(&self) {
        self.0.lock().seal_memtable()
    }

    /// See [`Db::scan_from`]. The iterator releases its pins and snapshot
    /// automatically when dropped — but must not be dropped while the
    /// database lock is held (e.g. inside [`SharedDb::with`]).
    pub fn scan_from(&self, start: &[u8]) -> DbIter {
        let mut it = self.0.lock().scan_from(start);
        it.owner = Some(self.clone());
        it
    }

    /// See [`Db::scan_range`]. The iterator releases its table pins
    /// automatically when dropped; the snapshot stays with the caller.
    pub fn scan_range(&self, snap: Snapshot, start: &[u8], end: Option<&[u8]>) -> DbIter {
        let mut it = self.0.lock().scan_range(snap, start, end);
        it.owner = Some(self.clone());
        it
    }

    /// See [`Db::has_background_work`].
    pub fn has_background_work(&self) -> bool {
        self.0.lock().has_background_work()
    }

    /// See [`Db::stats`].
    pub fn stats(&self) -> DbStats {
        self.0.lock().stats()
    }

    /// See [`Db::compaction_stats`].
    pub fn compaction_stats(&self) -> CompactionStats {
        self.0.lock().compaction_stats()
    }

    /// See [`Db::level_metas`].
    pub fn level_metas(&self) -> Vec<LevelMeta> {
        self.0.lock().level_metas()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::lightlsm_test_store;
    use lightlsm::Placement;
    use ox_sim::Prng;

    mod view_proptests;

    type Model = BTreeMap<Vec<u8>, Vec<u8>>;

    const KEYS: u64 = 9000;

    fn key(i: u64) -> Vec<u8> {
        format!("{i:016}").into_bytes()
    }

    fn drain(db: &mut Db, mut t: SimTime) -> SimTime {
        loop {
            if let Some(done) = db.flush_once(t).unwrap() {
                t = done;
            } else if let Some(done) = db.compact_once(t).unwrap() {
                t = done;
            } else {
                return t;
            }
        }
    }

    fn put(db: &mut Db, model: &mut Model, mut t: SimTime, k: u64, tag: u8) -> SimTime {
        let (k, v) = (key(k), vec![tag; 900]);
        model.insert(k.clone(), v.clone());
        loop {
            match db.put(t, &k, &v).unwrap() {
                PutOutcome::Done(done) => return done,
                PutOutcome::Stalled(retry) => t = drain(db, retry),
            }
        }
    }

    /// A quiescent database of three-block tables, at least eight of them
    /// in L1 and in L2, written in random key order so that every level
    /// spans the key space.
    fn leveled_db() -> (Db, Model, SimTime) {
        let mut db = Db::new(
            Arc::new(lightlsm_test_store(Placement::Horizontal)),
            DbConfig {
                memtable_bytes: 256 * 1024,
                table_bytes: 4 * 96 * 1024,
                level_base_blocks: 45,
                level_multiplier: 8,
                max_levels: 3,
                ..DbConfig::default()
            },
        );
        let mut model = Model::new();
        let mut rng = Prng::seed_from_u64(13);
        let mut t = SimTime::ZERO;
        for _ in 0..12_000 {
            t = put(&mut db, &mut model, t, rng.gen_range(KEYS), 1);
        }
        db.seal_memtable();
        t = drain(&mut db, t);
        for level in 1..3 {
            let tables = db.version.level(level).len();
            assert!(tables >= 8, "L{level} has {tables} tables");
        }
        (db, model, t)
    }

    /// The tables of a sorted level in the order a scan walks them.
    fn run_of(db: &Db, level: usize) -> Vec<Arc<TableHandle>> {
        let mut run: Vec<_> = db
            .version
            .level(level)
            .iter()
            .filter(|h| h.entries > 0)
            .cloned()
            .collect();
        run.sort_by(|a, b| a.last_point_key().cmp(&b.last_point_key()));
        run
    }

    fn last_key(h: &TableHandle) -> Vec<u8> {
        h.last_point_key()
            .expect("a table with point data")
            .to_vec()
    }

    fn check_scan(db: &mut Db, model: &Model, t: SimTime, start: &[u8], end: Option<&[u8]>) {
        let snap = db.snapshot();
        let mut iter = db.scan_range(snap, start, end);
        let mut t = t;
        let mut got = Vec::new();
        while let Some(kv) = iter.next(&mut t).unwrap() {
            got.push(kv);
        }
        db.release_iter(&mut iter);
        db.release_snapshot(snap);
        let want: Vec<KvPair> = model
            .range(start.to_vec()..)
            .take_while(|(k, _)| end.is_none_or(|e| k.as_slice() < e))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let keys = |kvs: &[KvPair]| -> Vec<String> {
            kvs.iter()
                .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
                .collect()
        };
        let range = format!(
            "scan [{}, {})",
            String::from_utf8_lossy(start),
            String::from_utf8_lossy(end.unwrap_or(b"end"))
        );
        assert_eq!(keys(&got), keys(&want), "{range}");
        assert!(got == want, "{range}: stale value");
    }

    #[test]
    fn scans_cross_table_boundaries_of_a_sorted_level() {
        let (mut db, model, t) = leveled_db();
        for level in 1..3 {
            let run = run_of(&db, level);
            // From the last key of each table: one entry is left in it, the
            // rest of the answer lives in the next table of the run.
            for h in &run {
                let start = last_key(h);
                let end = model.range(start.clone()..).nth(5).map(|(k, _)| k.clone());
                check_scan(&mut db, &model, t, &start, end.as_deref());
            }
            // From the end of one table, through the whole of the next,
            // into a third.
            for three in run.windows(3) {
                let (start, end) = (last_key(&three[0]), last_key(&three[2]));
                check_scan(&mut db, &model, t, &start, Some(&end));
            }
        }
    }

    #[test]
    fn scans_order_a_level_by_point_keys_not_by_tombstone_widened_ranges() {
        let (mut db, mut model, mut t) = leveled_db();
        // A range delete at the bottom of the key space followed by writes
        // at the top: the compaction output that inherits the tombstone
        // holds the highest point keys of L1, and the lowest `min_key`.
        let (del_start, del_end) = (key(100), key(160));
        t = match db.delete_range(t, &del_start, &del_end).unwrap() {
            PutOutcome::Done(done) => done,
            PutOutcome::Stalled(_) => panic!("quiescent database stalled"),
        };
        model.retain(|k, _| !(del_start.as_slice() <= k.as_slice() && k < &del_end));
        for round in 0..4 {
            for i in 0..250 {
                t = put(&mut db, &mut model, t, KEYS - 1 - (4 * i + round), 2);
            }
            db.seal_memtable();
            t = drain(&mut db, t);
        }
        let widened = |level: usize| {
            let by_min_key: Vec<u64> = db.version.level(level).iter().map(|h| h.id).collect();
            let by_points: Vec<u64> = run_of(&db, level).iter().map(|h| h.id).collect();
            by_min_key != by_points
        };
        assert!(
            widened(1) || widened(2),
            "no level is ordered differently by min_key and by point keys"
        );
        check_scan(&mut db, &model, t, b"", None);
        check_scan(&mut db, &model, t, &key(90), Some(&key(200)));
        check_scan(&mut db, &model, t, &key(130), Some(&key(170)));
        check_scan(&mut db, &model, t, &key(KEYS - 1200), None);
        for level in 1..3 {
            for h in run_of(&db, level) {
                check_scan(&mut db, &model, t, &last_key(&h), Some(&key(KEYS)));
            }
        }
    }

    #[test]
    fn tables_replaced_before_a_scan_reaches_them_are_deferred_then_reaped() {
        let (mut db, frozen, mut t) = leveled_db();
        let mut model = frozen.clone();
        let mut iter = db.scan_from(b"");
        let mut seen = Vec::new();
        let mut ti = t;
        seen.extend(iter.next(&mut ti).unwrap());
        assert_eq!(
            db.stats().scan_blocks_read + iter.merge.take_blocks_read(),
            2,
            "one block per level, the rest of both runs unopened"
        );
        // Rewrite everything: compaction replaces every table of L1 and L2.
        for k in 0..KEYS {
            t = put(&mut db, &mut model, t, k, 3);
        }
        db.seal_memtable();
        t = drain(&mut db, t);
        let live: BTreeSet<u64> = db.version.all_tables().map(|h| h.id).collect();
        assert!(iter.pinned.iter().all(|id| !live.contains(id)));
        assert_eq!(
            db.deferred,
            iter.pinned.iter().copied().collect::<BTreeSet<u64>>(),
            "every pinned table is parked, none deleted"
        );
        // The scan walks on through tables the version no longer knows.
        while let Some(kv) = iter.next(&mut ti).unwrap() {
            seen.push(kv);
        }
        assert!(seen.into_iter().eq(frozen));
        db.release_iter(&mut iter);
        assert!(db.pins.is_empty());
        t = drain(&mut db, t.max(ti));
        assert!(db.deferred.is_empty(), "released tables are reaped");
        check_scan(&mut db, &model, t, b"", None);
    }
}
