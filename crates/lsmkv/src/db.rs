//! The LSM key-value store.
//!
//! Single-writer semantics per operation (callers serialize through
//! [`SharedDb`]); flushes and compactions are driven by background actors
//! calling [`Db::flush_once`] / [`Db::compact_once`] with their own virtual
//! clocks, which is how flush/compaction interference shows up in client
//! latency (Figures 5 and 6).
//!
//! Every write carries a monotonically increasing sequence number. A get
//! reads the newest version of a key; an iterator ([`Db::scan_from`]) reads
//! the state at its creation, and tables keep one version of each key.
//!
//! Rate limiting follows RocksDB: L0 buildup first *slows* writes (an added
//! delay per put), then *stalls* them (the put must be retried later). The
//! resulting sawtooth is the throughput oscillation of Figure 6.

use crate::block::{with_entries, EntryView};
use crate::compaction::{
    keeps, CompactionJob, CompactionStats, Entry, MergeIter, TableStream, PREFETCH_DEPTH,
};
use crate::memtable::{shared_memtable, MemCursor, SharedMemtable};
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
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Store(e) => write!(f, "store: {e}"),
            DbError::EmptyKey => write!(f, "empty key"),
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

/// Operation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbStats {
    /// Puts applied.
    pub puts: u64,
    /// Gets served.
    pub gets: u64,
    /// Gets that found a value.
    pub hits: u64,
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
    /// Table id → live iterator pin count. Pinned tables removed by a
    /// compaction are parked in `deferred` instead of being deleted.
    pins: BTreeMap<u64, u32>,
    /// Tables removed from the version but still pinned by iterators, each
    /// with the smallest id of the group it is deleted with: the table on
    /// its own, or every input of a compaction that dropped a tombstone. A
    /// group goes when none of its tables is pinned.
    deferred: BTreeMap<u64, u64>,
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
    compacting: std::collections::BTreeSet<u64>,
    obs: Obs,
}

/// State of one incremental compaction.
struct ActiveCompaction {
    from: usize,
    to: usize,
    removed: Vec<u64>,
    /// At the bottom level, the inputs' highest sequence number: see
    /// [`keeps`].
    drop_tombstones: Option<u64>,
    merge: MergeIter,
    builder: TableBuilder,
    outputs: Vec<Arc<TableHandle>>,
    frontier: SimTime,
    started: SimTime,
    /// Newest version of the key currently being merged, still where its
    /// input block holds it; the older ones are dropped as they arrive.
    newest: Option<EntryView>,
    entries_out: u64,
    tombstones_dropped: u64,
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
            pins: BTreeMap::new(),
            deferred: BTreeMap::new(),
            inflight_flushes: Vec::new(),
            throttle: ox_sim::Timeline::new(),
            drain_rate: DELAYED_WRITE_RATE,
            version: Version::new(config.max_levels),
            stats: DbStats::default(),
            cstats: CompactionStats::default(),
            compaction_cursor: vec![0; config.max_levels],
            actives: Vec::new(),
            active_cursor: 0,
            compacting: std::collections::BTreeSet::new(),
            obs: store.obs(),
            store,
        }
    }

    /// Reopens a database from tables surviving in the backend after a
    /// crash (see `LightLsmStore::surviving_tables`). Each table's meta
    /// region is read back from media (charging virtual time) to rebuild
    /// its index and bloom filter; recovered tables enter L0 newest-first
    /// and compaction re-forms the levels. The write sequence restarts
    /// *above* every recovered sequence number — compactions never lower
    /// the highest one (see `compaction::keeps`), so no number a
    /// surviving write carries is handed out again. Returns the database
    /// and the recovery completion time.
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

    /// Whether background work is pending (immutables to flush, a
    /// compaction-worthy level, or unpinned deferred tables to reclaim).
    pub fn has_background_work(&self) -> bool {
        !self.immutables.is_empty()
            || !self.actives.is_empty()
            || !self.reapable().is_empty()
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

    /// Looks up the newest version of a key. Returns the value (if any) and
    /// the completion time.
    pub fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(Option<Vec<u8>>, SimTime), DbError> {
        if key.is_empty() {
            return Err(DbError::EmptyKey);
        }
        self.stats.gets += 1;
        let mut t = now + GET_CPU;

        // Memory first: versions flow memtable → immutables → tables in
        // per-key sequence order, so the first source holding the key holds
        // its newest version.
        let mut best: Option<(u64, Option<Vec<u8>>)> =
            self.memtables_newest_first().find_map(|mem| {
                mem.lock()
                    .newest(key)
                    .map(|(s, v)| (s, v.map(<[u8]>::to_vec)))
            });

        if best.is_none() {
            // Tables: the data block is read from the device every time (no
            // block cache, per the paper's benchmark configuration); index
            // and bloom live in memory. Probe order is irrelevant for
            // correctness — the winner is the highest sequence — but
            // `max_seq` lets stale tables be skipped without device reads.
            for h in self.version.tables_for_get(key) {
                if let Some((bs, _)) = &best {
                    if *bs >= h.max_seq {
                        continue;
                    }
                }
                t += SimDuration::from_nanos(150); // bloom probe
                if !h.bloom.maybe_contains(key) {
                    self.stats.bloom_skips += 1;
                    continue;
                }
                let Some(b) = h.block_for(key) else {
                    continue;
                };
                let (block, done) = self
                    .store
                    .read_block_shared(t, h.id, b)
                    .map_err(DbError::from)?;
                t = done;
                self.stats.get_blocks_read += 1;
                // The walk starts at the block's anchor below the key, not at
                // its first entry.
                let from = h.seek_in_block(b, &block, key);
                let found = with_entries(&block, from, |entries| {
                    entries.lookup(key).map(|(s, v)| (s, v.map(<[u8]>::to_vec)))
                });
                if let Some((s, v)) = found {
                    if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                        best = Some((s, v));
                    }
                }
            }
        }

        let visible = best.and_then(|(_, v)| v);
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

    /// Deferred tables no table of whose group is pinned, in id order.
    fn reapable(&self) -> Vec<u64> {
        let held: BTreeSet<u64> = self
            .deferred
            .iter()
            .filter(|(id, _)| self.pins.contains_key(id))
            .map(|(_, group)| *group)
            .collect();
        self.deferred
            .iter()
            .filter(|(_, group)| !held.contains(group))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Deletes deferred tables whose group's last iterator pin is gone.
    /// Returns the advanced clock and whether anything was reclaimed.
    fn reap_deferred(&mut self, mut t: SimTime) -> Result<(SimTime, bool), DbError> {
        let ready = self.reapable();
        let did = !ready.is_empty();
        for id in ready {
            self.deferred.remove(&id);
            t = self.store.delete_table(t, id)?;
        }
        Ok((t, did))
    }

    /// Flushes the oldest immutable memtable into an L0 table of the newest
    /// version of each key. Returns the completion time, or `None` when
    /// there is nothing to flush.
    pub fn flush_once(&mut self, now: SimTime) -> Result<Option<SimTime>, DbError> {
        let (now, reaped) = self.reap_deferred(now)?;
        let Some((gen, imm)) = self.immutables.pop_front() else {
            return Ok(if reaped { Some(now) } else { None });
        };
        let imm = imm.lock();
        let mut t = now + BUILD_CPU_PER_ENTRY * imm.len() as u64;
        let mut builder = TableBuilder::new(self.store.block_bytes(), BITS_PER_KEY);
        let mut last: Option<&[u8]> = None;
        for (k, s, v) in imm.iter_versions() {
            // A key's newest version comes first; the older ones follow it.
            if last != Some(k) {
                builder.add(k, s, v);
                last = Some(k);
            }
        }
        if builder.is_empty() {
            // Unreachable for sealed memtables (they always hold data), but
            // cheap to guard: nothing to write.
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

    /// Emits the newest version of the key just merged into the active
    /// compaction's builder — unless [`keeps`] drops it — cutting the output
    /// table first when it is full.
    fn emit_newest(
        ac: &mut ActiveCompaction,
        store: &Arc<dyn TableStore>,
        config: &DbConfig,
        block_bytes: usize,
        t: &mut SimTime,
    ) -> Result<(), DbError> {
        let Some(e) = ac.newest.take() else {
            return Ok(());
        };
        if !keeps(e.seq(), e.value().is_none(), ac.drop_tombstones) {
            ac.tombstones_dropped += 1;
            return Ok(());
        }
        if ac.builder.projected_total_bytes() + block_bytes > config.table_bytes
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
        // The one copy a surviving version gets: input block to output block.
        ac.builder.add(e.key(), e.seq(), e.value());
        ac.entries_out += 1;
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
                self.actives.push(ActiveCompaction {
                    from: job.from_level,
                    to: job.to_level,
                    removed: job.inputs.iter().map(|h| h.id).collect(),
                    drop_tombstones: job
                        .drop_tombstones
                        .then(|| job.inputs.iter().map(|h| h.max_seq).max().unwrap_or(0)),
                    merge: MergeIter::new(streams, self.store.clone()),
                    builder: TableBuilder::new(block_bytes, BITS_PER_KEY),
                    outputs: Vec::new(),
                    frontier: now,
                    started: now,
                    newest: None,
                    entries_out: 0,
                    tombstones_dropped: 0,
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
        if !self.deferred.is_empty() {
            // A replaced table still on the media may hold a version that a
            // tombstone hides: were the tombstone dropped, a crash would
            // bring the version back.
            ac.drop_tombstones = None;
        }
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
                    if ac.newest.as_ref().is_some_and(|e| e.key() == entry.key()) {
                        // An older version of the key being merged.
                        ac.shadowed += 1;
                        continue;
                    }
                    Self::emit_newest(&mut ac, &self.store, &self.config, block_bytes, &mut t)?;
                    ac.newest = Some(entry);
                }
                None => {
                    Self::emit_newest(&mut ac, &self.store, &self.config, block_bytes, &mut t)?;
                    finished = true;
                    break;
                }
            }
        }

        if finished {
            if !ac.builder.is_empty() {
                let b = std::mem::replace(
                    &mut ac.builder,
                    TableBuilder::new(block_bytes, BITS_PER_KEY),
                );
                let h = Self::flush_output(&self.store, b, &mut t)?;
                ac.blocks_written += h.data_blocks as u64;
                ac.outputs.push(h);
            }
            // A compaction that dropped a tombstone leaves all of its inputs
            // on the media or none: a crash must not keep an older version
            // without the tombstone that hid it.
            let pinned = |id: &u64| self.pins.contains_key(id);
            let group = (ac.tombstones_dropped > 0 && ac.removed.iter().any(pinned))
                .then(|| ac.removed.iter().min().copied())
                .flatten();
            for id in &ac.removed {
                self.compacting.remove(id);
                if group.is_some() || self.pins.contains_key(id) {
                    // A live iterator still streams from this table (or one
                    // of its group); delete it when the last pin is released.
                    self.deferred.insert(*id, group.unwrap_or(*id));
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

    /// Iterates the whole database from `start` as it stands now — later
    /// writes never leak into the scan. Every table the iterator may stream
    /// from is pinned against deletion until the iterator is released via
    /// [`Db::release_iter`] (or automatically, for iterators obtained
    /// through [`SharedDb`]).
    ///
    /// Creating the iterator reads nothing: it merges a cursor over the
    /// memtables, one stream per L0 table and one stream per sorted level
    /// (see [`Version::scan_runs`]), and each stream fetches its first
    /// block on the first [`DbIter::next`].
    pub fn scan_from(&mut self, start: &[u8]) -> DbIter {
        let mems: Vec<SharedMemtable> = self.memtables_newest_first().cloned().collect();
        let runs = self.version.scan_runs(start);
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
            // The memtables stay shared with the writer: the cursor sees
            // the versions written so far, no later one.
            mem: MemCursor::new(mems, start, self.next_seq - 1),
            pinned,
            last_key: Vec::new(),
            table_pending: None,
            done: false,
            lifetime: None,
            owner: None,
        }
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
        self.stats.scan_blocks_read += scan.blocks_read;
        if let Some((opened, last)) = scan.lifetime {
            self.obs.metrics.record("lsm.scan.blocks", scan.blocks_read);
            self.obs
                .tracer
                .span(opened, last, "lsm", "scan", scan.blocks_read);
        }
    }

    /// Unpins an iterator's tables, letting compaction reclaim them.
    pub fn release_iter(&mut self, iter: &mut DbIter) {
        iter.owner = None;
        let scan = iter.release();
        self.release_scan(scan);
    }
}

/// What an iterator hands back to its database when it is released.
struct ReleasedScan {
    pinned: Vec<u64>,
    blocks_read: u64,
    /// Virtual time of the first and the last `next()`, if there was one.
    lifetime: Option<(SimTime, SimTime)>,
}

/// A key/value pair returned by iteration.
pub type KvPair = (Vec<u8>, Vec<u8>);

/// A merged iterator (range scans and read-sequential workloads).
///
/// The iterator sees exactly the database state at its creation: the
/// memtables of that moment are walked lazily and filtered by sequence
/// number, and every table it may read is pinned against deletion — the
/// tables of that moment hold nothing newer. Obtained via
/// [`Db::scan_from`] (caller releases) or through [`SharedDb`] (released
/// automatically on drop).
pub struct DbIter {
    merge: MergeIter,
    mem: MemCursor,
    pinned: Vec<u64>,
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
    /// Takes what the database needs back; the iterator keeps nothing
    /// pinned afterwards, so a second release is a no-op.
    fn release(&mut self) -> ReleasedScan {
        ReleasedScan {
            pinned: std::mem::take(&mut self.pinned),
            blocks_read: self.merge.take_blocks_read(),
            lifetime: self.lifetime.take(),
        }
    }

    /// Next live entry in key order; advances `t` for block reads. Returns
    /// `None` at the end of the key space.
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
            let table_next = match self.table_pending.take() {
                Some(e) => Some(e),
                None => self.merge.next(t)?,
            };
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
            let key = version.key();
            // Only the newest version of a key counts; older ones arrive
            // right after it and are skipped here.
            if self.last_key == key {
                continue;
            }
            self.last_key.clear();
            self.last_key.extend_from_slice(key);
            // A tombstone yields nothing; a live version is the first
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

    /// See [`Db::delete`].
    pub fn delete(&self, now: SimTime, key: &[u8]) -> Result<PutOutcome, DbError> {
        self.0.lock().delete(now, key)
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

    /// See [`Db::scan_from`]. The iterator releases its pins automatically
    /// when dropped — but must not be dropped while the
    /// database lock is held (e.g. inside [`SharedDb::with`]).
    pub fn scan_from(&self, start: &[u8]) -> DbIter {
        let mut it = self.0.lock().scan_from(start);
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
        let mut run = db.version.level(level).to_vec();
        run.sort_by(|a, b| a.max_key.cmp(&b.max_key));
        run
    }

    fn check_scan(db: &mut Db, model: &Model, t: SimTime, start: &[u8], end: Option<&[u8]>) {
        let mut iter = db.scan_from(start);
        let mut t = t;
        let mut got = Vec::new();
        while let Some(kv) = iter.next(&mut t).unwrap() {
            if end.is_some_and(|e| kv.0.as_slice() >= e) {
                break;
            }
            got.push(kv);
        }
        db.release_iter(&mut iter);
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
                let start = h.max_key.clone();
                let end = model.range(start.clone()..).nth(5).map(|(k, _)| k.clone());
                check_scan(&mut db, &model, t, &start, end.as_deref());
            }
            // From the end of one table, through the whole of the next,
            // into a third.
            for three in run.windows(3) {
                let (start, end) = (&three[0].max_key, &three[2].max_key);
                check_scan(&mut db, &model, t, start, Some(end));
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
            db.deferred.keys().copied().collect::<BTreeSet<u64>>(),
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
