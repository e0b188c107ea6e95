//! The LightLSM FTL: SSTable flush / block read / table delete, with a
//! journaled, checkpointed table directory (no MANIFEST needed above).

use crate::placement::{Placement, TableExtent};
use ocssd::{ChunkState, Completion, DeviceError, Geometry, Payload, Ppa};
use ox_core::badblock::retire_chunks;
use ox_core::codec::{Decoder, Encoder};
use ox_core::layout::{Layout, LayoutConfig};
use ox_core::logspace::reset_or_retire;
use ox_core::provision::Provisioner;
use ox_core::recovery::Journal;
use ox_core::retry::{self, RetryOutcome};
use ox_core::wal::{WalError, WalRecord};
use ox_core::Media;
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime, Timeline};
use std::collections::BTreeMap;
use std::sync::Arc;

/// SSTable identifier.
pub type TableId = u64;

const TAG_TABLE_ADD: u8 = 1;
const TAG_TABLE_DELETE: u8 = 2;

/// LightLSM configuration.
#[derive(Clone, Copy, Debug)]
pub struct LightLsmConfig {
    /// SSTable placement policy (Figure 4).
    pub placement: Placement,
}

/// Submission cost charged per block on the single dispatch thread.
const DISPATCH_PER_BLOCK: SimDuration = SimDuration::from_micros(2);

impl Default for LightLsmConfig {
    fn default() -> Self {
        LightLsmConfig {
            placement: Placement::Horizontal,
        }
    }
}

/// LightLSM failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LightLsmError {
    /// Table data exceeds the maximum SSTable size.
    TableTooLarge {
        /// Bytes offered.
        bytes: usize,
        /// Capacity in bytes.
        capacity: usize,
    },
    /// Empty table flush.
    EmptyTable,
    /// No such table.
    UnknownTable(TableId),
    /// Block index beyond the table's written blocks.
    BlockOutOfRange {
        /// Table queried.
        table: TableId,
        /// Block asked for.
        block: u32,
        /// Blocks available.
        blocks: u32,
    },
    /// Not enough free chunks for the requested placement.
    OutOfSpace,
    /// Log/metadata failure.
    Wal(WalError),
    /// Device failure.
    Device(DeviceError),
}

impl std::fmt::Display for LightLsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LightLsmError::TableTooLarge { bytes, capacity } => {
                write!(f, "table of {bytes} B exceeds capacity {capacity} B")
            }
            LightLsmError::EmptyTable => write!(f, "empty table flush"),
            LightLsmError::UnknownTable(id) => write!(f, "unknown table {id}"),
            LightLsmError::BlockOutOfRange {
                table,
                block,
                blocks,
            } => write!(
                f,
                "block {block} out of range for table {table} ({blocks} blocks)"
            ),
            LightLsmError::OutOfSpace => write!(f, "not enough free chunks"),
            LightLsmError::Wal(e) => write!(f, "log error: {e}"),
            LightLsmError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for LightLsmError {}

impl From<WalError> for LightLsmError {
    fn from(e: WalError) -> Self {
        LightLsmError::Wal(e)
    }
}

impl From<DeviceError> for LightLsmError {
    fn from(e: DeviceError) -> Self {
        LightLsmError::Device(e)
    }
}

/// Cumulative LightLSM statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LightLsmStats {
    /// SSTables flushed.
    pub flushes: u64,
    /// Blocks written across all flushes.
    pub blocks_written: u64,
    /// Block reads served.
    pub blocks_read: u64,
    /// Tables deleted (chunk erases only — no GC copies, §4.3).
    pub tables_deleted: u64,
    /// Chunk erases caused by deletions.
    pub chunks_erased: u64,
    /// Directory checkpoints forced by WAL pressure.
    pub dir_checkpoints: u64,
    /// Virtual nanos spent in flush phases (log-space, write+ack, barrier,
    /// directory commit) — diagnostic.
    pub flush_ensure_nanos: u64,
    /// See `flush_ensure_nanos`.
    pub flush_ack_nanos: u64,
    /// See `flush_ensure_nanos`.
    pub flush_barrier_nanos: u64,
    /// See `flush_ensure_nanos`.
    pub flush_commit_nanos: u64,
    /// Flushes restarted on a fresh extent after a program failure retired
    /// one of the stripe's chunks.
    pub flush_failovers: u64,
    /// Block reads retried after a transient uncorrectable-read error.
    pub read_retries: u64,
    /// Grown-bad-block events ingested from the device.
    pub media_events: u64,
}

/// The LightLSM FTL.
pub struct LightLsm {
    media: Arc<dyn Media>,
    geo: Geometry,
    config: LightLsmConfig,
    layout: Layout,
    prov: Provisioner,
    journal: Journal,
    /// The single dispatch thread: every block submission serializes here.
    dispatch: Timeline,
    tables: BTreeMap<TableId, TableExtent>,
    next_id: TableId,
    /// Horizontal placement: rotating PU cursor for sub-full-width tables.
    next_pu: u32,
    /// Vertical placement: groups are assigned round-robin per table.
    next_group: u32,
    stats: LightLsmStats,
    obs: Obs,
}

impl LightLsm {
    /// Formats the device for LightLSM.
    pub fn format(
        media: Arc<dyn Media>,
        config: LightLsmConfig,
        now: SimTime,
    ) -> Result<(LightLsm, SimTime), LightLsmError> {
        let geo = media.geometry();
        let layout = Layout::plan(&geo, LayoutConfig::default());
        let reserved = layout.reserved_linear(&geo);
        let (journal, done) = Journal::format(&media, &layout, now)?;
        Ok((
            LightLsm {
                geo,
                prov: Provisioner::fresh(geo, &reserved),
                journal,
                dispatch: Timeline::new(),
                tables: BTreeMap::new(),
                next_id: 1,
                next_pu: 0,
                next_group: 0,
                stats: LightLsmStats::default(),
                obs: media.obs(),
                layout,
                media,
                config,
            },
            done,
        ))
    }

    /// The sinks this FTL reports into (its media's, read at construction):
    /// dispatch-level operations under the `lightlsm` subsystem, next to
    /// its WAL and checkpoint components.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Reopens LightLSM after a crash: loads the directory checkpoint,
    /// replays committed directory transactions from the WAL, verifies the
    /// surviving tables against the device, rewrites a fresh checkpoint and
    /// restarts the log. Returns the FTL, completion time, and the number of
    /// recovered tables.
    pub fn open(
        media: Arc<dyn Media>,
        config: LightLsmConfig,
        now: SimTime,
    ) -> Result<(LightLsm, SimTime, usize), LightLsmError> {
        let geo = media.geometry();
        let layout = Layout::plan(&geo, LayoutConfig::default());

        // The checkpointed directory, then the committed updates after it.
        let replay = Journal::replay(&media, &layout, now);
        let mut tables = replay
            .snapshot
            .as_deref()
            .and_then(decode_directory)
            .unwrap_or_default();
        for rec in replay.txns.iter().flatten() {
            match rec {
                WalRecord::Blob { tag, data, .. } if *tag == TAG_TABLE_ADD => {
                    if let Some(ext) = TableExtent::decode(&mut Decoder::new(data)) {
                        tables.insert(ext.id, ext);
                    }
                }
                WalRecord::Blob { tag, data, .. } if *tag == TAG_TABLE_DELETE => {
                    if let Ok(id) = Decoder::new(data).u64() {
                        tables.remove(&id);
                    }
                }
                _ => {}
            }
        }

        // A table whose chunks were rolled back by the crash (flush acked
        // but never durable) is dropped: the directory commit is durable
        // only after the data barrier, so this only defends against media
        // loss, not protocol races.
        tables.retain(|_, ext| {
            ext.chunks.iter().enumerate().all(|(pos, &c)| {
                let info = media.chunk_info(c);
                let needed = {
                    // Sectors this extent needs in chunk position `pos`.
                    let n = ext.chunks.len() as u32;
                    let full_rows = ext.blocks / n;
                    let extra = u32::from((pos as u32) < ext.blocks % n);
                    (full_rows + extra) * geo.ws_min
                };
                info.state != ChunkState::Offline && info.write_ptr >= needed
            })
        });

        // Persist the recovered directory and restart the log.
        let (journal, t) = replay.restart(&encode_directory(&tables))?;

        let reserved = layout.reserved_linear(&geo);
        let prov = Provisioner::from_report(geo, &reserved, &media.report_all());
        let count = tables.len();
        let max_id = tables.keys().max().copied().unwrap_or(0);
        Ok((
            LightLsm {
                geo,
                prov,
                journal,
                dispatch: Timeline::new(),
                tables,
                next_id: max_id + 1,
                next_pu: 0,
                next_group: 0,
                stats: LightLsmStats::default(),
                obs: media.obs(),
                layout,
                media,
                config,
            },
            t,
            count,
        ))
    }

    /// Block size (bytes): `ws_min` — the unit of read AND write RocksDB
    /// forces (96 KB on the paper drive).
    pub fn block_bytes(&self) -> usize {
        self.geo.ws_min_bytes()
    }

    /// Maximum SSTable size: #PUs × chunk size (the paper's 768 MB rule).
    pub fn table_capacity_bytes(&self) -> usize {
        self.geo.total_pus() as usize * self.geo.chunk_bytes() as usize
    }

    /// The configured placement policy.
    pub fn placement(&self) -> Placement {
        self.config.placement
    }

    /// Statistics.
    pub fn stats(&self) -> LightLsmStats {
        self.stats
    }

    /// Live tables, in id order.
    pub fn table_ids(&self) -> Vec<TableId> {
        self.tables.keys().copied().collect()
    }

    /// Extent of a table.
    pub fn table(&self, id: TableId) -> Option<&TableExtent> {
        self.tables.get(&id)
    }

    /// Free chunks remaining.
    pub fn free_chunks(&self) -> u32 {
        self.prov.free_chunks()
    }

    /// The planned metadata layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Checkpoints the directory if the log is nearly full.
    fn checkpoint_under_log_pressure(&mut self, now: SimTime) -> Result<SimTime, LightLsmError> {
        let tables = &self.tables;
        let taken = self
            .journal
            .ensure_log_space(now, || encode_directory(tables))?;
        self.stats.dir_checkpoints += u64::from(taken.is_some());
        Ok(taken.unwrap_or(now))
    }

    /// Journals one directory update as a transaction of its own; returns
    /// when it is durable.
    fn commit_directory_update(
        &mut self,
        now: SimTime,
        tag: u8,
        data: Vec<u8>,
    ) -> Result<SimTime, LightLsmError> {
        let wal = &mut self.journal.wal;
        let txid = wal.begin();
        wal.append(WalRecord::Blob { txid, tag, data });
        wal.end(txid);
        Ok(wal.commit(now)?)
    }

    /// Allocates the chunk stripe for `blocks` blocks under the placement
    /// policy.
    fn allocate_extent(&mut self, blocks: u32) -> Result<Vec<ocssd::ChunkAddr>, LightLsmError> {
        let per_chunk = self.geo.write_units_per_chunk();
        let chunks_needed = blocks.div_ceil(per_chunk);
        let mut chunks = Vec::with_capacity(chunks_needed as usize);
        match self.config.placement {
            Placement::Horizontal => {
                // One chunk per PU round-robin over the whole device (a
                // full-size table gets exactly one chunk on every PU, as in
                // Figure 4); a rotating cursor keeps small tables from
                // piling on the first PUs.
                let total = self.geo.total_pus();
                for i in 0..chunks_needed {
                    let pu = (self.next_pu + i) % total;
                    match self.prov.take_free_chunk(pu) {
                        Some(c) => chunks.push(c),
                        None => {
                            // Roll back this allocation.
                            for c in chunks {
                                self.prov.release_chunk(c);
                            }
                            return Err(LightLsmError::OutOfSpace);
                        }
                    }
                }
                self.next_pu = (self.next_pu + chunks_needed) % total;
            }
            Placement::Vertical => {
                let group = self.next_group;
                self.next_group = (self.next_group + 1) % self.geo.num_groups;
                let per = self.geo.pus_per_group;
                for i in 0..chunks_needed {
                    let pu = group * per + (i % per);
                    match self.prov.take_free_chunk(pu) {
                        Some(c) => chunks.push(c),
                        None => {
                            for c in chunks {
                                self.prov.release_chunk(c);
                            }
                            return Err(LightLsmError::OutOfSpace);
                        }
                    }
                }
            }
        }
        Ok(chunks)
    }

    /// Dismantles a partially written extent after a program failure: the
    /// failed chunk is retired, the rest are erased (tolerating further
    /// failures) and recycled.
    fn abandon_extent(
        &mut self,
        now: SimTime,
        chunks: &[ocssd::ChunkAddr],
        bad: ocssd::ChunkAddr,
    ) -> Result<(), LightLsmError> {
        for &c in chunks {
            if c == bad {
                self.prov.mark_offline(c);
                continue;
            }
            if self.media.chunk_info(c).state == ChunkState::Free {
                self.prov.release_chunk(c);
            } else {
                reset_or_retire(self.media.as_ref(), &mut self.prov, now, c)?;
            }
        }
        Ok(())
    }

    /// Atomically flushes an SSTable: stripes the data over a fresh chunk
    /// extent, waits for media durability, then commits the directory
    /// update. Returns the table id and completion time.
    pub fn flush_table(
        &mut self,
        now: SimTime,
        data: &[u8],
    ) -> Result<(TableId, SimTime), LightLsmError> {
        // The last block may be zero-padded to the 96 KB unit.
        let unit = self.geo.ws_min_bytes();
        let mut padded = Vec::new();
        self.flush_blocks(now, data.len(), |media, submit, ppa, block| {
            let rest = &data[block as usize * unit..];
            if rest.len() >= unit {
                return media.write(submit, ppa, &rest[..unit]);
            }
            padded.clear();
            padded.extend_from_slice(rest);
            padded.resize(unit, 0);
            media.write(submit, ppa, &padded)
        })
    }

    /// [`LightLsm::flush_table`] of a table handed over as its blocks, each
    /// [`LightLsm::block_bytes`] long, in buffers the media may keep instead
    /// of copying (one-part [`Media::write_parts`]); the same flush in every other
    /// respect — placement, failover, barrier, directory commit.
    pub fn flush_table_blocks(
        &mut self,
        now: SimTime,
        blocks: &[Payload],
    ) -> Result<(TableId, SimTime), LightLsmError> {
        let unit = self.geo.ws_min_bytes();
        if let Some(odd) = blocks.iter().find(|b| b.len() != unit) {
            return Err(LightLsmError::Device(DeviceError::BufferSizeMismatch {
                expected: unit,
                got: odd.len(),
            }));
        }
        self.flush_blocks(now, blocks.len() * unit, |media, submit, ppa, block| {
            media.write_parts(submit, ppa, std::slice::from_ref(&blocks[block as usize]))
        })
    }

    /// The flush itself, for a table of `bytes` bytes: `write_block` submits
    /// block `n` of it to the media at the time and place it is given.
    fn flush_blocks(
        &mut self,
        now: SimTime,
        bytes: usize,
        mut write_block: impl FnMut(&dyn Media, SimTime, Ppa, u32) -> ocssd::Result<Completion>,
    ) -> Result<(TableId, SimTime), LightLsmError> {
        if bytes == 0 {
            return Err(LightLsmError::EmptyTable);
        }
        if bytes > self.table_capacity_bytes() {
            return Err(LightLsmError::TableTooLarge {
                bytes,
                capacity: self.table_capacity_bytes(),
            });
        }
        let t = self.checkpoint_under_log_pressure(now)?;
        self.stats.flush_ensure_nanos += t.saturating_since(now).as_nanos();
        let blocks = bytes.div_ceil(self.geo.ws_min_bytes()) as u32;
        let id = self.next_id;
        self.next_id += 1;

        // Submit block writes through the single dispatch thread. A program
        // failure retires the stripe's failed chunk and restarts the flush on
        // a fresh extent — an extent's block→chunk mapping is positional, so
        // a chunk cannot be swapped out mid-stripe. Bounded: every restart
        // permanently removes a chunk from provisioning.
        let mut ack;
        let ext = loop {
            let chunks = self.allocate_extent(blocks)?;
            let ext = TableExtent {
                id,
                placement: self.config.placement,
                chunks,
                blocks,
            };
            ack = t;
            let mut failed = None;
            for b in 0..blocks {
                let (chunk, sector) = ext.block_location(&self.geo, b);
                let submit = self.dispatch.acquire(t, DISPATCH_PER_BLOCK).end;
                match write_block(self.media.as_ref(), submit, chunk.ppa(sector), b) {
                    Ok(comp) => ack = ack.max(comp.done),
                    Err(e) if e.retires_chunk() => {
                        failed = Some(chunk);
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            let Some(bad) = failed else {
                break ext;
            };
            self.stats.flush_failovers += 1;
            self.obs.metrics.record("lightlsm.flush_failover", 0);
            self.abandon_extent(ack, &ext.chunks, bad)?;
        };

        self.stats.flush_ack_nanos += ack.saturating_since(t).as_nanos();
        // Durability barrier before the directory commit: atomic flush.
        let mut durable = ack;
        for &c in &ext.chunks {
            durable = durable.max(self.media.flush_chunk(ack, c).done);
        }
        self.stats.flush_barrier_nanos += durable.saturating_since(ack).as_nanos();
        let mut enc = Encoder::new();
        ext.encode(&mut enc);
        let done = self.commit_directory_update(durable, TAG_TABLE_ADD, enc.finish())?;
        self.stats.flush_commit_nanos += done.saturating_since(durable).as_nanos();

        self.stats.flushes += 1;
        self.stats.blocks_written += blocks as u64;
        self.tables.insert(id, ext);
        self.obs.metrics.record("lightlsm.flush", bytes as u64);
        self.obs.metrics.observe(
            "lightlsm.flush_latency_ns",
            done.saturating_since(now).as_nanos(),
        );
        self.obs
            .tracer
            .span(now, done, "lightlsm", "flush", bytes as u64);
        Ok((id, done))
    }

    /// Reads one 96 KB block of a table into `out` (exactly `block_bytes`).
    pub fn read_block(
        &mut self,
        now: SimTime,
        id: TableId,
        block: u32,
        out: &mut [u8],
    ) -> Result<SimTime, LightLsmError> {
        assert_eq!(out.len(), self.block_bytes(), "block-sized buffer required");
        let (ppa, submit) = self.dispatch_block_read(now, id, block)?;
        // Bounded read-retry: uncorrectable reads are often transient.
        let outcome = retry::read_with_policy(
            self.media.as_ref(),
            submit,
            ppa,
            self.geo.ws_min,
            out,
            Some(&self.obs.metrics),
        )?;
        Ok(self.complete_block_read(now, outcome))
    }

    /// [`LightLsm::read_block`] answered with a view of the block instead of
    /// a copy of it: the same dispatch slot, the same retry policy, the same
    /// accounting.
    pub fn read_block_shared(
        &mut self,
        now: SimTime,
        id: TableId,
        block: u32,
    ) -> Result<(Payload, SimTime), LightLsmError> {
        let (ppa, submit) = self.dispatch_block_read(now, id, block)?;
        let (view, outcome) = retry::read_shared_with_policy(
            self.media.as_ref(),
            submit,
            ppa,
            self.geo.ws_min,
            Some(&self.obs.metrics),
        )?;
        Ok((view, self.complete_block_read(now, outcome)))
    }

    /// Finds a block and takes its slot on the dispatch thread: where the
    /// block is, and when its read reaches the media.
    fn dispatch_block_read(
        &mut self,
        now: SimTime,
        id: TableId,
        block: u32,
    ) -> Result<(Ppa, SimTime), LightLsmError> {
        let ext = self
            .tables
            .get(&id)
            .ok_or(LightLsmError::UnknownTable(id))?;
        if block >= ext.blocks {
            return Err(LightLsmError::BlockOutOfRange {
                table: id,
                block,
                blocks: ext.blocks,
            });
        }
        let (chunk, sector) = ext.block_location(&self.geo, block);
        let submit = self.dispatch.acquire(now, DISPATCH_PER_BLOCK).end;
        Ok((chunk.ppa(sector), submit))
    }

    /// Accounts for a block read submitted at `now`; returns when it is done.
    fn complete_block_read(&mut self, now: SimTime, outcome: RetryOutcome) -> SimTime {
        let done = outcome.completion.done;
        let bytes = self.block_bytes() as u64;
        self.stats.read_retries += outcome.retries as u64;
        self.stats.blocks_read += 1;
        self.obs.metrics.record("lightlsm.read", bytes);
        self.obs.tracer.span(now, done, "lightlsm", "read", bytes);
        done
    }

    /// Deletes a table: commits the directory removal, then resets the
    /// table's chunks (erases only — never page copies) and recycles them.
    pub fn delete_table(&mut self, now: SimTime, id: TableId) -> Result<SimTime, LightLsmError> {
        let ext = self
            .tables
            .remove(&id)
            .ok_or(LightLsmError::UnknownTable(id))?;
        let t = self.checkpoint_under_log_pressure(now)?;
        let mut enc = Encoder::new();
        enc.u64(id);
        let commit_done = self.commit_directory_update(t, TAG_TABLE_DELETE, enc.finish())?;

        // Erases are submitted together: chunks on different parallel units
        // erase concurrently (chunks sharing a PU serialize on its timeline).
        let mut done = commit_done;
        for &c in &ext.chunks {
            // Chunks are Open or Closed (the stripe may not have filled the
            // tail row); both reset fine. Never-written chunks are just
            // released. A failed erase retires the chunk — its data is
            // already deleted, so nothing is lost.
            if self.media.chunk_info(c).state == ChunkState::Free {
                self.prov.release_chunk(c);
            } else if let Some(comp) =
                reset_or_retire(self.media.as_ref(), &mut self.prov, commit_done, c)?
            {
                done = done.max(comp.done);
                self.stats.chunks_erased += 1;
            }
        }
        self.stats.tables_deleted += 1;
        self.obs.metrics.record("lightlsm.delete", 0);
        self.obs.tracer.span(now, done, "lightlsm", "delete", 0);
        Ok(done)
    }

    /// Drains grown-bad-block events from the device and routes future
    /// extent allocations around the retired chunks. Live tables touching a
    /// frozen chunk remain readable (a program-failure freeze keeps the
    /// written prefix); the directory is untouched. Advisory refresh flags
    /// are counted and otherwise ignored (LightLSM has no scrubber): the
    /// chunk stays in service.
    pub fn ingest_media_events(&mut self) -> usize {
        let events = self.media.drain_events();
        retire_chunks(&events, &mut self.prov);
        self.stats.media_events += events.len() as u64;
        events.len()
    }
}

fn encode_directory(tables: &BTreeMap<TableId, TableExtent>) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(tables.len() as u32);
    for ext in tables.values() {
        ext.encode(&mut e);
    }
    e.finish()
}

fn decode_directory(data: &[u8]) -> Option<BTreeMap<TableId, TableExtent>> {
    let mut d = Decoder::new(data);
    let n = d.u32().ok()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let ext = TableExtent::decode(&mut d)?;
        out.insert(ext.id, ext);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;

    fn setup(placement: Placement) -> (LightLsm, SharedDevice, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) =
            LightLsm::format(media, LightLsmConfig { placement }, SimTime::ZERO).unwrap();
        (ftl, dev, t)
    }

    fn table_data(ftl: &LightLsm, blocks: usize, seed: u8) -> Vec<u8> {
        let unit = ftl.block_bytes();
        (0..blocks * unit)
            .map(|i| seed.wrapping_add((i / unit) as u8))
            .collect()
    }

    #[test]
    fn flush_then_read_blocks_round_trip() {
        let (mut ftl, _, t0) = setup(Placement::Horizontal);
        let data = table_data(&ftl, 40, 9);
        let (id, t1) = ftl.flush_table(t0, &data).unwrap();
        let unit = ftl.block_bytes();
        let mut out = vec![0u8; unit];
        for b in 0..40 {
            let _ = ftl
                .read_block(t1 + SimDuration::from_secs(1), id, b as u32, &mut out)
                .unwrap();
            assert_eq!(&out[..], &data[b * unit..(b + 1) * unit], "block {b}");
        }
    }

    #[test]
    fn partial_last_block_zero_padded() {
        let (mut ftl, _, t0) = setup(Placement::Horizontal);
        let unit = ftl.block_bytes();
        let data = vec![7u8; unit + 100];
        let (id, t1) = ftl.flush_table(t0, &data).unwrap();
        let ext = ftl.table(id).unwrap();
        assert_eq!(ext.blocks, 2);
        let mut out = vec![0u8; unit];
        ftl.read_block(t1 + SimDuration::from_secs(1), id, 1, &mut out)
            .unwrap();
        assert_eq!(&out[..100], &[7u8; 100][..]);
        assert!(out[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn shared_block_reads_are_block_reads_without_the_copy() {
        // Twin FTLs over twin devices, one of whose table blocks fails its
        // first two reads; the last block is mostly zero padding.
        let twin = || {
            let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
            let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
            let (mut ftl, t) =
                LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
            let unit = ftl.block_bytes();
            let mut data = table_data(&ftl, 40, 9);
            data.truncate(39 * unit + 100);
            let (id, t) = ftl.flush_table(t, &data).unwrap();
            let (chunk, sector) = ftl.table(id).unwrap().block_location(&ftl.geo, 5);
            dev.set_fault_plan(ocssd::FaultPlan {
                read_fails: vec![ocssd::ReadFault {
                    ppa: chunk.ppa(sector + 3),
                    attempts: 2,
                }],
                ..ocssd::FaultPlan::default()
            });
            (ftl, dev, id, t + SimDuration::from_secs(1))
        };
        let (mut by_copy, copy_dev, id, mut t) = twin();
        let (mut by_view, view_dev, _, _) = twin();
        let blocks = by_copy.table(id).unwrap().blocks;
        assert_eq!(blocks, 40);
        let mut out = vec![0u8; by_copy.block_bytes()];
        for b in 0..blocks {
            let done = by_copy.read_block(t, id, b, &mut out).unwrap();
            let (view, done_view) = by_view.read_block_shared(t, id, b).unwrap();
            assert!(view.to_vec() == out, "block {b}");
            assert_eq!(done_view, done, "block {b}");
            t = done;
        }
        assert!(
            out[100..].iter().all(|&z| z == 0),
            "the last block is padding"
        );
        assert_eq!(by_copy.stats().blocks_read, blocks as u64);
        assert_eq!(by_view.stats().blocks_read, blocks as u64);
        assert_eq!(by_copy.stats().read_retries, 2, "the armed fault fired");
        assert_eq!(by_view.stats().read_retries, 2);
        assert_eq!(
            format!("{:?}", copy_dev.stats()),
            format!("{:?}", view_dev.stats())
        );
        assert_eq!(
            by_copy.obs().metrics.to_json(),
            by_view.obs().metrics.to_json()
        );
        // Out-of-range and unknown tables are refused before any I/O.
        assert!(matches!(
            by_view.read_block_shared(t, id, blocks),
            Err(LightLsmError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            by_view.read_block_shared(t, id + 1, 0),
            Err(LightLsmError::UnknownTable(_))
        ));
    }

    #[test]
    fn horizontal_extent_spans_all_pus() {
        let (mut ftl, _, t0) = setup(Placement::Horizontal);
        let geo = Geometry::paper_tlc_scaled(22, 8);
        // Full-size table: #PUs × chunk.
        let data = table_data(&ftl, (32 * geo.write_units_per_chunk()) as usize, 1);
        let (id, _) = ftl.flush_table(t0, &data).unwrap();
        let ext = ftl.table(id).unwrap();
        let pus: std::collections::BTreeSet<u32> =
            ext.chunks.iter().map(|c| c.pu_linear(&geo)).collect();
        assert_eq!(pus.len(), 32, "one chunk per PU");
    }

    #[test]
    fn vertical_extent_stays_in_one_group_and_rotates() {
        let (mut ftl, _, t0) = setup(Placement::Vertical);
        let data = table_data(&ftl, 64, 1);
        let (id1, t1) = ftl.flush_table(t0, &data).unwrap();
        let (id2, _) = ftl.flush_table(t1, &data).unwrap();
        let g1: std::collections::BTreeSet<u32> = ftl
            .table(id1)
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.group)
            .collect();
        let g2: std::collections::BTreeSet<u32> = ftl
            .table(id2)
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.group)
            .collect();
        assert_eq!(g1.len(), 1);
        assert_eq!(g2.len(), 1);
        assert_ne!(g1, g2, "tables rotate across groups");
    }

    #[test]
    fn single_flush_is_faster_horizontal_than_vertical() {
        // Figure 5's 1-client observation: horizontal striping enjoys the
        // whole device's program bandwidth. Full-size table: one chunk per
        // PU (32 chunks × 32 units).
        let blocks = 1024;
        let (mut h, _, th) = setup(Placement::Horizontal);
        let data = table_data(&h, blocks, 1);
        let (_, h_done) = h.flush_table(th, &data).unwrap();
        let (mut v, _, tv) = setup(Placement::Vertical);
        let (_, v_done) = v.flush_table(tv, &data).unwrap();
        let h_lat = h_done.saturating_since(th);
        let v_lat = v_done.saturating_since(tv);
        assert!(
            h_lat.as_nanos() * 3 < v_lat.as_nanos(),
            "horizontal {h_lat} should be ≫ faster than vertical {v_lat}"
        );
    }

    #[test]
    fn delete_only_erases_chunks() {
        let (mut ftl, dev, t0) = setup(Placement::Horizontal);
        let data = table_data(&ftl, 64, 2);
        let (id, t1) = ftl.flush_table(t0, &data).unwrap();
        let copies_before = dev.with(|d| d.stats().copies.ops());
        let free_before = ftl.free_chunks();
        let t2 = ftl.delete_table(t1, id).unwrap();
        assert!(t2 > t1);
        assert_eq!(dev.with(|d| d.stats().copies.ops()), copies_before);
        assert!(ftl.free_chunks() > free_before);
        assert!(ftl.stats().chunks_erased > 0);
        assert!(ftl.table(id).is_none());
        let mut out = vec![0u8; ftl.block_bytes()];
        assert!(matches!(
            ftl.read_block(t2, id, 0, &mut out),
            Err(LightLsmError::UnknownTable(_))
        ));
    }

    #[test]
    fn validation_errors() {
        let (mut ftl, _, t0) = setup(Placement::Horizontal);
        assert!(matches!(
            ftl.flush_table(t0, &[]),
            Err(LightLsmError::EmptyTable)
        ));
        let too_big = vec![0u8; ftl.table_capacity_bytes() + 1];
        assert!(matches!(
            ftl.flush_table(t0, &too_big),
            Err(LightLsmError::TableTooLarge { .. })
        ));
        let data = table_data(&ftl, 4, 3);
        let (id, t1) = ftl.flush_table(t0, &data).unwrap();
        let mut out = vec![0u8; ftl.block_bytes()];
        assert!(matches!(
            ftl.read_block(t1, id, 4, &mut out),
            Err(LightLsmError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.delete_table(t1, 999),
            Err(LightLsmError::UnknownTable(999))
        ));
    }

    #[test]
    fn flushing_a_table_as_blocks_is_flushing_its_bytes() {
        use ocssd::{FaultPlan, ProgramFault};
        for placement in [Placement::Horizontal, Placement::Vertical] {
            let (mut by_bytes, bytes_dev, t0) = setup(placement);
            let (mut by_blocks, blocks_dev, _) = setup(placement);
            let unit = by_bytes.block_bytes();
            // The second flush loses a chunk of its stripe to a program
            // failure on its second row, and starts over on a fresh extent.
            let data = table_data(&by_bytes, 40, 9);
            let blocks: Vec<Payload> = data.chunks(unit).map(Payload::from).collect();
            let mut t = t0;
            for round in 0..3 {
                if round == 1 {
                    for (ftl, dev) in [(&mut by_bytes, &bytes_dev), (&mut by_blocks, &blocks_dev)] {
                        // Where the flush will go: allocate, and put it back.
                        let cursors = (ftl.next_pu, ftl.next_group);
                        let next = ftl.allocate_extent(40).unwrap();
                        for &c in next.iter().rev() {
                            ftl.prov.release_chunk(c);
                        }
                        (ftl.next_pu, ftl.next_group) = cursors;
                        dev.set_fault_plan(FaultPlan {
                            program_fails: vec![ProgramFault {
                                chunk: next[1],
                                wp: ftl.geo.ws_min,
                            }],
                            ..FaultPlan::default()
                        });
                    }
                }
                let a = by_bytes.flush_table(t, &data).unwrap();
                let b = by_blocks.flush_table_blocks(t, &blocks).unwrap();
                assert_eq!(a, b, "{placement:?} round {round}");
                t = a.1;
            }
            assert_eq!(by_bytes.stats().flush_failovers, 1, "{placement:?}");
            assert_eq!(
                format!("{:?}", by_bytes.stats()),
                format!("{:?}", by_blocks.stats())
            );
            assert_eq!(
                format!("{:?}", bytes_dev.stats()),
                format!("{:?}", blocks_dev.stats())
            );
            let mut out = vec![0u8; unit];
            for id in by_bytes.table_ids() {
                assert_eq!(by_bytes.table(id), by_blocks.table(id));
                for (b, want) in data.chunks(unit).enumerate() {
                    by_bytes.read_block(t, id, b as u32, &mut out).unwrap();
                    let (view, _) = by_blocks.read_block_shared(t, id, b as u32).unwrap();
                    assert!(out == want && view.to_vec() == want, "table {id} block {b}");
                }
            }
            // A block of the wrong size is refused before anything is written.
            let odd = [blocks[0].clone(), Payload::from(&data[..unit / 2])];
            assert!(matches!(
                by_blocks.flush_table_blocks(t, &odd),
                Err(LightLsmError::Device(
                    DeviceError::BufferSizeMismatch { .. }
                ))
            ));
            assert_eq!(
                by_blocks.flush_table_blocks(t, &[]),
                Err(LightLsmError::EmptyTable)
            );
        }
    }

    #[test]
    fn atomic_flush_survives_crash_and_reopen() {
        let (mut ftl, dev, t0) = setup(Placement::Horizontal);
        let data = table_data(&ftl, 32, 5);
        let (id1, t1) = ftl.flush_table(t0, &data).unwrap();
        let (id2, t2) = ftl.flush_table(t1, &data).unwrap();
        dev.crash(t2);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut re, t3, count) = LightLsm::open(media, LightLsmConfig::default(), t2).unwrap();
        assert_eq!(count, 2);
        let unit = re.block_bytes();
        let mut out = vec![0u8; unit];
        for id in [id1, id2] {
            re.read_block(t3, id, 31, &mut out).unwrap();
            assert_eq!(&out[..], &data[31 * unit..32 * unit]);
        }
        // New flushes pick fresh ids.
        let (id3, _) = re.flush_table(t3, &data).unwrap();
        assert!(id3 > id2);
    }

    #[test]
    fn unflushed_table_is_dropped_on_reopen() {
        let (mut ftl, dev, t0) = setup(Placement::Horizontal);
        let data = table_data(&ftl, 32, 5);
        let (_, t1) = ftl.flush_table(t0, &data).unwrap();
        // Second flush: crash at submission time — neither its data nor its
        // directory commit are durable.
        let _ = ftl.flush_table(t1, &data);
        dev.crash(t1);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (_, _, count) = LightLsm::open(media, LightLsmConfig::default(), t1).unwrap();
        assert_eq!(count, 1, "only the durable table survives");
    }

    #[test]
    fn flushes_and_deletes_between_two_crashes_survive_the_second() {
        let (mut ftl, dev, t0) = setup(Placement::Horizontal);
        let data = table_data(&ftl, 8, 3);
        let (id1, t) = ftl.flush_table(t0, &data).unwrap();
        let (id2, t) = ftl.flush_table(t, &data).unwrap();
        dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, t, count) = LightLsm::open(media, LightLsmConfig::default(), t).unwrap();
        assert_eq!(count, 2);

        // Acked durable between the crashes, with no directory checkpoint
        // of the FTL's own in between.
        let (id3, t) = ftl.flush_table(t, &data).unwrap();
        let t = ftl.delete_table(t, id1).unwrap();
        assert_eq!(ftl.stats().dir_checkpoints, 0);
        dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, t, _) = LightLsm::open(media, LightLsmConfig::default(), t).unwrap();
        assert_eq!(ftl.table_ids(), [id2, id3], "flush kept, delete not undone");
        let unit = ftl.block_bytes();
        let mut out = vec![0u8; unit];
        ftl.read_block(t, id3, 7, &mut out).unwrap();
        assert_eq!(&out[..], &data[7 * unit..]);
    }

    #[test]
    fn deleted_tables_stay_deleted_after_reopen() {
        let (mut ftl, dev, t0) = setup(Placement::Vertical);
        let data = table_data(&ftl, 16, 1);
        let (id1, t1) = ftl.flush_table(t0, &data).unwrap();
        let (id2, t2) = ftl.flush_table(t1, &data).unwrap();
        let t3 = ftl.delete_table(t2, id1).unwrap();
        dev.crash(t3);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (re, _, count) = LightLsm::open(
            media,
            LightLsmConfig {
                placement: Placement::Vertical,
            },
            t3,
        )
        .unwrap();
        assert_eq!(count, 1);
        assert!(re.table(id1).is_none());
        assert!(re.table(id2).is_some());
    }

    /// An advisory `RefreshDue` says "relocate this data soon", not "this
    /// chunk is bad": ingesting one must leave the chunk in circulation.
    #[test]
    fn a_refresh_flag_does_not_retire_the_chunk() {
        let geo = ocssd::Geometry::small_slc();
        let mut config = DeviceConfig::with_geometry(geo);
        config.reliability = Some(13);
        let dev = SharedDevice::new(OcssdDevice::new(config));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, t0) =
            LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
        let free = ftl.free_chunks();
        let (id, mut t) = ftl.flush_table(t0, &table_data(&ftl, 1, 5)).unwrap();
        let flagged = ftl.table(id).unwrap().chunks[0];

        // Read the table's chunk until the device flags it, exactly once
        // (retention gets it there within a virtual minute).
        let mut out = vec![0u8; ftl.block_bytes()];
        let mut reads = 0;
        while dev.health_ledger().refresh_flags == 0 {
            assert!(
                reads < 100_000,
                "{flagged:?} unflagged after {reads} reads: {:?}",
                dev.health_ledger()
            );
            reads += 1;
            t += SimDuration::from_millis(100);
            let _ = dev.read(t, flagged.ppa(0), geo.ws_min, &mut out);
        }
        assert_eq!(dev.health_ledger().refresh_flags, 1);
        assert_eq!(ftl.ingest_media_events(), 1);
        assert_eq!(ftl.stats().media_events, 1);

        // The chunk comes back when its table goes, and takes a table again.
        t = ftl.delete_table(t, id).unwrap();
        assert_eq!(ftl.free_chunks(), free, "a healthy chunk was retired");
        let reused = (0..geo.total_pus()).any(|_| {
            let (id, done) = ftl.flush_table(t, &table_data(&ftl, 1, 6)).unwrap();
            t = done;
            ftl.table(id).unwrap().chunks[0] == flagged
        });
        assert!(reused, "no later table was placed on {flagged:?}");
    }

    use ox_sim::SimDuration;
}
