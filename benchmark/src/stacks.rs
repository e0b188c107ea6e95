//! The four stacks under test, built only from the layer crates' public
//! constructors, behind the one [`Stack`] trait the driver talks to.
//!
//! * [`LsmStack`] — `lsmkv::Db` → `lightlsm` (horizontal placement) →
//!   `ocssd`, optionally with every LightLSM media call routed through one
//!   `iosched::SchedMedia` tenant (deadline arbiter).
//! * [`BlockStack`] / [`ZtlStack`] / [`KvStack`] — the three interfaces of
//!   the cross-interface ablation over one shared raw geometry, serving
//!   fixed-size records by record id.
//!
//! With `traced` set the same constructors are used, with
//! [`crate::trace`]'s transparent wrappers slid in at the trait seams and a
//! span around every top-level call. Untraced stacks contain no wrapper.

use crate::gen;
use crate::trace::{self, Cause, Layer, Outcome, TracedMedia, TracedStore};
use iosched::{ArbiterKind, IoScheduler, SchedConfig, SchedMedia, SharedScheduler, TenantConfig};
use lightlsm::{LightLsm, LightLsmConfig, Placement};
use lsmkv::{Db, DbConfig, LightLsmStore, PutOutcome, TableStore};
use ocssd::{
    CellType, ChunkState, DeviceConfig, DeviceStats, Geometry, OcssdDevice, SharedDevice,
    SECTOR_BYTES,
};
use ox_block::{BlockFtl, BlockFtlConfig, WriteOutcome};
use ox_core::gc::GcPass;
use ox_core::{Media, OcssdMedia};
use ox_kvssd::{KvSsd, KvSsdConfig};
use ox_sim::{SimDuration, SimTime};
use oxztl::{ZtlConfig, ZtlError, ZtlFtl};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sectors per record on the three `*-update` stacks: one `oxztl` append
/// unit's payload on a `ws_min` = 4 device, so the block path pays its
/// padding tax and the zone path its header tax on every record.
pub const RECORD_SECTORS: u64 = 3;
/// Bytes per `*-update` record.
pub const RECORD_BYTES: usize = RECORD_SECTORS as usize * SECTOR_BYTES;
/// Value bytes on the `lsm-*` stacks (the paper's db_bench setup: 16 B keys,
/// 1 KB values).
pub const LSM_VALUE_BYTES: usize = 1024;

/// Retry delay after a failed op, so a failing stack cannot spin a client
/// at one virtual instant.
const FAIL_BACKOFF: SimDuration = SimDuration::from_micros(100);

/// Raw device shared by `blk-update`, `ztl-update` and `kv-update`: SLC,
/// `ws_min` 4, 8 PUs × 64 chunks × 128 sectors = 256 MiB.
pub fn update_geometry() -> Geometry {
    Geometry {
        num_groups: 1,
        pus_per_group: 8,
        chunks_per_pu: 64,
        sectors_per_chunk: 128,
        ws_min: 4,
        mw_cunits: 8,
        cell: CellType::Slc,
        planes: 1,
        sectors_per_page: 4,
        endurance: 50_000,
    }
}

/// Records served by the `*-update` workloads: 60 % of the smallest
/// capacity the three interfaces export on [`update_geometry`] — `ox_kvssd`'s
/// value-log window of half the raw sectors (32 768; `oxztl` exports 47 232)
/// — in 3-sector records. A constant, so the three op streams are the same
/// stream; each stack asserts at format time that it fits.
pub const UPDATE_RECORDS: u64 = 6_553;

/// Outcome of a put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Put {
    /// Acknowledged at the given virtual time.
    Done(SimTime),
    /// Back-pressure: retry the same put at the given time.
    Stalled(SimTime),
    /// The stack refused or failed the write.
    Failed(SimTime),
}

impl Put {
    fn from<E>(now: SimTime, r: Result<SimTime, E>) -> Put {
        r.map_or(Put::Failed(now + FAIL_BACKOFF), Put::Done)
    }
}

/// Outcome of a get; the value, when found, is in the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Get {
    /// Whether the record exists.
    pub found: bool,
    /// Virtual completion time.
    pub done: SimTime,
    /// Whether the stack returned an error.
    pub failed: bool,
}

impl Get {
    fn found(done: SimTime) -> Get {
        Get {
            found: true,
            done,
            failed: false,
        }
    }

    fn missing(done: SimTime) -> Get {
        Get {
            found: false,
            done,
            failed: false,
        }
    }

    fn failed(now: SimTime) -> Get {
        Get {
            found: false,
            done: now + FAIL_BACKOFF,
            failed: true,
        }
    }
}

/// Outcome of a scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scan {
    /// Virtual completion time.
    pub done: SimTime,
    /// Whether the stack returned an error.
    pub failed: bool,
}

/// Device-side state at one instant; metrics are differences of two.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Device counters.
    pub dev: DeviceStats,
    /// Busy nanoseconds of every parallel unit since time zero.
    pub pu_busy_ns: Vec<f64>,
    /// Queueing delay every parallel unit has imposed since time zero.
    pub pu_queue_ns: Vec<u64>,
    /// Sectors with a stored payload (host memory the device model holds).
    pub stored_sectors: u64,
    /// Cumulative counters of the layers above the device, by metric name.
    pub layers: BTreeMap<&'static str, u64>,
}

/// What the driver needs from a stack under test.
pub trait Stack {
    /// Value length this stack's records carry.
    fn value_bytes(&self) -> usize;
    /// Bytes a client hands over per put (the denominator of `waf` and
    /// `space_amp`): the value, plus the key where the interface stores it.
    fn user_bytes_per_put(&self) -> u64 {
        self.value_bytes() as u64
    }
    /// Writes `value` as record `id`.
    fn put(&mut self, now: SimTime, id: u64, value: &[u8]) -> Put;
    /// Reads record `id` into `out`.
    fn get(&mut self, now: SimTime, id: u64, out: &mut Vec<u8>) -> Get;
    /// Visits up to `limit` (key, value) pairs in key order from record
    /// `id`'s key. Only the LSM stacks scan; the others refuse.
    fn scan(
        &mut self,
        now: SimTime,
        _id: u64,
        _limit: usize,
        _visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Scan {
        Scan {
            done: now,
            failed: true,
        }
    }
    /// One maintenance poll; `Ok(Some(done))` when background work ran.
    fn maintain(&mut self, now: SimTime) -> Result<Option<SimTime>, String>;
    /// Makes everything acknowledged so far durable and finishes pending
    /// background work; returns when the stack is quiescent.
    fn quiesce(&mut self, now: SimTime) -> Result<SimTime, String>;
    /// Power cut at `now`, then remount; returns the virtual time the stack
    /// serves again. Interfaces without a remount refuse.
    fn power_cycle(&mut self, _now: SimTime) -> Result<SimTime, String> {
        Err("this interface has no remount".into())
    }
    /// The raw device underneath.
    fn device(&self) -> &SharedDevice;
    /// Adds this stack's cumulative layer counters to `out`.
    fn layer_counts(&self, out: &mut BTreeMap<&'static str, u64>);

    /// Device and layer state at `now`.
    fn snapshot(&self, now: SimTime) -> Snapshot {
        let mut layers = BTreeMap::new();
        self.layer_counts(&mut layers);
        self.device().with(|d| Snapshot {
            dev: d.stats().clone(),
            pu_busy_ns: d
                .pu_utilizations(now)
                .into_iter()
                .map(|u| u * now.as_nanos() as f64)
                .collect(),
            pu_queue_ns: d.pu_queue_delays().iter().map(|q| q.as_nanos()).collect(),
            stored_sectors: d.stored_sectors() as u64,
            layers,
        })
    }

    /// Sectors below the write pointer of every non-free chunk: the space
    /// the stack occupies on the device.
    fn occupied_sectors(&self) -> u64 {
        self.device().with(|d| {
            d.report_all_chunks()
                .iter()
                .filter(|(_, info)| info.state != ChunkState::Free)
                .map(|(_, info)| info.write_ptr as u64)
                .sum()
        })
    }
}

fn raw_device(geometry: Geometry, traced: bool) -> (SharedDevice, Arc<dyn Media>) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geometry)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let media = if traced {
        TracedMedia::wrap(Layer::Ocssd, media)
    } else {
        media
    };
    (dev, media)
}

/// `lsmkv` over LightLSM over the scaled paper drive.
pub struct LsmStack {
    db: Db,
    store: Arc<LightLsmStore>,
    sched: Option<SharedScheduler>,
    dev: SharedDevice,
    seed: u64,
    traced: bool,
}

impl LsmStack {
    /// Formats a fresh stack. `sched` routes every LightLSM media call
    /// through one `iosched` tenant; `seed` salts the keys.
    pub fn format(sched: bool, seed: u64, traced: bool) -> Result<(LsmStack, SimTime), String> {
        // The Figure 5 device: chunk size ÷128, chunk count ÷2 — 4.5 GB,
        // a full-width SSTable is 32 chunks = 6 MB.
        let (dev, mut media) = raw_device(Geometry::paper_tlc_scaled(2, 128), traced);
        let sched = sched.then(|| {
            let s = SharedScheduler::new(IoScheduler::new(
                media.clone(),
                SchedConfig::with_arbiter(ArbiterKind::Deadline),
            ));
            let tenant = s.add_tenant(TenantConfig::new("lsm"));
            media = Arc::new(SchedMedia::new(s.clone(), tenant));
            if traced {
                media = TracedMedia::wrap(Layer::Iosched, media.clone());
            }
            s
        });
        let (ftl, t0) = LightLsm::format(
            media,
            LightLsmConfig {
                placement: Placement::Horizontal,
                ..LightLsmConfig::default()
            },
            SimTime::ZERO,
        )
        .map_err(|e| format!("lightlsm format: {e}"))?;
        let store = Arc::new(LightLsmStore::new(ftl));
        let tables: Arc<dyn TableStore> = if traced {
            TracedStore::wrap(store.clone())
        } else {
            store.clone()
        };
        // The Figure 5 database options, copied (not imported) from the
        // figure driver so a harness refactor cannot change this load.
        let db = Db::new(
            tables,
            DbConfig {
                memtable_bytes: 11 * 512 * 1024,
                max_immutables: 8,
                l0_compaction_trigger: 4,
                l0_slowdown: 8,
                l0_stall: 12,
                level_base_blocks: 512,
                level_multiplier: 8,
                max_levels: 3,
                table_bytes: 6 * 1024 * 1024,
                ..DbConfig::default()
            },
        );
        Ok((
            LsmStack {
                db,
                store,
                sched,
                dev,
                seed,
                traced,
            },
            t0,
        ))
    }
}

impl Outcome for PutOutcome {
    fn end(&self, _now: SimTime) -> (SimTime, bool) {
        match *self {
            PutOutcome::Done(t) | PutOutcome::Stalled(t) => (t, true),
        }
    }
}

impl Outcome for WriteOutcome {
    fn end(&self, _now: SimTime) -> (SimTime, bool) {
        (self.done, true)
    }
}

impl Outcome for GcPass {
    fn end(&self, _now: SimTime) -> (SimTime, bool) {
        (self.done, true)
    }
}

impl LsmStack {
    /// One background call under `cause`.
    fn background(
        &mut self,
        cause: Cause,
        call: &'static str,
        now: SimTime,
        f: impl FnOnce(&mut Db) -> Result<Option<SimTime>, lsmkv::DbError>,
    ) -> Result<Option<SimTime>, String> {
        if self.traced {
            trace::set_cause(cause);
        }
        let db = &mut self.db;
        trace::spanned(self.traced, Layer::Lsmkv, call, now, 0, || f(db))
            .map_err(|e| format!("lsmkv {call}: {e}"))
    }
}

impl Stack for LsmStack {
    fn value_bytes(&self) -> usize {
        LSM_VALUE_BYTES
    }

    fn user_bytes_per_put(&self) -> u64 {
        (gen::KEY_BYTES + LSM_VALUE_BYTES) as u64
    }

    fn put(&mut self, now: SimTime, id: u64, value: &[u8]) -> Put {
        let key = gen::key(self.seed, id);
        let db = &mut self.db;
        let bytes = value.len() as u64;
        match trace::spanned(self.traced, Layer::Lsmkv, "put", now, bytes, || {
            db.put(now, &key, value)
        }) {
            Ok(PutOutcome::Done(t)) => Put::Done(t),
            Ok(PutOutcome::Stalled(t)) => Put::Stalled(t),
            Err(_) => Put::Failed(now + FAIL_BACKOFF),
        }
    }

    fn get(&mut self, now: SimTime, id: u64, out: &mut Vec<u8>) -> Get {
        let key = gen::key(self.seed, id);
        let db = &mut self.db;
        let bytes = LSM_VALUE_BYTES as u64;
        match trace::spanned(self.traced, Layer::Lsmkv, "get", now, bytes, || {
            db.get(now, &key)
        }) {
            Ok((Some(v), done)) => {
                out.clear();
                out.extend_from_slice(&v);
                Get::found(done)
            }
            Ok((None, done)) => Get::missing(done),
            Err(_) => Get::failed(now),
        }
    }

    fn scan(
        &mut self,
        now: SimTime,
        id: u64,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Scan {
        let key = gen::key(self.seed, id);
        let db = &mut self.db;
        // The whole scan — open, up to `limit` steps, release — is one span.
        let r = trace::spanned(self.traced, Layer::Lsmkv, "scan_from", now, 0, || {
            let mut iter = db.scan_from(&key);
            let mut t = now;
            let mut result = Ok(());
            for _ in 0..limit {
                match iter.next(&mut t) {
                    Ok(Some((k, v))) => visit(&k, &v),
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            db.release_iter(&mut iter);
            result.map(|()| t)
        });
        match r {
            Ok(done) => Scan {
                done,
                failed: false,
            },
            Err(_) => Scan {
                done: now + FAIL_BACKOFF,
                failed: true,
            },
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<Option<SimTime>, String> {
        if let Some(done) =
            self.background(Cause::BgFlush, "flush_once", now, |db| db.flush_once(now))?
        {
            return Ok(Some(done));
        }
        self.background(Cause::BgCompact, "compact_once", now, |db| {
            db.compact_once(now)
        })
    }

    fn quiesce(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.db.seal_memtable();
        let mut t = now;
        while let Some(done) = self.maintain(t)? {
            t = t.max(done);
        }
        Ok(t)
    }

    fn device(&self) -> &SharedDevice {
        &self.dev
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, u64>) {
        let s = self.db.stats();
        let c = self.db.compaction_stats();
        let (l, block_bytes) = self.store.with_ftl(|f| (f.stats(), f.block_bytes()));
        out.extend([
            ("lsmkv.gets", s.gets),
            ("lsmkv.stalls", s.stalls),
            ("lsmkv.slowdowns", s.slowdowns),
            ("lsmkv.get_blocks_read", s.get_blocks_read),
            ("lsmkv.bloom_skips", s.bloom_skips),
            ("lsmkv.flushes", c.flushes),
            ("lsmkv.compactions", c.compactions),
            ("lsmkv.compact_blocks_read", c.blocks_read),
            ("lsmkv.compact_blocks_written", c.blocks_written),
            ("lsmkv.flush_v_ns", c.flush_nanos),
            ("lsmkv.compaction_v_ns", c.compaction_nanos),
            ("lightlsm.block_bytes", block_bytes as u64),
            ("lightlsm.blocks_written", l.blocks_written),
            ("lightlsm.blocks_read", l.blocks_read),
            ("lightlsm.chunks_erased", l.chunks_erased),
            ("lightlsm.dir_checkpoints", l.dir_checkpoints),
            ("lightlsm.read_retries", l.read_retries),
            ("lightlsm.flush_failovers", l.flush_failovers),
        ]);
        if let Some(sched) = &self.sched {
            let s = sched.stats();
            out.extend([
                ("iosched.submitted", s.submitted),
                ("iosched.dispatched", s.dispatched),
                ("iosched.rejected", s.rejected),
                ("iosched.max_queue_delay_ns", s.max_queue_delay.as_nanos()),
            ]);
        }
    }
}

/// What the three record stacks share: the update device and the tracing
/// switch.
struct RecordBase {
    dev: SharedDevice,
    media: Arc<dyn Media>,
    traced: bool,
}

impl RecordBase {
    fn new(traced: bool) -> RecordBase {
        let (dev, media) = raw_device(update_geometry(), traced);
        RecordBase { dev, media, traced }
    }
}

/// `ox_block::BlockFtl`: record id → fixed logical page range.
pub struct BlockStack {
    ftl: BlockFtl,
    cfg: BlockFtlConfig,
    base: RecordBase,
    gc_victims: u64,
    gc_moved: u64,
    gc_padded: u64,
}

impl BlockStack {
    /// Formats a fresh stack.
    pub fn format(traced: bool) -> Result<(BlockStack, SimTime), String> {
        let base = RecordBase::new(traced);
        let cfg =
            BlockFtlConfig::with_capacity(UPDATE_RECORDS * RECORD_SECTORS * SECTOR_BYTES as u64);
        let (ftl, t0) = BlockFtl::format(base.media.clone(), cfg, SimTime::ZERO)
            .map_err(|e| format!("oxblock format: {e}"))?;
        Ok((
            BlockStack {
                ftl,
                cfg,
                base,
                gc_victims: 0,
                gc_moved: 0,
                gc_padded: 0,
            },
            t0,
        ))
    }
}

impl Stack for BlockStack {
    fn value_bytes(&self) -> usize {
        RECORD_BYTES
    }

    fn put(&mut self, now: SimTime, id: u64, value: &[u8]) -> Put {
        let ftl = &mut self.ftl;
        let bytes = value.len() as u64;
        let r = trace::spanned(
            self.base.traced,
            Layer::Oxblock,
            "write",
            now,
            bytes,
            || ftl.write(now, id * RECORD_SECTORS, value),
        );
        Put::from(now, r.map(|o| o.done))
    }

    fn get(&mut self, now: SimTime, id: u64, out: &mut Vec<u8>) -> Get {
        out.clear();
        out.resize(RECORD_BYTES, 0);
        let mut done = now;
        // The block interface reads one logical page per call.
        for (page, buf) in out.chunks_mut(SECTOR_BYTES).enumerate() {
            let ftl = &mut self.ftl;
            let lpn = id * RECORD_SECTORS + page as u64;
            let bytes = SECTOR_BYTES as u64;
            match trace::spanned(self.base.traced, Layer::Oxblock, "read", now, bytes, || {
                ftl.read(now, lpn, buf)
            }) {
                Ok(c) => done = done.max(c.done),
                Err(_) => return Get::failed(now),
            }
        }
        // An unwritten block range reads as zeros; a written record never
        // does (its payload is pseudo-random).
        if out.iter().any(|&b| b != 0) {
            Get::found(done)
        } else {
            Get::missing(done)
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<Option<SimTime>, String> {
        let traced = self.base.traced;
        let ftl = &mut self.ftl;
        if traced {
            trace::set_cause(Cause::BgCkpt);
        }
        let ckpt = trace::spanned(traced, Layer::Oxblock, "maybe_checkpoint", now, 0, || {
            ftl.maybe_checkpoint(now)
        })
        .map_err(|e| format!("oxblock checkpoint: {e}"))?;
        if ckpt.is_some() {
            return Ok(ckpt);
        }
        if traced {
            trace::set_cause(Cause::BgGc);
        }
        let pass = trace::spanned(traced, Layer::Oxblock, "maybe_gc", now, 0, || {
            ftl.maybe_gc(now)
        })
        .map_err(|e| format!("oxblock gc: {e}"))?;
        Ok(pass.map(|p| {
            self.gc_victims += p.victims as u64;
            self.gc_moved += p.moved_sectors;
            self.gc_padded += p.padded_sectors;
            p.done
        }))
    }

    fn quiesce(&mut self, now: SimTime) -> Result<SimTime, String> {
        // Writes are durable at acknowledge (force-at-commit); the barrier
        // only drains the device cache.
        Ok(self.base.media.flush(now).done)
    }

    fn power_cycle(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.base.dev.crash(now);
        let (ftl, outcome) = BlockFtl::recover(self.base.media.clone(), self.cfg, now)
            .map_err(|e| format!("oxblock recover: {e}"))?;
        self.ftl = ftl;
        Ok(outcome.done)
    }

    fn device(&self) -> &SharedDevice {
        &self.base.dev
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, u64>) {
        let s = self.ftl.stats();
        out.extend([
            ("oxblock.gc_passes", s.gc_passes),
            ("oxblock.gc_victims", self.gc_victims),
            ("oxblock.gc_moved_sectors", self.gc_moved),
            ("oxblock.gc_padded_sectors", self.gc_padded),
            ("oxblock.gc_write_bytes", s.gc_writes.bytes()),
            ("oxblock.metadata_write_bytes", s.metadata_writes.bytes()),
            ("oxblock.wal_bytes", self.ftl.wal_bytes_written()),
            ("oxblock.checkpoints", s.checkpoints),
        ]);
    }
}

/// `oxztl::ZtlFtl` over OX-ZNS: record id → fixed logical sector range.
pub struct ZtlStack {
    ftl: ZtlFtl,
    base: RecordBase,
}

impl ZtlStack {
    /// Formats a fresh stack.
    pub fn format(traced: bool) -> Result<(ZtlStack, SimTime), String> {
        let base = RecordBase::new(traced);
        let (ftl, t0) = ZtlFtl::format(base.media.clone(), ZtlConfig::default(), SimTime::ZERO)
            .map_err(|e| format!("oxztl format: {e}"))?;
        if ftl.capacity_sectors() < UPDATE_RECORDS * RECORD_SECTORS {
            return Err(format!(
                "oxztl exports {} sectors, fewer than the records need",
                ftl.capacity_sectors()
            ));
        }
        Ok((ZtlStack { ftl, base }, t0))
    }
}

impl Stack for ZtlStack {
    fn value_bytes(&self) -> usize {
        RECORD_BYTES
    }

    fn put(&mut self, now: SimTime, id: u64, value: &[u8]) -> Put {
        let ftl = &mut self.ftl;
        let bytes = value.len() as u64;
        let r = trace::spanned(
            self.base.traced,
            Layer::Oxztl,
            "write_sectors",
            now,
            bytes,
            || ftl.write_sectors(now, id * RECORD_SECTORS, value),
        );
        Put::from(now, r)
    }

    fn get(&mut self, now: SimTime, id: u64, out: &mut Vec<u8>) -> Get {
        out.clear();
        out.resize(RECORD_BYTES, 0);
        let ftl = &mut self.ftl;
        let bytes = RECORD_BYTES as u64;
        match trace::spanned(
            self.base.traced,
            Layer::Oxztl,
            "read_sectors",
            now,
            bytes,
            || ftl.read_sectors(now, id * RECORD_SECTORS, RECORD_SECTORS as u32, out),
        ) {
            Ok(done) => Get::found(done),
            Err(ZtlError::Unmapped(_)) => Get::missing(now + SimDuration::from_micros(1)),
            Err(_) => Get::failed(now),
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<Option<SimTime>, String> {
        let traced = self.base.traced;
        let ftl = &mut self.ftl;
        if traced {
            trace::set_cause(Cause::BgGc);
        }
        let done = trace::spanned(traced, Layer::Oxztl, "maybe_gc", now, 0, || {
            ftl.ingest_media_events();
            ftl.maybe_gc(now)
        })
        .map_err(|e| format!("oxztl gc: {e}"))?;
        // `maybe_gc` returns `now` when there was nothing to collect.
        Ok((done > now).then_some(done))
    }

    fn quiesce(&mut self, now: SimTime) -> Result<SimTime, String> {
        Ok(self.ftl.sync(now).done)
    }

    fn power_cycle(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.base.dev.crash(now);
        let (ftl, done) = ZtlFtl::open(self.base.media.clone(), ZtlConfig::default(), now)
            .map_err(|e| format!("oxztl open: {e}"))?;
        self.ftl = ftl;
        Ok(done)
    }

    fn device(&self) -> &SharedDevice {
        &self.base.dev
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, u64>) {
        let s = self.ftl.stats();
        out.extend([
            ("oxztl.user_sectors", s.user_sectors),
            ("oxztl.phys_sectors", s.phys_sectors),
            ("oxztl.gc_relocated_sectors", s.gc_relocated_sectors),
            ("oxztl.gc_passes", s.gc_passes),
            ("oxztl.zone_resets", s.zone_resets),
            ("oxztl.trim_records", s.trim_records),
        ]);
    }
}

/// `ox_kvssd::KvSsd`: the interface carries keys natively.
pub struct KvStack {
    kv: KvSsd,
    base: RecordBase,
    seed: u64,
}

impl KvStack {
    /// Formats a fresh stack; `seed` salts the keys.
    pub fn format(seed: u64, traced: bool) -> Result<(KvStack, SimTime), String> {
        let base = RecordBase::new(traced);
        if base.dev.geometry().total_sectors() / 2 < UPDATE_RECORDS * RECORD_SECTORS {
            return Err("kvssd value-log window smaller than the records need".into());
        }
        let (kv, t0) = KvSsd::format(base.media.clone(), KvSsdConfig::default(), SimTime::ZERO)
            .map_err(|e| format!("kvssd format: {e}"))?;
        Ok((KvStack { kv, base, seed }, t0))
    }
}

impl Stack for KvStack {
    fn value_bytes(&self) -> usize {
        RECORD_BYTES
    }

    fn put(&mut self, now: SimTime, id: u64, value: &[u8]) -> Put {
        let key = gen::key(self.seed, id);
        let kv = &mut self.kv;
        let bytes = value.len() as u64;
        let r = trace::spanned(self.base.traced, Layer::Kvssd, "put", now, bytes, || {
            kv.put(now, &key, value)
        });
        Put::from(now, r)
    }

    fn get(&mut self, now: SimTime, id: u64, out: &mut Vec<u8>) -> Get {
        let key = gen::key(self.seed, id);
        let kv = &mut self.kv;
        let bytes = RECORD_BYTES as u64;
        match trace::spanned(self.base.traced, Layer::Kvssd, "get", now, bytes, || {
            kv.get(now, &key)
        }) {
            Ok((Some(v), done)) => {
                out.clear();
                out.extend_from_slice(&v);
                Get::found(done)
            }
            Ok((None, done)) => Get::missing(done),
            Err(_) => Get::failed(now),
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<Option<SimTime>, String> {
        if self.kv.log_pressure() <= 0.7 {
            return Ok(None);
        }
        let traced = self.base.traced;
        let kv = &mut self.kv;
        if traced {
            trace::set_cause(Cause::BgCkpt);
        }
        trace::spanned(traced, Layer::Kvssd, "truncate_log", now, 0, || {
            kv.truncate_log(now)
        })
        .map(Some)
        .map_err(|e| format!("kvssd truncate_log: {e}"))
    }

    fn quiesce(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.kv.sync(now).map_err(|e| format!("kvssd sync: {e}"))
    }

    fn device(&self) -> &SharedDevice {
        &self.base.dev
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, u64>) {
        let s = self.kv.stats();
        out.extend([
            ("kvssd.gc_passes", s.gc_passes),
            ("kvssd.gc_write_bytes", s.gc_writes.bytes()),
            (
                "kvssd.physical_user_write_bytes",
                s.physical_user_writes.bytes(),
            ),
        ]);
    }
}
