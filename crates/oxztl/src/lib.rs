//! # oxztl — a log-structured zone-translation layer over OX-ZNS
//!
//! The paper (§2.3, §3.1) frames ZNS as the interface that absorbed the
//! Open-Channel ideas, and leaves open the question this crate answers:
//! what does it cost to put a *random-write* workload back on top of a
//! zoned device? oxztl is that translation layer — the host-side analogue
//! of the block FTL, rebuilt on zone appends:
//!
//! * **Mapping** — an in-memory logical→physical table over zone-append
//!   records. Every append unit is self-identifying (a header sector names
//!   the logical sectors it carries and a monotonically increasing sequence
//!   number), so mount replays the open and finished zones in sequence
//!   order and needs **no mapping table on media, no WAL and no
//!   checkpoints**.
//! * **Write path** — strict per-zone write-pointer discipline: units are
//!   appended to a small ring of open zones (one per parallel unit run, so
//!   device parallelism survives the translation), never updated in place;
//!   a zone that fills is replaced from the free pool.
//! * **Zone-aware GC** — victims picked by invalid-sector count with an
//!   optional `wear_bias` (the PR-9 knob), live records copied out to a
//!   dedicated GC destination zone, trims carried forward so reclaimed
//!   zones never resurrect dead data, and the victim recycled with
//!   `reset_zone`. GC traffic travels the GC route of the media the layer
//!   is built on ([`ox_core::Media::gc_route`] — an `iosched` tenant in
//!   `IoClass::Gc`), when it names one.
//! * **Degradation** — free-zone exhaustion flips the layer into a sticky
//!   read-only mode ([`ZtlError::ReadOnly`]), mirroring
//!   `BlockFtlError::ReadOnly`: reads keep working, every mutation is
//!   refused with a typed error.
//!
//! [`media::ZtlMedia`] exports the whole layer back out as an
//! [`ox_core::Media`], so the stacks built for the Open-Channel backend
//! (OX-Block figures, LightLSM, the I/O scheduler) run unmodified on the
//! zoned one — the cross-interface ablation the ROADMAP asks for.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod media;
mod route;

pub use media::ZtlMedia;
pub use route::RoutedMedia;

use ocssd::{ChunkAddr, DeviceError, Geometry, SECTOR_BYTES};
use ox_core::retry::RetryPolicy;
use ox_core::Media;
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use ox_zns::{ZnsConfig, ZnsError, ZnsFtl, ZoneState};
use std::sync::Arc;

/// Magic stamped on every append-unit header sector.
const RECORD_MAGIC: u64 = 0x5A54_4C52_4543_0001;

/// Header layout: magic (8) | seq (8) | data_count (2) | trim_count (2).
const HEADER_BYTES: usize = 20;

/// Unmapped marker in the L2P table.
const UNMAPPED: u64 = u64::MAX;

/// High bit tagging an L2P entry as "unmapped, governed by the trim record
/// whose header sits at the tagged location". Only the governing (newest)
/// trim record for an LPN is live at GC time; older duplicates from earlier
/// trim/rewrite cycles die with their zone instead of being carried forever.
const TRIM_TAG: u64 = 1 << 63;

/// Trim LPNs that fit one unit header sector.
const fn max_trims_per_unit() -> usize {
    (SECTOR_BYTES - HEADER_BYTES) / 8
}

/// Translation-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ZtlConfig {
    /// Chunks per zone (forwarded to [`ZnsConfig`]).
    pub chunks_per_zone: u32,
    /// Open zones user writes stripe across (zone-level parallelism).
    pub open_zones: u32,
    /// Free zones held back as GC destinations, never handed to user
    /// writes; guarantees a relocation pass can always make progress.
    pub gc_reserve_zones: u32,
    /// Free-zone count (beyond the reserve) below which the write path
    /// runs GC passes before allocating.
    pub low_watermark_zones: u32,
    /// Victim score = valid sectors + `wear_bias` × zone wear: `0` is pure
    /// greedy (most invalid wins), larger values steer GC away from worn
    /// zones (the PR-9 wear-leveling knob, on zones).
    pub wear_bias: u32,
    /// Bounded-retry policy for transient uncorrectable reads.
    pub retry: RetryPolicy,
}

impl Default for ZtlConfig {
    fn default() -> Self {
        ZtlConfig {
            chunks_per_zone: 2,
            open_zones: 4,
            gc_reserve_zones: 2,
            low_watermark_zones: 4,
            wear_bias: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// Translation-layer failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZtlError {
    /// The layer has degraded to read-only (free zones exhausted); reads
    /// still work, mutations are refused. Sticky until remounted.
    ReadOnly,
    /// Logical sector beyond the exported capacity.
    OutOfRange(u64),
    /// Read of a logical sector that was never written (or was trimmed).
    Unmapped(u64),
    /// Buffer or length not a positive multiple of the sector size.
    BadSize(usize),
    /// A replayed append unit failed to parse.
    ReplayCorrupt {
        /// Zone holding the unit.
        zone: u32,
        /// Unit index within the zone.
        unit: u64,
    },
    /// Zoned-FTL failure underneath.
    Zns(ZnsError),
}

impl std::fmt::Display for ZtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZtlError::ReadOnly => write!(f, "translation layer is read-only (no free zones)"),
            ZtlError::OutOfRange(lpn) => write!(f, "logical sector {lpn} out of range"),
            ZtlError::Unmapped(lpn) => write!(f, "logical sector {lpn} unmapped"),
            ZtlError::BadSize(n) => write!(f, "bad buffer size {n}"),
            ZtlError::ReplayCorrupt { zone, unit } => {
                write!(f, "replay: corrupt unit {unit} in zone {zone}")
            }
            ZtlError::Zns(e) => write!(f, "zns error: {e}"),
        }
    }
}

impl std::error::Error for ZtlError {}

impl From<ZnsError> for ZtlError {
    fn from(e: ZnsError) -> Self {
        ZtlError::Zns(e)
    }
}

impl From<DeviceError> for ZtlError {
    fn from(e: DeviceError) -> Self {
        ZtlError::Zns(ZnsError::Device(e))
    }
}

/// Running counters (sector units; WAF = physical ÷ user).
#[derive(Clone, Copy, Debug, Default)]
pub struct ZtlStats {
    /// Sectors of user payload accepted by the write path.
    pub user_sectors: u64,
    /// Sectors physically appended (headers, padding and GC included).
    pub phys_sectors: u64,
    /// Live sectors copied out by relocation passes.
    pub gc_relocated_sectors: u64,
    /// Relocation passes run.
    pub gc_passes: u64,
    /// Zones recycled with `reset_zone`.
    pub zone_resets: u64,
    /// Zones retired (erase failure or frozen media).
    pub zones_retired: u64,
    /// Trim records appended (durable unmaps).
    pub trim_records: u64,
    /// Append units replayed at the last mount.
    pub replayed_units: u64,
}

impl ZtlStats {
    /// Write amplification factor: physical sectors per user sector.
    pub fn waf(&self) -> f64 {
        if self.user_sectors == 0 {
            0.0
        } else {
            self.phys_sectors as f64 / self.user_sectors as f64
        }
    }
}

fn encode_header(seq: u64, data_lpns: &[u64], trim_lpns: &[u64]) -> Vec<u8> {
    let mut h = vec![0u8; SECTOR_BYTES];
    h[..8].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..18].copy_from_slice(&(data_lpns.len() as u16).to_le_bytes());
    h[18..20].copy_from_slice(&(trim_lpns.len() as u16).to_le_bytes());
    let mut off = HEADER_BYTES;
    for lpn in data_lpns.iter().chain(trim_lpns) {
        h[off..off + 8].copy_from_slice(&lpn.to_le_bytes());
        off += 8;
    }
    h
}

fn parse_header(h: &[u8]) -> Option<(u64, Vec<u64>, Vec<u64>)> {
    if h.len() < HEADER_BYTES {
        return None;
    }
    if u64::from_le_bytes(h[..8].try_into().ok()?) != RECORD_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(h[8..16].try_into().ok()?);
    let data_count = u16::from_le_bytes(h[16..18].try_into().ok()?) as usize;
    let trim_count = u16::from_le_bytes(h[18..20].try_into().ok()?) as usize;
    if HEADER_BYTES + 8 * (data_count + trim_count) > h.len() {
        return None;
    }
    let mut off = HEADER_BYTES;
    let mut take = |n: usize| {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(u64::from_le_bytes(
                h[off..off + 8].try_into().unwrap_or_default(),
            ));
            off += 8;
        }
        v
    };
    let data = take(data_count);
    let trims = take(trim_count);
    Some((seq, data, trims))
}

/// The zone-translation FTL: random 4 KB-sector writes over zone appends.
pub struct ZtlFtl {
    zns: ZnsFtl,
    routed: Arc<RoutedMedia>,
    geo: Geometry,
    cfg: ZtlConfig,
    /// Data sectors carried per append unit (`ws_min` − 1 header sector).
    unit_data: u64,
    zone_sectors: u64,
    capacity: u64,
    /// lpn → `zone * zone_sectors + sector`; [`UNMAPPED`] when absent, or
    /// [`TRIM_TAG`]`| loc` when unmapped under a durable trim record whose
    /// unit header sits at `loc`.
    l2p: Vec<u64>,
    /// Live data sectors per zone.
    valid: Vec<u32>,
    /// Governing (live) trim records per zone — relocation payload that is
    /// not data but must still be re-appended when the zone is recycled.
    trim_live: Vec<u32>,
    /// Zones frozen for writes (media failure underneath) but still
    /// holding readable records; GC drains and retires them.
    sealed: Vec<bool>,
    /// Empty zones, ascending; lowest id is allocated first.
    free: Vec<u32>,
    /// Open zones user writes stripe across.
    open_user: Vec<u32>,
    next_stripe: usize,
    /// Current GC destination zone.
    open_gc: Option<u32>,
    next_seq: u64,
    degraded: bool,
    stats: ZtlStats,
    obs: Obs,
}

impl ZtlFtl {
    fn new_tables(zns: &ZnsFtl, cfg: &ZtlConfig, geo: &Geometry) -> (u64, u64, u64) {
        let zone_sectors = zns.zone_sectors();
        let unit_data = geo.ws_min as u64 - 1;
        let units_per_zone = zone_sectors / geo.ws_min as u64;
        let op = (cfg.open_zones + cfg.gc_reserve_zones + cfg.low_watermark_zones) as u64;
        let data_zones = (zns.zone_count() as u64).saturating_sub(op);
        let capacity = data_zones * units_per_zone * unit_data;
        (zone_sectors, unit_data, capacity)
    }

    fn build(zns: ZnsFtl, routed: Arc<RoutedMedia>, cfg: ZtlConfig, geo: Geometry) -> ZtlFtl {
        let (zone_sectors, unit_data, capacity) = Self::new_tables(&zns, &cfg, &geo);
        let zones = zns.zone_count() as usize;
        ZtlFtl {
            zns,
            geo,
            cfg,
            unit_data,
            zone_sectors,
            capacity,
            l2p: vec![UNMAPPED; capacity as usize],
            valid: vec![0; zones],
            trim_live: vec![0; zones],
            sealed: vec![false; zones],
            free: Vec::new(),
            open_user: Vec::new(),
            next_stripe: 0,
            open_gc: None,
            next_seq: 1,
            degraded: false,
            stats: ZtlStats::default(),
            obs: routed.obs(),
            routed,
        }
    }

    /// Formats the zoned device and exports an empty translation layer.
    pub fn format(
        media: Arc<dyn Media>,
        cfg: ZtlConfig,
        now: SimTime,
    ) -> Result<(ZtlFtl, SimTime), ZtlError> {
        let geo = media.geometry();
        let routed = Arc::new(RoutedMedia::new(media));
        let zns_media: Arc<dyn Media> = routed.clone();
        let (zns, t) = ZnsFtl::format(
            zns_media,
            ZnsConfig {
                chunks_per_zone: cfg.chunks_per_zone,
                retry: cfg.retry,
            },
            now,
        )?;
        let mut ftl = Self::build(zns, routed, cfg, geo);
        ftl.rebuild_pools();
        Ok((ftl, t))
    }

    /// Remounts after a crash: zone write pointers come from the device's
    /// *report chunk* (via [`ZnsFtl::open`]), then every written append
    /// unit is replayed in sequence order to rebuild the mapping. Zones
    /// reset before the crash hold no records, so nothing they once held
    /// can resurrect.
    pub fn open(
        media: Arc<dyn Media>,
        cfg: ZtlConfig,
        now: SimTime,
    ) -> Result<(ZtlFtl, SimTime), ZtlError> {
        let geo = media.geometry();
        let routed = Arc::new(RoutedMedia::new(media));
        let zns_media: Arc<dyn Media> = routed.clone();
        let (zns, t) = ZnsFtl::open(
            zns_media,
            ZnsConfig {
                chunks_per_zone: cfg.chunks_per_zone,
                retry: cfg.retry,
            },
            now,
        )?;
        let mut ftl = Self::build(zns, routed, cfg, geo);
        let t = ftl.replay(t)?;
        ftl.rebuild_pools();
        Ok((ftl, t))
    }

    fn replay(&mut self, now: SimTime) -> Result<SimTime, ZtlError> {
        // (seq, zone, unit start sector, data lpns, trim lpns)
        type ReplayRecord = (u64, u32, u64, Vec<u64>, Vec<u64>);
        let ws_min = self.geo.ws_min as u64;
        let mut records: Vec<ReplayRecord> = Vec::new();
        let mut header = vec![0u8; SECTOR_BYTES];
        let mut t = now;
        for zone in 0..self.zns.zone_count() {
            let info = self.zns.zone_info(zone)?;
            if matches!(info.state, ZoneState::Offline | ZoneState::Empty) {
                continue;
            }
            let units = info.write_pointer / ws_min;
            for u in 0..units {
                t = self.zns.read(t, zone, u * ws_min, 1, &mut header)?;
                let Some((seq, data, trims)) = parse_header(&header) else {
                    return Err(ZtlError::ReplayCorrupt { zone, unit: u });
                };
                records.push((seq, zone, u * ws_min, data, trims));
            }
        }
        records.sort_by_key(|r| r.0);
        self.stats.replayed_units = records.len() as u64;
        self.obs
            .metrics
            .add("ztl.replay.units", records.len() as u64, 0);
        for (seq, zone, unit_start, data, trims) in records {
            for (j, lpn) in data.into_iter().enumerate() {
                if lpn >= self.capacity {
                    return Err(ZtlError::ReplayCorrupt {
                        zone,
                        unit: unit_start / ws_min,
                    });
                }
                self.map_lpn(lpn, zone, unit_start + 1 + j as u64);
            }
            for lpn in trims {
                if lpn >= self.capacity {
                    return Err(ZtlError::ReplayCorrupt {
                        zone,
                        unit: unit_start / ws_min,
                    });
                }
                self.set_trim_loc(lpn, zone as u64 * self.zone_sectors + unit_start);
            }
            self.next_seq = self.next_seq.max(seq + 1);
        }
        self.obs.tracer.span(now, t, "ztl", "replay", 0);
        Ok(t)
    }

    /// Rebuilds the free list and open-zone ring from zone states.
    fn rebuild_pools(&mut self) {
        self.free.clear();
        self.open_user.clear();
        self.open_gc = None;
        for zone in 0..self.zns.zone_count() {
            let Ok(info) = self.zns.zone_info(zone) else {
                continue;
            };
            match info.state {
                ZoneState::Empty => self.free.push(zone),
                ZoneState::Open if !self.sealed[zone as usize] => self.open_user.push(zone),
                _ => {}
            }
        }
        self.next_stripe = 0;
    }

    /// Exported capacity in logical sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    /// The physical device geometry underneath.
    pub fn physical_geometry(&self) -> Geometry {
        self.geo
    }

    /// Data sectors per append unit (one header sector per `ws_min`).
    pub fn unit_data_sectors(&self) -> u64 {
        self.unit_data
    }

    /// Current free (empty, allocatable) zone count.
    pub fn free_zone_count(&self) -> usize {
        self.free.len()
    }

    /// Total zones on the device.
    pub fn zone_count(&self) -> u32 {
        self.zns.zone_count()
    }

    /// True once the layer has degraded to read-only.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Test hook mirroring `BlockFtl::degrade_to_read_only`.
    pub fn degrade_to_read_only(&mut self) {
        self.enter_degraded();
    }

    /// Running counters.
    pub fn stats(&self) -> &ZtlStats {
        &self.stats
    }

    /// True if `lpn` currently maps to live data.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.l2p
            .get(lpn as usize)
            .is_some_and(|&l| l != UNMAPPED && l & TRIM_TAG == 0)
    }

    /// Barrier: every acknowledged write durable.
    pub fn sync(&self, now: SimTime) -> ocssd::Completion {
        self.routed.flush(now)
    }

    /// Drains device media events; zones whose chunks grew bad are sealed
    /// so no further append lands on failing media (GC drains and retires
    /// them). Returns the number of events ingested.
    pub fn ingest_media_events(&mut self) -> usize {
        let events = self.routed.drain_events();
        let n = events.len();
        for ev in events {
            let zone = self.zone_of_chunk(ev.chunk);
            self.seal_zone(zone);
        }
        n
    }

    fn zone_of_chunk(&self, chunk: ChunkAddr) -> u32 {
        let row = chunk.chunk / self.cfg.chunks_per_zone;
        let pu = chunk.group * self.geo.pus_per_group + chunk.pu;
        row * self.geo.total_pus() + pu
    }

    fn enter_degraded(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.obs.metrics.record("ztl.degraded", 0);
        }
    }

    fn seal_zone(&mut self, zone: u32) {
        if let Some(s) = self.sealed.get_mut(zone as usize) {
            *s = true;
        }
        self.open_user.retain(|&z| z != zone);
        if self.open_gc == Some(zone) {
            self.open_gc = None;
        }
        self.free.retain(|&z| z != zone);
    }

    /// Drops whatever record currently governs `lpn` — a live data mapping
    /// or a governing trim record — adjusting the per-zone live counters.
    fn drop_governing(&mut self, lpn: u64) {
        let slot = &mut self.l2p[lpn as usize];
        if *slot == UNMAPPED {
            return;
        }
        let old_zone = ((*slot & !TRIM_TAG) / self.zone_sectors) as usize;
        if *slot & TRIM_TAG == 0 {
            self.valid[old_zone] = self.valid[old_zone].saturating_sub(1);
        } else {
            self.trim_live[old_zone] = self.trim_live[old_zone].saturating_sub(1);
        }
    }

    fn map_lpn(&mut self, lpn: u64, zone: u32, sector: u64) {
        self.drop_governing(lpn);
        self.l2p[lpn as usize] = zone as u64 * self.zone_sectors + sector;
        self.valid[zone as usize] += 1;
    }

    /// Drops a live data mapping; entries governed by a trim record are
    /// left alone (they are already unmapped, and the governing location
    /// must survive so GC can tell the live trim from stale duplicates).
    fn unmap_lpn(&mut self, lpn: u64) {
        let slot = &mut self.l2p[lpn as usize];
        if *slot != UNMAPPED && *slot & TRIM_TAG == 0 {
            let old_zone = (*slot / self.zone_sectors) as usize;
            self.valid[old_zone] = self.valid[old_zone].saturating_sub(1);
            *slot = UNMAPPED;
        }
    }

    /// Records `loc` (a trim unit's header sector) as the governing trim
    /// record for `lpn`, dropping whatever record it supersedes.
    fn set_trim_loc(&mut self, lpn: u64, loc: u64) {
        self.drop_governing(lpn);
        self.l2p[lpn as usize] = TRIM_TAG | loc;
        self.trim_live[(loc / self.zone_sectors) as usize] += 1;
    }

    /// Drops mappings without a durable trim record — for discarding torn
    /// multi-unit tails found at mount (the virtual-device adapter's
    /// write-pointer recovery). The same prefix scan reproduces the same
    /// discard after any later crash, so the volatility is benign.
    pub fn unmap_volatile(&mut self, lpn: u64, sectors: u64) {
        for l in lpn..(lpn + sectors).min(self.capacity) {
            self.unmap_lpn(l);
        }
    }

    fn check_writable(&self) -> Result<(), ZtlError> {
        if self.degraded {
            Err(ZtlError::ReadOnly)
        } else {
            Ok(())
        }
    }

    /// Allocates a fresh zone. User allocations keep `gc_reserve_zones`
    /// untouched and run relocation passes below the watermark; GC
    /// allocations may dip into the reserve.
    fn alloc_zone(&mut self, now: SimTime, for_gc: bool) -> Result<(u32, SimTime), ZtlError> {
        let mut t = now;
        if !for_gc {
            t = self.ensure_headroom(t)?;
        }
        let reserve = if for_gc {
            0
        } else {
            self.cfg.gc_reserve_zones as usize
        };
        if self.free.len() > reserve {
            let zone = self.free.remove(0);
            Ok((zone, t))
        } else {
            if !for_gc {
                self.enter_degraded();
            }
            Err(ZtlError::ReadOnly)
        }
    }

    /// Runs relocation passes while free zones sit below the watermark.
    /// Bounded: stops when a pass finds no profitable victim.
    fn ensure_headroom(&mut self, now: SimTime) -> Result<SimTime, ZtlError> {
        let target = (self.cfg.low_watermark_zones + self.cfg.gc_reserve_zones) as usize;
        let mut t = now;
        let max_passes = 2 * target.max(1);
        for _ in 0..max_passes {
            if self.free.len() >= target {
                break;
            }
            match self.gc_pass(t)? {
                Some(done) => t = done,
                None => break,
            }
        }
        Ok(t)
    }

    /// Public GC entry point: one relocation pass if a profitable victim
    /// exists. Returns the completion time, or `now` if nothing to do.
    pub fn maybe_gc(&mut self, now: SimTime) -> Result<SimTime, ZtlError> {
        Ok(self.gc_pass(now)?.unwrap_or(now))
    }

    /// Append units relocation would have to re-write to recycle `zone`:
    /// live data packed `unit_data` sectors per unit, governing trim
    /// records packed [`max_trims_per_unit`] per unit.
    fn relocation_units(&self, zone: u32) -> u64 {
        let valid = self.valid[zone as usize] as u64;
        let trims = self.trim_live[zone as usize] as u64;
        valid.div_ceil(self.unit_data) + trims.div_ceil(max_trims_per_unit() as u64)
    }

    fn pick_victim(&self) -> Option<u32> {
        let ws_min = self.geo.ws_min as u64;
        let mut best: Option<(u64, u32)> = None;
        for zone in 0..self.zns.zone_count() {
            if self.open_user.contains(&zone) || self.open_gc == Some(zone) {
                continue;
            }
            let Ok(info) = self.zns.zone_info(zone) else {
                continue;
            };
            if info.state == ZoneState::Offline || info.write_pointer == 0 {
                continue;
            }
            // Score by relocation cost: units GC must re-append versus the
            // units a reset gives back. A zone packed entirely with live
            // payload (data or governing trims) nets nothing — skip it, or
            // GC treadmills moving live records between zones forever.
            // Sealed zones are always drained: their media is failing.
            let cost = self.relocation_units(zone);
            if cost >= info.write_pointer / ws_min && !self.sealed[zone as usize] {
                continue; // nothing to reclaim
            }
            let wear = self.zns.zone_wear(zone).unwrap_or(0) as u64;
            let score = cost + self.cfg.wear_bias as u64 * wear;
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, zone));
            }
        }
        best.map(|(_, z)| z)
    }

    /// One zone-aware relocation pass: scan the victim's self-identifying
    /// units, copy live sectors out (GC-class I/O when routed), carry live
    /// trims forward, make the copies durable, then recycle the victim.
    fn gc_pass(&mut self, now: SimTime) -> Result<Option<SimTime>, ZtlError> {
        let Some(victim) = self.pick_victim() else {
            return Ok(None);
        };
        let ws_min = self.geo.ws_min as u64;
        let was = self.routed.set_gc_mode(true);
        let result = self.gc_relocate(now, victim);
        self.routed.set_gc_mode(was);
        let t = result?;
        self.stats.gc_passes += 1;
        self.obs.metrics.record("ztl.gc.pass", 0);
        self.obs
            .tracer
            .span(now, t, "ztl", "gc_pass", self.zone_sectors * ws_min);
        Ok(Some(t))
    }

    fn gc_relocate(&mut self, now: SimTime, victim: u32) -> Result<SimTime, ZtlError> {
        let ws_min = self.geo.ws_min as u64;
        let info = self.zns.zone_info(victim)?;
        let units = info.write_pointer / ws_min;
        let mut header = vec![0u8; SECTOR_BYTES];
        let mut live: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut carried_trims: Vec<u64> = Vec::new();
        let mut t = now;
        for u in 0..units {
            let unit_start = u * ws_min;
            t = self.zns.read(t, victim, unit_start, 1, &mut header)?;
            let Some((_seq, data, trims)) = parse_header(&header) else {
                return Err(ZtlError::ReplayCorrupt {
                    zone: victim,
                    unit: u,
                });
            };
            for (j, lpn) in data.into_iter().enumerate() {
                let loc = victim as u64 * self.zone_sectors + unit_start + 1 + j as u64;
                if self.l2p.get(lpn as usize) == Some(&loc) {
                    let mut buf = vec![0u8; SECTOR_BYTES];
                    t = self
                        .zns
                        .read(t, victim, unit_start + 1 + j as u64, 1, &mut buf)?;
                    live.push((lpn, buf));
                }
            }
            for lpn in trims {
                // Only the governing (newest) trim record for an LPN is
                // live: it is what prevents an older data record elsewhere
                // from resurrecting at replay. Stale duplicates from
                // earlier trim/rewrite cycles — and trims whose target has
                // since been rewritten — die with the zone.
                let unit_loc = victim as u64 * self.zone_sectors + unit_start;
                if self.l2p.get(lpn as usize) == Some(&(TRIM_TAG | unit_loc)) {
                    carried_trims.push(lpn);
                }
            }
        }
        let relocated = live.len() as u64;
        for batch in live.chunks(self.unit_data as usize) {
            let lpns: Vec<u64> = batch.iter().map(|(l, _)| *l).collect();
            let mut payload = Vec::with_capacity(batch.len() * SECTOR_BYTES);
            for (_, bytes) in batch {
                payload.extend_from_slice(bytes);
            }
            t = self.append_unit(t, &lpns, &payload, &[], true)?;
        }
        let max_trims = max_trims_per_unit();
        for batch in carried_trims.chunks(max_trims) {
            t = self.append_unit(t, &[], &[], batch, true)?;
        }
        // Copies must be durable before the victim's records disappear: a
        // power cut after the reset would otherwise lose relocated data.
        t = t.max(self.routed.flush(t).done);
        match self.zns.reset_zone(t, victim) {
            Ok(done) => {
                t = done;
                self.sealed[victim as usize] = false;
                let pos = self.free.partition_point(|&z| z < victim);
                self.free.insert(pos, victim);
                self.stats.zone_resets += 1;
                self.obs.metrics.record("ztl.zone.reset", 0);
            }
            Err(ZnsError::Device(DeviceError::MediaFailure(_) | DeviceError::ChunkOffline(_))) => {
                // Erase failure: the zone is now offline (and the device has
                // emitted the grown-bad event); its live data was already
                // copied out, so retire it and move on.
                self.stats.zones_retired += 1;
                self.obs.metrics.record("ztl.zone.retired", 0);
            }
            Err(e) => return Err(e.into()),
        }
        self.stats.gc_relocated_sectors += relocated;
        self.obs.metrics.add("ztl.gc.relocated", relocated, 0);
        Ok(t)
    }

    /// Picks the append destination: the striped user ring, or the GC
    /// destination zone.
    fn pick_dest(&mut self, now: SimTime, for_gc: bool) -> Result<(u32, SimTime), ZtlError> {
        if for_gc {
            if let Some(zone) = self.open_gc {
                return Ok((zone, now));
            }
            let (zone, t) = self.alloc_zone(now, true)?;
            self.open_gc = Some(zone);
            return Ok((zone, t));
        }
        if self.open_user.is_empty() {
            let want = self.cfg.open_zones.max(1) as usize;
            let mut t = now;
            while self.open_user.len() < want {
                match self.alloc_zone(t, false) {
                    Ok((zone, done)) => {
                        self.open_user.push(zone);
                        t = done;
                    }
                    Err(ZtlError::ReadOnly) if !self.open_user.is_empty() => break,
                    Err(e) => return Err(e),
                }
            }
            return Ok((self.open_user[0], t));
        }
        self.next_stripe %= self.open_user.len();
        let zone = self.open_user[self.next_stripe];
        self.next_stripe += 1;
        Ok((zone, now))
    }

    /// Appends one self-identifying unit (`data_lpns` payload sectors and/or
    /// `trim_lpns`), failing over to another zone when media underneath the
    /// destination fails.
    fn append_unit(
        &mut self,
        now: SimTime,
        data_lpns: &[u64],
        payload: &[u8],
        trim_lpns: &[u64],
        for_gc: bool,
    ) -> Result<SimTime, ZtlError> {
        let unit_bytes = self.geo.ws_min_bytes();
        let mut t = now;
        // Failover bound: every zone could in principle fail underneath us.
        let max_attempts = self.zns.zone_count() as usize + 1;
        for _ in 0..max_attempts {
            let (zone, alloc_t) = self.pick_dest(t, for_gc)?;
            t = alloc_t;
            let seq = self.next_seq;
            let mut unit = encode_header(seq, data_lpns, trim_lpns);
            unit.extend_from_slice(payload);
            unit.resize(unit_bytes, 0);
            match self.zns.append(t, zone, &unit) {
                Ok((start, done)) => {
                    self.next_seq = seq + 1;
                    for (j, &lpn) in data_lpns.iter().enumerate() {
                        self.map_lpn(lpn, zone, start + 1 + j as u64);
                    }
                    for &lpn in trim_lpns {
                        self.set_trim_loc(lpn, zone as u64 * self.zone_sectors + start);
                    }
                    self.stats.phys_sectors += self.geo.ws_min as u64;
                    self.stats.trim_records += trim_lpns.len() as u64;
                    if self
                        .zns
                        .zone_info(zone)
                        .is_ok_and(|i| i.state == ZoneState::Full)
                    {
                        self.open_user.retain(|&z| z != zone);
                        if self.open_gc == Some(zone) {
                            self.open_gc = None;
                        }
                    }
                    return Ok(done);
                }
                Err(ZnsError::Device(
                    DeviceError::MediaFailure(_)
                    | DeviceError::ChunkOffline(_)
                    | DeviceError::InvalidChunkState { .. },
                ))
                | Err(ZnsError::ZoneNotWritable { .. }) => {
                    // The destination froze underneath us (program failure
                    // closes a written chunk early; an empty one goes
                    // offline). Already-acked records stay readable; seal
                    // the zone and fail over.
                    self.seal_zone(zone);
                    self.stats.zones_retired += 1;
                    self.obs.metrics.record("ztl.zone.sealed", 0);
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.enter_degraded();
        Err(ZtlError::ReadOnly)
    }

    /// Random write: `data` covers `[lpn, lpn + sectors)`; acknowledged at
    /// the device cache (use [`ZtlFtl::sync`] for a durability barrier).
    pub fn write_sectors(
        &mut self,
        now: SimTime,
        lpn: u64,
        data: &[u8],
    ) -> Result<SimTime, ZtlError> {
        self.check_writable()?;
        if data.is_empty() || !data.len().is_multiple_of(SECTOR_BYTES) {
            return Err(ZtlError::BadSize(data.len()));
        }
        let sectors = (data.len() / SECTOR_BYTES) as u64;
        if lpn + sectors > self.capacity {
            return Err(ZtlError::OutOfRange(lpn + sectors - 1));
        }
        let mut t = now;
        let mut off = 0u64;
        while off < sectors {
            let take = self.unit_data.min(sectors - off);
            let lpns: Vec<u64> = (lpn + off..lpn + off + take).collect();
            let lo = (off as usize) * SECTOR_BYTES;
            let hi = lo + take as usize * SECTOR_BYTES;
            t = self.append_unit(t, &lpns, &data[lo..hi], &[], false)?;
            off += take;
        }
        self.stats.user_sectors += sectors;
        self.obs.metrics.record("ztl.write", data.len() as u64);
        self.obs
            .tracer
            .span(now, t, "ztl", "write", data.len() as u64);
        Ok(t)
    }

    /// Random read of `sectors` logical sectors at `lpn`. Runs that map to
    /// physically contiguous records coalesce into one zone read; separate
    /// runs proceed in parallel (independent zones sit on independent
    /// parallel units).
    pub fn read_sectors(
        &mut self,
        now: SimTime,
        lpn: u64,
        sectors: u32,
        out: &mut [u8],
    ) -> Result<SimTime, ZtlError> {
        if out.len() != sectors as usize * SECTOR_BYTES || sectors == 0 {
            return Err(ZtlError::BadSize(out.len()));
        }
        if lpn + sectors as u64 > self.capacity {
            return Err(ZtlError::OutOfRange(lpn + sectors as u64 - 1));
        }
        let mut done = now;
        let mut i = 0u64;
        while i < sectors as u64 {
            let loc = self.l2p[(lpn + i) as usize];
            if loc == UNMAPPED || loc & TRIM_TAG != 0 {
                return Err(ZtlError::Unmapped(lpn + i));
            }
            // Extend the physically contiguous run.
            let mut run = 1u64;
            while i + run < sectors as u64 && self.l2p[(lpn + i + run) as usize] == loc + run {
                run += 1;
            }
            let zone = (loc / self.zone_sectors) as u32;
            let sector = loc % self.zone_sectors;
            let lo = i as usize * SECTOR_BYTES;
            let hi = lo + run as usize * SECTOR_BYTES;
            let t = self
                .zns
                .read(now, zone, sector, run as u32, &mut out[lo..hi])?;
            done = done.max(t);
            i += run;
        }
        self.obs.metrics.record("ztl.read", out.len() as u64);
        self.obs
            .tracer
            .span(now, done, "ztl", "read", out.len() as u64);
        Ok(done)
    }

    /// Durable unmap of `[lpn, lpn + sectors)`: already-unmapped sectors
    /// are skipped; the rest are unmapped in memory and recorded in trim
    /// units so the unmap survives replay.
    pub fn trim(&mut self, now: SimTime, lpn: u64, sectors: u64) -> Result<SimTime, ZtlError> {
        self.check_writable()?;
        if lpn + sectors > self.capacity {
            return Err(ZtlError::OutOfRange(lpn + sectors - 1));
        }
        let trims: Vec<u64> = (lpn..lpn + sectors)
            .filter(|&l| self.is_mapped(l))
            .collect();
        if trims.is_empty() {
            return Ok(now);
        }
        for &l in &trims {
            self.unmap_lpn(l);
        }
        let mut t = now;
        let max_trims = max_trims_per_unit();
        for batch in trims.chunks(max_trims) {
            t = self.append_unit(t, &[], &[], batch, false)?;
        }
        self.obs.metrics.record("ztl.trim", trims.len() as u64);
        self.obs.tracer.span(now, t, "ztl", "trim", 0);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{CellType, DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;

    fn tiny_geometry() -> Geometry {
        Geometry {
            num_groups: 2,
            pus_per_group: 2,
            chunks_per_pu: 8,
            sectors_per_chunk: 24,
            ws_min: 4,
            mw_cunits: 8,
            cell: CellType::Slc,
            planes: 1,
            sectors_per_page: 4,
            endurance: 10_000,
        }
    }

    fn tiny_cfg() -> ZtlConfig {
        ZtlConfig {
            chunks_per_zone: 2,
            open_zones: 2,
            gc_reserve_zones: 1,
            low_watermark_zones: 2,
            wear_bias: 0,
            retry: RetryPolicy::default(),
        }
    }

    fn setup() -> (ZtlFtl, SharedDevice, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
            tiny_geometry(),
        )));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = ZtlFtl::format(media, tiny_cfg(), SimTime::ZERO).unwrap();
        (ftl, dev, t)
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; SECTOR_BYTES]
    }

    #[test]
    fn geometry_sizes_add_up() {
        let (ftl, _, _) = setup();
        // 16 zones of 2×24 sectors; 5 zones of overprovision; 12 units per
        // zone carrying 3 data sectors each.
        assert_eq!(ftl.zone_count(), 16);
        assert_eq!(ftl.unit_data_sectors(), 3);
        assert_eq!(ftl.capacity_sectors(), (16 - 5) * 12 * 3);
    }

    #[test]
    fn write_read_round_trip_and_overwrite() {
        let (mut ftl, _, t0) = setup();
        let t1 = ftl.write_sectors(t0, 5, &page(0xAA)).unwrap();
        let t2 = ftl.write_sectors(t1, 5, &page(0xBB)).unwrap();
        let mut out = page(0);
        ftl.read_sectors(t2, 5, 1, &mut out).unwrap();
        assert_eq!(out[0], 0xBB);
        assert!(matches!(
            ftl.read_sectors(t2, 6, 1, &mut out),
            Err(ZtlError::Unmapped(6))
        ));
        assert!(ftl.stats().waf() > 1.0, "headers amplify writes");
    }

    #[test]
    fn trim_unmaps_durably() {
        let (mut ftl, dev, t0) = setup();
        let t1 = ftl.write_sectors(t0, 0, &page(1)).unwrap();
        let t2 = ftl.trim(t1, 0, 1).unwrap();
        let mut out = page(0);
        assert!(ftl.read_sectors(t2, 0, 1, &mut out).is_err());
        // Trim survives a crash: remount and the sector is still unmapped.
        let f = dev.flush(t2);
        dev.crash(f.done);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (re, _) = ZtlFtl::open(media, tiny_cfg(), f.done).unwrap();
        assert!(!re.is_mapped(0));
    }

    #[test]
    fn replay_rebuilds_mapping_after_crash() {
        let (mut ftl, dev, t0) = setup();
        let mut t = t0;
        for i in 0..20u64 {
            t = ftl.write_sectors(t, i, &page(i as u8)).unwrap();
        }
        // Overwrite a few so replay must respect sequence order.
        for i in 0..5u64 {
            t = ftl.write_sectors(t, i, &page(0xF0 + i as u8)).unwrap();
        }
        let f = dev.flush(t);
        dev.crash(f.done);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (mut re, t2) = ZtlFtl::open(media, tiny_cfg(), f.done).unwrap();
        let mut out = page(0);
        for i in 0..5u64 {
            re.read_sectors(t2, i, 1, &mut out).unwrap();
            assert_eq!(out[0], 0xF0 + i as u8, "overwrite wins at replay");
        }
        for i in 5..20u64 {
            re.read_sectors(t2, i, 1, &mut out).unwrap();
            assert_eq!(out[0], i as u8);
        }
        assert!(re.stats().replayed_units > 0);
    }

    #[test]
    fn gc_reclaims_overwritten_zones_and_writes_never_stall() {
        let (mut ftl, _, t0) = setup();
        let mut t = t0;
        // Write far more than the device holds; overwrites invalidate old
        // records and GC must keep reclaiming zones.
        let cap = ftl.capacity_sectors();
        for round in 0..12u64 {
            for lpn in 0..cap / 2 {
                t = ftl
                    .write_sectors(t, lpn, &page((round * 31 + lpn) as u8))
                    .unwrap();
            }
        }
        assert!(ftl.stats().gc_passes > 0, "GC must have run");
        assert!(ftl.stats().zone_resets > 0);
        assert!(!ftl.is_degraded());
        let mut out = page(0);
        ftl.read_sectors(t, 3, 1, &mut out).unwrap();
        assert_eq!(out[0], (11 * 31 + 3) as u8);
    }

    #[test]
    fn trim_rewrite_cycles_do_not_accumulate_live_trims() {
        let (mut ftl, _, t0) = setup();
        let mut t = t0;
        // A WAL-like pattern: write a fixed range, trim it, repeat. Each
        // cycle appends fresh trim records; only the newest (governing)
        // record per sector may stay live, or GC carries an ever-growing
        // pile of immortal duplicates between zones until the free pool
        // empties and the layer wrongly degrades.
        for round in 0..40u64 {
            for lpn in (0..24u64).step_by(3) {
                let data: Vec<u8> = page(round as u8).repeat(3);
                t = ftl.write_sectors(t, lpn, &data).unwrap();
            }
            t = ftl.trim(t, 0, 24).unwrap();
        }
        let live: u64 = ftl.trim_live.iter().map(|&n| n as u64).sum();
        assert!(live <= 24, "one governing trim per sector, got {live}");
        assert!(!ftl.is_degraded());
        assert!(ftl.stats().zone_resets > 0, "GC kept reclaiming");
        // The trimmed range reads as unmapped after all that churn.
        let mut out = page(0);
        assert!(ftl.read_sectors(t, 0, 1, &mut out).is_err());
    }

    #[test]
    fn filling_every_sector_degrades_to_read_only() {
        let (mut ftl, _, t0) = setup();
        let mut t = t0;
        let cap = ftl.capacity_sectors();
        // Fill the entire logical space with live data, then keep writing
        // fresh lpns — there is nothing to reclaim, so the layer must
        // degrade instead of looping or panicking.
        let mut failed = false;
        for lpn in 0..cap {
            match ftl.write_sectors(t, lpn, &page(1)) {
                Ok(done) => t = done,
                Err(ZtlError::ReadOnly) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        if !failed {
            // Logical space fit; rewriting it all once more must eventually
            // exhaust free zones only if GC cannot keep up — rewriting is
            // reclaimable, so this should still succeed.
            for lpn in 0..cap {
                match ftl.write_sectors(t, lpn, &page(2)) {
                    Ok(done) => t = done,
                    Err(ZtlError::ReadOnly) => break,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        // Whichever path ran, reads still work and state is consistent.
        let mut out = page(0);
        ftl.read_sectors(t, 0, 1, &mut out).unwrap();
        if ftl.is_degraded() {
            assert!(matches!(
                ftl.write_sectors(t, 0, &page(9)),
                Err(ZtlError::ReadOnly)
            ));
            assert!(matches!(ftl.trim(t, 0, 1), Err(ZtlError::ReadOnly)));
        }
    }

    #[test]
    fn header_codec_round_trips() {
        let h = encode_header(42, &[1, 2, 3], &[9, 10]);
        let (seq, data, trims) = parse_header(&h).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(trims, vec![9, 10]);
        assert!(parse_header(&vec![0u8; SECTOR_BYTES]).is_none());
    }
}
