//! # ox-zns — a Zoned Namespaces FTL over the Open-Channel SSD
//!
//! The paper (§2.3, §3.1) positions ZNS as the standard that absorbed
//! Open-Channel ideas: "ZNS exposes a disk as a collection of zones that
//! must be written sequentially and reset before rewriting … ZNS can be
//! implemented as an application-specific Flash Translation Layer on top of
//! Open-Channel SSDs", and notes that a LightNVM ZNS target "should be
//! straightforward to define" but had not been released (Figure 1 lists
//! OX-ZNS as not fully available). This crate is that target.
//!
//! Design: a zone is a fixed run of chunks on a single parallel unit, so
//! zone writes are strictly sequential on media and zones on different PUs
//! are independent — the device's parallelism surfaces as zone-level
//! parallelism, exactly how production ZNS drives behave. The FTL tracks
//! zone states (empty → open → full, plus offline) and write pointers;
//! `report zones` after a crash rebuilds everything from the device's
//! *report chunk*, so OX-ZNS needs **no mapping table, no WAL and no
//! checkpoints** — the simplification ZNS buys over a block FTL.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use ocssd::{ChunkAddr, ChunkState, Completion, DeviceError, Geometry, Payload, SECTOR_BYTES};
use ox_core::retry::{read_shared_with_policy, read_with_policy};
use ox_core::Media;
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Zone lifecycle state (the NVMe ZNS state machine, minus the transient
/// open sub-states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneState {
    /// Erased; writable from the start.
    Empty,
    /// Partially written.
    Open,
    /// Fully written or finished; read-only until reset.
    Full,
    /// Retired (media failure underneath).
    Offline,
}

/// Snapshot of one zone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneInfo {
    /// Zone state.
    pub state: ZoneState,
    /// Write pointer (sectors from zone start).
    pub write_pointer: u64,
    /// Zone capacity in sectors.
    pub capacity: u64,
}

/// Chunks per zone: zone capacity is this many chunks of one parallel unit.
pub const CHUNKS_PER_ZONE: u32 = 2;

/// OX-ZNS failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZnsError {
    /// Zone id out of range.
    NoSuchZone(u32),
    /// Append did not respect the zone's state or capacity.
    ZoneNotWritable {
        /// Offending zone.
        zone: u32,
        /// Its state.
        state: ZoneState,
    },
    /// Append length must be a positive multiple of the zone append
    /// granularity (the device write unit).
    BadAppendSize(usize),
    /// A read must ask for at least one sector, and a read buffer must hold
    /// exactly the sectors asked for; carries the buffer length.
    BadReadSize(usize),
    /// Read beyond the write pointer.
    ReadBeyondWp {
        /// Offending zone.
        zone: u32,
        /// First invalid sector requested.
        sector: u64,
    },
    /// Device failure.
    Device(DeviceError),
}

impl std::fmt::Display for ZnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZnsError::NoSuchZone(z) => write!(f, "no such zone {z}"),
            ZnsError::ZoneNotWritable { zone, state } => {
                write!(f, "zone {zone} not writable in state {state:?}")
            }
            ZnsError::BadAppendSize(n) => write!(f, "bad append size {n}"),
            ZnsError::BadReadSize(n) => write!(f, "bad read size {n}"),
            ZnsError::ReadBeyondWp { zone, sector } => {
                write!(f, "read beyond write pointer: zone {zone} sector {sector}")
            }
            ZnsError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for ZnsError {}

impl From<DeviceError> for ZnsError {
    fn from(e: DeviceError) -> Self {
        ZnsError::Device(e)
    }
}

/// The pieces of `parts` that cover bytes `range` of their concatenation.
fn cut(parts: &[Payload], range: Range<usize>) -> Vec<Payload> {
    let mut pieces = Vec::new();
    let mut at = 0;
    for part in parts {
        let (from, to) = (range.start.max(at), range.end.min(at + part.len()));
        if from < to {
            pieces.push(part.slice(from - at..to - at));
        }
        at += part.len();
    }
    pieces
}

struct Zone {
    state: ZoneState,
    /// Write pointer in sectors from zone start.
    wp: u64,
    /// Sectors readable (differs from `wp` after a finish).
    readable: u64,
    chunks: Vec<ChunkAddr>,
}

/// The ZNS FTL.
pub struct ZnsFtl {
    media: Arc<dyn Media>,
    geo: Geometry,
    zones: Vec<Zone>,
    zone_sectors: u64,
    obs: Obs,
}

impl ZnsFtl {
    /// The zone table of `geo`: every run of [`CHUNKS_PER_ZONE`] chunks on
    /// each parallel unit is one zone, interleaved across PUs so
    /// consecutive zone ids land on different PUs. Every zone starts empty.
    fn zone_table(geo: &Geometry) -> Vec<Zone> {
        let mut zones = Vec::new();
        for row in 0..geo.chunks_per_pu / CHUNKS_PER_ZONE {
            for pu in 0..geo.total_pus() {
                let (group, pu_local) = (pu / geo.pus_per_group, pu % geo.pus_per_group);
                zones.push(Zone {
                    state: ZoneState::Empty,
                    wp: 0,
                    readable: 0,
                    chunks: (0..CHUNKS_PER_ZONE)
                        .map(|i| ChunkAddr::new(group, pu_local, row * CHUNKS_PER_ZONE + i))
                        .collect(),
                });
            }
        }
        zones
    }

    fn with_zones(media: Arc<dyn Media>, zones: Vec<Zone>) -> ZnsFtl {
        let geo = media.geometry();
        ZnsFtl {
            obs: media.obs(),
            media,
            geo,
            zones,
            zone_sectors: CHUNKS_PER_ZONE as u64 * geo.sectors_per_chunk as u64,
        }
    }

    /// Formats the device as zones (see [`CHUNKS_PER_ZONE`]): every chunk
    /// is erased, and a zone with an offline chunk starts offline.
    pub fn format(media: Arc<dyn Media>, now: SimTime) -> Result<(ZnsFtl, SimTime), ZnsError> {
        let mut zones = Self::zone_table(&media.geometry());
        let mut done = now;
        for zone in &mut zones {
            for &c in &zone.chunks {
                match media.chunk_info(c).state {
                    ChunkState::Free => {}
                    ChunkState::Offline => zone.state = ZoneState::Offline,
                    _ => {
                        done = done.max(media.reset(now, c)?.done);
                    }
                }
            }
        }
        Ok((Self::with_zones(media, zones), done))
    }

    /// Reopens after a crash: zone states and write pointers are rebuilt
    /// entirely from the device's *report chunk* — no log to replay.
    pub fn open(media: Arc<dyn Media>, now: SimTime) -> Result<(ZnsFtl, SimTime), ZnsError> {
        let mut zones = Self::zone_table(&media.geometry());
        // Rebuild write pointers from chunk reports.
        for zone in &mut zones {
            let mut wp = 0u64;
            let mut offline = false;
            let mut sealed = true;
            for &c in &zone.chunks {
                let info = media.chunk_info(c);
                match info.state {
                    ChunkState::Offline => offline = true,
                    _ => {
                        wp += info.write_ptr as u64;
                        if info.state != ChunkState::Closed {
                            sealed = false;
                        }
                    }
                }
            }
            zone.wp = wp;
            zone.readable = wp;
            zone.state = if offline {
                ZoneState::Offline
            } else if wp == 0 {
                ZoneState::Empty
            } else if sealed {
                ZoneState::Full
            } else {
                ZoneState::Open
            };
        }
        Ok((Self::with_zones(media, zones), now))
    }

    /// The media this FTL writes through (for barriers and event drains at
    /// layers built on top, e.g. the zone-translation layer).
    pub fn media(&self) -> &Arc<dyn Media> {
        &self.media
    }

    /// Number of zones.
    pub fn zone_count(&self) -> u32 {
        self.zones.len() as u32
    }

    /// Zone capacity in sectors.
    pub fn zone_sectors(&self) -> u64 {
        self.zone_sectors
    }

    /// Zone append granularity in bytes (the device's `ws_min`).
    pub fn append_bytes(&self) -> usize {
        self.geo.ws_min_bytes()
    }

    /// Reports a zone.
    pub fn zone_info(&self, zone: u32) -> Result<ZoneInfo, ZnsError> {
        let z = self
            .zones
            .get(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        Ok(ZoneInfo {
            state: z.state,
            write_pointer: z.wp,
            capacity: self.zone_sectors,
        })
    }

    /// Barrier: all acknowledged appends *to this zone* durable.
    pub fn flush_zone(&self, now: SimTime, zone: u32) -> Result<Completion, ZnsError> {
        let z = self
            .zones
            .get(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        let mut done = now;
        for &c in &z.chunks {
            done = done.max(self.media.flush_chunk(now, c).done);
        }
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    fn location(&self, zone: &Zone, sector: u64) -> (ChunkAddr, u32) {
        let per = self.geo.sectors_per_chunk as u64;
        let chunk = zone.chunks[(sector / per) as usize];
        (chunk, (sector % per) as u32)
    }

    /// Zone append: writes `parts`, one after another, at the zone's write
    /// pointer and returns the starting sector plus the completion time.
    /// Together they must be a positive multiple of
    /// [`ZnsFtl::append_bytes`]. Each device write unit goes down as one
    /// gathered write of the parts that cover it ([`Media::write_parts`]), so
    /// the device may keep their buffers instead of copying them.
    pub fn append(
        &mut self,
        now: SimTime,
        zone: u32,
        parts: &[Payload],
    ) -> Result<(u64, SimTime), ZnsError> {
        let len: usize = parts.iter().map(Payload::len).sum();
        let unit = self.geo.ws_min_bytes();
        if len == 0 || !len.is_multiple_of(unit) {
            return Err(ZnsError::BadAppendSize(len));
        }
        let zone_sectors = self.zone_sectors;
        let z = self
            .zones
            .get_mut(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        let sectors = (len / SECTOR_BYTES) as u64;
        if !matches!(z.state, ZoneState::Empty | ZoneState::Open) || z.wp + sectors > zone_sectors {
            return Err(ZnsError::ZoneNotWritable {
                zone,
                state: z.state,
            });
        }
        let start = z.wp;
        let mut t = now;
        let per_chunk = self.geo.sectors_per_chunk as u64;
        for i in 0..len / unit {
            let sector = start + (i as u64) * self.geo.ws_min as u64;
            let chunk = z.chunks[(sector / per_chunk) as usize];
            let within = (sector % per_chunk) as u32;
            let piece = if len == unit {
                Cow::Borrowed(parts)
            } else {
                Cow::Owned(cut(parts, i * unit..(i + 1) * unit))
            };
            t = self.media.write_parts(t, chunk.ppa(within), &piece)?.done;
        }
        z.wp += sectors;
        z.readable = z.wp;
        z.state = if z.wp == zone_sectors {
            ZoneState::Full
        } else {
            ZoneState::Open
        };
        self.obs.metrics.record("zns.append", len as u64);
        self.obs.tracer.span(now, t, "zns", "append", len as u64);
        Ok((start, t))
    }

    /// Zone copy, after NVMe's Simple Copy: appends the sectors of `srcs` —
    /// ranges of readable sectors, `(zone, sectors)`, in order — at `zone`'s
    /// write pointer inside the device, so nothing crosses the host link or
    /// a channel. Together they must be a positive multiple of
    /// [`ZnsFtl::append_bytes`]. The destination run splits at chunk
    /// boundaries, one device copy per chunk, all issued at `now`. Returns
    /// the starting sector and when the last copy is durable (a copy
    /// bypasses the write cache).
    pub fn copy(
        &mut self,
        now: SimTime,
        srcs: &[(u32, Range<u64>)],
        zone: u32,
    ) -> Result<(u64, SimTime), ZnsError> {
        let mut from = Vec::new();
        for (src, range) in srcs {
            let z = self
                .zones
                .get(*src as usize)
                .ok_or(ZnsError::NoSuchZone(*src))?;
            if range.end > z.readable {
                let sector = range.start.max(z.readable);
                return Err(ZnsError::ReadBeyondWp { zone: *src, sector });
            }
            for sector in range.clone() {
                let (chunk, within) = self.location(z, sector);
                from.push(chunk.ppa(within));
            }
        }
        let len = from.len() * SECTOR_BYTES;
        if len == 0 || !len.is_multiple_of(self.geo.ws_min_bytes()) {
            return Err(ZnsError::BadAppendSize(len));
        }
        let zone_sectors = self.zone_sectors;
        let per_chunk = self.geo.sectors_per_chunk as u64;
        let z = self
            .zones
            .get_mut(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        if !matches!(z.state, ZoneState::Empty | ZoneState::Open)
            || z.wp + from.len() as u64 > zone_sectors
        {
            return Err(ZnsError::ZoneNotWritable {
                zone,
                state: z.state,
            });
        }
        let start = z.wp;
        let mut done = now;
        let mut rest = &from[..];
        while !rest.is_empty() {
            let room = (per_chunk - z.wp % per_chunk) as usize;
            let (piece, tail) = rest.split_at(room.min(rest.len()));
            let chunk = z.chunks[(z.wp / per_chunk) as usize];
            done = done.max(self.media.copy(now, piece, chunk)?.done);
            // A piece that landed stays: the write pointer follows it.
            rest = tail;
            z.wp += piece.len() as u64;
            z.readable = z.wp;
            z.state = if z.wp == zone_sectors {
                ZoneState::Full
            } else {
                ZoneState::Open
            };
        }
        self.obs.metrics.record("zns.copy", len as u64);
        self.obs.tracer.span(now, done, "zns", "copy", len as u64);
        Ok((start, done))
    }

    /// The zone a read of `sectors` sectors at `sector` into a buffer of
    /// `len` bytes may be served from: at least one sector, a buffer of
    /// exactly that many, all of them below the readable mark.
    fn readable(
        &self,
        zone: u32,
        sector: u64,
        sectors: u32,
        len: usize,
    ) -> Result<&Zone, ZnsError> {
        if sectors == 0 || len != sectors as usize * SECTOR_BYTES {
            return Err(ZnsError::BadReadSize(len));
        }
        let z = self
            .zones
            .get(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        if sector + sectors as u64 > z.readable {
            return Err(ZnsError::ReadBeyondWp { zone, sector });
        }
        Ok(z)
    }

    /// Counts a zone read of `sectors` sectors issued at `now`.
    fn note_read(&self, now: SimTime, done: SimTime, sectors: u32) {
        let bytes = sectors as u64 * SECTOR_BYTES as u64;
        self.obs.metrics.record("zns.read", bytes);
        self.obs.tracer.span(now, done, "zns", "read", bytes);
    }

    /// Reads `sectors` sectors at `sector` within a zone into `out`, which
    /// must hold exactly that many.
    pub fn read(
        &mut self,
        now: SimTime,
        zone: u32,
        sector: u64,
        sectors: u32,
        out: &mut [u8],
    ) -> Result<SimTime, ZnsError> {
        let z = self.readable(zone, sector, sectors, out.len())?;
        // Split at chunk boundaries; reads of different chunks proceed in
        // parallel, so every piece is issued at `now`.
        let per_chunk = self.geo.sectors_per_chunk as u64;
        let mut done = now;
        let mut remaining = sectors as u64;
        let mut cur = sector;
        let mut off = 0usize;
        while remaining > 0 {
            let in_chunk = (per_chunk - cur % per_chunk).min(remaining);
            let (chunk, within) = self.location(z, cur);
            let bytes = in_chunk as usize * SECTOR_BYTES;
            // Uncorrectable reads (ECC exhaustion under an injected fault
            // plan) get the shared bounded-retry defense; `retry.*` counters
            // make the retry traffic observable.
            let outcome = read_with_policy(
                self.media.as_ref(),
                now,
                chunk.ppa(within),
                in_chunk as u32,
                &mut out[off..off + bytes],
                Some(&self.obs.metrics),
            )?;
            done = done.max(outcome.completion.done);
            cur += in_chunk;
            off += bytes;
            remaining -= in_chunk;
        }
        self.note_read(now, done, sectors);
        Ok(done)
    }

    /// [`ZnsFtl::read`] answered with a view of the device's bytes instead
    /// of a copy: the same reads under the same retry policy, metrics and
    /// span. Sectors of one chunk come back in the device's own buffer;
    /// a read across chunks is gathered into a buffer of its own.
    pub fn read_shared(
        &mut self,
        now: SimTime,
        zone: u32,
        sector: u64,
        sectors: u32,
    ) -> Result<(Payload, SimTime), ZnsError> {
        let len = sectors as usize * SECTOR_BYTES;
        let z = self.readable(zone, sector, sectors, len)?;
        let (chunk, within) = self.location(z, sector);
        if within as u64 + sectors as u64 > self.geo.sectors_per_chunk as u64 {
            return Payload::filled(len, |out| self.read(now, zone, sector, sectors, out));
        }
        let (view, outcome) = read_shared_with_policy(
            self.media.as_ref(),
            now,
            chunk.ppa(within),
            sectors,
            Some(&self.obs.metrics),
        )?;
        let done = outcome.completion.done;
        self.note_read(now, done, sectors);
        Ok((view, done))
    }

    /// Finishes a zone: the write pointer jumps to capacity and the zone
    /// becomes read-only. Unwritten sectors stay unreadable.
    pub fn finish_zone(&mut self, zone: u32) -> Result<(), ZnsError> {
        let zone_sectors = self.zone_sectors;
        let z = self
            .zones
            .get_mut(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        match z.state {
            ZoneState::Empty | ZoneState::Open => {
                z.readable = z.wp;
                z.wp = zone_sectors;
                z.state = ZoneState::Full;
                Ok(())
            }
            s => Err(ZnsError::ZoneNotWritable { zone, state: s }),
        }
    }

    /// Resets a zone to empty (chunk erases, in parallel where chunks allow).
    pub fn reset_zone(&mut self, now: SimTime, zone: u32) -> Result<SimTime, ZnsError> {
        let z = self
            .zones
            .get_mut(zone as usize)
            .ok_or(ZnsError::NoSuchZone(zone))?;
        if z.state == ZoneState::Offline {
            return Err(ZnsError::ZoneNotWritable {
                zone,
                state: z.state,
            });
        }
        let mut done = now;
        for &c in &z.chunks {
            if self.media.chunk_info(c).state != ChunkState::Free {
                match self.media.reset(now, c) {
                    Ok(comp) => done = done.max(comp.done),
                    // An erase failure retires the whole zone: the device has
                    // already taken the chunk offline and emitted the grown-
                    // bad-block `MediaEvent`; the zone follows it so no later
                    // append lands on dead media. Typed error, state usable.
                    Err(e @ (DeviceError::MediaFailure(_) | DeviceError::ChunkOffline(_))) => {
                        z.state = ZoneState::Offline;
                        z.wp = 0;
                        z.readable = 0;
                        self.obs.metrics.record("zns.zone_offline", 0);
                        return Err(ZnsError::Device(e));
                    }
                    Err(e) => return Err(ZnsError::Device(e)),
                }
            }
        }
        z.state = ZoneState::Empty;
        z.wp = 0;
        z.readable = 0;
        self.obs.metrics.record("zns.reset", 0);
        self.obs.tracer.span(now, done, "zns", "reset", 0);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;
    use ox_sim::SimDuration;

    fn setup() -> (ZnsFtl, SharedDevice, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = ZnsFtl::format(media, SimTime::ZERO).unwrap();
        (ftl, dev, t)
    }

    fn unit(ftl: &ZnsFtl, fill: u8) -> [Payload; 1] {
        [vec![fill; ftl.append_bytes()].into()]
    }

    #[test]
    fn zones_cover_device_and_interleave_pus() {
        let (ftl, dev, _) = setup();
        let geo = dev.geometry();
        let zones_per_pu = geo.chunks_per_pu / 2;
        assert_eq!(ftl.zone_count(), zones_per_pu * geo.total_pus());
        assert_eq!(ftl.zone_sectors(), 2 * geo.sectors_per_chunk as u64);
        // Consecutive zones land on different PUs (parallel appends).
        let info = ftl.zone_info(0).unwrap();
        assert_eq!(info.state, ZoneState::Empty);
    }

    #[test]
    fn append_read_round_trip_across_chunk_boundary() {
        let (mut ftl, _, t0) = setup();
        // Fill the first chunk of zone 0 plus one unit of the second.
        let per_chunk_units = ftl.zone_sectors() as u32 / 2 / ftl.media.geometry().ws_min;
        let mut t = t0;
        for i in 0..per_chunk_units + 1 {
            let (start, done) = ftl.append(t, 0, &unit(&ftl, i as u8)).unwrap();
            assert_eq!(start, i as u64 * 24);
            t = done;
        }
        // Read straddling the chunk boundary.
        let boundary = ftl.zone_sectors() / 2;
        let mut out = vec![0u8; 2 * SECTOR_BYTES];
        ftl.read(t + SimDuration::from_secs(1), 0, boundary - 1, 2, &mut out)
            .unwrap();
        assert_eq!(out[0], (per_chunk_units - 1) as u8);
        assert_eq!(out[SECTOR_BYTES], per_chunk_units as u8);
    }

    #[test]
    fn appends_are_strictly_sequential_and_bounded() {
        let (mut ftl, _, t0) = setup();
        assert!(matches!(
            ftl.append(t0, 0, &[Payload::from(&[0u8; 100][..])]),
            Err(ZnsError::BadAppendSize(100))
        ));
        let capacity_units = (ftl.zone_sectors() / 24) as usize;
        let data = unit(&ftl, 1);
        let mut t = t0;
        for _ in 0..capacity_units {
            t = ftl.append(t, 0, &data).unwrap().1;
        }
        assert_eq!(ftl.zone_info(0).unwrap().state, ZoneState::Full);
        assert!(matches!(
            ftl.append(t, 0, &data),
            Err(ZnsError::ZoneNotWritable { .. })
        ));
    }

    #[test]
    fn reads_beyond_wp_rejected() {
        let (mut ftl, _, t0) = setup();
        let mut out = vec![0u8; SECTOR_BYTES];
        assert!(matches!(
            ftl.read(t0, 0, 0, 1, &mut out),
            Err(ZnsError::ReadBeyondWp { .. })
        ));
        let (_, t1) = ftl.append(t0, 0, &unit(&ftl, 3)).unwrap();
        ftl.read(t1, 0, 23, 1, &mut out).unwrap();
        assert!(matches!(
            ftl.read(t1, 0, 24, 1, &mut out),
            Err(ZnsError::ReadBeyondWp { .. })
        ));
    }

    #[test]
    fn mis_sized_reads_are_typed_errors_that_touch_nothing() {
        let (mut ftl, dev, t0) = setup();
        let (_, t1) = ftl.append(t0, 0, &unit(&ftl, 3)).unwrap();
        let reads = dev.stats().media_reads.ops() + dev.stats().cache_reads.ops();
        for (sectors, len) in [(2, SECTOR_BYTES), (1, SECTOR_BYTES + 1), (0, 0)] {
            let mut out = vec![0u8; len];
            assert_eq!(
                ftl.read(t1, 0, 0, sectors, &mut out),
                Err(ZnsError::BadReadSize(len))
            );
        }
        assert_eq!(
            ftl.read_shared(t1, 0, 0, 0).unwrap_err(),
            ZnsError::BadReadSize(0)
        );
        let now = dev.stats().media_reads.ops() + dev.stats().cache_reads.ops();
        assert_eq!(now, reads, "no command reached the device");
        // The zone still reads.
        let mut out = vec![0u8; SECTOR_BYTES];
        ftl.read(t1, 0, 0, 1, &mut out).unwrap();
        assert_eq!(out[0], 3);
    }

    /// A unit's parts the way a log writes them: a header encoded at its
    /// exact length, data, and padding that holds nothing.
    fn parts(ftl: &ZnsFtl, units: usize, fill: u8) -> Vec<Payload> {
        let unit = ftl.append_bytes();
        let data = units * unit - 2 * SECTOR_BYTES;
        vec![
            Payload::from(&[fill; 40][..]).zero_extended(SECTOR_BYTES),
            vec![fill ^ 0x5A; data].into(),
            Payload::zeros(SECTOR_BYTES),
        ]
    }

    #[test]
    fn appended_parts_read_back_as_their_concatenation_by_copy_and_by_view() {
        let (mut by_copy, copy_dev, t0) = setup();
        let (mut by_view, view_dev, _) = setup();
        let per_chunk = by_copy.zone_sectors() / 2;
        let mut t = t0;
        let mut want = Vec::new();
        // Units of one part each, and of parts that straddle units, until
        // the zone's first chunk is full and its second begun.
        let mut i = 0u8;
        while (want.len() / SECTOR_BYTES) as u64 <= per_chunk {
            let units = 1 + i as usize % 3;
            let parts = parts(&by_copy, units, i);
            let a = by_copy.append(t, 0, &parts).unwrap();
            assert_eq!(by_view.append(t, 0, &parts).unwrap(), a);
            want.extend_from_slice(&Payload::concat(&parts));
            t = a.1;
            i += 1;
        }
        let sectors = (want.len() / SECTOR_BYTES) as u64;
        for (start, n) in [(0, 1), (1, 7), (per_chunk - 3, 6), (0, sectors)] {
            let mut out = vec![0u8; n as usize * SECTOR_BYTES];
            let a = by_copy.read(t, 0, start, n as u32, &mut out).unwrap();
            let (view, b) = by_view.read_shared(t, 0, start, n as u32).unwrap();
            let at = start as usize * SECTOR_BYTES;
            assert_eq!(a, b, "{n} sectors at {start}");
            assert!(out == want[at..at + out.len()] && view.to_vec() == out);
        }
        assert_eq!(
            format!("{:?}", copy_dev.stats()),
            format!("{:?}", view_dev.stats())
        );
        // A view of data the device kept is the appender's own buffer.
        let unit = parts(&by_view, 1, 0xEE);
        let (start, t) = by_view.append(t, 1, &unit).unwrap();
        let data_sectors = (unit[1].len() / SECTOR_BYTES) as u32;
        let (view, _) = by_view.read_shared(t, 1, start + 1, data_sectors).unwrap();
        assert_eq!(view.bytes().as_ptr(), unit[1].bytes().as_ptr());
    }

    /// Appends `units` units of `parts` to `zone` and returns their bytes.
    fn fill(ftl: &mut ZnsFtl, t: &mut SimTime, zone: u32, units: usize, fill: u8) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..units {
            let unit = parts(ftl, 1, fill.wrapping_add(i as u8));
            *t = ftl.append(*t, zone, &unit).unwrap().1;
            bytes.extend_from_slice(&Payload::concat(&unit));
        }
        bytes
    }

    #[test]
    fn a_zone_copy_crosses_chunk_boundaries_and_reads_back_by_copy_and_by_view() {
        let (mut ftl, dev, mut t) = setup();
        let ws = ftl.media.geometry().ws_min as u64;
        let per_chunk = ftl.zone_sectors() / 2;
        // Zone 1 holds the first chunk and one unit of the second: a source
        // range across its chunk boundary. Zone 0 stops a unit short of its
        // boundary: the copy's destination crosses it.
        let units_per_chunk = (per_chunk / ws) as usize;
        let src = fill(&mut ftl, &mut t, 1, units_per_chunk + 1, 0x10);
        fill(&mut ftl, &mut t, 0, units_per_chunk - 1, 0x80);
        let srcs = [(1, per_chunk - ws..per_chunk + ws), (1, 0..ws)];
        let (start, done) = ftl.copy(t, &srcs, 0).unwrap();
        assert_eq!(start, per_chunk - ws);
        assert_eq!(dev.stats().copies.ops(), 2, "one device copy per chunk");
        let info = ftl.zone_info(0).unwrap();
        assert_eq!(
            (info.state, info.write_pointer),
            (ZoneState::Open, per_chunk + 2 * ws)
        );
        let unit = ws as usize * SECTOR_BYTES;
        let at = |sector: u64| sector as usize * SECTOR_BYTES;
        let mut want = src[at(per_chunk - ws)..at(per_chunk + ws)].to_vec();
        want.extend_from_slice(&src[..unit]);
        let mut out = vec![0u8; want.len()];
        ftl.read(done, 0, start, 3 * ws as u32, &mut out).unwrap();
        assert!(out == want, "by copy");
        for u in 0..3 {
            let (view, _) = ftl.read_shared(done, 0, start + u * ws, ws as u32).unwrap();
            assert!(
                view.to_vec() == want[u as usize * unit..][..unit],
                "unit {u} by view"
            );
        }
    }

    #[test]
    fn a_zone_copy_refuses_partial_units_unreadable_sources_and_unwritable_zones() {
        let (mut ftl, dev, mut t) = setup();
        let ws = ftl.media.geometry().ws_min as u64;
        fill(&mut ftl, &mut t, 1, 2, 1);
        assert_eq!(
            ftl.copy(t, &[(1, 0..ws - 1)], 0),
            Err(ZnsError::BadAppendSize((ws as usize - 1) * SECTOR_BYTES))
        );
        assert_eq!(ftl.copy(t, &[], 0), Err(ZnsError::BadAppendSize(0)));
        assert_eq!(
            ftl.copy(t, &[(1, ws..3 * ws)], 0),
            Err(ZnsError::ReadBeyondWp {
                zone: 1,
                sector: 2 * ws
            })
        );
        // A finished zone, and one retired by a failed erase.
        ftl.finish_zone(3).unwrap();
        let retired = ftl.zones[4].chunks[0];
        let mut plan = ocssd::FaultPlan::default();
        plan.erase_fails.push(ocssd::EraseFault {
            chunk: retired,
            at_wear: 0,
        });
        dev.set_fault_plan(plan);
        fill(&mut ftl, &mut t, 4, 1, 2);
        assert!(ftl.reset_zone(t, 4).is_err());
        for (zone, state) in [(3, ZoneState::Full), (4, ZoneState::Offline)] {
            assert_eq!(
                ftl.copy(t, &[(1, 0..ws)], zone),
                Err(ZnsError::ZoneNotWritable { zone, state })
            );
        }
        assert_eq!(dev.stats().copies.ops(), 0, "nothing reached the device");
        assert_eq!(ftl.zone_info(0).unwrap().write_pointer, 0);
    }

    #[test]
    fn a_zone_copy_spends_no_host_link_or_channel_time() {
        // Twin devices with the same durable source unit on PU 0; one of
        // them also has the host link and zone 1's channel booked far ahead
        // by a burst to zone 2. A copy to zone 1 completes at the same
        // instant on both, and a host append does not.
        let run = |busy: bool| {
            let (mut ftl, dev, mut t) = setup();
            let ws = ftl.media.geometry().ws_min;
            fill(&mut ftl, &mut t, 0, 1, 7);
            t = dev.flush(t).done;
            if busy {
                let burst = [Payload::from(vec![3u8; 16 * ftl.append_bytes()])];
                ftl.append(t, 2, &burst).unwrap();
            }
            let copied = ftl.copy(t, &[(0, 0..ws as u64)], 1).unwrap().1;
            let appended = ftl.append(t, 1, &unit(&ftl, 9)).unwrap().1;
            (copied, appended)
        };
        let (idle, busy) = (run(false), run(true));
        assert_eq!(busy.0, idle.0, "copy");
        assert!(busy.1 > idle.1, "the burst holds a host append back");
    }

    #[test]
    fn finish_seals_and_reset_reopens() {
        let (mut ftl, _, t0) = setup();
        let (_, t1) = ftl.append(t0, 5, &unit(&ftl, 9)).unwrap();
        ftl.finish_zone(5).unwrap();
        let info = ftl.zone_info(5).unwrap();
        assert_eq!(info.state, ZoneState::Full);
        assert_eq!(info.write_pointer, ftl.zone_sectors());
        // Written prefix still readable; unwritten tail not.
        let mut out = vec![0u8; SECTOR_BYTES];
        ftl.read(t1, 5, 0, 1, &mut out).unwrap();
        assert!(ftl.read(t1, 5, 30, 1, &mut out).is_err());
        // Reset → empty → rewritable.
        let t2 = ftl.reset_zone(t1, 5).unwrap();
        assert!(t2 > t1);
        assert_eq!(ftl.zone_info(5).unwrap().state, ZoneState::Empty);
        ftl.append(t2, 5, &unit(&ftl, 1)).unwrap();
    }

    #[test]
    fn zone_states_survive_crash_via_report_zones() {
        let (mut ftl, dev, t0) = setup();
        let (_, t1) = ftl.append(t0, 0, &unit(&ftl, 7)).unwrap();
        let (_, t2) = ftl.append(t1, 1, &unit(&ftl, 8)).unwrap();
        let f = dev.flush(t2);
        dev.crash(f.done);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (mut re, t3) = ZnsFtl::open(media, f.done).unwrap();
        assert_eq!(re.zone_info(0).unwrap().write_pointer, 24);
        assert_eq!(re.zone_info(0).unwrap().state, ZoneState::Open);
        assert_eq!(re.zone_info(2).unwrap().state, ZoneState::Empty);
        let mut out = vec![0u8; SECTOR_BYTES];
        re.read(t3, 0, 0, 1, &mut out).unwrap();
        assert_eq!(out[0], 7);
    }

    #[test]
    fn parallel_zone_appends_drain_independently() {
        // Appends acknowledge at the controller cache; zone parallelism
        // shows up in NAND drain time. Two zones on different PUs drain in
        // roughly the time of one; two appends to the same zone double it.
        let data_units = 4;
        let drain_time = |same_zone: bool| {
            let (mut ftl, dev, t0) = setup();
            let data = [Payload::from(vec![1u8; ftl.append_bytes() * data_units])];
            let mut t = t0;
            t = ftl.append(t, 0, &data).unwrap().1;
            t = ftl
                .append(t, if same_zone { 0 } else { 1 }, &data)
                .unwrap()
                .1;
            dev.flush(t).done.saturating_since(t0)
        };
        let parallel = drain_time(false);
        let serial = drain_time(true);
        assert!(
            serial.as_nanos() > parallel.as_nanos() * 3 / 2,
            "same-PU drain {serial} should well exceed cross-PU {parallel}"
        );
    }
}
