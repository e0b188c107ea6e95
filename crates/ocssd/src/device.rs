//! The simulated Open-Channel SSD device.
//!
//! [`OcssdDevice`] ties together geometry, the chunk state machine, the NAND
//! timing model, per-PU and per-channel resource timelines, the write-back
//! cache, the media payload store and the two fault sources (the injected
//! [`FaultPlan`] and the wear-coupled [`ReliabilityConfig`] model; hard
//! endurance wear-out aside, nothing else fails). All commands take the
//! submission time and return a [`Completion`] carrying the virtual
//! completion time; contention is captured by the timelines.
//!
//! The parallel units serve in arrival order ([`ArrivalTimeline`]): a
//! command takes the earliest idle gap at or after its arrival, so a command
//! that an earlier call booked into the virtual future does not make a later
//! call that arrives sooner wait behind idle time. A chunk's programs and
//! erases still run in the order they were issued: each starts no earlier
//! than the chunk's latest program or erase completes (`Chunk::floor`).
//! The group channels and the host link stay FIFO ([`Timeline`]):
//! back-filling the channel moves the closed-loop WAL's wait from reads into
//! writes, and back-filling the host link lets a writer overrun its
//! neighbours' reads until reads get priority over queued programs.
//!
//! Timing model per command:
//!
//! * **write** — stall until the write cache has room, transfer over the host
//!   link (PCIe), then *acknowledge*. The NAND drain (channel transfer +
//!   program on the PU) is scheduled immediately; its completion is the
//!   write's durability point.
//! * **read** — if every requested sector is still in the controller cache,
//!   serve at cache latency; otherwise occupy the PU for one tR per page
//!   address the range touches (all planes of an address are sensed at
//!   once), then the group channel for the transfer.
//! * **reset** — occupy the PU for the erase; wears the chunk.
//! * **copy** — device-internal: one read per source page address on the
//!   source PUs and programs on the destination PU, no host transfer (paper
//!   §2.2: "copy of logical blocks (within the Open-Channel SSD, without
//!   host involvement)").

use crate::addr::{ChunkAddr, Ppa};
use crate::cache::{CacheConfig, WriteCache};
use crate::cell::{NandProfile, HOST_LINK_PER_SECTOR};
use crate::chunk::{Chunk, ChunkInfo, ChunkState};
use crate::error::{DeviceError, Result};
use crate::fault::{FaultInjector, FaultLedger, FaultPlan};
use crate::geometry::Geometry;
use crate::health::{
    ChunkHealth, HealthLedger, ReadErrorKind, ReliabilityConfig, ReliabilityState,
};
use crate::media::{MediaStore, Payload};
use crate::stats::DeviceStats;
use crate::SECTOR_BYTES;
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{ArrivalTimeline, SimDuration, SimTime, Timeline};
use std::sync::Arc;

/// Completion record of a device command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// When the command was submitted.
    pub submitted: SimTime,
    /// When the command completed (acknowledge time for writes).
    pub done: SimTime,
}

impl Completion {
    /// Observed latency.
    pub fn latency(&self) -> SimDuration {
        self.done.saturating_since(self.submitted)
    }
}

/// Kinds of asynchronous media events reported by the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediaEventKind {
    /// A program operation failed after the write was acknowledged; the
    /// chunk went offline and its data must be re-placed by the host.
    ProgramFail,
    /// An erase failed; the chunk is offline.
    EraseFail,
    /// The chunk exceeded its rated endurance and was retired.
    WearOut,
    /// The reliability model estimates the chunk's error rate has crossed
    /// the refresh threshold: the data is still readable, but the host
    /// should relocate it before it becomes uncorrectable. Advisory — the
    /// chunk stays in service and this does *not* count as a grown bad
    /// block.
    RefreshDue,
}

impl MediaEventKind {
    /// Whether this event retires the chunk from service (everything except
    /// the advisory refresh notification).
    pub fn retires_chunk(self) -> bool {
        !matches!(self, MediaEventKind::RefreshDue)
    }
}

/// Asynchronous media event (OCSSD 2.0 asynchronous error reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediaEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// Affected chunk.
    pub chunk: ChunkAddr,
    /// What happened.
    pub kind: MediaEventKind,
}

/// Full device configuration.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Physical layout.
    pub geometry: Geometry,
    /// NAND timing (defaults to the geometry's cell profile).
    pub profile: NandProfile,
    /// Write-back cache sizing.
    pub cache: CacheConfig,
    /// Deterministic fault schedule (empty by default: no injected faults,
    /// byte-identical behaviour to a plan-less device). See [`crate::fault`].
    pub fault: FaultPlan,
    /// Wear-coupled reliability model (disabled by default: no tracking, no
    /// draws, byte-identical behaviour to a model-less device). See
    /// [`crate::health`].
    pub reliability: ReliabilityConfig,
    /// Observability sinks the device reports into. Every layer built on
    /// this device's media reads them at construction, so handing one
    /// shared [`Obs`] in here observes the whole stack from its first
    /// command. Defaults to a private pair with tracing off.
    pub obs: Obs,
}

impl DeviceConfig {
    /// Configuration for a given geometry with that cell type's default
    /// timing, no injected faults and the reliability model off.
    pub fn with_geometry(geometry: Geometry) -> Self {
        DeviceConfig {
            geometry,
            profile: geometry.cell.profile(),
            cache: CacheConfig::default(),
            fault: FaultPlan::default(),
            reliability: ReliabilityConfig::default(),
            obs: Obs::new(4096),
        }
    }

    /// The paper's dual-plane TLC drive, full size.
    pub fn paper_tlc() -> Self {
        Self::with_geometry(Geometry::paper_tlc())
    }

    /// The paper drive scaled for fast experiments.
    pub fn paper_tlc_scaled(chunk_div: u32, size_div: u32) -> Self {
        Self::with_geometry(Geometry::paper_tlc_scaled(chunk_div, size_div))
    }
}

/// The simulated Open-Channel SSD.
pub struct OcssdDevice {
    geo: Geometry,
    profile: NandProfile,
    chunks: Vec<Chunk>,
    media: MediaStore,
    cache: WriteCache,
    pus: Vec<ArrivalTimeline>,
    channels: Vec<Timeline>,
    host_link: Timeline,
    fault: FaultInjector,
    health: ReliabilityState,
    stats: DeviceStats,
    events: Vec<MediaEvent>,
    grown_bad_blocks: u64,
    obs: Obs,
}

impl OcssdDevice {
    /// Builds a device; panics on invalid geometry. Prefer
    /// [`OcssdDevice::try_new`] when the geometry comes from user input.
    #[expect(
        clippy::panic,
        reason = "documented contract: the compiled-in paper geometries always validate; fallible construction is try_new"
    )]
    pub fn new(config: DeviceConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a device, propagating geometry validation errors.
    pub fn try_new(config: DeviceConfig) -> Result<Self> {
        config
            .geometry
            .validate()
            .map_err(DeviceError::InvalidGeometry)?;
        let geo = config.geometry;
        let chunks = (0..geo.total_chunks()).map(|_| Chunk::new()).collect();
        let fault = FaultInjector::new(config.fault.clone(), geo.total_pus());
        let health = ReliabilityState::new(config.reliability.clone(), geo.total_chunks());
        let cache = WriteCache::new(config.cache);
        Ok(OcssdDevice {
            geo,
            profile: config.profile,
            obs: config.obs,
            chunks,
            media: MediaStore::default(),
            cache,
            pus: vec![ArrivalTimeline::new(); geo.total_pus() as usize],
            channels: vec![Timeline::new(); geo.num_groups as usize],
            host_link: Timeline::new(),
            fault,
            health,
            stats: DeviceStats::default(),
            events: Vec::new(),
            grown_bad_blocks: 0,
        })
    }

    /// Device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// NAND timing profile in effect.
    pub fn profile(&self) -> &NandProfile {
        &self.profile
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn chunk_index(&self, addr: ChunkAddr) -> usize {
        addr.linear(&self.geo) as usize
    }

    fn chunk(&self, addr: ChunkAddr) -> &Chunk {
        &self.chunks[addr.linear(&self.geo) as usize]
    }

    /// *Report chunk* admin command: chunk state, write pointer, wear.
    pub fn chunk_info(&self, addr: ChunkAddr) -> ChunkInfo {
        self.chunk(addr).info()
    }

    /// Reports every chunk (used by FTL recovery to rebuild write pointers).
    pub fn report_all_chunks(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        (0..self.geo.total_chunks())
            .map(|i| {
                let addr = ChunkAddr::from_linear(&self.geo, i);
                (addr, self.chunks[i as usize].info())
            })
            .collect()
    }

    /// Drains asynchronous media events accumulated since the last call.
    pub fn drain_events(&mut self) -> Vec<MediaEvent> {
        std::mem::take(&mut self.events)
    }

    /// Monotone count of chunks retired by media failures since format: the
    /// bad-block growth notification hook. Unlike [`OcssdDevice::drain_events`]
    /// this is not consumed by reading it, so a reporter above the FTL (the
    /// lifetime figure) can watch growth without stealing the FTL's event
    /// stream.
    pub fn grown_bad_blocks(&self) -> u64 {
        self.grown_bad_blocks
    }

    /// Records an asynchronous media event; retiring kinds (everything but
    /// the advisory `RefreshDue`) also bump the grown-bad-block counter.
    fn note_media_event(&mut self, ev: MediaEvent) {
        if ev.kind.retires_chunk() {
            self.grown_bad_blocks += 1;
        }
        self.events.push(ev);
    }

    /// Replaces the fault schedule (e.g. to arm faults mid-experiment).
    /// Per-PU op counts and the ledger restart with the new plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = FaultInjector::new(plan, self.geo.total_pus());
    }

    /// Injected faults that have actually fired so far.
    pub fn fault_ledger(&self) -> &FaultLedger {
        self.fault.ledger()
    }

    /// Reliability-model events that have actually fired so far.
    pub fn health_ledger(&self) -> &HealthLedger {
        self.health.ledger()
    }

    /// Health snapshot of one chunk at `now`: wear, reads since erase, data
    /// age, estimated error rate and refresh-due flag. With the reliability
    /// model disabled only the *report chunk* fields are meaningful.
    pub fn chunk_health(&self, now: SimTime, addr: ChunkAddr) -> ChunkHealth {
        let idx = self.chunk_index(addr);
        let info = self.chunks[idx].info();
        self.health.chunk_health(
            idx,
            info.state,
            info.write_ptr,
            info.wear,
            self.geo.endurance,
            now,
        )
    }

    /// Number of in-service chunks whose estimated error rate is past the
    /// refresh threshold at `now` — the scrubber's backlog. Zero when the
    /// reliability model is disabled.
    pub fn refresh_backlog(&self, now: SimTime) -> u64 {
        if !self.health.is_active() {
            return 0;
        }
        let mut backlog = 0;
        for i in 0..self.chunks.len() {
            let info = self.chunks[i].info();
            if info.state == ChunkState::Offline || info.write_ptr == 0 {
                continue;
            }
            let h = self.health.chunk_health(
                i,
                info.state,
                info.write_ptr,
                info.wear,
                self.geo.endurance,
                now,
            );
            if h.refresh_due {
                backlog += 1;
            }
        }
        backlog
    }

    /// Consumes one scheduled power-loss cut point that is due at `now`
    /// (virtual time reached, or the device has completed the scheduled
    /// number of commands). Returns whether a cut fired; the caller owns the
    /// actual [`OcssdDevice::crash`] call, mirroring an external power rail.
    pub fn take_power_cut(&mut self, now: SimTime) -> bool {
        let Some(_cut) = self.fault.take_power_cut(now) else {
            return false;
        };
        self.stats.injected_power_cuts += 1;
        self.obs.metrics.record("device.fault.power_cut", 0);
        self.obs.tracer.instant(now, "device", "fault.power_cut", 0);
        true
    }

    /// When parallel unit `pu` (device-linear index) finishes its currently
    /// queued work. Schedulers use this to steer background relocation at
    /// idle PUs. Out-of-range indices report [`SimTime::ZERO`] (always idle).
    pub fn pu_busy_until(&self, pu: u32) -> SimTime {
        self.pus
            .get(pu as usize)
            .map(|t| t.busy_until())
            .unwrap_or(SimTime::ZERO)
    }

    /// The device's observability sinks (tracer + metrics).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Publishes point-in-time per-PU gauges into the metrics registry:
    /// `device.pu.<i>.queue_delay_ns` (total queueing delay imposed so far)
    /// and `device.pu.<i>.busy_ppm` (utilization over `[0, horizon]`, in
    /// parts per million). Called by exporters before snapshotting.
    pub fn publish_pu_metrics(&self, horizon: SimTime) {
        self.publish_pu_metrics_as("", horizon)
    }

    /// [`OcssdDevice::publish_pu_metrics`] with a device scope label: gauges
    /// are published as `device.<scope>.pu.<i>.…`. N devices sharing one
    /// metrics registry (the lifetime figure's two legs) would otherwise
    /// clobber each other's per-PU gauges, since `gauge_set` overwrites by
    /// name. An empty scope reproduces the unscoped single-device names.
    pub fn publish_pu_metrics_as(&self, scope: &str, horizon: SimTime) {
        let prefix = if scope.is_empty() {
            "device".to_string()
        } else {
            format!("device.{scope}")
        };
        for (i, pu) in self.pus.iter().enumerate() {
            let delay = pu.total_queue_delay().as_nanos();
            let busy = (pu.utilization(horizon) * 1e6) as i64;
            self.obs
                .metrics
                .gauge_set(&format!("{prefix}.pu.{i}.queue_delay_ns"), delay as i64);
            self.obs
                .metrics
                .gauge_set(&format!("{prefix}.pu.{i}.busy_ppm"), busy);
        }
        self.obs.metrics.gauge_set(
            &format!("{prefix}.cache.stalls"),
            self.cache.stalls() as i64,
        );
    }

    /// Publishes device-health metrics: a per-PU wear histogram
    /// (`device.health.pu.<i>.wear`, one sample per chunk) plus device-age
    /// and backlog gauges. See [`OcssdDevice::publish_health_metrics_as`].
    pub fn publish_health_metrics(&self, now: SimTime) {
        self.publish_health_metrics_as("", now)
    }

    /// [`OcssdDevice::publish_health_metrics`] with a device scope label
    /// (`device.<scope>.health.…`), for devices sharing one registry.
    /// Exporters should call this once per run, before snapshotting: each
    /// call appends one full wear-distribution snapshot to the histograms.
    pub fn publish_health_metrics_as(&self, scope: &str, now: SimTime) {
        let prefix = if scope.is_empty() {
            "device".to_string()
        } else {
            format!("device.{scope}")
        };
        let mut wear_sum = 0u64;
        let mut wear_max = 0u32;
        for i in 0..self.chunks.len() {
            let info = self.chunks[i].info();
            let pu = ChunkAddr::from_linear(&self.geo, i as u64).pu_linear(&self.geo);
            self.obs
                .metrics
                .observe(&format!("{prefix}.health.pu.{pu}.wear"), info.wear as u64);
            wear_sum += info.wear as u64;
            wear_max = wear_max.max(info.wear);
        }
        // Device age: mean wear as a fraction of rated endurance, in ppm.
        let age_ppm = wear_sum * 1_000_000
            / (self.chunks.len().max(1) as u64 * self.geo.endurance.max(1) as u64);
        self.obs
            .metrics
            .gauge_set(&format!("{prefix}.health.age_ppm"), age_ppm as i64);
        self.obs
            .metrics
            .gauge_set(&format!("{prefix}.health.wear_max"), wear_max as i64);
        self.obs.metrics.gauge_set(
            &format!("{prefix}.health.grown_bad_blocks"),
            self.grown_bad_blocks as i64,
        );
        self.obs.metrics.gauge_set(
            &format!("{prefix}.health.refresh_backlog"),
            self.refresh_backlog(now) as i64,
        );
    }

    /// Utilization of each parallel unit over `[0, horizon]`.
    pub fn pu_utilizations(&self, horizon: SimTime) -> Vec<f64> {
        self.pus.iter().map(|t| t.utilization(horizon)).collect()
    }

    /// Total queueing delay imposed by each parallel unit so far.
    pub fn pu_queue_delays(&self) -> Vec<SimDuration> {
        self.pus.iter().map(|t| t.total_queue_delay()).collect()
    }

    fn validate_write(&self, ppa: Ppa, sectors: u32) -> Result<()> {
        if !ppa.is_valid(&self.geo) {
            return Err(DeviceError::InvalidAddress(ppa));
        }
        let addr = ppa.chunk_addr();
        let chunk = self.chunk(addr);
        match chunk.state() {
            ChunkState::Offline => return Err(DeviceError::ChunkOffline(addr)),
            ChunkState::Closed => {
                return Err(DeviceError::InvalidChunkState {
                    chunk: addr,
                    state: ChunkState::Closed,
                })
            }
            ChunkState::Free | ChunkState::Open => {}
        }
        if sectors == 0
            || !sectors.is_multiple_of(self.geo.ws_min)
            || !ppa.sector.is_multiple_of(self.geo.ws_min)
            || ppa.sector + sectors > self.geo.sectors_per_chunk
        {
            return Err(DeviceError::InvalidWriteSize {
                chunk: addr,
                sectors,
            });
        }
        if ppa.sector != chunk.write_ptr() {
            return Err(DeviceError::WritePointerMismatch {
                chunk: addr,
                expected: chunk.write_ptr(),
                got: ppa.sector,
            });
        }
        Ok(())
    }

    /// Vector write of `data` (contiguous sectors) starting at `ppa`, which
    /// must equal the chunk's write pointer. Length must be a positive
    /// multiple of `ws_min` sectors. Completes (returns) when the data is in
    /// the controller cache; durability follows asynchronously.
    pub fn write(&mut self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        self.write_command(now, ppa, data.len(), |media, chunk| {
            media.write(chunk, ppa.sector, data)
        })
    }

    /// One gathered write: [`OcssdDevice::write`] of the concatenation of
    /// `parts`, payloads built in buffers the device can keep — the same
    /// command, with the same validation, faults, timing and accounting and
    /// the same bytes read back — whose parts the store adopts instead of
    /// copying when it can (see `MediaStore::write_parts`). The device holds
    /// its own references from then on: whatever the writer does with its
    /// handles afterwards, the stored bytes stay.
    pub fn write_parts(&mut self, now: SimTime, ppa: Ppa, parts: &[Payload]) -> Result<Completion> {
        let len = parts.iter().map(Payload::len).sum();
        self.write_command(now, ppa, len, |media, chunk| {
            media.write_parts(chunk, ppa.sector, parts)
        })
    }

    /// A write command of `len` payload bytes; `store` files the payload
    /// under the chunk's index once the command is accepted.
    fn write_command(
        &mut self,
        now: SimTime,
        ppa: Ppa,
        len: usize,
        store: impl FnOnce(&mut MediaStore, usize),
    ) -> Result<Completion> {
        if len == 0 || !len.is_multiple_of(SECTOR_BYTES) {
            return Err(DeviceError::BufferSizeMismatch {
                expected: len.next_multiple_of(SECTOR_BYTES).max(SECTOR_BYTES),
                got: len,
            });
        }
        let sectors = (len / SECTOR_BYTES) as u32;
        self.validate_write(ppa, sectors)?;
        let addr = ppa.chunk_addr();
        let bytes = len as u64;

        // Injected program failure: fails synchronously, before the write is
        // accepted — the write pointer never advances past a failed program.
        if self.fault.take_program_fail(addr, ppa.sector) {
            return Err(self.injected_program_fail(now, addr));
        }

        // Admission control: wait for cache room, then host-link transfer.
        let admitted = self.cache.admit(now, bytes);
        let ack = self
            .host_link
            .acquire(admitted, self.host_link_time(sectors))
            .end;

        // Schedule the NAND drain: channel transfer, then program on the PU,
        // in write-pointer order after the chunk's last erase.
        let chan = &mut self.channels[addr.group as usize];
        let chan_done = chan.acquire(ack, self.profile.transfer_time(sectors)).end;
        let units = sectors / self.geo.ws_min;
        let idx = self.chunk_index(addr);
        let floor = self.chunks[idx].floor();
        let pu_idx = addr.pu_linear(&self.geo);
        let spike = self.fault.pu_op_extra(pu_idx);
        let pu = &mut self.pus[pu_idx as usize];
        let grant = pu.acquire_after(chan_done, floor, self.profile.program_time(units) + spike);
        let durable_at = grant.end;
        self.obs.metrics.observe(
            "device.pu.queue_delay_ns",
            grant.start.saturating_since(chan_done).as_nanos(),
        );
        self.cache.commit(bytes, durable_at);
        if spike > SimDuration::ZERO {
            self.note_latency_spike(durable_at);
        }

        self.chunks[idx].accept_write(ppa.sector, sectors, self.geo.sectors_per_chunk, durable_at);
        self.health.note_program(idx, durable_at);
        store(&mut self.media, idx);

        self.stats.writes.record(bytes);
        self.stats.cache_stalls = self.cache.stalls();
        self.stats
            .write_latency
            .record(ack.saturating_since(now).as_nanos());
        self.obs.metrics.record("device.write", bytes);
        self.obs.metrics.observe(
            "device.write_latency_ns",
            ack.saturating_since(now).as_nanos(),
        );
        self.obs.tracer.span(now, ack, "device", "write", bytes);
        self.fault.note_cmd();
        Ok(Completion {
            submitted: now,
            done: ack,
        })
    }

    /// Applies an injected program failure on `addr`: the chunk is retired
    /// for writes (a written chunk closes early and its data stays readable;
    /// an empty chunk goes offline and its media is dropped), and the
    /// failure is reported both synchronously and as a `MediaEvent`.
    fn injected_program_fail(&mut self, now: SimTime, addr: ChunkAddr) -> DeviceError {
        let idx = self.chunk_index(addr);
        self.chunks[idx].freeze();
        if self.chunks[idx].state() == ChunkState::Offline {
            self.media.truncate(idx, 0);
        }
        self.stats.media_failures += 1;
        self.stats.injected_program_fails += 1;
        self.obs.metrics.record("device.fault.program_fail", 0);
        self.obs
            .tracer
            .instant(now, "device", "fault.program_fail", 0);
        self.note_media_event(MediaEvent {
            at: now,
            chunk: addr,
            kind: MediaEventKind::ProgramFail,
        });
        DeviceError::MediaFailure(addr)
    }

    fn note_latency_spike(&mut self, at: SimTime) {
        self.stats.injected_latency_spikes += 1;
        self.obs.metrics.record("device.fault.latency_spike", 0);
        self.obs
            .tracer
            .instant(at, "device", "fault.latency_spike", 0);
    }

    fn host_link_time(&self, sectors: u32) -> SimDuration {
        HOST_LINK_PER_SECTOR * sectors as u64
    }

    fn validate_read(&self, ppa: Ppa, sectors: u32) -> Result<()> {
        if sectors == 0 || !ppa.is_valid(&self.geo) {
            return Err(DeviceError::InvalidAddress(ppa));
        }
        if ppa.sector + sectors > self.geo.sectors_per_chunk {
            return Err(DeviceError::InvalidAddress(ppa.offset(sectors - 1)));
        }
        let addr = ppa.chunk_addr();
        let chunk = self.chunk(addr);
        if chunk.state() == ChunkState::Offline {
            return Err(DeviceError::ChunkOffline(addr));
        }
        if ppa.sector + sectors > chunk.write_ptr() {
            return Err(DeviceError::ReadUnwritten(
                ppa.offset(chunk.write_ptr().saturating_sub(ppa.sector)),
            ));
        }
        Ok(())
    }

    /// Reads `sectors` contiguous logical blocks starting at `ppa` into
    /// `out` (must be exactly `sectors * 4096` bytes). Sectors still in the
    /// controller cache are served at cache latency.
    pub fn read(
        &mut self,
        now: SimTime,
        ppa: Ppa,
        sectors: u32,
        out: &mut [u8],
    ) -> Result<Completion> {
        if out.len() != sectors as usize * SECTOR_BYTES {
            return Err(DeviceError::BufferSizeMismatch {
                expected: sectors as usize * SECTOR_BYTES,
                got: out.len(),
            });
        }
        let done = self.read_command(now, ppa, sectors)?;
        let found = self
            .media
            .read(self.chunk_index(ppa.chunk_addr()), ppa.sector, out);
        debug_assert!(found, "validated sector missing from media store");
        Ok(done)
    }

    /// [`OcssdDevice::read`] without the copy: the same command — same
    /// validation, faults, timing and accounting — answered with a view that
    /// shares the device's own buffer. Flash is written once until erased,
    /// so the view stays valid, and unchanged, whatever happens to the chunk
    /// afterwards.
    pub fn read_shared(
        &mut self,
        now: SimTime,
        ppa: Ppa,
        sectors: u32,
    ) -> Result<(Payload, Completion)> {
        let done = self.read_command(now, ppa, sectors)?;
        let view = self
            .media
            .view(self.chunk_index(ppa.chunk_addr()), ppa.sector, sectors);
        debug_assert!(view.is_some(), "validated sector missing from media store");
        Ok((view.ok_or(DeviceError::ReadUnwritten(ppa))?, done))
    }

    /// Everything a read command does except handing over the bytes.
    fn read_command(&mut self, now: SimTime, ppa: Ppa, sectors: u32) -> Result<Completion> {
        self.validate_read(ppa, sectors)?;
        let addr = ppa.chunk_addr();
        let idx = self.chunk_index(addr);

        // Injected ECC exhaustion: the command fails without touching the
        // timelines (the error returns at submission; retries re-arbitrate).
        if let Some(bad) = self.fault.take_read_fail(addr, ppa.sector, sectors) {
            self.stats.injected_read_fails += 1;
            self.obs.metrics.record("device.fault.read_fail", 0);
            self.obs.tracer.instant(now, "device", "fault.read_fail", 0);
            return Err(DeviceError::UncorrectableRead(bad));
        }

        // Cache-resident iff the whole range is beyond the durable pointer.
        let all_cached = {
            let chunk = &mut self.chunks[idx];
            let durable = chunk.durable_ptr(now);
            ppa.sector >= durable
        };

        // Wear/retention/read-disturb reliability model: media reads of a
        // stressed chunk can exhaust ECC. Like injected read faults, the
        // error returns at submission without touching the timelines;
        // retries re-arbitrate. Cache-resident reads never disturb NAND.
        if !all_cached {
            let wear = self.chunks[idx].info().wear;
            let check = self
                .health
                .take_read_check(idx, wear, self.geo.endurance, now);
            if check.refresh_flagged {
                self.stats.refresh_flags += 1;
                self.obs.metrics.record("device.health.refresh_due", 0);
                self.obs.tracer.instant(now, "device", "health.refresh", 0);
                self.note_media_event(MediaEvent {
                    at: now,
                    chunk: addr,
                    kind: MediaEventKind::RefreshDue,
                });
            }
            if let Some(kind) = check.error {
                match kind {
                    ReadErrorKind::Retention => self.stats.retention_read_errors += 1,
                    ReadErrorKind::Disturb => self.stats.disturb_read_errors += 1,
                    ReadErrorKind::Wear => self.stats.wear_read_errors += 1,
                }
                self.obs.metrics.record("device.health.read_error", 0);
                self.obs
                    .tracer
                    .instant(now, "device", "health.read_error", 0);
                return Err(DeviceError::UncorrectableRead(ppa));
            }
        }

        let bytes = sectors as u64 * SECTOR_BYTES as u64;
        let done = if all_cached {
            let t = self.profile.cache_hit + self.host_link_time(sectors);
            let done = self.host_link.acquire(now, t).end;
            self.stats.cache_reads.record(bytes);
            self.obs.metrics.record("device.read.cache", bytes);
            self.obs
                .tracer
                .span(now, done, "device", "read.cache", bytes);
            done
        } else {
            let pu_idx = addr.pu_linear(&self.geo);
            let spike = self.fault.pu_op_extra(pu_idx);
            if spike > SimDuration::ZERO {
                self.note_latency_spike(now);
            }
            let pu = &mut self.pus[pu_idx as usize];
            let page_addresses = self.geo.page_addresses(ppa.sector, sectors);
            let grant = pu.acquire(now, self.profile.read_media_time(page_addresses) + spike);
            self.obs.metrics.observe(
                "device.pu.queue_delay_ns",
                grant.start.saturating_since(now).as_nanos(),
            );
            let media_done = grant.end;
            let chan = &mut self.channels[addr.group as usize];
            let done = chan
                .acquire(media_done, self.profile.transfer_time(sectors))
                .end;
            self.stats.media_reads.record(bytes);
            self.obs.metrics.record("device.read.media", bytes);
            self.obs
                .tracer
                .span(now, done, "device", "read.media", bytes);
            done
        };

        self.stats
            .read_latency
            .record(done.saturating_since(now).as_nanos());
        self.obs.metrics.observe(
            "device.read_latency_ns",
            done.saturating_since(now).as_nanos(),
        );
        self.fault.note_cmd();
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    /// Scatter read of arbitrary logical blocks (the OCSSD vector read).
    /// `out` must be `ppas.len() * 4096` bytes; completion is the last
    /// sector's arrival.
    pub fn read_vector(
        &mut self,
        now: SimTime,
        ppas: &[Ppa],
        out: &mut [u8],
    ) -> Result<Completion> {
        if out.len() != ppas.len() * SECTOR_BYTES {
            return Err(DeviceError::BufferSizeMismatch {
                expected: ppas.len() * SECTOR_BYTES,
                got: out.len(),
            });
        }
        let mut done = now;
        for (i, &ppa) in ppas.iter().enumerate() {
            let off = i * SECTOR_BYTES;
            let c = self.read(now, ppa, 1, &mut out[off..off + SECTOR_BYTES])?;
            done = done.max(c.done);
        }
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    /// Resets (erases) a chunk. Legal on `Open` and `Closed` chunks; resets
    /// of `Free` chunks are rejected as in the spec.
    pub fn reset_chunk(&mut self, now: SimTime, addr: ChunkAddr) -> Result<Completion> {
        if !addr.is_valid(&self.geo) {
            return Err(DeviceError::InvalidAddress(addr.ppa(0)));
        }
        let idx = self.chunk_index(addr);
        match self.chunks[idx].state() {
            ChunkState::Offline => return Err(DeviceError::ChunkOffline(addr)),
            ChunkState::Free => {
                return Err(DeviceError::InvalidChunkState {
                    chunk: addr,
                    state: ChunkState::Free,
                })
            }
            ChunkState::Open | ChunkState::Closed => {}
        }
        // Wait for any in-flight drain of this chunk before erasing.
        let start = self.chunks[idx].floor().max(now);
        let pu_idx = addr.pu_linear(&self.geo);
        let spike = self.fault.pu_op_extra(pu_idx);
        if spike > SimDuration::ZERO {
            self.note_latency_spike(start);
        }
        let pu = &mut self.pus[pu_idx as usize];
        let done = pu.acquire(start, self.profile.erase_chunk + spike).end;

        let pre_wear = self.chunks[idx].info().wear;
        let wear = self.chunks[idx].reset(done);
        self.health.note_erase(idx);
        self.media.truncate(idx, 0);
        self.stats.resets.record(self.geo.chunk_bytes());
        self.obs
            .metrics
            .record("device.reset", self.geo.chunk_bytes());
        self.obs
            .tracer
            .span(now, done, "device", "reset", self.geo.chunk_bytes());

        // Injected erase failure: the chunk becomes a grown bad block.
        if self.fault.take_erase_fail(addr, pre_wear) {
            self.chunks[idx].set_offline();
            self.stats.media_failures += 1;
            self.stats.injected_erase_fails += 1;
            self.obs.metrics.record("device.fault.erase_fail", 0);
            self.obs
                .tracer
                .instant(done, "device", "fault.erase_fail", 0);
            self.note_media_event(MediaEvent {
                at: done,
                chunk: addr,
                kind: MediaEventKind::EraseFail,
            });
            return Err(DeviceError::MediaFailure(addr));
        }

        // Hard endurance limit.
        if wear >= self.geo.endurance {
            self.chunks[idx].set_offline();
            self.stats.media_failures += 1;
            self.obs.metrics.record("device.media_failure", 0);
            self.obs.tracer.instant(done, "device", "wear_out", 0);
            self.note_media_event(MediaEvent {
                at: done,
                chunk: addr,
                kind: MediaEventKind::WearOut,
            });
            return Err(DeviceError::MediaFailure(addr));
        }
        // Reliability model: grown bad blocks concentrate near end of life,
        // before the hard endurance cliff.
        if self.health.take_eol_erase_fail(wear, self.geo.endurance) {
            self.chunks[idx].set_offline();
            self.stats.media_failures += 1;
            self.stats.eol_erase_fails += 1;
            self.obs.metrics.record("device.health.erase_fail", 0);
            self.obs
                .tracer
                .instant(done, "device", "health.erase_fail", 0);
            self.note_media_event(MediaEvent {
                at: done,
                chunk: addr,
                kind: MediaEventKind::EraseFail,
            });
            return Err(DeviceError::MediaFailure(addr));
        }
        self.fault.note_cmd();
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    /// Device-internal copy: appends the payloads of `srcs` to `dst`'s write
    /// pointer without host involvement. `srcs.len()` must be a positive
    /// multiple of `ws_min`, and every source must be readable. The copied
    /// data is durable at completion (it bypasses the write cache).
    pub fn copy(&mut self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        let sectors = srcs.len() as u32;
        let dst_wp = {
            if !dst.is_valid(&self.geo) {
                return Err(DeviceError::InvalidAddress(dst.ppa(0)));
            }
            self.chunk(dst).write_ptr()
        };
        self.validate_write(dst.ppa(dst_wp), sectors)?;
        for &src in srcs {
            self.validate_read(src, 1)?;
        }
        // Injected program failure on the destination: same contract as a
        // failed host write — the destination write pointer does not move.
        if self.fault.take_program_fail(dst, dst_wp) {
            return Err(self.injected_program_fail(now, dst));
        }

        // Reads proceed in parallel across source PUs, one tR per distinct
        // source page address (every plane sensed at once) however many of
        // its sectors move; the program on the destination PU starts once
        // the last page address arrives.
        let mut pages: Vec<(ChunkAddr, u32)> = Vec::with_capacity(srcs.len());
        let mut last_read = now;
        for &src in srcs {
            let page = (
                src.chunk_addr(),
                src.sector / self.geo.page_address_sectors(),
            );
            if pages.contains(&page) {
                continue;
            }
            pages.push(page);
            let pu = &mut self.pus[src.chunk_addr().pu_linear(&self.geo) as usize];
            last_read = last_read.max(pu.acquire(now, self.profile.read_page).end);
        }
        let units = sectors / self.geo.ws_min;
        let idx = self.chunk_index(dst);
        let floor = self.chunks[idx].floor();
        let pu_idx = dst.pu_linear(&self.geo);
        let spike = self.fault.pu_op_extra(pu_idx);
        if spike > SimDuration::ZERO {
            self.note_latency_spike(last_read);
        }
        let pu = &mut self.pus[pu_idx as usize];
        let done = pu
            .acquire_after(last_read, floor, self.profile.program_time(units) + spike)
            .end;

        self.chunks[idx].accept_write(dst_wp, sectors, self.geo.sectors_per_chunk, done);
        self.health.note_program(idx, done);
        let from: Vec<(usize, u32)> = srcs
            .iter()
            .map(|s| (self.chunk_index(s.chunk_addr()), s.sector))
            .collect();
        let ok = self.media.copy(&from, idx, dst_wp);
        debug_assert!(ok, "validated source sector missing");
        let bytes = sectors as u64 * SECTOR_BYTES as u64;
        self.stats.copies.record(bytes);
        self.obs.metrics.record("device.copy", bytes);
        self.obs.tracer.span(now, done, "device", "copy", bytes);
        self.fault.note_cmd();
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    /// Waits until every acknowledged write is durable on media.
    pub fn flush(&mut self, now: SimTime) -> Completion {
        Completion {
            submitted: now,
            done: self.cache.flush_deadline(now),
        }
    }

    /// Waits until every acknowledged write *to one chunk* is durable.
    pub fn flush_chunk(&mut self, now: SimTime, addr: ChunkAddr) -> Completion {
        let done = self
            .chunks
            .get(self.chunk_index(addr))
            .and_then(|c| c.drain_deadline())
            .map_or(now, |d| d.max(now));
        Completion {
            submitted: now,
            done,
        }
    }

    /// Power failure at `now`: the write cache is lost, chunks roll back to
    /// their durable prefixes, and resource timelines reset (the device
    /// restarts idle). Mirrors `sudo kill -9` in the paper's Figure 3 setup.
    pub fn crash(&mut self, now: SimTime) {
        self.cache.crash();
        for i in 0..self.chunks.len() {
            let lost = self.chunks[i].crash(now);
            if !lost.is_empty() {
                self.media.truncate(i, lost.start);
            }
        }
        for pu in &mut self.pus {
            pu.reset();
        }
        for ch in &mut self.channels {
            ch.reset();
        }
        self.host_link.reset();
    }

    /// Number of sectors with live payloads (testing/diagnostics).
    pub fn stored_sectors(&self) -> usize {
        self.media.len()
    }

    /// Payload bytes held in host memory for `chunk` — what the store kept
    /// of the commands written there once zero tails were trimmed (testing).
    #[doc(hidden)]
    pub fn resident_bytes(&self, chunk: ChunkAddr) -> usize {
        self.media.resident_bytes(self.chunk_index(chunk))
    }
}

/// A device shared between actors: `Arc<Mutex<OcssdDevice>>` with ergonomic
/// forwarding.
#[derive(Clone)]
pub struct SharedDevice(Arc<Mutex<OcssdDevice>>);

impl SharedDevice {
    /// Wraps a device for shared use.
    pub fn new(device: OcssdDevice) -> Self {
        SharedDevice(Arc::new(Mutex::new(device)))
    }

    /// Runs `f` with exclusive access to the device.
    pub fn with<R>(&self, f: impl FnOnce(&mut OcssdDevice) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// Device geometry (copied out).
    pub fn geometry(&self) -> Geometry {
        *self.0.lock().geometry()
    }

    /// See [`OcssdDevice::write`].
    pub fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        self.0.lock().write(now, ppa, data)
    }

    /// See [`OcssdDevice::write_parts`].
    pub fn write_parts(&self, now: SimTime, ppa: Ppa, parts: &[Payload]) -> Result<Completion> {
        self.0.lock().write_parts(now, ppa, parts)
    }

    /// See [`OcssdDevice::read`].
    pub fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion> {
        self.0.lock().read(now, ppa, sectors, out)
    }

    /// See [`OcssdDevice::read_shared`].
    pub fn read_shared(
        &self,
        now: SimTime,
        ppa: Ppa,
        sectors: u32,
    ) -> Result<(Payload, Completion)> {
        self.0.lock().read_shared(now, ppa, sectors)
    }

    /// See [`OcssdDevice::reset_chunk`].
    pub fn reset_chunk(&self, now: SimTime, addr: ChunkAddr) -> Result<Completion> {
        self.0.lock().reset_chunk(now, addr)
    }

    /// See [`OcssdDevice::copy`].
    pub fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        self.0.lock().copy(now, srcs, dst)
    }

    /// See [`OcssdDevice::flush`].
    pub fn flush(&self, now: SimTime) -> Completion {
        self.0.lock().flush(now)
    }

    /// See [`OcssdDevice::chunk_info`].
    pub fn chunk_info(&self, addr: ChunkAddr) -> ChunkInfo {
        self.0.lock().chunk_info(addr)
    }

    /// See [`OcssdDevice::crash`].
    pub fn crash(&self, now: SimTime) {
        self.0.lock().crash(now)
    }

    /// See [`OcssdDevice::set_fault_plan`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.0.lock().set_fault_plan(plan)
    }

    /// Copy of the injected-fault ledger ([`OcssdDevice::fault_ledger`]).
    pub fn fault_ledger(&self) -> FaultLedger {
        *self.0.lock().fault_ledger()
    }

    /// See [`OcssdDevice::take_power_cut`].
    pub fn take_power_cut(&self, now: SimTime) -> bool {
        self.0.lock().take_power_cut(now)
    }

    /// Copy of the cumulative device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.0.lock().stats().clone()
    }

    /// Clone of the device's observability sinks.
    pub fn obs(&self) -> Obs {
        self.0.lock().obs().clone()
    }

    /// See [`OcssdDevice::pu_busy_until`].
    pub fn pu_busy_until(&self, pu: u32) -> SimTime {
        self.0.lock().pu_busy_until(pu)
    }

    /// See [`OcssdDevice::publish_pu_metrics`].
    pub fn publish_pu_metrics(&self, horizon: SimTime) {
        self.0.lock().publish_pu_metrics(horizon)
    }

    /// See [`OcssdDevice::publish_pu_metrics_as`].
    pub fn publish_pu_metrics_as(&self, scope: &str, horizon: SimTime) {
        self.0.lock().publish_pu_metrics_as(scope, horizon)
    }

    /// See [`OcssdDevice::grown_bad_blocks`].
    pub fn grown_bad_blocks(&self) -> u64 {
        self.0.lock().grown_bad_blocks()
    }

    /// See [`OcssdDevice::chunk_health`].
    pub fn chunk_health(&self, now: SimTime, addr: ChunkAddr) -> ChunkHealth {
        self.0.lock().chunk_health(now, addr)
    }

    /// Copy of the reliability-model ledger ([`OcssdDevice::health_ledger`]).
    pub fn health_ledger(&self) -> HealthLedger {
        *self.0.lock().health_ledger()
    }

    /// See [`OcssdDevice::refresh_backlog`].
    pub fn refresh_backlog(&self, now: SimTime) -> u64 {
        self.0.lock().refresh_backlog(now)
    }

    /// See [`OcssdDevice::publish_health_metrics`].
    pub fn publish_health_metrics(&self, now: SimTime) {
        self.0.lock().publish_health_metrics(now)
    }

    /// See [`OcssdDevice::publish_health_metrics_as`].
    pub fn publish_health_metrics_as(&self, scope: &str, now: SimTime) {
        self.0.lock().publish_health_metrics_as(scope, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device() -> OcssdDevice {
        OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8))
    }

    fn unit_data(geo: &Geometry, fill: u8) -> Vec<u8> {
        vec![fill; geo.ws_min_bytes()]
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn drain_trace_truncates_and_pu_busy_advances() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let tracer = dev.obs().tracer.clone();
        tracer.set_enabled(true);
        let addr = ChunkAddr::new(0, 0, 0);
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        assert!(!tracer.drain().is_empty());
        assert!(tracer.drain().is_empty(), "drain must truncate the buffer");
        assert!(dev.pu_busy_until(addr.pu_linear(&geo)) > w.submitted);
        assert_eq!(dev.pu_busy_until(u32::MAX), SimTime::ZERO);
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let data = unit_data(&geo, 0xAB);
        let addr = ChunkAddr::new(0, 0, 0);
        let w = dev.write(t(0), addr.ppa(0), &data).unwrap();
        assert!(w.done > t(0));
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let r = dev.read(w.done, addr.ppa(0), geo.ws_min, &mut out).unwrap();
        assert_eq!(out, data);
        assert!(r.done > w.done);
    }

    #[test]
    fn writes_must_hit_write_pointer() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let data = unit_data(&geo, 1);
        let addr = ChunkAddr::new(0, 0, 0);
        // Skipping ahead fails.
        let err = dev.write(t(0), addr.ppa(geo.ws_min), &data).unwrap_err();
        assert!(matches!(err, DeviceError::WritePointerMismatch { .. }));
        dev.write(t(0), addr.ppa(0), &data).unwrap();
        // Rewriting the start fails too.
        let err = dev.write(t(1), addr.ppa(0), &data).unwrap_err();
        assert!(matches!(err, DeviceError::WritePointerMismatch { .. }));
    }

    #[test]
    fn writes_must_be_ws_min_multiples() {
        let mut dev = small_device();
        let addr = ChunkAddr::new(0, 0, 0);
        let one_sector = vec![0u8; SECTOR_BYTES];
        let err = dev.write(t(0), addr.ppa(0), &one_sector).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidWriteSize { .. }));
        let unaligned = vec![0u8; SECTOR_BYTES + 100];
        let err = dev.write(t(0), addr.ppa(0), &unaligned).unwrap_err();
        assert!(matches!(err, DeviceError::BufferSizeMismatch { .. }));
    }

    #[test]
    fn chunk_closes_when_full_and_rejects_more_writes() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(1, 1, 0);
        let data = unit_data(&geo, 2);
        let mut now = t(0);
        for i in 0..geo.write_units_per_chunk() {
            let c = dev.write(now, addr.ppa(i * geo.ws_min), &data).unwrap();
            now = c.done;
        }
        assert_eq!(dev.chunk_info(addr).state, ChunkState::Closed);
        let err = dev.write(now, addr.ppa(0), &data).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::InvalidChunkState {
                state: ChunkState::Closed,
                ..
            }
        ));
    }

    #[test]
    fn read_of_unwritten_sectors_fails() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(0, 0, 0);
        let mut out = vec![0u8; SECTOR_BYTES];
        let err = dev.read(t(0), addr.ppa(0), 1, &mut out).unwrap_err();
        assert!(matches!(err, DeviceError::ReadUnwritten(_)));
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 3)).unwrap();
        // Just past the write pointer still fails.
        let err = dev
            .read(t(1), addr.ppa(geo.ws_min), 1, &mut out)
            .unwrap_err();
        assert!(matches!(err, DeviceError::ReadUnwritten(_)));
    }

    #[test]
    fn reset_requires_written_chunk_and_enables_rewrite() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(0, 0, 5);
        let err = dev.reset_chunk(t(0), addr).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidChunkState { .. }));
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 4)).unwrap();
        let c = dev.reset_chunk(t(1000), addr).unwrap();
        assert_eq!(dev.chunk_info(addr).state, ChunkState::Free);
        assert_eq!(dev.chunk_info(addr).wear, 1);
        // Rewrite from sector 0 now succeeds.
        dev.write(c.done, addr.ppa(0), &unit_data(&geo, 5)).unwrap();
    }

    #[test]
    fn reset_discards_data() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(0, 0, 0);
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 6)).unwrap();
        let c = dev.reset_chunk(t(1000), addr).unwrap();
        dev.write(c.done, addr.ppa(0), &unit_data(&geo, 7)).unwrap();
        let mut out = vec![0u8; geo.ws_min_bytes()];
        dev.read(
            c.done + SimDuration::from_secs(1),
            addr.ppa(0),
            geo.ws_min,
            &mut out,
        )
        .unwrap();
        assert!(out.iter().all(|&b| b == 7));
    }

    #[test]
    fn recent_writes_served_from_cache_then_media() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(2, 0, 0);
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 8)).unwrap();
        let mut out = vec![0u8; SECTOR_BYTES];
        // Immediately after the ack, the NAND program is still in flight:
        // read must be a cache hit.
        dev.read(w.done, addr.ppa(0), 1, &mut out).unwrap();
        assert_eq!(dev.stats().cache_reads.ops(), 1);
        assert_eq!(dev.stats().media_reads.ops(), 0);
        // Long after, it comes from media.
        dev.read(w.done + SimDuration::from_secs(1), addr.ppa(0), 1, &mut out)
            .unwrap();
        assert_eq!(dev.stats().media_reads.ops(), 1);
    }

    #[test]
    fn cache_read_is_faster_than_media_read() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(2, 1, 0);
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 9)).unwrap();
        let mut out = vec![0u8; SECTOR_BYTES];
        let fast = dev.read(w.done, addr.ppa(0), 1, &mut out).unwrap();
        let slow = dev
            .read(w.done + SimDuration::from_secs(1), addr.ppa(0), 1, &mut out)
            .unwrap();
        assert!(fast.latency() < slow.latency());
    }

    #[test]
    fn group_isolation_no_cross_group_queueing() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let mut out = vec![0u8; SECTOR_BYTES];
        // Prime both groups with data and let it drain.
        let a = ChunkAddr::new(0, 0, 0);
        let b = ChunkAddr::new(1, 0, 0);
        dev.write(t(0), a.ppa(0), &unit_data(&geo, 1)).unwrap();
        dev.write(t(0), b.ppa(0), &unit_data(&geo, 1)).unwrap();
        let settle = t(100_000);
        // Reads to different groups at the same instant do not queue on each
        // other: both see the same base latency.
        let ra = dev.read(settle, a.ppa(0), 1, &mut out).unwrap();
        let rb = dev.read(settle, b.ppa(0), 1, &mut out).unwrap();
        assert_eq!(ra.latency(), rb.latency());
        // Two reads on the same PU serialize.
        let rc = dev.read(settle, a.ppa(0), 1, &mut out).unwrap();
        let rd = dev.read(settle, a.ppa(0), 1, &mut out).unwrap();
        assert!(rd.latency() > rc.latency());
    }

    #[test]
    fn a_read_on_an_idle_pu_does_not_queue_behind_a_later_burst_issued_first() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let profile = *dev.profile();
        let data = ChunkAddr::new(0, 0, 0); // on PU p
        let dst = ChunkAddr::new(0, 0, 1); // on PU p: the burst's programs
        let src = ChunkAddr::new(1, 0, 0); // another group: the burst's sources
        dev.write(t(0), data.ppa(0), &unit_data(&geo, 1)).unwrap();
        dev.write(t(0), src.ppa(0), &unit_data(&geo, 2)).unwrap();
        // Everything has drained by t0. The burst is issued first:
        // device-internal copies (no channel, no host link) whose programs
        // arrive on p after t0 + 1 ms.
        let t0 = t(1_000_000);
        let burst = t0 + SimDuration::from_millis(1);
        let srcs: Vec<Ppa> = (0..geo.ws_min).map(|s| src.ppa(s)).collect();
        for _ in 0..2 {
            dev.copy(burst, &srcs, dst).unwrap();
        }
        let p = data.pu_linear(&geo);
        assert!(dev.pu_busy_until(p) > burst + profile.prog_unit);
        // Then a read arriving at t0, while p is still idle.
        let mut out = vec![0u8; SECTOR_BYTES];
        let r = dev.read(t0, data.ppa(0), 1, &mut out).unwrap();
        assert_eq!(r.done, t0 + profile.read_page + profile.transfer_time(1));
        assert_eq!(out[0], 1);
    }

    #[test]
    fn an_idle_write_unit_read_senses_both_planes_of_each_page_address_at_once() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let profile = *dev.profile();
        let addr = ChunkAddr::new(2, 3, 0);
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 9)).unwrap();
        let now = dev.flush(w.done).done + SimDuration::from_secs(1);
        // 96 KB = 24 sectors = 3 page addresses of 2 planes × 4 sectors.
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let r = dev.read(now, addr.ppa(0), geo.ws_min, &mut out).unwrap();
        let expect = profile.read_page * 3 + profile.transfer_time(geo.ws_min);
        assert_eq!(expect, SimDuration::from_nanos(289_200));
        assert_eq!(r.latency(), expect);
        assert!(out.iter().all(|&b| b == 9));
    }

    #[test]
    fn crash_rolls_back_unflushed_writes() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(3, 0, 0);
        let w1 = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        // Write 2 units; crash right after the ack of the second, before its
        // drain completes.
        let w2 = dev
            .write(w1.done, addr.ppa(geo.ws_min), &unit_data(&geo, 2))
            .unwrap();
        let flush_all = dev.flush(w2.done).done;
        assert!(flush_all > w2.done, "drain still in flight at ack");
        dev.crash(w2.done);
        let info = dev.chunk_info(addr);
        assert!(info.write_ptr < 2 * geo.ws_min, "tail write must be lost");
        // The durable prefix survives and is readable.
        if info.write_ptr > 0 {
            let mut out = vec![0u8; SECTOR_BYTES];
            dev.read(t(1_000_000), addr.ppa(0), 1, &mut out).unwrap();
            assert_eq!(out[0], 1);
        }
        // Reads past the rolled-back pointer fail.
        let mut out = vec![0u8; SECTOR_BYTES];
        let err = dev
            .read(t(1_000_000), addr.ppa(info.write_ptr), 1, &mut out)
            .unwrap_err();
        assert!(matches!(err, DeviceError::ReadUnwritten(_)));
    }

    #[test]
    fn flush_makes_writes_durable_across_crash() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(3, 1, 0);
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 7)).unwrap();
        let f = dev.flush(w.done);
        dev.crash(f.done);
        assert_eq!(dev.chunk_info(addr).write_ptr, geo.ws_min);
        let mut out = vec![0u8; SECTOR_BYTES];
        dev.read(f.done, addr.ppa(0), 1, &mut out).unwrap();
        assert_eq!(out[0], 7);
    }

    #[test]
    fn copy_moves_valid_sectors_without_host_transfer() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let src = ChunkAddr::new(4, 0, 0);
        let dst = ChunkAddr::new(4, 1, 0);
        let mut payload = unit_data(&geo, 0);
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i / SECTOR_BYTES) as u8;
        }
        let w = dev.write(t(0), src.ppa(0), &payload).unwrap();
        let settle = w.done + SimDuration::from_secs(1);
        let srcs: Vec<Ppa> = (0..geo.ws_min).map(|s| src.ppa(s)).collect();
        let c = dev.copy(settle, &srcs, dst).unwrap();
        assert!(c.done > settle);
        let mut out = vec![0u8; geo.ws_min_bytes()];
        dev.read(c.done, dst.ppa(0), geo.ws_min, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(dev.stats().copies.ops(), 1);
    }

    #[test]
    fn copy_reads_each_distinct_source_page_once() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let src = ChunkAddr::new(5, 0, 0);
        let dst = ChunkAddr::new(5, 1, 0);
        let w = dev.write(t(0), src.ppa(0), &unit_data(&geo, 1)).unwrap();
        let read_page = dev.profile().read_page;
        let spp = geo.sectors_per_page;
        assert_eq!(geo.planes, 2);
        // (source sectors, distinct page addresses): one whole page, four
        // whole pages on two addresses, both planes of one address, a
        // plane of each of two addresses, one sector. Each is padded to
        // `ws_min` with repeats of its last sector, as the collector pads a
        // short tail.
        let cases: [(Vec<u32>, u64); 5] = [
            ((0..spp).collect(), 1),
            ((0..4 * spp).collect(), 2),
            ((2 * spp..4 * spp).collect(), 1),
            ((spp..3 * spp).collect(), 2),
            (vec![spp + 1], 1),
        ];
        let mut now = w.done + SimDuration::from_secs(1);
        for (sectors, pages) in cases {
            let mut srcs: Vec<Ppa> = sectors.iter().map(|&s| src.ppa(s)).collect();
            let pad = srcs[srcs.len() - 1];
            srcs.resize(geo.ws_min as usize, pad);
            let c = dev.copy(now, &srcs, dst).unwrap();
            assert_eq!(
                dev.pu_busy_until(src.pu_linear(&geo)).saturating_since(now),
                read_page * pages,
                "{} sources on {pages} page address(es)",
                sectors.len()
            );
            now = c.done + SimDuration::from_secs(1);
        }
    }

    #[test]
    fn copy_respects_destination_write_pointer_discipline() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let src = ChunkAddr::new(4, 2, 0);
        let dst = ChunkAddr::new(4, 3, 0);
        dev.write(t(0), src.ppa(0), &unit_data(&geo, 1)).unwrap();
        // Non-ws_min source count fails.
        let srcs: Vec<Ppa> = (0..geo.ws_min - 1).map(|s| src.ppa(s)).collect();
        let err = dev.copy(t(1_000_000), &srcs, dst).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidWriteSize { .. }));
        // Unwritten source fails.
        let srcs: Vec<Ppa> = (0..geo.ws_min).map(|s| src.ppa(s + geo.ws_min)).collect();
        let err = dev.copy(t(1_000_000), &srcs, dst).unwrap_err();
        assert!(matches!(err, DeviceError::ReadUnwritten(_)));
    }

    #[test]
    fn wear_out_retires_chunk() {
        let mut geo = Geometry::small_slc();
        geo.endurance = 3;
        let mut cfg = DeviceConfig::with_geometry(geo);
        cfg.cache = CacheConfig {
            capacity_bytes: 1 << 30,
        };
        let mut dev = OcssdDevice::new(cfg);
        let addr = ChunkAddr::new(0, 0, 0);
        let data = vec![1u8; geo.ws_min_bytes()];
        let mut now = t(0);
        for round in 0..3 {
            let w = dev.write(now, addr.ppa(0), &data).unwrap();
            now = w.done + SimDuration::from_secs(1);
            let r = dev.reset_chunk(now, addr);
            now += SimDuration::from_secs(1);
            if round < 2 {
                r.unwrap();
            } else {
                assert!(matches!(r.unwrap_err(), DeviceError::MediaFailure(_)));
            }
        }
        assert_eq!(dev.chunk_info(addr).state, ChunkState::Offline);
        let events = dev.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, MediaEventKind::WearOut);
        // Offline chunk rejects all I/O.
        let err = dev.write(now, addr.ppa(0), &data).unwrap_err();
        assert!(matches!(err, DeviceError::ChunkOffline(_)));
    }

    #[test]
    fn report_all_chunks_reflects_write_pointers() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(5, 2, 7);
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        let report = dev.report_all_chunks();
        let (found, info) = report
            .iter()
            .find(|(a, _)| *a == addr)
            .expect("chunk in report");
        assert_eq!(*found, addr);
        assert_eq!(info.write_ptr, geo.ws_min);
        assert_eq!(info.state, ChunkState::Open);
    }

    #[test]
    fn sustained_writes_feel_cache_backpressure() {
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        cfg.cache = CacheConfig {
            capacity_bytes: 4 * cfg.geometry.ws_min_bytes() as u64,
        };
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        let data = unit_data(&geo, 1);
        let addr = ChunkAddr::new(0, 0, 0);
        let mut now = t(0);
        let mut first_latency = None;
        let mut last_latency = None;
        for i in 0..geo.write_units_per_chunk().min(32) {
            let c = dev.write(now, addr.ppa(i * geo.ws_min), &data).unwrap();
            if first_latency.is_none() {
                first_latency = Some(c.latency());
            }
            last_latency = Some(c.latency());
            now = c.done;
        }
        assert!(
            last_latency.unwrap() > first_latency.unwrap() * 5,
            "back-to-back writes to one PU must eventually stall on the cache: first {:?}, last {:?}",
            first_latency,
            last_latency
        );
        assert!(dev.stats().cache_stalls > 0);
    }

    #[test]
    fn shared_device_forwards() {
        let dev = SharedDevice::new(small_device());
        let geo = dev.geometry();
        let addr = ChunkAddr::new(0, 0, 0);
        dev.write(t(0), addr.ppa(0), &vec![3u8; geo.ws_min_bytes()])
            .unwrap();
        let mut out = vec![0u8; SECTOR_BYTES];
        dev.read(t(10), addr.ppa(0), 1, &mut out).unwrap();
        assert_eq!(out[0], 3);
        assert_eq!(dev.chunk_info(addr).write_ptr, geo.ws_min);
        let f = dev.flush(t(10));
        dev.crash(f.done);
        assert_eq!(dev.chunk_info(addr).write_ptr, geo.ws_min);
    }

    #[test]
    fn read_vector_scatter_gathers() {
        let mut dev = small_device();
        let geo = *dev.geometry();
        let a = ChunkAddr::new(0, 0, 0);
        let b = ChunkAddr::new(7, 3, 0);
        let mut pa = unit_data(&geo, 0);
        pa[0] = 11;
        let mut pb = unit_data(&geo, 0);
        pb[0] = 22;
        dev.write(t(0), a.ppa(0), &pa).unwrap();
        dev.write(t(0), b.ppa(0), &pb).unwrap();
        let settle = t(1_000_000);
        let mut out = vec![0u8; 2 * SECTOR_BYTES];
        let c = dev
            .read_vector(settle, &[a.ppa(0), b.ppa(0)], &mut out)
            .unwrap();
        assert!(c.done > settle);
        assert_eq!(out[0], 11);
        assert_eq!(out[SECTOR_BYTES], 22);
    }

    #[test]
    fn program_failure_reported_asynchronously() {
        use crate::fault::ProgramFault;
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        let addr = ChunkAddr::new(0, 0, 0);
        cfg.fault
            .program_fails
            .push(ProgramFault { chunk: addr, wp: 0 });
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        // The command fails, and whoever did not issue it learns of the
        // retired chunk from the event queue, once.
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1))
            .unwrap_err();
        assert_eq!(dev.chunk_info(addr).state, ChunkState::Offline);
        assert_eq!(dev.grown_bad_blocks(), 1);
        let events = dev.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, MediaEventKind::ProgramFail);
        assert!(dev.drain_events().is_empty());
    }

    #[test]
    fn injected_program_fail_freezes_write_pointer() {
        use crate::fault::{FaultPlan, ProgramFault};
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        let addr = ChunkAddr::new(0, 0, 0);
        let geo = cfg.geometry;
        cfg.fault.program_fails.push(ProgramFault {
            chunk: addr,
            wp: geo.ws_min,
        });
        let mut dev = OcssdDevice::new(cfg);
        // First unit succeeds; the second hits the scheduled fault.
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        let err = dev
            .write(w.done, addr.ppa(geo.ws_min), &unit_data(&geo, 2))
            .unwrap_err();
        assert!(matches!(err, DeviceError::MediaFailure(a) if a == addr));
        let info = dev.chunk_info(addr);
        assert_eq!(info.write_ptr, geo.ws_min, "wp must not pass the failure");
        assert_eq!(info.state, ChunkState::Closed, "written chunk closes early");
        // The surviving prefix stays readable after the drain.
        let mut out = vec![0u8; SECTOR_BYTES];
        dev.read(t(10_000_000), addr.ppa(0), 1, &mut out).unwrap();
        assert_eq!(out[0], 1);
        // Further writes are rejected; the event queue reports the failure.
        let err = dev
            .write(t(10_000_000), addr.ppa(geo.ws_min), &unit_data(&geo, 3))
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidChunkState { .. }));
        let events = dev.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, MediaEventKind::ProgramFail);
        assert_eq!(dev.fault_ledger().program_fails, 1);
        assert_eq!(dev.stats().injected_program_fails, 1);
        let _ = FaultPlan::default();
    }

    #[test]
    fn injected_program_fail_on_empty_chunk_goes_offline() {
        use crate::fault::ProgramFault;
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        let addr = ChunkAddr::new(1, 0, 0);
        cfg.fault
            .program_fails
            .push(ProgramFault { chunk: addr, wp: 0 });
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        let err = dev
            .write(t(0), addr.ppa(0), &unit_data(&geo, 1))
            .unwrap_err();
        assert!(matches!(err, DeviceError::MediaFailure(_)));
        assert_eq!(dev.chunk_info(addr).state, ChunkState::Offline);
        let err = dev
            .write(t(1), addr.ppa(0), &unit_data(&geo, 1))
            .unwrap_err();
        assert!(matches!(err, DeviceError::ChunkOffline(_)));
    }

    #[test]
    fn injected_read_fail_is_transient_then_recovers() {
        use crate::fault::ReadFault;
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        let addr = ChunkAddr::new(0, 0, 0);
        cfg.fault.read_fails.push(ReadFault {
            ppa: addr.ppa(1),
            attempts: 2,
        });
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 9)).unwrap();
        let settle = t(10_000_000);
        let mut out = vec![0u8; geo.ws_min_bytes()];
        // Two covering reads fail with the sector named, the third succeeds.
        for _ in 0..2 {
            let err = dev
                .read(settle, addr.ppa(0), geo.ws_min, &mut out)
                .unwrap_err();
            assert!(
                matches!(err, DeviceError::UncorrectableRead(p) if p == addr.ppa(1)),
                "got {err}"
            );
        }
        dev.read(settle, addr.ppa(0), geo.ws_min, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 9));
        // A read that does not cover the sector never failed.
        assert_eq!(dev.fault_ledger().read_fails, 2);
        assert_eq!(dev.stats().injected_read_fails, 2);
    }

    #[test]
    fn injected_erase_fail_grows_bad_block() {
        use crate::fault::EraseFault;
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        let addr = ChunkAddr::new(2, 1, 3);
        cfg.fault.erase_fails.push(EraseFault {
            chunk: addr,
            at_wear: 0,
        });
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        let err = dev.reset_chunk(w.done, addr).unwrap_err();
        assert!(matches!(err, DeviceError::MediaFailure(a) if a == addr));
        assert_eq!(dev.chunk_info(addr).state, ChunkState::Offline);
        // Retired chunk rejects I/O with ChunkOffline.
        let mut out = vec![0u8; SECTOR_BYTES];
        let err = dev.read(t(1), addr.ppa(0), 1, &mut out).unwrap_err();
        assert!(matches!(err, DeviceError::ChunkOffline(_)));
        let err = dev.reset_chunk(t(1), addr).unwrap_err();
        assert!(matches!(err, DeviceError::ChunkOffline(_)));
        let events = dev.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, MediaEventKind::EraseFail);
        assert_eq!(dev.fault_ledger().erase_fails, 1);
    }

    #[test]
    fn injected_latency_spike_slows_selected_pu() {
        use crate::fault::LatencySpike;
        let extra = SimDuration::from_micros(300);
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        cfg.fault.latency_spikes.push(LatencySpike {
            pu: 0,
            start_op: 1,
            ops: 1,
            extra,
        });
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(0, 0, 0);
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        let settle = t(10_000_000);
        let mut out = vec![0u8; SECTOR_BYTES];
        // PU op 1 is the first media read: spiked. A later read is clean.
        let slow = dev.read(settle, addr.ppa(0), 1, &mut out).unwrap();
        let fast = dev
            .read(settle + SimDuration::from_secs(1), addr.ppa(0), 1, &mut out)
            .unwrap();
        assert_eq!(slow.latency(), fast.latency() + extra);
        assert_eq!(dev.fault_ledger().latency_spikes, 1);
        assert_eq!(dev.stats().injected_latency_spikes, 1);
    }

    #[test]
    fn power_cut_fires_by_op_count_and_is_consumed() {
        use crate::fault::PowerCut;
        let mut cfg = DeviceConfig::paper_tlc_scaled(22, 8);
        cfg.fault.power_cuts.push(PowerCut::AfterOps(2));
        let mut dev = OcssdDevice::new(cfg);
        let geo = *dev.geometry();
        let addr = ChunkAddr::new(0, 0, 0);
        let w = dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        assert!(!dev.take_power_cut(w.done), "one op: not yet due");
        let w2 = dev
            .write(w.done, addr.ppa(geo.ws_min), &unit_data(&geo, 2))
            .unwrap();
        assert!(dev.take_power_cut(w2.done), "two ops: cut fires");
        assert!(!dev.take_power_cut(w2.done), "consumed");
        assert_eq!(dev.stats().injected_power_cuts, 1);
        dev.crash(w2.done);
    }

    #[test]
    fn trace_records_operations() {
        use ox_sim::trace::TracePhase;
        let mut dev = small_device();
        let geo = *dev.geometry();
        dev.obs().tracer.set_enabled(true);
        let addr = ChunkAddr::new(0, 0, 0);
        dev.write(t(0), addr.ppa(0), &unit_data(&geo, 1)).unwrap();
        let mut out = vec![0u8; SECTOR_BYTES];
        dev.read(t(1_000_000), addr.ppa(0), 1, &mut out).unwrap();
        let snap = dev.obs().tracer.snapshot();
        // One begin/end pair per operation.
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].op, "write");
        assert_eq!(snap[0].phase, TracePhase::Begin);
        assert_eq!(snap[1].op, "write");
        assert_eq!(snap[1].phase, TracePhase::End);
        assert_eq!(snap[0].span, snap[1].span);
        assert_eq!(snap[2].op, "read.media");
        assert_eq!(snap[3].op, "read.media");
        assert_eq!(snap[2].span, snap[3].span);
        // Metrics saw the same traffic as DeviceStats.
        let m = dev.obs().metrics.clone();
        assert_eq!(
            m.counter("device.write").bytes(),
            dev.stats().writes.bytes()
        );
        assert_eq!(
            m.counter("device.read.media").bytes(),
            dev.stats().media_reads.bytes()
        );
    }
}
