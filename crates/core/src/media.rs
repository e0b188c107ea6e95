//! Media-manager abstraction (the bottom layer of the OX architecture).
//!
//! OX's media manager presents "a common representation of the physical
//! address space" over whatever storage media sits underneath (paper §4.1).
//! FTL components are written against the [`Media`] trait; [`OcssdMedia`]
//! implements it over the simulated Open-Channel SSD, and tests substitute
//! fault-injecting wrappers.

use ocssd::{
    ChunkAddr, ChunkHealth, ChunkInfo, Completion, Geometry, Payload, Ppa, Result, SharedDevice,
    SECTOR_BYTES,
};
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A physical address space with OCSSD-style chunk discipline.
pub trait Media {
    /// Device geometry.
    fn geometry(&self) -> Geometry;

    /// Vector write of contiguous sectors at the chunk write pointer
    /// (completes at cache acknowledge).
    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion>;

    /// One gathered write: [`Media::write`] of the concatenation of `parts`,
    /// payloads built in buffers the media may keep instead of copying — the
    /// same command in every other respect: same validation, same faults,
    /// same timing, same accounting, same bytes read back. The mirror image
    /// of [`Media::read_shared`]. The default concatenates the parts and
    /// writes them through `write`, so media that know nothing of shared
    /// buffers stay correct; media over the device forward to whatever they
    /// wrap, and the device adopts the parts' buffers when it can. The media
    /// takes references of its own: the caller's handles are the caller's to
    /// drop.
    fn write_parts(&self, now: SimTime, ppa: Ppa, parts: &[Payload]) -> Result<Completion> {
        self.write(now, ppa, &Payload::concat(parts))
    }

    /// Read of contiguous written sectors.
    fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion>;

    /// [`Media::read`] answered with a view of the bytes instead of a copy
    /// into the caller's buffer — the same command in every other respect:
    /// same validation, same timing, same accounting. The default reads
    /// into a fresh buffer; media that can share the device's own buffer
    /// (flash is written once until erased, so a view of it cannot change)
    /// forward to whatever they wrap.
    fn read_shared(&self, now: SimTime, ppa: Ppa, sectors: u32) -> Result<(Payload, Completion)> {
        Payload::filled(sectors as usize * SECTOR_BYTES, |out| {
            self.read(now, ppa, sectors, out)
        })
    }

    /// Chunk reset (erase).
    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> Result<Completion>;

    /// Device-internal scatter copy to a destination chunk's write pointer.
    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion>;

    /// Barrier: all acknowledged writes durable.
    fn flush(&self, now: SimTime) -> Completion;

    /// Barrier: all acknowledged writes *to one chunk* durable.
    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion;

    /// *Report chunk* for one chunk.
    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo;

    /// *Report chunk* for the whole device (recovery scan).
    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)>;

    /// Drains asynchronous media events (program/erase failures, wear-out).
    fn drain_events(&self) -> Vec<ocssd::MediaEvent>;

    /// When parallel unit `pu` (device-linear index) finishes its queued
    /// work. Schedulers steer low-priority relocation at idle PUs with this;
    /// media without queue visibility report always-idle.
    fn pu_busy_until(&self, _pu: u32) -> SimTime {
        SimTime::ZERO
    }

    /// Health snapshot of one chunk at `now` (wear, reads since erase, data
    /// age, estimated error rate). Media without a reliability model report
    /// the *report chunk* fields and an always-healthy estimate.
    fn chunk_health(&self, _now: SimTime, chunk: ChunkAddr) -> ChunkHealth {
        let info = self.chunk_info(chunk);
        ChunkHealth {
            state: info.state,
            write_ptr: info.write_ptr,
            wear: info.wear,
            reads_since_erase: 0,
            data_age: SimDuration::ZERO,
            error_ppm: 0,
            refresh_due: false,
        }
    }

    /// Observability sinks of the stack this media belongs to. Every layer
    /// built on a media reads this once, at construction, so its format-,
    /// mount- and recovery-time traffic is reported like the rest. Media
    /// that carry no sinks answer with a private pair nobody reads.
    fn obs(&self) -> Obs {
        Obs::default()
    }

    /// Where a layer built on this media sends its background relocation
    /// I/O (GC copies and resets, scrub patrol reads): a sibling media over
    /// the same address space in a background class, or `None` when
    /// background I/O shares the foreground path. Read once, at
    /// construction.
    fn gc_route(&self) -> Option<Arc<dyn Media>> {
        None
    }
}

/// [`Media`] over the simulated Open-Channel SSD.
#[derive(Clone)]
pub struct OcssdMedia {
    device: SharedDevice,
}

impl OcssdMedia {
    /// Wraps a shared device.
    pub fn new(device: SharedDevice) -> Self {
        OcssdMedia { device }
    }

    /// Access to the underlying shared device (for experiment harnesses).
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }
}

impl Media for OcssdMedia {
    fn geometry(&self) -> Geometry {
        self.device.geometry()
    }

    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        self.device.write(now, ppa, data)
    }

    fn write_parts(&self, now: SimTime, ppa: Ppa, parts: &[Payload]) -> Result<Completion> {
        self.device.write_parts(now, ppa, parts)
    }

    fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion> {
        self.device.read(now, ppa, sectors, out)
    }

    fn read_shared(&self, now: SimTime, ppa: Ppa, sectors: u32) -> Result<(Payload, Completion)> {
        self.device.read_shared(now, ppa, sectors)
    }

    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> Result<Completion> {
        self.device.reset_chunk(now, chunk)
    }

    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        self.device.copy(now, srcs, dst)
    }

    fn flush(&self, now: SimTime) -> Completion {
        self.device.flush(now)
    }

    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
        self.device.with(|d| d.flush_chunk(now, chunk))
    }

    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        self.device.chunk_info(chunk)
    }

    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        self.device.with(|d| d.report_all_chunks())
    }

    fn drain_events(&self) -> Vec<ocssd::MediaEvent> {
        self.device.with(|d| d.drain_events())
    }

    fn pu_busy_until(&self, pu: u32) -> SimTime {
        self.device.pu_busy_until(pu)
    }

    fn chunk_health(&self, now: SimTime, chunk: ChunkAddr) -> ChunkHealth {
        self.device.chunk_health(now, chunk)
    }

    fn obs(&self) -> Obs {
        self.device.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice};

    fn media() -> OcssdMedia {
        OcssdMedia::new(SharedDevice::new(OcssdDevice::new(
            DeviceConfig::paper_tlc_scaled(22, 8),
        )))
    }

    #[test]
    fn media_trait_round_trip() {
        let m = media();
        let geo = m.geometry();
        let addr = ChunkAddr::new(0, 0, 0);
        let data = vec![5u8; geo.ws_min_bytes()];
        let w = m.write(SimTime::ZERO, addr.ppa(0), &data).unwrap();
        let mut out = vec![0u8; geo.ws_min_bytes()];
        m.read(w.done, addr.ppa(0), geo.ws_min, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(m.chunk_info(addr).write_ptr, geo.ws_min);
    }

    #[test]
    fn flush_chunk_and_report_all() {
        let m = media();
        let geo = m.geometry();
        let addr = ChunkAddr::new(1, 2, 3);
        let w = m
            .write(SimTime::ZERO, addr.ppa(0), &vec![1u8; geo.ws_min_bytes()])
            .unwrap();
        let f = m.flush_chunk(w.done, addr);
        assert!(f.done >= w.done);
        let all = m.report_all();
        assert_eq!(all.len(), geo.total_chunks() as usize);
        assert!(m.drain_events().is_empty());
    }

    #[test]
    fn media_is_object_safe() {
        let m = media();
        let obj: &dyn Media = &m;
        assert_eq!(obj.geometry().num_groups, 8);
    }
}
