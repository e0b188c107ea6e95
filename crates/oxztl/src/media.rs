//! [`ZtlMedia`]: the translation layer exported back as an
//! [`ox_core::Media`] — a *virtual* Open-Channel device whose random-write
//! chunks are an illusion maintained over zone appends.
//!
//! The virtual geometry mirrors the physical one (groups, parallel units,
//! chunk and write-unit sizes) with `chunks_per_pu` shrunk to what the
//! translation layer can actually serve after overprovisioning and header
//! overhead — the classic FTL capacity tax, surfaced honestly. Virtual
//! chunk states and write pointers are tracked host-side and rebuilt at
//! mount from the replayed mapping: a virtual chunk's write pointer is the
//! length of its longest mapped prefix, and mapped sectors beyond the first
//! hole (a torn multi-unit batch) are discarded, exactly as a real device
//! rolls back a torn vector write.
//!
//! With this adapter, every stack the repo built for the Open-Channel
//! backend — OX-Block figure workloads, LightLSM, the I/O scheduler — runs
//! unmodified on the zoned backend, which is what makes the cross-interface
//! ablation a like-for-like comparison.

use crate::{ZtlConfig, ZtlError, ZtlFtl};
use ocssd::{
    ChunkAddr, ChunkInfo, ChunkState, Completion, DeviceError, Geometry, MediaEvent, Ppa, Result,
    SECTOR_BYTES,
};
use ox_core::Media;
use ox_sim::sync::{Mutex, MutexGuard};
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::sync::Arc;

struct VChunk {
    wp: u32,
    wear: u32,
}

struct Inner {
    ftl: ZtlFtl,
    vchunks: Vec<VChunk>,
}

/// A virtual Open-Channel device served by the zone-translation layer.
pub struct ZtlMedia {
    vgeo: Geometry,
    inner: Arc<Mutex<Inner>>,
    /// Set on the [`Media::gc_route`] view of the device: its commands
    /// reach the physical media in the background class.
    gc_class: bool,
}

fn virtual_geometry(physical: Geometry, capacity_sectors: u64) -> Result<Geometry> {
    let mut vgeo = physical;
    let per_pu_sectors = physical.sectors_per_chunk as u64;
    let chunks = capacity_sectors / (physical.total_pus() as u64 * per_pu_sectors);
    if chunks == 0 {
        return Err(DeviceError::InvalidGeometry(
            "ztl: capacity below one virtual chunk per parallel unit".into(),
        ));
    }
    vgeo.chunks_per_pu = chunks.min(u32::MAX as u64) as u32;
    Ok(vgeo)
}

impl ZtlMedia {
    fn build(ftl: ZtlFtl) -> Result<ZtlMedia> {
        let vgeo = virtual_geometry(ftl.physical_geometry(), ftl.capacity_sectors())?;
        let vchunks = (0..vgeo.total_chunks())
            .map(|_| VChunk { wp: 0, wear: 0 })
            .collect();
        Ok(ZtlMedia {
            vgeo,
            inner: Arc::new(Mutex::new(Inner { ftl, vchunks })),
            gc_class: false,
        })
    }

    /// Locks the translation layer for one call of this view. Every call of
    /// either view sets its own class first, and the lock serializes them.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        let inner = self.inner.lock();
        inner.ftl.routed.set_gc_mode(self.gc_class);
        inner
    }

    /// Formats the zoned device and exports an empty virtual device.
    pub fn format(
        media: Arc<dyn Media>,
        cfg: ZtlConfig,
        now: SimTime,
    ) -> Result<(ZtlMedia, SimTime)> {
        let (ftl, t) = ZtlFtl::format(media, cfg, now).map_err(map_plain)?;
        Ok((Self::build(ftl)?, t))
    }

    /// Remounts after a crash: the translation layer replays its records,
    /// then each virtual chunk's write pointer is rebuilt as its longest
    /// mapped prefix; mapped sectors beyond the first hole (a torn
    /// multi-unit batch) are discarded like a rolled-back vector write.
    pub fn open(
        media: Arc<dyn Media>,
        cfg: ZtlConfig,
        now: SimTime,
    ) -> Result<(ZtlMedia, SimTime)> {
        let (ftl, t) = ZtlFtl::open(media, cfg, now).map_err(map_plain)?;
        let m = Self::build(ftl)?;
        {
            let mut inner = m.lock();
            let spc = m.vgeo.sectors_per_chunk as u64;
            for idx in 0..inner.vchunks.len() {
                let base = idx as u64 * spc;
                let mut wp = 0u64;
                while wp < spc && inner.ftl.is_mapped(base + wp) {
                    wp += 1;
                }
                inner.ftl.unmap_volatile(base + wp, spc - wp);
                inner.vchunks[idx].wp = wp as u32;
            }
        }
        Ok((m, t))
    }

    fn vindex(&self, chunk: ChunkAddr) -> Result<usize> {
        if !chunk.is_valid(&self.vgeo) {
            return Err(DeviceError::InvalidAddress(chunk.ppa(0)));
        }
        Ok(chunk.linear(&self.vgeo) as usize)
    }
}

fn map_plain(e: ZtlError) -> DeviceError {
    match e {
        ZtlError::Zns(ox_zns::ZnsError::Device(d)) => d,
        other => DeviceError::InvalidGeometry(format!("ztl: {other}")),
    }
}

fn map_err(e: ZtlError, at: Ppa) -> DeviceError {
    match e {
        ZtlError::Zns(ox_zns::ZnsError::Device(d)) => d,
        ZtlError::ReadOnly => DeviceError::MediaFailure(at.chunk_addr()),
        ZtlError::Unmapped(_) => DeviceError::ReadUnwritten(at),
        other => DeviceError::InvalidGeometry(format!("ztl: {other}")),
    }
}

impl Media for ZtlMedia {
    fn geometry(&self) -> Geometry {
        self.vgeo
    }

    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        if !ppa.is_valid(&self.vgeo) {
            return Err(DeviceError::InvalidAddress(ppa));
        }
        let sectors = (data.len() / SECTOR_BYTES) as u32;
        let chunk = ppa.chunk_addr();
        if data.is_empty()
            || !data.len().is_multiple_of(SECTOR_BYTES)
            || !sectors.is_multiple_of(self.vgeo.ws_min)
            || ppa.sector + sectors > self.vgeo.sectors_per_chunk
        {
            return Err(DeviceError::InvalidWriteSize { chunk, sectors });
        }
        let idx = self.vindex(chunk)?;
        let mut inner = self.lock();
        let wp = inner.vchunks[idx].wp;
        if ppa.sector != wp {
            return Err(DeviceError::WritePointerMismatch {
                chunk,
                expected: wp,
                got: ppa.sector,
            });
        }
        let lpn = ppa.linear(&self.vgeo);
        let done = inner
            .ftl
            .write_sectors(now, lpn, data)
            .map_err(|e| map_err(e, ppa))?;
        inner.vchunks[idx].wp = wp + sectors;
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion> {
        if !ppa.is_valid(&self.vgeo) {
            return Err(DeviceError::InvalidAddress(ppa));
        }
        if out.len() != sectors as usize * SECTOR_BYTES {
            return Err(DeviceError::BufferSizeMismatch {
                expected: sectors as usize * SECTOR_BYTES,
                got: out.len(),
            });
        }
        let idx = self.vindex(ppa.chunk_addr())?;
        let mut inner = self.lock();
        if ppa.sector + sectors > inner.vchunks[idx].wp {
            return Err(DeviceError::ReadUnwritten(ppa));
        }
        let lpn = ppa.linear(&self.vgeo);
        let done = inner
            .ftl
            .read_sectors(now, lpn, sectors, out)
            .map_err(|e| map_err(e, ppa))?;
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> Result<Completion> {
        let idx = self.vindex(chunk)?;
        let mut inner = self.lock();
        if inner.vchunks[idx].wp == 0 {
            return Err(DeviceError::InvalidChunkState {
                chunk,
                state: ChunkState::Free,
            });
        }
        let base = chunk.linear(&self.vgeo) * self.vgeo.sectors_per_chunk as u64;
        let done = inner
            .ftl
            .trim(now, base, self.vgeo.sectors_per_chunk as u64)
            .map_err(|e| map_err(e, chunk.ppa(0)))?;
        inner.vchunks[idx].wp = 0;
        inner.vchunks[idx].wear += 1;
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        let dst_idx = self.vindex(dst)?;
        let mut inner = self.lock();
        let dst_wp = inner.vchunks[dst_idx].wp;
        if srcs.is_empty() || dst_wp as u64 + srcs.len() as u64 > self.vgeo.sectors_per_chunk as u64
        {
            return Err(DeviceError::InvalidWriteSize {
                chunk: dst,
                sectors: srcs.len() as u32,
            });
        }
        for src in srcs {
            if !src.is_valid(&self.vgeo) {
                return Err(DeviceError::InvalidAddress(*src));
            }
            let sidx = src.chunk_addr().linear(&self.vgeo) as usize;
            if src.sector >= inner.vchunks[sidx].wp {
                return Err(DeviceError::ReadUnwritten(*src));
            }
        }
        // Sources that are logically contiguous are read as one run, and
        // every run is issued at `now`: the write waits for the slowest.
        let mut buf = vec![0u8; srcs.len() * SECTOR_BYTES];
        let mut t = now;
        let mut i = 0;
        while i < srcs.len() {
            let lpn = srcs[i].linear(&self.vgeo);
            let mut run = 1;
            while i + run < srcs.len() && srcs[i + run].linear(&self.vgeo) == lpn + run as u64 {
                run += 1;
            }
            let bytes = &mut buf[i * SECTOR_BYTES..(i + run) * SECTOR_BYTES];
            let done = inner
                .ftl
                .read_sectors(now, lpn, run as u32, bytes)
                .map_err(|e| map_err(e, srcs[i]))?;
            t = t.max(done);
            i += run;
        }
        let dst_lpn = dst.linear(&self.vgeo) * self.vgeo.sectors_per_chunk as u64 + dst_wp as u64;
        let done = inner
            .ftl
            .write_sectors(t, dst_lpn, &buf)
            .map_err(|e| map_err(e, dst.ppa(dst_wp)))?;
        inner.vchunks[dst_idx].wp = dst_wp + srcs.len() as u32;
        Ok(Completion {
            submitted: now,
            done,
        })
    }

    fn flush(&self, now: SimTime) -> Completion {
        self.lock().ftl.sync(now)
    }

    fn flush_chunk(&self, now: SimTime, _chunk: ChunkAddr) -> Completion {
        self.lock().ftl.sync(now)
    }

    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        let Ok(idx) = self.vindex(chunk) else {
            return ChunkInfo {
                state: ChunkState::Offline,
                write_ptr: 0,
                wear: 0,
            };
        };
        let inner = self.lock();
        let v = &inner.vchunks[idx];
        ChunkInfo {
            state: if v.wp == 0 {
                ChunkState::Free
            } else if v.wp == self.vgeo.sectors_per_chunk {
                ChunkState::Closed
            } else {
                ChunkState::Open
            },
            write_ptr: v.wp,
            wear: v.wear,
        }
    }

    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        let inner = self.lock();
        (0..self.vgeo.total_chunks())
            .map(|i| {
                let addr = ChunkAddr::from_linear(&self.vgeo, i);
                let v = &inner.vchunks[i as usize];
                (
                    addr,
                    ChunkInfo {
                        state: if v.wp == 0 {
                            ChunkState::Free
                        } else if v.wp == self.vgeo.sectors_per_chunk {
                            ChunkState::Closed
                        } else {
                            ChunkState::Open
                        },
                        write_ptr: v.wp,
                        wear: v.wear,
                    },
                )
            })
            .collect()
    }

    fn drain_events(&self) -> Vec<MediaEvent> {
        // Physical media events stay at the translation layer (their chunk
        // addresses mean nothing in the virtual geometry): ingest them so
        // affected zones are sealed, and report a quiet virtual device.
        self.lock().ftl.ingest_media_events();
        Vec::new()
    }

    fn obs(&self) -> Obs {
        self.lock().ftl.obs.clone()
    }

    /// A view of this virtual device whose commands — a stacked FTL's GC
    /// copies and resets — travel the physical media's GC route, when the
    /// media underneath names one.
    fn gc_route(&self) -> Option<Arc<dyn Media>> {
        self.lock().ftl.routed.gc_route()?;
        Some(Arc::new(ZtlMedia {
            vgeo: self.vgeo,
            inner: self.inner.clone(),
            gc_class: true,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;

    fn setup() -> (ZtlMedia, SharedDevice, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (m, t) = ZtlMedia::format(media, ZtlConfig::default(), SimTime::ZERO).unwrap();
        (m, dev, t)
    }

    #[test]
    fn virtual_device_round_trips_and_shrinks() {
        let (m, dev, t0) = setup();
        let vgeo = m.geometry();
        let pgeo = dev.geometry();
        assert!(vgeo.chunks_per_pu < pgeo.chunks_per_pu, "capacity tax");
        assert_eq!(vgeo.ws_min, pgeo.ws_min);
        let addr = ChunkAddr::new(0, 0, 0);
        let data = vec![7u8; vgeo.ws_min_bytes()];
        let w = m.write(t0, addr.ppa(0), &data).unwrap();
        let mut out = vec![0u8; vgeo.ws_min_bytes()];
        m.read(w.done, addr.ppa(0), vgeo.ws_min, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(m.chunk_info(addr).write_ptr, vgeo.ws_min);
        // Write-pointer discipline enforced virtually.
        assert!(matches!(
            m.write(w.done, addr.ppa(0), &data),
            Err(DeviceError::WritePointerMismatch { .. })
        ));
    }

    #[test]
    fn virtual_reset_then_rewrite() {
        let (m, _, t0) = setup();
        let vgeo = m.geometry();
        let addr = ChunkAddr::new(1, 0, 2);
        let data = vec![3u8; vgeo.ws_min_bytes()];
        let w = m.write(t0, addr.ppa(0), &data).unwrap();
        let r = m.reset(w.done, addr).unwrap();
        assert_eq!(m.chunk_info(addr).state, ChunkState::Free);
        assert_eq!(m.chunk_info(addr).wear, 1);
        let w2 = m.write(r.done, addr.ppa(0), &data).unwrap();
        let mut out = vec![0u8; vgeo.ws_min_bytes()];
        m.read(w2.done, addr.ppa(0), vgeo.ws_min, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn virtual_state_survives_crash() {
        let (m, dev, t0) = setup();
        let vgeo = m.geometry();
        let addr = ChunkAddr::new(0, 1, 0);
        let data = vec![9u8; vgeo.ws_min_bytes()];
        let w = m.write(t0, addr.ppa(0), &data).unwrap();
        let f = m.flush(w.done);
        dev.crash(f.done);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (re, t1) = ZtlMedia::open(media, ZtlConfig::default(), f.done).unwrap();
        assert_eq!(re.chunk_info(addr).write_ptr, vgeo.ws_min);
        let mut out = vec![0u8; vgeo.ws_min_bytes()];
        re.read(t1, addr.ppa(0), vgeo.ws_min, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn copy_relocates_between_virtual_chunks() {
        let (m, _, t0) = setup();
        let vgeo = m.geometry();
        let src = ChunkAddr::new(0, 0, 0);
        let dst = ChunkAddr::new(0, 0, 1);
        let data: Vec<u8> = (0..vgeo.ws_min_bytes()).map(|i| i as u8).collect();
        let w = m.write(t0, src.ppa(0), &data).unwrap();
        let srcs: Vec<Ppa> = (0..vgeo.ws_min).map(|s| src.ppa(s)).collect();
        let c = m.copy(w.done, &srcs, dst).unwrap();
        let mut out = vec![0u8; vgeo.ws_min_bytes()];
        m.read(c.done, dst.ppa(0), vgeo.ws_min, &mut out).unwrap();
        assert_eq!(out, data);
    }
}
