//! [`RoutedMedia`]: the ZTL's media indirection that lets garbage-collection
//! I/O travel a different [`Media`] than foreground I/O.
//!
//! The translation layer is built once over a user media (typically the raw
//! device, or an `iosched` tenant adapter). When that media names a GC route
//! ([`Media::gc_route`] — an `iosched` tenant carrying `IoClass::Gc`), the
//! ZTL flips the route around each relocation pass, so victim scans,
//! copy-out appends and zone resets arbitrate in the background class while
//! foreground reads keep their latency target (paper §4.3's interference
//! isolation, applied to the zoned backend).

use ocssd::{
    ChunkAddr, ChunkHealth, ChunkInfo, Completion, Geometry, MediaEvent, Payload, Ppa, Result,
};
use ox_core::Media;
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::cell::Cell;
use std::sync::Arc;

/// Routes each media command to the user path or, inside a GC pass over a
/// user media that names a GC route, to the background path.
pub struct RoutedMedia {
    user: Arc<dyn Media>,
    gc: Option<Arc<dyn Media>>,
    /// Whether a relocation pass is in flight.
    gc_mode: Cell<bool>,
}

impl RoutedMedia {
    /// Wraps `user`; all traffic takes the user path except while a GC pass
    /// is in flight and `user` names a GC route.
    pub fn new(user: Arc<dyn Media>) -> Self {
        RoutedMedia {
            gc: user.gc_route(),
            user,
            gc_mode: Cell::new(false),
        }
    }

    /// Turns GC routing on or off (the ZTL brackets each relocation pass)
    /// and returns the previous setting, for the bracket to restore.
    pub(crate) fn set_gc_mode(&self, on: bool) -> bool {
        self.gc_mode.replace(on)
    }

    fn pick(&self) -> &dyn Media {
        match &self.gc {
            Some(gc) if self.gc_mode.get() => gc.as_ref(),
            _ => self.user.as_ref(),
        }
    }
}

impl Media for RoutedMedia {
    fn geometry(&self) -> Geometry {
        self.user.geometry()
    }

    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        self.pick().write(now, ppa, data)
    }

    fn write_parts(&self, now: SimTime, ppa: Ppa, parts: &[Payload]) -> Result<Completion> {
        self.pick().write_parts(now, ppa, parts)
    }

    fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion> {
        self.pick().read(now, ppa, sectors, out)
    }

    fn read_shared(&self, now: SimTime, ppa: Ppa, sectors: u32) -> Result<(Payload, Completion)> {
        self.pick().read_shared(now, ppa, sectors)
    }

    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> Result<Completion> {
        self.pick().reset(now, chunk)
    }

    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        self.pick().copy(now, srcs, dst)
    }

    fn flush(&self, now: SimTime) -> Completion {
        self.user.flush(now)
    }

    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
        self.user.flush_chunk(now, chunk)
    }

    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        self.user.chunk_info(chunk)
    }

    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        self.user.report_all()
    }

    fn drain_events(&self) -> Vec<MediaEvent> {
        self.user.drain_events()
    }

    fn pu_busy_until(&self, pu: u32) -> SimTime {
        self.user.pu_busy_until(pu)
    }

    fn chunk_health(&self, now: SimTime, chunk: ChunkAddr) -> ChunkHealth {
        self.user.chunk_health(now, chunk)
    }

    fn obs(&self) -> Obs {
        self.user.obs()
    }

    fn gc_route(&self) -> Option<Arc<dyn Media>> {
        self.gc.clone()
    }
}
