//! [`SchedMedia`]: the [`Media`] adapter that routes a client through the
//! scheduler.
//!
//! Each adapter instance binds one tenant queue, so an FTL read path, a
//! flush path and the GC relocation path can each carry their own class and
//! rate limit while sharing one dispatch resource. Data commands
//! (read/write/copy/reset) go through `submit_wait` — the client blocks in
//! virtual time until its completion is delivered, pumping the scheduler
//! (and therefore every other tenant's eligible commands) forward. Barriers
//! and introspection (`flush`, `chunk_info`, `report_all`, `drain_events`)
//! pass straight through to the underlying media: they carry no payload to
//! arbitrate and must observe the device, not the queue.

use crate::config::TenantId;
use crate::sched::{IoCmd, SchedError, SharedScheduler};
use ocssd::{
    ChunkAddr, ChunkInfo, Completion, DeviceError, Geometry, Payload, Ppa, Result, SECTOR_BYTES,
};
use ox_core::Media;
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::sync::Arc;

/// Routes one tenant's I/O through the scheduler behind the [`Media`] trait.
#[derive(Clone)]
pub struct SchedMedia {
    sched: SharedScheduler,
    tenant: TenantId,
    /// Tenant an FTL built on this media sends its background relocation
    /// through ([`Media::gc_route`]).
    gc_tenant: Option<TenantId>,
    inner: Arc<dyn Media>,
}

impl SchedMedia {
    /// Binds `tenant`'s queue on `sched`.
    pub fn new(sched: SharedScheduler, tenant: TenantId) -> Self {
        let inner = sched.with(|s| s.media());
        SchedMedia {
            sched,
            tenant,
            gc_tenant: None,
            inner,
        }
    }

    /// Binds `user`'s queue on `sched` and names `gc` — a tenant in the GC
    /// class — as the route for background relocation: an FTL formatted or
    /// recovered on this media issues foreground I/O as `user` and its GC
    /// copies, resets and scrub reads as `gc`.
    pub fn with_gc(sched: SharedScheduler, user: TenantId, gc: TenantId) -> Self {
        SchedMedia {
            gc_tenant: Some(gc),
            ..SchedMedia::new(sched, user)
        }
    }

    /// The scheduler handle (for drivers that also pump directly).
    pub fn scheduler(&self) -> &SharedScheduler {
        &self.sched
    }

    /// The bound tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Scheduler errors that are not device errors can only arise from
    /// pathological configurations (zero-rate buckets); the [`Media`]
    /// signature forces them into the string-carrying variant.
    fn map_err(e: SchedError) -> DeviceError {
        match e {
            SchedError::Device(d) => d,
            other => DeviceError::InvalidGeometry(format!("iosched: {other}")),
        }
    }

    fn wait(&self, now: SimTime, cmd: IoCmd) -> Result<Completion> {
        let c = self
            .sched
            .submit_wait(now, self.tenant, cmd)
            .map_err(Self::map_err)?;
        match c.result {
            Ok(()) => Ok(Completion {
                submitted: c.submitted,
                done: c.completed,
            }),
            Err(e) => Err(e),
        }
    }
}

impl Media for SchedMedia {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        self.write_parts(now, ppa, &[Payload::from(data)])
    }

    fn write_parts(&self, now: SimTime, ppa: Ppa, parts: &[Payload]) -> Result<Completion> {
        let parts = parts.to_vec();
        self.wait(now, IoCmd::Write { ppa, parts })
    }

    fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion> {
        let expected = sectors as usize * SECTOR_BYTES;
        if out.len() != expected {
            return Err(DeviceError::BufferSizeMismatch {
                expected,
                got: out.len(),
            });
        }
        let (data, done) = self.read_shared(now, ppa, sectors)?;
        data.copy_to(out);
        Ok(done)
    }

    fn read_shared(&self, now: SimTime, ppa: Ppa, sectors: u32) -> Result<(Payload, Completion)> {
        let expected = sectors as usize * SECTOR_BYTES;
        let c = self
            .sched
            .submit_wait(now, self.tenant, IoCmd::Read { ppa, sectors })
            .map_err(Self::map_err)?;
        match (c.result, c.data) {
            (Ok(()), Some(data)) if data.len() == expected => Ok((
                data,
                Completion {
                    submitted: c.submitted,
                    done: c.completed,
                },
            )),
            (Ok(()), got) => Err(DeviceError::BufferSizeMismatch {
                expected,
                got: got.map_or(0, |d| d.len()),
            }),
            (Err(e), _) => Err(e),
        }
    }

    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> Result<Completion> {
        self.wait(now, IoCmd::Reset { chunk })
    }

    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        self.wait(
            now,
            IoCmd::Copy {
                srcs: srcs.to_vec(),
                dst,
            },
        )
    }

    fn flush(&self, now: SimTime) -> Completion {
        self.inner.flush(now)
    }

    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
        self.inner.flush_chunk(now, chunk)
    }

    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        self.inner.chunk_info(chunk)
    }

    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        self.inner.report_all()
    }

    fn drain_events(&self) -> Vec<ocssd::MediaEvent> {
        self.inner.drain_events()
    }

    fn pu_busy_until(&self, pu: u32) -> SimTime {
        self.inner.pu_busy_until(pu)
    }

    fn chunk_health(&self, now: SimTime, chunk: ChunkAddr) -> ocssd::ChunkHealth {
        self.inner.chunk_health(now, chunk)
    }

    fn obs(&self) -> Obs {
        self.inner.obs()
    }

    fn gc_route(&self) -> Option<Arc<dyn Media>> {
        let gc = self.gc_tenant?;
        Some(Arc::new(SchedMedia::new(self.sched.clone(), gc)))
    }
}
