//! The multi-queue scheduler core.
//!
//! [`IoScheduler`] owns one bounded submission queue and one completion
//! queue per tenant and an [`ox_core::Media`] it issues against. All
//! decisions happen in virtual time: `pump(now)` dispatches every command
//! whose arbitration-determined start time is at or before `now`, and
//! `next_ready()` tells a driver when the next dispatch could happen, so
//! closed-loop actors can interleave submission and pumping without any
//! wall-clock machinery.
//!
//! Determinism: dispatch order is a pure function of the configuration and
//! the submission sequence. Decisions are taken one at a time at
//! non-decreasing issue times across all tenants, and within a tenant in
//! submission order (NVMe SQ semantics), which is what keeps per-chunk
//! write-pointer discipline intact under every arbiter.

use crate::arbiter::{ArbiterKind, Candidate};
use crate::config::{IoClass, SchedConfig, TenantConfig, TenantId, CLASS_TARGETS};
use ocssd::{ChunkAddr, Completion, DeviceError, Geometry, Payload, Ppa, SECTOR_BYTES};
use ox_core::Media;
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifies a submitted command within one scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId(pub u64);

/// A queued I/O command. Commands own their payloads because dispatch is
/// deferred past the submitting call; a write's are shared buffers, so
/// queueing them costs references, not a copy.
#[derive(Clone, Debug)]
pub enum IoCmd {
    /// Read `sectors` logical blocks starting at `ppa`.
    Read {
        /// Start address.
        ppa: Ppa,
        /// Sector count.
        sectors: u32,
    },
    /// Write the concatenation of `parts` at the chunk write pointer `ppa`
    /// (one gathered write, [`ox_core::Media::write_parts`]).
    Write {
        /// Start address (must equal the chunk's write pointer).
        ppa: Ppa,
        /// Payload, in parts (a multiple of `ws_min` sectors in all).
        parts: Vec<Payload>,
    },
    /// Device-internal scatter copy into `dst`.
    Copy {
        /// Source sectors.
        srcs: Vec<Ppa>,
        /// Destination chunk.
        dst: ChunkAddr,
    },
    /// Chunk reset (erase).
    Reset {
        /// Chunk to erase.
        chunk: ChunkAddr,
    },
}

impl IoCmd {
    fn cost_bytes(&self) -> u64 {
        match self {
            IoCmd::Read { sectors, .. } => *sectors as u64 * SECTOR_BYTES as u64,
            IoCmd::Write { parts, .. } => parts.iter().map(Payload::len).sum::<usize>() as u64,
            IoCmd::Copy { srcs, .. } => srcs.len() as u64 * SECTOR_BYTES as u64,
            IoCmd::Reset { .. } => 0,
        }
    }

    fn target_pu(&self, geo: &Geometry) -> u32 {
        match self {
            IoCmd::Read { ppa, .. } | IoCmd::Write { ppa, .. } => ppa.chunk_addr().pu_linear(geo),
            IoCmd::Copy { dst, .. } => dst.pu_linear(geo),
            IoCmd::Reset { chunk } => chunk.pu_linear(geo),
        }
    }

    fn class(&self, gc_tenant: bool) -> IoClass {
        if gc_tenant {
            IoClass::Gc
        } else {
            match self {
                IoCmd::Read { .. } => IoClass::Read,
                _ => IoClass::Write,
            }
        }
    }
}

/// Completion record with full queueing-delay attribution.
#[derive(Clone, Debug)]
pub struct IoCompletion {
    /// Command identity.
    pub id: CmdId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Scheduling class the command ran under.
    pub class: IoClass,
    /// When the command entered the submission queue.
    pub submitted: SimTime,
    /// When it won arbitration and left the queue.
    pub dispatched: SimTime,
    /// When the media finished it (device completion, or `dispatched` for a
    /// command the device rejected).
    pub media_done: SimTime,
    /// When the completion was delivered to the completion queue.
    pub completed: SimTime,
    /// Device outcome.
    pub result: Result<(), DeviceError>,
    /// Read payload (present for successful reads): a view of the media's
    /// own buffer where the media can share it.
    pub data: Option<Payload>,
}

impl IoCompletion {
    /// Time spent waiting in the submission queue.
    pub fn queue_delay(&self) -> SimDuration {
        self.dispatched.saturating_since(self.submitted)
    }

    /// End-to-end latency as the submitter observes it.
    pub fn latency(&self) -> SimDuration {
        self.completed.saturating_since(self.submitted)
    }

    /// Time spent on the media.
    pub fn media_time(&self) -> SimDuration {
        self.media_done.saturating_since(self.dispatched)
    }
}

/// Scheduler errors (admission control and plumbing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The tenant's bounded submission queue is full.
    QueueFull(TenantId),
    /// No such tenant was registered.
    UnknownTenant(TenantId),
    /// A synchronous wait ran out of dispatchable commands before its own
    /// completed. Every queued head becomes ready in finite virtual time, so
    /// this reports a scheduler bug instead of looping forever.
    Stalled(TenantId),
    /// The media rejected the command.
    Device(DeviceError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::QueueFull(t) => write!(f, "submission queue of tenant {} full", t.0),
            SchedError::UnknownTenant(t) => write!(f, "unknown tenant {}", t.0),
            SchedError::Stalled(t) => write!(f, "tenant {} cannot make progress", t.0),
            SchedError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<DeviceError> for SchedError {
    fn from(e: DeviceError) -> Self {
        SchedError::Device(e)
    }
}

/// Cumulative scheduler statistics.
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// Commands admitted into submission queues.
    pub submitted: u64,
    /// Commands dispatched to the media.
    pub dispatched: u64,
    /// Commands rejected by admission control.
    pub rejected: u64,
    /// GC-class commands dispatched.
    pub gc_dispatched: u64,
    /// Worst queueing delay seen by any command.
    pub max_queue_delay: SimDuration,
}

struct Queued {
    /// Also the global submission sequence number.
    id: CmdId,
    class: IoClass,
    submitted: SimTime,
    cmd: IoCmd,
}

struct TenantState {
    cfg: TenantConfig,
    sq: VecDeque<Queued>,
    cq: VecDeque<IoCompletion>,
}

/// The multi-queue I/O scheduler.
pub struct IoScheduler {
    cfg: SchedConfig,
    media: Arc<dyn Media>,
    geo: Geometry,
    tenants: Vec<TenantState>,
    /// Issue time of the last dispatch: no later decision issues earlier,
    /// whatever its tenant.
    last_dispatch: SimTime,
    /// FIFO (queue-depth-1) baseline: completion time of the last command.
    qd1_free: SimTime,
    next_id: u64,
    stats: SchedStats,
    obs: Obs,
}

impl IoScheduler {
    /// A scheduler over `media` with no tenants yet, reporting metrics and
    /// trace spans into the media's sinks.
    pub fn new(media: Arc<dyn Media>, cfg: SchedConfig) -> Self {
        let geo = media.geometry();
        IoScheduler {
            cfg,
            obs: media.obs(),
            media,
            geo,
            tenants: Vec::new(),
            last_dispatch: SimTime::ZERO,
            qd1_free: SimTime::ZERO,
            next_id: 0,
            stats: SchedStats::default(),
        }
    }

    /// Registers a tenant (one SQ/CQ pair); returns its id.
    pub fn add_tenant(&mut self, cfg: TenantConfig) -> TenantId {
        self.tenants.push(TenantState {
            cfg,
            sq: VecDeque::new(),
            cq: VecDeque::new(),
        });
        TenantId(self.tenants.len() - 1)
    }

    /// The media the scheduler issues against (for pass-through paths).
    pub fn media(&self) -> Arc<dyn Media> {
        Arc::clone(&self.media)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Current submission-queue depth of a tenant.
    pub fn queue_len(&self, tenant: TenantId) -> usize {
        self.tenants.get(tenant.0).map_or(0, |t| t.sq.len())
    }

    /// Admits a command into `tenant`'s submission queue. Rejects with
    /// [`SchedError::QueueFull`] past the configured depth (admission
    /// control: the backpressure signal a real SQ gives its host).
    pub fn submit(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        cmd: IoCmd,
    ) -> Result<CmdId, SchedError> {
        let cost = cmd.cost_bytes();
        let t = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(SchedError::UnknownTenant(tenant))?;
        if t.sq.len() >= t.cfg.queue_depth {
            self.stats.rejected += 1;
            self.obs.metrics.record("iosched.rejected", cost);
            return Err(SchedError::QueueFull(tenant));
        }
        let id = CmdId(self.next_id);
        self.next_id += 1;
        let class = cmd.class(t.cfg.gc);
        t.sq.push_back(Queued {
            id,
            class,
            submitted: now,
            cmd,
        });
        self.stats.submitted += 1;
        self.obs.metrics.record("iosched.submitted", cost);
        Ok(id)
    }

    /// Takes all delivered completions for `tenant`, oldest first.
    pub fn take_completions(&mut self, tenant: TenantId) -> Vec<IoCompletion> {
        self.tenants
            .get_mut(tenant.0)
            .map(|t| t.cq.drain(..).collect())
            .unwrap_or_default()
    }

    /// The head of `tenant`'s queue as the arbiter sees it, with the
    /// earliest instant it can dispatch: its `submit` time, gated by the
    /// last dispatch (decisions never go back in time), the QD-1 chain under
    /// the FIFO baseline, and — for the GC class — the target PU falling
    /// idle or the anti-starvation deadline, whichever is first.
    fn head(&self, tenant: usize) -> Option<Candidate> {
        let h = self.tenants[tenant].sq.front()?;
        let mut start = h.submitted.max(self.last_dispatch);
        if self.cfg.arbiter == ArbiterKind::Fifo {
            start = start.max(self.qd1_free);
        } else if h.class == IoClass::Gc {
            let pu_free = self.media.pu_busy_until(h.cmd.target_pu(&self.geo));
            start = start.max(pu_free.min(h.submitted + CLASS_TARGETS.gc));
        }
        Some(Candidate {
            tenant,
            seq: h.id.0,
            submitted: h.submitted,
            deadline: h.submitted + CLASS_TARGETS.target(h.class),
            class: h.class,
            start,
        })
    }

    /// Earliest virtual instant at which `pump` could dispatch anything,
    /// or `None` when every queue is empty.
    pub fn next_ready(&self) -> Option<SimTime> {
        (0..self.tenants.len())
            .filter_map(|i| self.head(i))
            .map(|c| c.start)
            .min()
    }

    /// Dispatches every command whose start time is at or before `now`,
    /// in arbitration order, delivering completions to the tenant CQs.
    pub fn pump(&mut self, now: SimTime) {
        loop {
            let mut cands: Vec<Candidate> = (0..self.tenants.len())
                .filter_map(|i| self.head(i))
                .filter(|c| c.start <= now)
                .collect();
            // The GC class yields to runnable user commands until its
            // anti-starvation deadline. The FIFO baseline deliberately has
            // no class awareness.
            if self.cfg.arbiter != ArbiterKind::Fifo && cands.iter().any(|c| c.class != IoClass::Gc)
            {
                cands.retain(|c| c.class != IoClass::Gc || c.deadline <= now);
            }
            let Some(&pick) = self.cfg.arbiter.pick(&cands) else {
                return;
            };
            self.dispatch_head(pick.tenant, pick.start);
        }
    }

    /// Pops and executes the head of `tenant`'s queue at `issue`.
    fn dispatch_head(&mut self, tenant: usize, issue: SimTime) {
        let Some(entry) = self.tenants[tenant].sq.pop_front() else {
            return;
        };
        let cost = entry.cmd.cost_bytes();
        self.last_dispatch = issue;
        let (result, media_done, data) = self.run_on_media(issue, &entry.cmd);

        self.stats.dispatched += 1;
        if entry.class == IoClass::Gc {
            self.stats.gc_dispatched += 1;
            self.obs.metrics.observe(
                "iosched.gc.hold_ns",
                issue.saturating_since(entry.submitted).as_nanos(),
            );
        }
        let qdelay = issue.saturating_since(entry.submitted);
        self.stats.max_queue_delay = self.stats.max_queue_delay.max(qdelay);
        self.obs.metrics.add("iosched.dispatched", 1, cost);
        self.obs
            .metrics
            .observe("iosched.queue_delay_ns", qdelay.as_nanos());
        self.obs.metrics.observe(
            "iosched.media_ns",
            media_done.saturating_since(issue).as_nanos(),
        );
        self.obs.metrics.observe(
            "iosched.latency_ns",
            media_done.saturating_since(entry.submitted).as_nanos(),
        );
        if let Some(scope) = &self.cfg.scope {
            // Per-shard attribution: the same samples again under the scoped
            // names, so shards sharing one registry stay distinguishable.
            self.obs
                .metrics
                .add(&format!("iosched.{scope}.dispatched"), 1, cost);
            self.obs.metrics.observe(
                &format!("iosched.{scope}.queue_delay_ns"),
                qdelay.as_nanos(),
            );
            self.obs.metrics.observe(
                &format!("iosched.{scope}.latency_ns"),
                media_done.saturating_since(entry.submitted).as_nanos(),
            );
        }
        self.obs
            .tracer
            .span(entry.submitted, issue, "iosched", "queue", cost);
        self.obs
            .tracer
            .span(issue, media_done, "iosched", "media", cost);
        self.obs
            .tracer
            .instant(media_done, "iosched", "complete", cost);

        if self.cfg.arbiter == ArbiterKind::Fifo {
            self.qd1_free = self.qd1_free.max(media_done);
        }
        self.tenants[tenant].cq.push_back(IoCompletion {
            id: entry.id,
            tenant: TenantId(tenant),
            class: entry.class,
            submitted: entry.submitted,
            dispatched: issue,
            media_done,
            completed: media_done,
            result,
            data,
        });
    }

    fn run_on_media(
        &self,
        issue: SimTime,
        cmd: &IoCmd,
    ) -> (Result<(), DeviceError>, SimTime, Option<Payload>) {
        let done = |r: ocssd::Result<Completion>| match r {
            Ok(c) => (Ok(()), c.done),
            Err(e) => (Err(e), issue),
        };
        match cmd {
            IoCmd::Read { ppa, sectors } => match self.media.read_shared(issue, *ppa, *sectors) {
                Ok((data, c)) => (Ok(()), c.done, Some(data)),
                Err(e) => (Err(e), issue, None),
            },
            IoCmd::Write { ppa, parts } => {
                let (r, t) = done(self.media.write_parts(issue, *ppa, parts));
                (r, t, None)
            }
            IoCmd::Copy { srcs, dst } => {
                let (r, t) = done(self.media.copy(issue, srcs, *dst));
                (r, t, None)
            }
            IoCmd::Reset { chunk } => {
                let (r, t) = done(self.media.reset(issue, *chunk));
                (r, t, None)
            }
        }
    }

    /// Submits and pumps until the command completes, returning its
    /// completion (the synchronous client path used by [`crate::SchedMedia`]).
    /// A full queue blocks the caller in virtual time rather than rejecting.
    pub fn submit_wait(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        cmd: IoCmd,
    ) -> Result<IoCompletion, SchedError> {
        if tenant.0 >= self.tenants.len() {
            return Err(SchedError::UnknownTenant(tenant));
        }
        while self.tenants[tenant.0].sq.len() >= self.tenants[tenant.0].cfg.queue_depth {
            let Some(t) = self.next_ready() else {
                return Err(SchedError::QueueFull(tenant));
            };
            self.pump(t);
        }
        let id = self.submit(now, tenant, cmd)?;
        loop {
            let cq = &mut self.tenants[tenant.0].cq;
            if let Some(pos) = cq.iter().position(|c| c.id == id) {
                return cq.remove(pos).ok_or(SchedError::Stalled(tenant));
            }
            let Some(t) = self.next_ready() else {
                return Err(SchedError::Stalled(tenant));
            };
            self.pump(t);
        }
    }
}

/// A scheduler shared between actors and [`crate::SchedMedia`] clients.
#[derive(Clone)]
pub struct SharedScheduler(Arc<Mutex<IoScheduler>>);

impl SharedScheduler {
    /// Wraps a scheduler for shared use.
    pub fn new(sched: IoScheduler) -> Self {
        SharedScheduler(Arc::new(Mutex::new(sched)))
    }

    /// Runs `f` with exclusive access to the scheduler.
    pub fn with<R>(&self, f: impl FnOnce(&mut IoScheduler) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// See [`IoScheduler::add_tenant`].
    pub fn add_tenant(&self, cfg: TenantConfig) -> TenantId {
        self.0.lock().add_tenant(cfg)
    }

    /// See [`IoScheduler::submit`].
    pub fn submit(&self, now: SimTime, tenant: TenantId, cmd: IoCmd) -> Result<CmdId, SchedError> {
        self.0.lock().submit(now, tenant, cmd)
    }

    /// See [`IoScheduler::submit_wait`].
    pub fn submit_wait(
        &self,
        now: SimTime,
        tenant: TenantId,
        cmd: IoCmd,
    ) -> Result<IoCompletion, SchedError> {
        self.0.lock().submit_wait(now, tenant, cmd)
    }

    /// See [`IoScheduler::pump`].
    pub fn pump(&self, now: SimTime) {
        self.0.lock().pump(now)
    }

    /// See [`IoScheduler::next_ready`].
    pub fn next_ready(&self) -> Option<SimTime> {
        self.0.lock().next_ready()
    }

    /// See [`IoScheduler::take_completions`].
    pub fn take_completions(&self, tenant: TenantId) -> Vec<IoCompletion> {
        self.0.lock().take_completions(tenant)
    }

    /// See [`IoScheduler::queue_len`].
    pub fn queue_len(&self, tenant: TenantId) -> usize {
        self.0.lock().queue_len(tenant)
    }

    /// Copy of the cumulative statistics.
    pub fn stats(&self) -> SchedStats {
        self.0.lock().stats().clone()
    }
}
