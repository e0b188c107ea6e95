//! Scheduler and tenant configuration.

use crate::arbiter::ArbiterKind;
use ox_sim::SimDuration;

/// Identifies a tenant (one submission/completion queue pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub usize);

/// Scheduling class of a command. User reads and writes carry different
/// latency targets; `Gc` marks background relocation that must never starve
/// user traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoClass {
    /// Foreground read.
    Read,
    /// Foreground write, reset or host-issued copy.
    Write,
    /// Background GC/relocation (copy + reset). Dispatched at idle parallel
    /// units or when no user command is runnable; forced through once its
    /// anti-starvation deadline passes.
    Gc,
}

/// Token-bucket rate limit for one tenant, in virtual-time bytes per second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained rate in bytes per virtual second.
    pub bytes_per_sec: u64,
    /// Bucket capacity: the largest burst admitted at line rate.
    pub burst_bytes: u64,
}

/// Per-class latency targets used by the deadline arbiter. A command's
/// deadline is `submit + target(class)`; the GC target doubles as the
/// anti-starvation bound for the background class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassTargets {
    /// Deadline offset for foreground reads.
    pub read: SimDuration,
    /// Deadline offset for foreground writes/resets/copies.
    pub write: SimDuration,
    /// Deadline offset (and starvation bound) for GC relocation.
    pub gc: SimDuration,
}

/// The targets every scheduler arbitrates by.
pub const CLASS_TARGETS: ClassTargets = ClassTargets {
    read: SimDuration::from_micros(200),
    write: SimDuration::from_millis(1),
    gc: SimDuration::from_millis(20),
};

impl ClassTargets {
    /// The deadline offset for `class`.
    pub fn target(&self, class: IoClass) -> SimDuration {
        match class {
            IoClass::Read => self.read,
            IoClass::Write => self.write,
            IoClass::Gc => self.gc,
        }
    }
}

/// Scheduler-wide configuration.
///
/// The default is deliberately *transparent*: pipelined round-robin over the
/// tenants, zero dispatch overhead, no rate limits — a command submitted to
/// an otherwise idle scheduler completes at exactly the time a direct device
/// call would report, to the nanosecond (the scheduling analogue of the
/// empty `FaultPlan`).
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Arbitration policy across tenant queue heads.
    pub arbiter: ArbiterKind,
    /// CPU cost of one dispatch decision, serialized on the dispatch
    /// timeline (models the submission-thread bottleneck). Zero by default.
    pub dispatch_overhead: SimDuration,
    /// Optional attribution scope. When set, dispatch metrics are *also*
    /// recorded under `iosched.<scope>.…`, so N schedulers sharing one
    /// metrics registry (one per shard of a sharded serving layer) keep
    /// per-shard queue-delay/latency distributions apart while the unscoped
    /// `iosched.*` names still aggregate the whole fleet.
    pub scope: Option<String>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            arbiter: ArbiterKind::RoundRobin,
            dispatch_overhead: SimDuration::ZERO,
            scope: None,
        }
    }
}

impl SchedConfig {
    /// Default configuration with a different arbitration policy.
    pub fn with_arbiter(arbiter: ArbiterKind) -> Self {
        SchedConfig {
            arbiter,
            ..SchedConfig::default()
        }
    }

    /// Attaches an attribution scope (see [`SchedConfig::scope`]).
    pub fn scoped(mut self, scope: &str) -> Self {
        self.scope = Some(scope.to_string());
        self
    }
}

/// Per-tenant queue configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Display name, used in stats and bench tables.
    pub name: String,
    /// Weight under weighted round-robin (commands per deficit refill).
    pub weight: u32,
    /// Bounded submission-queue depth; admission control rejects beyond it.
    pub queue_depth: usize,
    /// Optional token-bucket rate limit.
    pub rate: Option<RateLimit>,
    /// Whether this tenant submits in the background GC class.
    pub gc: bool,
}

impl TenantConfig {
    /// A user tenant with weight 1, depth 256 and no rate limit.
    pub fn new(name: &str) -> Self {
        TenantConfig {
            name: name.to_string(),
            weight: 1,
            queue_depth: 256,
            rate: None,
            gc: false,
        }
    }

    /// Sets the weighted-round-robin weight (clamped to at least 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the bounded queue depth (clamped to at least 1).
    pub fn depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Attaches a token-bucket rate limit.
    pub fn rate(mut self, limit: RateLimit) -> Self {
        self.rate = Some(limit);
        self
    }

    /// Marks the tenant as background GC/relocation class.
    pub fn gc_class(mut self) -> Self {
        self.gc = true;
        self
    }
}

/// Arbiter leg of the CI qos matrix: `OX_QOS_ARBITER=fifo|rr|wrr|deadline`
/// (default round-robin). QoS property tests build their scheduler from this
/// so one binary covers the whole grid, mirroring `ocssd::matrix_geometry`.
pub fn matrix_arbiter() -> ArbiterKind {
    std::env::var("OX_QOS_ARBITER")
        .ok()
        .and_then(|v| ArbiterKind::parse(&v))
        .unwrap_or(ArbiterKind::RoundRobin)
}

/// Tenant-count leg of the CI qos matrix: `OX_QOS_TENANTS=n` (default 3,
/// clamped to `[2, 8]` so the properties stay meaningful).
pub fn matrix_tenants() -> usize {
    std::env::var("OX_QOS_TENANTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(3)
        .clamp(2, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_transparent() {
        let c = SchedConfig::default();
        assert_eq!(c.arbiter, ArbiterKind::RoundRobin);
        assert_eq!(c.dispatch_overhead, SimDuration::ZERO);
    }

    #[test]
    fn tenant_builder_clamps() {
        let t = TenantConfig::new("a").weight(0).depth(0);
        assert_eq!(t.weight, 1);
        assert_eq!(t.queue_depth, 1);
        assert!(!t.gc);
        assert!(TenantConfig::new("g").gc_class().gc);
    }

    #[test]
    fn targets_by_class() {
        let t = CLASS_TARGETS;
        assert!(t.target(IoClass::Read) < t.target(IoClass::Write));
        assert!(t.target(IoClass::Write) < t.target(IoClass::Gc));
    }
}
