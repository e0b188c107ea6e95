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
/// The default is deliberately *transparent*: deadline arbitration with no
/// scope — a command submitted to an otherwise idle scheduler completes at
/// exactly the time a direct device call would report, to the nanosecond
/// (the scheduling analogue of the empty `FaultPlan`).
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Arbitration policy across tenant queue heads.
    pub arbiter: ArbiterKind,
    /// Optional attribution scope. When set, dispatch metrics are *also*
    /// recorded under `iosched.<scope>.…`, so N schedulers sharing one
    /// metrics registry (one per device, as in the lifetime figure's two
    /// legs) keep per-device queue-delay/latency distributions apart while
    /// the unscoped `iosched.*` names still aggregate them all.
    pub scope: Option<String>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::with_arbiter(ArbiterKind::Deadline)
    }
}

impl SchedConfig {
    /// Default configuration with a different arbitration policy.
    pub fn with_arbiter(arbiter: ArbiterKind) -> Self {
        SchedConfig {
            arbiter,
            scope: None,
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
    /// Bounded submission-queue depth; admission control rejects beyond it.
    pub queue_depth: usize,
    /// Whether this tenant submits in the background GC class.
    pub gc: bool,
}

impl TenantConfig {
    /// A user tenant with depth 256.
    pub fn new(name: &str) -> Self {
        TenantConfig {
            name: name.to_string(),
            queue_depth: 256,
            gc: false,
        }
    }

    /// Sets the bounded queue depth (clamped to at least 1).
    pub fn depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Marks the tenant as background GC/relocation class.
    pub fn gc_class(mut self) -> Self {
        self.gc = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_transparent() {
        let c = SchedConfig::default();
        assert_eq!(c.arbiter, ArbiterKind::Deadline);
        assert_eq!(c.scope, None);
    }

    #[test]
    fn tenant_builder_clamps() {
        let t = TenantConfig::new("a").depth(0);
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
