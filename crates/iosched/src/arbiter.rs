//! Arbitration policies over the tenant queue heads.
//!
//! Arbiters only ever choose among *queue heads*: a tenant's own commands
//! always dispatch in submission order, which is what preserves per-chunk
//! write-pointer discipline no matter the policy (proved by the
//! `no_arbiter_reorders_writes_within_a_chunk` proptest).

use crate::config::IoClass;
use ox_sim::SimTime;

/// The arbitration policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Naive baseline: one shared queue in global submission order, queue
    /// depth 1 — the next command does not dispatch until the previous
    /// command's media completion. This is the legacy-block-stack shape the
    /// paper's host-controlled path is measured against; it also ignores
    /// the GC class, so relocation competes head-to-head with user reads.
    Fifo,
    /// Earliest-deadline-first over per-class latency targets
    /// ([`crate::ClassTargets`]); ties break by submission order.
    Deadline,
}

/// One runnable queue head offered to the arbiter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    /// Tenant index owning the head.
    pub tenant: usize,
    /// Global submission sequence number (total order tiebreak).
    pub seq: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Class deadline (`submitted + target(class)`).
    pub deadline: SimTime,
    /// Scheduling class.
    pub class: IoClass,
    /// Earliest instant the head can dispatch.
    pub start: SimTime,
}

impl ArbiterKind {
    /// The candidate that dispatches first: the least `(deadline, submitted,
    /// seq)`, with the submission time standing in for the deadline under
    /// `Fifo`. Sequence numbers are unique, so there are no ties.
    pub(crate) fn pick(self, cands: &[Candidate]) -> Option<&Candidate> {
        cands.iter().min_by_key(|c| {
            let first = match self {
                ArbiterKind::Fifo => c.submitted,
                ArbiterKind::Deadline => c.deadline,
            };
            (first, c.submitted, c.seq)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(tenant: usize, seq: u64, sub_us: u64, dl_us: u64) -> Candidate {
        Candidate {
            tenant,
            seq,
            submitted: SimTime::from_micros(sub_us),
            deadline: SimTime::from_micros(dl_us),
            class: IoClass::Read,
            start: SimTime::from_micros(sub_us),
        }
    }

    #[test]
    fn fifo_picks_global_oldest() {
        let cands = [cand(1, 7, 5, 100), cand(0, 3, 2, 100)];
        let pick = ArbiterKind::Fifo.pick(&cands).map(|c| c.tenant);
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn deadline_prefers_tighter_deadline() {
        let cands = [cand(0, 1, 0, 500), cand(1, 2, 1, 90)];
        let pick = ArbiterKind::Deadline.pick(&cands).map(|c| c.tenant);
        assert_eq!(pick, Some(1));
        assert!(ArbiterKind::Deadline.pick(&[]).is_none());
    }
}
