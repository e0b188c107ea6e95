//! Shared bounded-retry policy for transient media errors.
//!
//! Several layers defend against ECC-exhaustion flukes the same way — retry
//! the read a bounded number of times before declaring the data lost: the
//! WAL recovery scan, checkpoint loading, orphan salvage, and the data-path
//! reads of OX-Block and LightLSM. This module is the single definition of
//! that policy, with knobs for the attempt budget and an optional virtual-
//! time backoff, and `retry.*` metrics so retry traffic is observable
//! wherever a registry is in scope.
//!
//! Only [`ocssd::DeviceError::UncorrectableRead`] is retried: it is the one
//! error the device contract documents as transient (the command fails at
//! submission and a retry re-arbitrates). Everything else propagates.

use crate::media::Media;
use ocssd::{Completion, DeviceError, Payload, Ppa, Result};
use ox_sim::trace::MetricsRegistry;
use ox_sim::{SimDuration, SimTime};

/// Retry knobs. The default (3 retries, no backoff) matches the bounded
/// loops this module replaced, so converting a call site changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt.
    pub max_retries: u32,
    /// Virtual time added before each retry. Zero re-submits at the same
    /// instant (the device re-arbitrates); non-zero models a host-side
    /// read-retry ramp.
    pub backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: SimDuration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// A policy with a custom retry budget and no backoff.
    pub fn with_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }
}

/// A read that eventually succeeded, and how hard it had to try.
#[derive(Clone, Copy, Debug)]
pub struct RetryOutcome {
    /// The successful completion.
    pub completion: Completion,
    /// Retries spent (0 = first attempt succeeded).
    pub retries: u32,
}

/// Reads with bounded retry on transient uncorrectable-read errors,
/// recording `retry.read.*` metrics into `metrics` when one is in scope:
/// `retry.read.retries` (re-submissions), `retry.read.recovered` (reads
/// that succeeded after at least one retry) and `retry.read.exhausted`
/// (reads that stayed uncorrectable past the budget).
pub fn read_with_policy(
    media: &dyn Media,
    now: SimTime,
    ppa: Ppa,
    sectors: u32,
    out: &mut [u8],
    policy: RetryPolicy,
    metrics: Option<&MetricsRegistry>,
) -> Result<RetryOutcome> {
    retry(now, policy, metrics, |at| media.read(at, ppa, sectors, out)).map(
        |(completion, retries)| RetryOutcome {
            completion,
            retries,
        },
    )
}

/// [`read_with_policy`] over [`Media::read_shared`]: the same attempts at
/// the same times under the same metrics, answered with a view.
pub fn read_shared_with_policy(
    media: &dyn Media,
    now: SimTime,
    ppa: Ppa,
    sectors: u32,
    policy: RetryPolicy,
    metrics: Option<&MetricsRegistry>,
) -> Result<(Payload, RetryOutcome)> {
    retry(now, policy, metrics, |at| {
        media.read_shared(at, ppa, sectors)
    })
    .map(|((view, completion), retries)| {
        (
            view,
            RetryOutcome {
                completion,
                retries,
            },
        )
    })
}

/// Runs `attempt` until it succeeds, fails with anything but an
/// uncorrectable read, or the budget is spent. Returns what the successful
/// attempt returned and the retries it took.
fn retry<T>(
    now: SimTime,
    policy: RetryPolicy,
    metrics: Option<&MetricsRegistry>,
    mut attempt: impl FnMut(SimTime) -> Result<T>,
) -> Result<(T, u32)> {
    let mut retries = 0u32;
    let mut at = now;
    loop {
        match attempt(at) {
            Ok(out) => {
                if retries > 0 {
                    if let Some(m) = metrics {
                        m.record("retry.read.recovered", 0);
                    }
                }
                return Ok((out, retries));
            }
            Err(DeviceError::UncorrectableRead(_)) if retries < policy.max_retries => {
                retries += 1;
                at += policy.backoff;
                if let Some(m) = metrics {
                    m.record("retry.read.retries", 0);
                }
            }
            Err(e) => {
                if let Some(m) = metrics {
                    if matches!(e, DeviceError::UncorrectableRead(_)) {
                        m.record("retry.read.exhausted", 0);
                    }
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::OcssdMedia;
    use ocssd::{
        ChunkAddr, DeviceConfig, FaultPlan, Geometry, OcssdDevice, ReadFault, SharedDevice,
    };

    fn media_with_fault(attempts: u32) -> (OcssdMedia, Geometry, ChunkAddr) {
        let geo = Geometry::small_slc();
        let mut config = DeviceConfig::with_geometry(geo);
        let addr = ChunkAddr::new(0, 0, 0);
        config.fault = FaultPlan {
            read_fails: vec![ReadFault {
                ppa: addr.ppa(0),
                attempts,
            }],
            ..FaultPlan::default()
        };
        let m = OcssdMedia::new(SharedDevice::new(OcssdDevice::new(config)));
        let data = vec![7u8; geo.ws_min_bytes()];
        m.write(SimTime::ZERO, addr.ppa(0), &data).unwrap();
        (m, geo, addr)
    }

    #[test]
    fn transient_fault_recovers_within_budget() {
        let (m, geo, addr) = media_with_fault(2);
        let reg = MetricsRegistry::new();
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let o = read_with_policy(
            &m,
            SimTime::from_secs(1),
            addr.ppa(0),
            geo.ws_min,
            &mut out,
            RetryPolicy::default(),
            Some(&reg),
        )
        .unwrap();
        assert_eq!(o.retries, 2);
        assert_eq!(out[0], 7);
        assert_eq!(reg.counter("retry.read.retries").ops(), 2);
        assert_eq!(reg.counter("retry.read.recovered").ops(), 1);
        assert_eq!(reg.counter("retry.read.exhausted").ops(), 0);
    }

    #[test]
    fn permanent_fault_exhausts_budget() {
        let (m, geo, addr) = media_with_fault(u32::MAX);
        let reg = MetricsRegistry::new();
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let err = read_with_policy(
            &m,
            SimTime::from_secs(1),
            addr.ppa(0),
            geo.ws_min,
            &mut out,
            RetryPolicy::with_retries(2),
            Some(&reg),
        )
        .unwrap_err();
        assert!(matches!(err, DeviceError::UncorrectableRead(_)));
        assert_eq!(reg.counter("retry.read.retries").ops(), 2);
        assert_eq!(reg.counter("retry.read.exhausted").ops(), 1);
    }

    #[test]
    fn backoff_advances_virtual_time() {
        let (m, geo, addr) = media_with_fault(1);
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let start = SimTime::from_secs(1);
        let o = read_with_policy(
            &m,
            start,
            addr.ppa(0),
            geo.ws_min,
            &mut out,
            RetryPolicy {
                max_retries: 3,
                backoff: SimDuration::from_micros(100),
            },
            None,
        )
        .unwrap();
        assert_eq!(o.retries, 1);
        assert!(o.completion.submitted >= start + SimDuration::from_micros(100));
    }

    #[test]
    fn zero_retry_policy_fails_fast() {
        let (m, geo, addr) = media_with_fault(1);
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let err = read_with_policy(
            &m,
            SimTime::from_secs(1),
            addr.ppa(0),
            geo.ws_min,
            &mut out,
            RetryPolicy::with_retries(0),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, DeviceError::UncorrectableRead(_)));
    }
}
