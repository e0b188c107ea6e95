//! Shared bounded-retry policy for transient media errors.
//!
//! Several layers defend against ECC-exhaustion flukes the same way — retry
//! the read a bounded number of times before declaring the data lost: the
//! WAL recovery scan, checkpoint loading, orphan salvage, and the data-path
//! reads of OX-Block, OX-ELEOS, LightLSM, OX-ZNS and the KV-SSD. This module is the
//! single definition of that policy — [`MAX_RETRIES`] re-submissions per
//! failing sector, at the same instant — with `retry.*` metrics so retry
//! traffic is observable wherever a registry is in scope.
//!
//! Only [`ocssd::DeviceError::UncorrectableRead`] is retried: it is the one
//! error the device contract documents as transient (the command fails at
//! submission and a retry re-arbitrates). Everything else propagates.

use crate::media::Media;
use ocssd::{Completion, DeviceError, Payload, Ppa, Result};
use ox_sim::trace::MetricsRegistry;
use ox_sim::SimTime;

/// Retries allowed per failing sector after the first attempt. The error
/// names the sector that exhausted ECC, and sectors fail independently, so
/// the budget is per sector: a multi-sector read that meets two transient
/// faults spends one budget on each instead of losing to their sum.
pub const MAX_RETRIES: u32 = 3;

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
    metrics: Option<&MetricsRegistry>,
) -> Result<RetryOutcome> {
    retry(metrics, || media.read(now, ppa, sectors, out)).map(|(completion, retries)| {
        RetryOutcome {
            completion,
            retries,
        }
    })
}

/// [`read_with_policy`] over [`Media::read_shared`]: the same attempts at
/// the same times under the same metrics, answered with a view.
pub fn read_shared_with_policy(
    media: &dyn Media,
    now: SimTime,
    ppa: Ppa,
    sectors: u32,
    metrics: Option<&MetricsRegistry>,
) -> Result<(Payload, RetryOutcome)> {
    retry(metrics, || media.read_shared(now, ppa, sectors)).map(|((view, completion), retries)| {
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
/// uncorrectable read, or one sector has failed [`MAX_RETRIES`] + 1 times.
/// Returns what the successful attempt returned and the retries it took.
fn retry<T>(
    metrics: Option<&MetricsRegistry>,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<(T, u32)> {
    let record = |name| {
        if let Some(m) = metrics {
            m.record(name, 0);
        }
    };
    // The sector each failed attempt named.
    let mut failed: Vec<Ppa> = Vec::new();
    loop {
        match attempt() {
            Ok(out) => {
                if !failed.is_empty() {
                    record("retry.read.recovered");
                }
                return Ok((out, failed.len() as u32));
            }
            Err(e @ DeviceError::UncorrectableRead(bad)) => {
                if failed.iter().filter(|&&s| s == bad).count() as u32 == MAX_RETRIES {
                    record("retry.read.exhausted");
                    return Err(e);
                }
                failed.push(bad);
                record("retry.read.retries");
            }
            Err(e) => return Err(e),
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

    /// A device with one written unit whose sectors `faults` each fail the
    /// given number of reads.
    fn media_with_faults(faults: &[(u32, u32)]) -> (OcssdMedia, Geometry, ChunkAddr) {
        let geo = Geometry::small_slc();
        let mut config = DeviceConfig::with_geometry(geo);
        let addr = ChunkAddr::new(0, 0, 0);
        config.fault = FaultPlan {
            read_fails: faults
                .iter()
                .map(|&(sector, attempts)| ReadFault {
                    ppa: addr.ppa(sector),
                    attempts,
                })
                .collect(),
            ..FaultPlan::default()
        };
        let m = OcssdMedia::new(SharedDevice::new(OcssdDevice::new(config)));
        let data = vec![7u8; geo.ws_min_bytes()];
        m.write(SimTime::ZERO, addr.ppa(0), &data).unwrap();
        (m, geo, addr)
    }

    fn read_unit(
        m: &OcssdMedia,
        geo: &Geometry,
        addr: ChunkAddr,
        reg: &MetricsRegistry,
    ) -> Result<RetryOutcome> {
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let o = read_with_policy(
            m,
            SimTime::from_secs(1),
            addr.ppa(0),
            geo.ws_min,
            &mut out,
            Some(reg),
        )?;
        assert!(out.iter().all(|&b| b == 7));
        Ok(o)
    }

    #[test]
    fn transient_fault_recovers_within_budget() {
        let (m, geo, addr) = media_with_faults(&[(0, 2)]);
        let reg = MetricsRegistry::new();
        let o = read_unit(&m, &geo, addr, &reg).unwrap();
        assert_eq!(o.retries, 2);
        assert_eq!(reg.counter("retry.read.retries").ops(), 2);
        assert_eq!(reg.counter("retry.read.recovered").ops(), 1);
        assert_eq!(reg.counter("retry.read.exhausted").ops(), 0);
    }

    #[test]
    fn permanent_fault_exhausts_budget() {
        let (m, geo, addr) = media_with_faults(&[(0, u32::MAX)]);
        let reg = MetricsRegistry::new();
        let err = read_unit(&m, &geo, addr, &reg).unwrap_err();
        assert_eq!(err, DeviceError::UncorrectableRead(addr.ppa(0)));
        assert_eq!(reg.counter("retry.read.retries").ops(), MAX_RETRIES as u64);
        assert_eq!(reg.counter("retry.read.exhausted").ops(), 1);
    }

    #[test]
    fn budget_is_counted_per_failing_sector() {
        // Two independently faulted sectors in one unit: five failed
        // attempts in all, no sector over its own budget.
        let (m, geo, addr) = media_with_faults(&[(1, 3), (2, 2)]);
        let reg = MetricsRegistry::new();
        let o = read_unit(&m, &geo, addr, &reg).unwrap();
        assert_eq!(o.retries, 5);
        assert_eq!(reg.counter("retry.read.recovered").ops(), 1);
        // One failure more on either sector is one too many.
        let (m, geo, addr) = media_with_faults(&[(1, 3), (2, 4)]);
        let err = read_unit(&m, &geo, addr, &reg).unwrap_err();
        assert_eq!(err, DeviceError::UncorrectableRead(addr.ppa(2)));
        assert_eq!(reg.counter("retry.read.exhausted").ops(), 1);
    }
}
