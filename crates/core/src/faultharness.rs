//! A reusable crash + fault-injection harness any FTL can run under an
//! arbitrary [`FaultPlan`].
//!
//! The harness drives a generic versioned-slot protocol against a host
//! (implemented per-FTL over its own data model): write versions to slots,
//! interleave maintenance (media-event ingestion, orphan repair), crash the
//! device at the simulation frontier — either at a seeded op index or when
//! an injected power cut fires — recover, and verify that every committed
//! version survives and no torn write ever surfaces; then run on, crash
//! and verify a second time. Every case derives entirely from one seed, so
//! a failure message names the seed to replay.
//!
//! Crashes happen at the frontier only: chunk resets (WAL truncation,
//! checkpoint recycling) mutate device state when issued and cannot be
//! rolled back, unlike cached writes. See `crash_proptests` for the full
//! argument.

use ocssd::{FaultLedger, FaultMix, FaultPlan, Geometry, SharedDevice};
use ox_sim::{Prng, SimTime};
use std::collections::BTreeMap;

/// Version number the harness stamps on the optional torn-tail write. Must
/// never surface from a read after recovery.
pub const TORN_VERSION: u32 = 0xDEAD_0000;

/// Fingerprint header length; payloads carry `slot | version | magic` in the
/// first 20 bytes and zeros after.
pub const FINGERPRINT_BYTES: usize = 20;

const FINGERPRINT_MAGIC: u64 = 0x0000_C55D_FA17;

/// Encodes a distinctive, self-identifying payload of `len` bytes for
/// version `version` of logical slot `slot`.
pub fn fingerprint(slot: u64, version: u32, len: usize) -> Vec<u8> {
    assert!(len >= FINGERPRINT_BYTES, "payload too small to fingerprint");
    let mut buf = vec![0u8; len];
    buf[..8].copy_from_slice(&slot.to_le_bytes());
    buf[8..12].copy_from_slice(&version.to_le_bytes());
    buf[12..20].copy_from_slice(&FINGERPRINT_MAGIC.to_le_bytes());
    buf
}

/// Decodes a fingerprint header: `Some((slot, version))` if the magic
/// checks out, `None` for torn or foreign bytes.
pub fn parse_fingerprint(buf: &[u8]) -> Option<(u64, u32)> {
    if buf.len() < FINGERPRINT_BYTES {
        return None;
    }
    let magic = u64::from_le_bytes(buf[12..20].try_into().ok()?);
    if magic != FINGERPRINT_MAGIC {
        return None;
    }
    let slot = u64::from_le_bytes(buf[..8].try_into().ok()?);
    let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
    Some((slot, version))
}

/// What the harness asks of a host under test. Implementations map the
/// versioned-slot protocol onto their own data model (pages for OX-Block,
/// appended buffers for OX-ELEOS, SSTables for LightLSM) and encode payloads
/// with [`fingerprint`].
pub trait FaultHost {
    /// Writes version `version` of `slot` so that a later [`FaultHost::read`]
    /// recovers it. Committed on `Ok` (must survive a crash). On `Err` the
    /// op may or may not have applied, but the host state must stay usable —
    /// typed errors only, never a panic.
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String>;

    /// Reads back `slot`: `Ok(Some(version))` for an intact fingerprint,
    /// `Ok(None)` if the slot is unknown at this layer, `Err` for torn
    /// content or an unrecovered device error.
    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String>;

    /// Housekeeping between ops: ingest media events, repair orphans,
    /// checkpoint — whatever the host does mid-workload.
    fn maintain(&mut self, now: SimTime) -> Result<SimTime, String>;

    /// Crashes the device at `now` (the frontier) and reopens the host from
    /// durable state. Returns the recovery completion time.
    fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, String>;
}

/// One fully seeded crash + fault case.
#[derive(Clone, Debug)]
pub struct FaultCase {
    /// The replay seed every assertion names.
    pub seed: u64,
    /// Faults to arm the device with (may be empty).
    pub plan: FaultPlan,
    /// `(slot, version)` schedule; versions are unique per case.
    pub ops: Vec<(u64, u32)>,
    /// Fraction of the schedule to run before the frontier crash.
    pub crash_frac: f64,
    /// Run [`FaultHost::maintain`] after every this many ops.
    pub maintain_every: usize,
    /// Issue one extra, never-committed write at the crash instant.
    pub torn_tail: bool,
}

impl FaultCase {
    /// Derives a case from `seed` alone: the fault plan (uniform over
    /// `geo` per `mix`), an op schedule over `slots` slots, the crash
    /// point, maintenance cadence, and the torn-tail coin flip.
    pub fn from_seed(seed: u64, geo: &Geometry, mix: &FaultMix, slots: u64, max_ops: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed ^ 0x5EED_CA5E);
        let n = rng.gen_range_in(5, max_ops.max(6));
        let ops = (0..n)
            .map(|i| (rng.gen_range(slots), i as u32 + 1))
            .collect();
        FaultCase {
            seed,
            plan: FaultPlan::random(seed, geo, mix),
            ops,
            crash_frac: rng.gen_f64(),
            maintain_every: rng.gen_range_in(1, 5) as usize,
            torn_tail: rng.gen_bool(0.5),
        }
    }
}

/// What a completed case observed, for reconciliation by the caller.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseReport {
    /// Ops committed (write returned `Ok`) over both legs.
    pub committed: usize,
    /// Writes that returned a typed error (fault pressure exceeded the
    /// host's failover supply — legal, as long as nothing panics and
    /// committed data survives).
    pub failed_writes: usize,
    /// Whether a crash came from an injected power cut rather than the
    /// seeded op index.
    pub power_cut: bool,
    /// The device's fault ledger at the end of the case.
    pub ledger: FaultLedger,
}

/// Runs one case end to end, in two legs: workload → frontier crash →
/// recovery → verification, then the rest of the schedule *without*
/// maintenance — so nothing checkpoints on the host's initiative between
/// the crashes — → second frontier crash → recovery → verification. The
/// second leg is what catches a recovery that only works once: state the
/// first recovery left behind (a restarted log, a recovery-time checkpoint)
/// is what the second one reads. `Err` carries a message naming `case.seed`.
///
/// The caller formats the host against `dev` (already armed with
/// `case.plan`) and hands both over; the harness owns the clock from
/// `start`.
pub fn run_case<H: FaultHost>(
    case: &FaultCase,
    dev: &SharedDevice,
    host: &mut H,
    start: SimTime,
) -> Result<CaseReport, String> {
    let seed = case.seed;
    let crash_idx = ((case.ops.len() - 1) as f64 * case.crash_frac) as usize;
    let mut committed: BTreeMap<u64, u32> = BTreeMap::new();
    // Versions whose write errored: the op may have partially applied, so a
    // later read may legally surface them.
    let mut maybe: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut report = CaseReport::default();
    let mut t = start;
    let mut issued = 0;

    for (leg, end) in [(1, crash_idx + 1), (2, case.ops.len())] {
        let first = issued;
        for &(slot, version) in &case.ops[first..end] {
            issued += 1;
            match host.write(t, slot, version) {
                Ok(done) => {
                    t = done;
                    committed.insert(slot, version);
                    report.committed += 1;
                }
                Err(_) => {
                    report.failed_writes += 1;
                    maybe.entry(slot).or_default().push(version);
                }
            }
            if leg == 1 && (issued - first) % case.maintain_every == 0 {
                t = host
                    .maintain(t)
                    .map_err(|e| format!("seed {seed}: maintenance failed: {e}"))?;
            }
            if dev.take_power_cut(t) {
                report.power_cut = true;
                break;
            }
        }

        if leg == 1 && case.torn_tail && !report.power_cut {
            if let Some(&(slot, _)) = case.ops.get(crash_idx + 1) {
                // Acknowledged after the crash instant, so the device rolls
                // it back: the torn-tail version must never surface.
                let _ = host.write(t, slot, TORN_VERSION);
            }
        }

        t = host
            .crash_and_recover(t)
            .map_err(|e| format!("seed {seed}: crash {leg}: recovery failed: {e}"))?;

        for (&slot, &v) in &committed {
            match host.read(t, slot) {
                Ok(Some(got)) => {
                    let maybe_ok = maybe
                        .get(&slot)
                        .is_some_and(|vs| vs.contains(&got) && got > v);
                    if got != v && !maybe_ok {
                        return Err(format!(
                            "seed {seed}: crash {leg}: slot {slot}: recovered v{got} != committed v{v}"
                        ));
                    }
                    if got == TORN_VERSION {
                        return Err(format!(
                            "seed {seed}: crash {leg}: slot {slot}: torn write surfaced"
                        ));
                    }
                }
                Ok(None) => {
                    return Err(format!(
                        "seed {seed}: crash {leg}: slot {slot}: committed v{v} lost"
                    ));
                }
                Err(e) => {
                    return Err(format!(
                        "seed {seed}: crash {leg}: slot {slot}: read failed after recovery: {e}"
                    ));
                }
            }
        }
    }

    report.ledger = dev.fault_ledger();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_and_rejects_torn_bytes() {
        let buf = fingerprint(42, 7, 64);
        assert_eq!(parse_fingerprint(&buf), Some((42, 7)));
        let mut torn = buf.clone();
        torn[15] ^= 0xFF; // corrupt the magic
        assert_eq!(parse_fingerprint(&torn), None);
        assert_eq!(parse_fingerprint(&buf[..10]), None);
        assert_eq!(parse_fingerprint(&[0u8; 64]), None);
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let geo = Geometry::small_slc();
        let mix = FaultMix::default();
        let a = FaultCase::from_seed(9, &geo, &mix, 64, 30);
        let b = FaultCase::from_seed(9, &geo, &mix, 64, 30);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.crash_frac, b.crash_frac);
        assert_eq!(a.maintain_every, b.maintain_every);
        assert_eq!(a.torn_tail, b.torn_tail);
        let c = FaultCase::from_seed(10, &geo, &mix, 64, 30);
        assert!(c.ops != a.ops || c.crash_frac != a.crash_frac || c.plan != a.plan);
    }
}
