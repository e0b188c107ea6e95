//! Deterministic wear-coupled reliability model.
//!
//! The model is calibrated constants plus a seed, the way the NAND timings
//! are constants of the cell type ([`crate::NandProfile`]): raw
//! bit-error probability that rises with program/erase wear, retention
//! errors as a function of the virtual-time age of the data in a chunk, and
//! read-disturb errors as a function of per-chunk read counts since the last
//! erase. [`crate::DeviceConfig::reliability`] holds the seed; `None` means
//! no model. The device runs the model through a [`ReliabilityState`], which
//! draws from its own seeded PRNG (never the device RNG) and adds no timing
//! of its own — without a seed it tracks nothing and draws nothing.
//!
//! The model surfaces three ways:
//!
//! * reads of stressed chunks fail with [`crate::DeviceError::UncorrectableRead`]
//!   (retryable, like injected read faults) and are attributed to the
//!   dominant stress term in [`HealthLedger`] / `DeviceStats`;
//! * the first time a chunk's estimated error rate crosses
//!   [`REFRESH_THRESHOLD_PPM`] in an erase cycle, the device queues a
//!   [`crate::MediaEventKind::RefreshDue`] media event — the scrubber's cue
//!   to relocate the data before it becomes uncorrectable;
//! * erases fail with sharply rising probability near end of life, growing
//!   bad blocks the way a dying drive actually dies.
//!
//! The stress multiplier is `1 + wear + retention + disturb`, each term
//! weighted so that it matters within a compressed virtual-time run: data
//! left idle for 55.2 virtual seconds, 1 840 reads since erase, or wear at
//! 54 % of endurance each take a chunk from the 120 ppm base rate to the
//! refresh threshold.

use crate::chunk::ChunkState;
use ox_sim::{Prng, SimDuration, SimTime};

/// Estimated error probability is capped here (ppm of read commands): past
/// this the chunk is effectively unreadable and every command fails a coin
/// flip, not a certainty — retries and refresh still have a chance.
const MAX_ERROR_PPM: u64 = 500_000;

/// Uncorrectable-read probability per media read command on a fresh, cold,
/// unread chunk, in parts per million.
const BASE_ERROR_PPM: u64 = 120;

/// Weight of the wear term: `WEAR_WEIGHT × (wear/endurance)²`.
const WEAR_WEIGHT: f64 = 40.0;

/// Data age at which the retention term reaches weight 1×.
const RETENTION_AGE: SimDuration = SimDuration::from_secs(120);

/// Weight of the retention term: `RETENTION_WEIGHT × age/RETENTION_AGE`.
const RETENTION_WEIGHT: f64 = 25.0;

/// Reads-since-erase count at which the disturb term reaches weight 1×.
const DISTURB_LIMIT: u64 = 4_000;

/// Weight of the read-disturb term: `DISTURB_WEIGHT × reads/DISTURB_LIMIT`.
const DISTURB_WEIGHT: f64 = 25.0;

/// Estimated error rate (ppm) at which a chunk is refresh-due: the device
/// sets [`ChunkHealth::refresh_due`] and queues one
/// [`crate::MediaEventKind::RefreshDue`] per erase cycle. The host's
/// scrubber acts on that flag; it keeps no threshold of its own.
pub const REFRESH_THRESHOLD_PPM: u64 = 1_500;

/// Scale of the end-of-life erase-failure probability:
/// `EOL_ERASE_FAIL_PPM × (wear/endurance)⁴` per erase. Grown bad blocks
/// accumulate as the drive ages, before the hard endurance cliff.
const EOL_ERASE_FAIL_PPM: u64 = 250_000;

/// Which stress term dominated an uncorrectable read produced by the model
/// (attribution for the health counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// Data age (charge leakage since program).
    Retention,
    /// Reads since the last erase of the chunk.
    Disturb,
    /// Program/erase wear.
    Wear,
}

/// Outcome of the per-read reliability check.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadCheck {
    /// An uncorrectable read fired, attributed to the dominant stress term.
    pub error: Option<ReadErrorKind>,
    /// The chunk just crossed the refresh threshold for the first time this
    /// erase cycle; the device should queue a `RefreshDue` media event.
    pub refresh_flagged: bool,
}

/// Health snapshot of one chunk, combining the *report chunk* wear counter
/// with the reliability model's per-erase-cycle tracking. Without a model
/// only `state`, `write_ptr` and `wear` are meaningful.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkHealth {
    /// Current chunk state.
    pub state: ChunkState,
    /// Next writable sector.
    pub write_ptr: u32,
    /// Program/erase cycles endured.
    pub wear: u32,
    /// Media read commands since the last erase.
    pub reads_since_erase: u64,
    /// Age of the oldest data in the chunk (zero if empty or no model).
    pub data_age: SimDuration,
    /// Estimated uncorrectable-read probability per command, in ppm.
    pub error_ppm: u64,
    /// Whether the estimated error rate is past the refresh threshold.
    pub refresh_due: bool,
}

/// Counts of reliability-model events that actually fired. Tests reconcile
/// observed errors against this, like the fault ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthLedger {
    /// Uncorrectable reads attributed to retention.
    pub retention_errors: u64,
    /// Uncorrectable reads attributed to read disturb.
    pub disturb_errors: u64,
    /// Uncorrectable reads attributed to wear.
    pub wear_errors: u64,
    /// Chunks flagged refresh-due (once per erase cycle).
    pub refresh_flags: u64,
    /// End-of-life erase failures (grown bad blocks).
    pub eol_erase_fails: u64,
}

impl HealthLedger {
    /// Total events fired across every category.
    pub fn total(&self) -> u64 {
        self.retention_errors
            + self.disturb_errors
            + self.wear_errors
            + self.refresh_flags
            + self.eol_erase_fails
    }
}

/// Runtime state of the model: per-chunk read counts and data ages, plus
/// the model's own PRNG. One per device. Every method early-returns when
/// the device has no model, so an absent model costs nothing and changes
/// nothing.
pub struct ReliabilityState {
    rng: Prng,
    /// Media read commands per chunk since its last erase.
    reads: Vec<u64>,
    /// First program time per chunk since its last erase (data age anchor).
    programmed_at: Vec<Option<SimTime>>,
    /// Whether a `RefreshDue` event was already queued this erase cycle.
    flagged: Vec<bool>,
    ledger: HealthLedger,
    active: bool,
}

impl ReliabilityState {
    /// Builds the runtime for a device with `total_chunks` chunks: the
    /// model seeded with `seed`, or no model for `None`.
    pub fn new(seed: Option<u64>, total_chunks: u64) -> Self {
        let active = seed.is_some();
        let n = if active { total_chunks as usize } else { 0 };
        // Xored with a model-specific constant, so the model's draws never
        // correlate with another generator seeded alike.
        let rng = Prng::seed_from_u64(seed.unwrap_or(0) ^ 0xA6ED_0C55);
        ReliabilityState {
            rng,
            reads: vec![0; n],
            programmed_at: vec![None; n],
            flagged: vec![false; n],
            ledger: HealthLedger::default(),
            active,
        }
    }

    /// Whether the device runs the model.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Events fired so far.
    pub fn ledger(&self) -> &HealthLedger {
        &self.ledger
    }

    /// Notes a program landing on chunk `idx` at `at` (anchors data age at
    /// the first program of the erase cycle).
    pub fn note_program(&mut self, idx: usize, at: SimTime) {
        if !self.active {
            return;
        }
        if self.programmed_at[idx].is_none() {
            self.programmed_at[idx] = Some(at);
        }
    }

    /// Notes an erase of chunk `idx`: the new cycle starts cold and unread.
    pub fn note_erase(&mut self, idx: usize) {
        if !self.active {
            return;
        }
        self.reads[idx] = 0;
        self.programmed_at[idx] = None;
        self.flagged[idx] = false;
    }

    /// The three stress terms for chunk `idx` at `now`.
    fn stress_terms(&self, idx: usize, wear: u32, endurance: u32, now: SimTime) -> (f64, f64, f64) {
        let wear_f = wear as f64 / endurance.max(1) as f64;
        let wear_term = WEAR_WEIGHT * wear_f * wear_f;
        let age = self.programmed_at[idx]
            .map(|t| now.saturating_since(t))
            .unwrap_or(SimDuration::ZERO);
        let retention_term =
            RETENTION_WEIGHT * age.as_nanos() as f64 / RETENTION_AGE.as_nanos() as f64;
        let disturb_term = DISTURB_WEIGHT * self.reads[idx] as f64 / DISTURB_LIMIT as f64;
        (retention_term, disturb_term, wear_term)
    }

    /// Estimated uncorrectable-read probability (ppm per command) for chunk
    /// `idx` at `now`. Zero without a model.
    pub fn error_ppm(&self, idx: usize, wear: u32, endurance: u32, now: SimTime) -> u64 {
        if !self.active {
            return 0;
        }
        let (r, d, w) = self.stress_terms(idx, wear, endurance, now);
        let ppm = BASE_ERROR_PPM as f64 * (1.0 + r + d + w);
        (ppm as u64).min(MAX_ERROR_PPM)
    }

    /// Health snapshot of chunk `idx` (model-independent fields are filled
    /// by the device).
    pub fn chunk_health(
        &self,
        idx: usize,
        state: ChunkState,
        write_ptr: u32,
        wear: u32,
        endurance: u32,
        now: SimTime,
    ) -> ChunkHealth {
        let (reads, age) = if self.active {
            (
                self.reads[idx],
                self.programmed_at[idx]
                    .map(|t| now.saturating_since(t))
                    .unwrap_or(SimDuration::ZERO),
            )
        } else {
            (0, SimDuration::ZERO)
        };
        let error_ppm = self.error_ppm(idx, wear, endurance, now);
        ChunkHealth {
            state,
            write_ptr,
            wear,
            reads_since_erase: reads,
            data_age: age,
            error_ppm,
            refresh_due: error_ppm >= REFRESH_THRESHOLD_PPM,
        }
    }

    /// Runs the reliability check for one media read command on chunk `idx`:
    /// bumps the disturb counter, reports a first-time refresh-threshold
    /// crossing, and draws the uncorrectable-read coin. Inert without a model.
    pub fn take_read_check(
        &mut self,
        idx: usize,
        wear: u32,
        endurance: u32,
        now: SimTime,
    ) -> ReadCheck {
        if !self.active {
            return ReadCheck::default();
        }
        self.reads[idx] += 1;
        let (r, d, w) = self.stress_terms(idx, wear, endurance, now);
        let ppm = ((BASE_ERROR_PPM as f64 * (1.0 + r + d + w)) as u64).min(MAX_ERROR_PPM);
        let mut check = ReadCheck::default();
        if ppm >= REFRESH_THRESHOLD_PPM && !self.flagged[idx] {
            self.flagged[idx] = true;
            self.ledger.refresh_flags += 1;
            check.refresh_flagged = true;
        }
        if ppm > 0 && self.rng.gen_bool(ppm as f64 / 1_000_000.0) {
            let kind = if r >= d && r >= w {
                self.ledger.retention_errors += 1;
                ReadErrorKind::Retention
            } else if d >= w {
                self.ledger.disturb_errors += 1;
                ReadErrorKind::Disturb
            } else {
                self.ledger.wear_errors += 1;
                ReadErrorKind::Wear
            };
            check.error = Some(kind);
        }
        check
    }

    /// Draws the end-of-life erase-failure coin for a reset at post-reset
    /// wear `wear`: probability `EOL_ERASE_FAIL_PPM × (wear/endurance)⁴`.
    pub fn take_eol_erase_fail(&mut self, wear: u32, endurance: u32) -> bool {
        if !self.active {
            return false;
        }
        let wear_f = wear as f64 / endurance.max(1) as f64;
        let p = EOL_ERASE_FAIL_PPM as f64 / 1_000_000.0 * wear_f.powi(4);
        if p > 0.0 && self.rng.gen_bool(p.min(1.0)) {
            self.ledger.eol_erase_fails += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn disabled_model_is_inert() {
        let mut m = ReliabilityState::new(None, 64);
        assert!(!m.is_active());
        m.note_program(0, t(1));
        m.note_erase(0);
        let check = m.take_read_check(0, 100, 3000, t(10));
        assert!(check.error.is_none() && !check.refresh_flagged);
        assert!(!m.take_eol_erase_fail(2999, 3000));
        assert_eq!(m.error_ppm(0, 2999, 3000, t(1_000_000)), 0);
        assert_eq!(m.ledger().total(), 0);
        let h = m.chunk_health(0, ChunkState::Closed, 768, 5, 3000, t(100));
        assert_eq!(h.error_ppm, 0);
        assert!(!h.refresh_due);
    }

    #[test]
    fn error_rate_rises_with_each_stress_axis() {
        let mut m = ReliabilityState::new(Some(7), 8);
        let base = m.error_ppm(0, 0, 3000, t(0));
        // Wear.
        assert!(m.error_ppm(0, 3000, 3000, t(0)) > base);
        // Retention: age the data.
        m.note_program(1, t(0));
        assert!(m.error_ppm(1, 0, 3000, t(1000)) > m.error_ppm(1, 0, 3000, t(1)));
        // Read disturb: hammer the chunk.
        for _ in 0..5000 {
            let _ = m.take_read_check(2, 0, 3000, t(0));
        }
        assert!(m.error_ppm(2, 0, 3000, t(0)) > base);
        // Erase resets the cycle state.
        m.note_erase(2);
        assert_eq!(m.error_ppm(2, 0, 3000, t(0)), base);
    }

    #[test]
    fn refresh_flag_fires_once_per_erase_cycle() {
        let mut m = ReliabilityState::new(Some(3), 4);
        // A minute of retention takes fresh data past the threshold.
        m.note_program(0, t(0));
        assert!(m.error_ppm(0, 0, 3000, t(60)) >= REFRESH_THRESHOLD_PPM);
        let c1 = m.take_read_check(0, 0, 3000, t(60));
        assert!(c1.refresh_flagged);
        let c2 = m.take_read_check(0, 0, 3000, t(60));
        assert!(!c2.refresh_flagged, "flag is once per cycle");
        assert_eq!(m.ledger().refresh_flags, 1);
        m.note_erase(0);
        m.note_program(0, t(60));
        let c3 = m.take_read_check(0, 0, 3000, t(120));
        assert!(c3.refresh_flagged, "new erase cycle re-arms the flag");
    }

    #[test]
    fn eol_erase_failures_concentrate_near_end_of_life() {
        let mut young = 0;
        let mut old = 0;
        let mut m = ReliabilityState::new(Some(11), 4);
        for _ in 0..2000 {
            if m.take_eol_erase_fail(100, 3000) {
                young += 1;
            }
            if m.take_eol_erase_fail(2900, 3000) {
                old += 1;
            }
        }
        assert!(old > young * 10, "old {old} vs young {young}");
        assert_eq!(m.ledger().eol_erase_fails, (young + old) as u64);
    }

    #[test]
    fn same_seed_same_draws() {
        let run = || {
            let mut m = ReliabilityState::new(Some(42), 8);
            let mut errors = Vec::new();
            m.note_program(0, t(0));
            for i in 0..4000u64 {
                let c = m.take_read_check(0, (i / 100) as u32, 3000, t(i));
                errors.push((c.error.is_some(), c.refresh_flagged));
            }
            (errors, *m.ledger())
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn error_ppm_is_capped() {
        // Worn out and a virtual fortnight old: far past the cap.
        let mut m = ReliabilityState::new(Some(1), 2);
        m.note_program(0, t(0));
        assert_eq!(m.error_ppm(0, 3000, 3000, t(1_209_600)), MAX_ERROR_PPM);
    }
}
