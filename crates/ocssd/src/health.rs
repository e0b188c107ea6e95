//! Deterministic wear-coupled reliability model.
//!
//! A [`ReliabilityConfig`] is a *data-only* description of how the media
//! degrades, hung off [`crate::DeviceConfig`] exactly like the fault plan:
//! raw bit-error probability that rises with program/erase wear, retention
//! errors as a function of the virtual-time age of the data in a chunk, and
//! read-disturb errors as a function of per-chunk read counts since the last
//! erase. The device consumes the config through a [`ReliabilityState`],
//! which draws from its own seeded PRNG (never the device RNG) and adds no
//! timing of its own — a disabled model is byte-identical to no model, the
//! same contract `ocssd::fault` makes for an empty plan.
//!
//! The model surfaces three ways:
//!
//! * reads of stressed chunks fail with [`crate::DeviceError::UncorrectableRead`]
//!   (retryable, like injected read faults) and are attributed to the
//!   dominant stress term in [`HealthLedger`] / `DeviceStats`;
//! * the first time a chunk's estimated error rate crosses the refresh
//!   threshold in an erase cycle, the device queues a
//!   [`crate::MediaEventKind::RefreshDue`] media event — the scrubber's cue
//!   to relocate the data before it becomes uncorrectable;
//! * erases fail with sharply rising probability near end of life, growing
//!   bad blocks the way a dying drive actually dies.

use crate::chunk::ChunkState;
use ox_sim::{Prng, SimDuration, SimTime};

/// Estimated error probability is capped here (ppm of read commands): past
/// this the chunk is effectively unreadable and every command fails a coin
/// flip, not a certainty — retries and refresh still have a chance.
const MAX_ERROR_PPM: u64 = 500_000;

/// Data-only reliability model parameters. `Default` is disabled and fully
/// inert; [`ReliabilityConfig::aged`] is the preset the lifetime experiments
/// use.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliabilityConfig {
    /// Master switch. When false the device tracks nothing and draws
    /// nothing: byte-identical behaviour to a model-less device.
    pub enabled: bool,
    /// Seed for the model's own PRNG (xored with a model-specific constant,
    /// so it never correlates with the device error-model RNG).
    pub seed: u64,
    /// Uncorrectable-read probability per media read command on a fresh,
    /// cold, unread chunk, in parts per million.
    pub base_error_ppm: u64,
    /// Weight of the wear term: contributes `wear_weight × (wear/endurance)²`
    /// to the stress multiplier.
    pub wear_weight: f64,
    /// Data age at which the retention term reaches weight 1×.
    pub retention_age: SimDuration,
    /// Weight of the retention term: `retention_weight × age/retention_age`.
    pub retention_weight: f64,
    /// Reads-since-erase count at which the disturb term reaches weight 1×.
    pub disturb_limit: u64,
    /// Weight of the read-disturb term: `disturb_weight × reads/disturb_limit`.
    pub disturb_weight: f64,
    /// Estimated error rate (ppm) above which the chunk is flagged
    /// refresh-due (one [`crate::MediaEventKind::RefreshDue`] per erase cycle).
    pub refresh_threshold_ppm: u64,
    /// Scale of the end-of-life erase-failure probability:
    /// `eol_erase_fail_ppm × (wear/endurance)⁴` per erase. Grown bad blocks
    /// accumulate as the drive ages, before the hard endurance cliff.
    pub eol_erase_fail_ppm: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            enabled: false,
            seed: 0,
            base_error_ppm: 0,
            wear_weight: 0.0,
            retention_age: SimDuration::from_secs(300),
            retention_weight: 0.0,
            disturb_limit: 10_000,
            disturb_weight: 0.0,
            refresh_threshold_ppm: u64::MAX,
            eol_erase_fail_ppm: 0,
        }
    }
}

impl ReliabilityConfig {
    /// Whether the model does anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The aging preset used by the lifetime experiments: a small but
    /// non-zero base error rate that retention, read disturb and wear each
    /// amplify enough to matter within a compressed virtual-time run.
    pub fn aged(seed: u64) -> Self {
        ReliabilityConfig {
            enabled: true,
            seed,
            base_error_ppm: 120,
            wear_weight: 40.0,
            retention_age: SimDuration::from_secs(120),
            retention_weight: 25.0,
            disturb_limit: 4_000,
            disturb_weight: 25.0,
            refresh_threshold_ppm: 1_500,
            eol_erase_fail_ppm: 250_000,
        }
    }
}

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
/// with the reliability model's per-erase-cycle tracking. With the model
/// disabled only `state`, `write_ptr` and `wear` are meaningful.
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
    /// Age of the oldest data in the chunk (zero if empty or model off).
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

/// Runtime state consuming a [`ReliabilityConfig`]: per-chunk read counts
/// and data ages, plus the model's own PRNG. One per device. Every method
/// early-returns when the model is disabled, so a disabled model costs
/// nothing and changes nothing.
pub struct ReliabilityState {
    cfg: ReliabilityConfig,
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
    /// Builds the runtime for a device with `total_chunks` chunks.
    pub fn new(cfg: ReliabilityConfig, total_chunks: u64) -> Self {
        let active = cfg.is_enabled();
        let n = if active { total_chunks as usize } else { 0 };
        let rng = Prng::seed_from_u64(cfg.seed ^ 0xA6ED_0C55);
        ReliabilityState {
            cfg,
            rng,
            reads: vec![0; n],
            programmed_at: vec![None; n],
            flagged: vec![false; n],
            ledger: HealthLedger::default(),
            active,
        }
    }

    /// Whether the model is enabled.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Events fired so far.
    pub fn ledger(&self) -> &HealthLedger {
        &self.ledger
    }

    /// The config in effect.
    pub fn config(&self) -> &ReliabilityConfig {
        &self.cfg
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
        let wear_term = self.cfg.wear_weight * wear_f * wear_f;
        let age = self.programmed_at[idx]
            .map(|t| now.saturating_since(t))
            .unwrap_or(SimDuration::ZERO);
        let retention_term = self.cfg.retention_weight * age.as_nanos() as f64
            / self.cfg.retention_age.as_nanos().max(1) as f64;
        let disturb_term =
            self.cfg.disturb_weight * self.reads[idx] as f64 / self.cfg.disturb_limit.max(1) as f64;
        (retention_term, disturb_term, wear_term)
    }

    /// Estimated uncorrectable-read probability (ppm per command) for chunk
    /// `idx` at `now`. Zero when the model is disabled.
    pub fn error_ppm(&self, idx: usize, wear: u32, endurance: u32, now: SimTime) -> u64 {
        if !self.active {
            return 0;
        }
        let (r, d, w) = self.stress_terms(idx, wear, endurance, now);
        let ppm = self.cfg.base_error_ppm as f64 * (1.0 + r + d + w);
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
            refresh_due: self.active && error_ppm >= self.cfg.refresh_threshold_ppm,
        }
    }

    /// Runs the reliability check for one media read command on chunk `idx`:
    /// bumps the disturb counter, reports a first-time refresh-threshold
    /// crossing, and draws the uncorrectable-read coin. Inert when disabled.
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
        let ppm = ((self.cfg.base_error_ppm as f64 * (1.0 + r + d + w)) as u64).min(MAX_ERROR_PPM);
        let mut check = ReadCheck::default();
        if ppm >= self.cfg.refresh_threshold_ppm && !self.flagged[idx] {
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
    /// wear `wear`: probability `eol_erase_fail_ppm × (wear/endurance)⁴`.
    pub fn take_eol_erase_fail(&mut self, wear: u32, endurance: u32) -> bool {
        if !self.active || self.cfg.eol_erase_fail_ppm == 0 {
            return false;
        }
        let wear_f = wear as f64 / endurance.max(1) as f64;
        let p = self.cfg.eol_erase_fail_ppm as f64 / 1_000_000.0 * wear_f.powi(4);
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
        let mut m = ReliabilityState::new(ReliabilityConfig::default(), 64);
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
        let cfg = ReliabilityConfig::aged(7);
        let mut m = ReliabilityState::new(cfg, 8);
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
        let mut cfg = ReliabilityConfig::aged(3);
        cfg.base_error_ppm = 1000;
        cfg.refresh_threshold_ppm = 1000; // due immediately
        let mut m = ReliabilityState::new(cfg, 4);
        let c1 = m.take_read_check(0, 0, 3000, t(0));
        assert!(c1.refresh_flagged);
        let c2 = m.take_read_check(0, 0, 3000, t(0));
        assert!(!c2.refresh_flagged, "flag is once per cycle");
        assert_eq!(m.ledger().refresh_flags, 1);
        m.note_erase(0);
        let c3 = m.take_read_check(0, 0, 3000, t(0));
        assert!(c3.refresh_flagged, "new erase cycle re-arms the flag");
    }

    #[test]
    fn eol_erase_failures_concentrate_near_end_of_life() {
        let cfg = ReliabilityConfig::aged(11);
        let mut young = 0;
        let mut old = 0;
        let mut m = ReliabilityState::new(cfg, 4);
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
        let cfg = ReliabilityConfig::aged(42);
        let run = |cfg: ReliabilityConfig| {
            let mut m = ReliabilityState::new(cfg, 8);
            let mut errors = Vec::new();
            m.note_program(0, t(0));
            for i in 0..4000u64 {
                let c = m.take_read_check(0, (i / 100) as u32, 3000, t(i));
                errors.push((c.error.is_some(), c.refresh_flagged));
            }
            (errors, *m.ledger())
        };
        let (a, la) = run(cfg.clone());
        let (b, lb) = run(cfg);
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn error_ppm_is_capped() {
        let mut cfg = ReliabilityConfig::aged(1);
        cfg.base_error_ppm = 1_000_000;
        cfg.wear_weight = 1e9;
        let m = ReliabilityState::new(cfg, 2);
        assert_eq!(m.error_ppm(0, 3000, 3000, t(0)), MAX_ERROR_PPM);
    }
}
