//! Device-level operation statistics.

use ox_sim::stats::{Counter, Histogram};

/// Aggregate statistics maintained by the device.
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// Host reads served from NAND.
    pub media_reads: Counter,
    /// Host reads served from the controller cache.
    pub cache_reads: Counter,
    /// Host writes (acknowledged at cache).
    pub writes: Counter,
    /// Chunk resets (erases).
    pub resets: Counter,
    /// Device-internal copies (sectors moved without host transfer).
    pub copies: Counter,
    /// Read latency distribution (ns).
    pub read_latency: Histogram,
    /// Write (acknowledge) latency distribution (ns).
    pub write_latency: Histogram,
    /// Writes that stalled on a full write cache.
    pub cache_stalls: u64,
    /// Chunks retired by a media failure, whatever its source (fault plan,
    /// reliability model, hard endurance limit).
    pub media_failures: u64,
    /// Program failures fired by the deterministic fault plan.
    pub injected_program_fails: u64,
    /// Uncorrectable reads fired by the fault plan.
    pub injected_read_fails: u64,
    /// Erase failures fired by the fault plan.
    pub injected_erase_fails: u64,
    /// Media ops delayed by an injected latency spike.
    pub injected_latency_spikes: u64,
    /// Power-loss cut points consumed from the fault plan.
    pub injected_power_cuts: u64,
    /// Uncorrectable reads attributed to retention by the reliability model.
    pub retention_read_errors: u64,
    /// Uncorrectable reads attributed to read disturb by the model.
    pub disturb_read_errors: u64,
    /// Uncorrectable reads attributed to wear by the model.
    pub wear_read_errors: u64,
    /// Chunks flagged refresh-due by the model (once per erase cycle).
    pub refresh_flags: u64,
    /// End-of-life erase failures drawn by the model (grown bad blocks).
    pub eol_erase_fails: u64,
}
