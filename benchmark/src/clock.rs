//! The only place oxperf reads the host clock (and host memory). Everything
//! else in the repository runs on `ox_sim::SimTime`; the benchmark's second
//! clock — simulator speed — needs the real one, so the reads are confined
//! here behind oxcheck pragmas.

use std::sync::OnceLock;
// oxcheck:allow(wall_clock): the benchmark's wall clock; see module docs.
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic host nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    // oxcheck:allow(wall_clock): the benchmark's wall clock; see module docs.
    let now = Instant::now();
    now.duration_since(*ANCHOR.get_or_init(|| now)).as_nanos() as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
