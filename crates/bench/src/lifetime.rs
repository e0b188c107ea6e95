//! Device-lifetime robustness: wear-coupled aging under sustained zipfian
//! overwrite, with and without background scrub + wear-aware GC.
//!
//! The simulated drive runs the [`ocssd::ReliabilityConfig::aged`] model —
//! retention errors grow with virtual-time data age, read disturb with
//! per-chunk reads since erase, and the raw bit-error floor with P/E wear.
//! Two identical workloads (same seeds, same zipfian trace) run against it:
//!
//! * **scrub-off** — plain greedy GC, no patrol reads, no refresh.
//! * **scrub-on** — OX-Block's background scrubber patrol-reads through the
//!   GC-class iosched tenant, refresh-relocates chunks past the error
//!   threshold, and GC victim selection carries a wear bias.
//!
//! Each leg fills the device to `fill_pct` (the `OX_AGE_FILL` matrix leg,
//! default 90 %), then runs windowed zipfian overwrite to GC steady state
//! with idle virtual time injected between windows so retention ages the
//! cold majority of the data. Per window we report write amplification,
//! throughput and a probe-read error rate; at end of life, the wear spread
//! across every chunk and a larger read-error probe. The reproduction
//! target: scrub-on holds the end-of-life read error rate well under
//! scrub-off at equal workload, and both legs reach a steady WAF.

use crate::Report;
use iosched::{ArbiterKind, IoScheduler, SchedConfig, SchedMedia, SharedScheduler, TenantConfig};
use ocssd::{
    ChunkAddr, ChunkState, DeviceConfig, Geometry, Obs, ReliabilityConfig, SharedDevice,
    SECTOR_BYTES,
};
use ox_block::{BlockFtl, BlockFtlConfig, BlockFtlError, ScrubConfig};
use ox_core::media::OcssdMedia;
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

/// Experiment sizing. The drive is a compact SLC layout (192 chunks of
/// 192 sectors) with endurance lowered to 50 cycles so a bench-sized churn
/// covers a meaningful fraction of device life.
#[derive(Clone, Debug)]
pub struct LifetimeConfig {
    /// Percentage of the logical space pre-filled (the `OX_AGE_FILL` leg).
    pub fill_pct: u32,
    /// Zipfian overwrite units (`ws_min` pages each) per window.
    pub churn_per_window: usize,
    /// Number of overwrite windows.
    pub windows: usize,
    /// Probe reads per window (error-rate sample).
    pub probe_reads: usize,
    /// Probe reads for the final end-of-life sample.
    pub eol_probe_reads: usize,
    /// Maintenance (events + checkpoint + GC + scrub step) cadence, in
    /// overwrite units.
    pub maintain_every: usize,
    /// Base seed: the reliability model and the zipfian trace derive from
    /// it.
    pub seed: u64,
}

impl LifetimeConfig {
    /// Full-size run (the figure).
    pub fn standard() -> Self {
        LifetimeConfig {
            fill_pct: ocssd::matrix_age_fill(),
            churn_per_window: 1200,
            windows: 10,
            probe_reads: 400,
            eol_probe_reads: 2000,
            maintain_every: 32,
            seed: 0x11FE_71AE,
        }
    }

    /// Smaller run with the same shapes (`--quick` / CI smoke).
    pub fn quick() -> Self {
        LifetimeConfig {
            churn_per_window: 400,
            windows: 6,
            probe_reads: 200,
            eol_probe_reads: 800,
            ..Self::standard()
        }
    }
}

/// Idle virtual time injected after each window (retention aging).
const IDLE_PER_WINDOW: SimDuration = SimDuration::from_secs(30);

/// One overwrite window of one leg.
#[derive(Clone, Debug)]
pub struct WindowRow {
    /// Window index, 0-based.
    pub window: usize,
    /// Overwrite units completed (0 once the leg degraded).
    pub ops: usize,
    /// Cumulative write amplification at window end.
    pub waf_cum: f64,
    /// Write amplification of this window alone.
    pub waf_window: f64,
    /// Overwrite units per virtual second of I/O time (idle excluded).
    pub ops_per_vsec: f64,
    /// Reliability-model read errors per million probe reads.
    pub probe_err_ppm: u64,
    /// Refresh backlog (device estimate) at window end.
    pub refresh_backlog: u64,
}

/// Whole-leg outcome.
#[derive(Clone, Debug)]
pub struct LegResult {
    /// Leg label (`scrub-off` / `scrub-on`).
    pub name: &'static str,
    /// Per-window rows.
    pub windows: Vec<WindowRow>,
    /// End-of-life read errors per million probe reads (sampled — noisy at
    /// bench sizes; the deterministic estimate below is the acceptance
    /// metric).
    pub eol_err_ppm: u64,
    /// Probe reads that stayed uncorrectable through FTL read-retry.
    pub eol_failed_reads: u64,
    /// Mean device-estimated error rate (ppm per read command) over every
    /// closed chunk at end of life — deterministic, no sampling noise.
    pub eol_est_ppm: u64,
    /// Minimum chunk wear at end of run.
    pub wear_min: u32,
    /// Maximum chunk wear at end of run.
    pub wear_max: u32,
    /// Mean chunk wear at end of run.
    pub wear_mean: f64,
    /// Chunks refresh-relocated by the scrubber.
    pub scrub_refreshes: u64,
    /// Grown bad blocks at end of run.
    pub grown_bad_blocks: u64,
    /// Whether the store degraded to read-only during the leg.
    pub degraded: bool,
    /// Total overwrite units completed.
    pub total_ops: u64,
}

impl LegResult {
    /// Wear spread (max − min): the wear-leveling figure of merit.
    pub fn wear_spread(&self) -> u32 {
        self.wear_max.saturating_sub(self.wear_min)
    }

    /// Cumulative WAF at end of run.
    pub fn final_waf(&self) -> f64 {
        self.windows.last().map(|w| w.waf_cum).unwrap_or(0.0)
    }

    /// Whether the mean WAF of the last two windows agrees with the mean of
    /// the two before within 30 % — the steady-state criterion. Pair means
    /// (rather than adjacent windows) because the idle gap between windows
    /// makes scrub/GC work alternate with a period of two: the oscillation
    /// is the steady state.
    pub fn reached_steady_state(&self) -> bool {
        let n = self.windows.len();
        if n < 4 {
            return false;
        }
        let pair = |i: usize| (self.windows[i].waf_window + self.windows[i + 1].waf_window) / 2.0;
        let (a, b) = (pair(n - 4), pair(n - 2));
        a > 0.0 && b > 0.0 && (a - b).abs() / a.max(b) <= 0.30
    }
}

/// Both legs over the identical workload.
#[derive(Clone, Debug)]
pub struct LifetimeResult {
    /// scrub-off leg.
    pub off: LegResult,
    /// scrub-on leg.
    pub on: LegResult,
}

/// The compact aged drive both legs run on.
pub fn lifetime_geometry() -> Geometry {
    let mut geo = Geometry::small_slc();
    geo.chunks_per_pu = 24;
    geo.sectors_per_chunk = 192;
    geo.endurance = 50;
    geo
}

/// Logical capacity exposed by each leg's FTL: 96 MiB over the 144 MiB
/// drive (~26 % over-provisioning after metadata), enough GC pressure for a
/// visible steady-state WAF.
const LOGICAL_BYTES: u64 = 96 << 20;

/// Zipfian sampler over ranked units (θ = 0.99), ranks scattered over the
/// keyspace by a multiplicative hash so the hot set is not one contiguous
/// extent.
struct Zipf {
    cum: Vec<f64>,
    n: usize,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cum.push(acc);
        }
        for c in &mut cum {
            *c /= acc;
        }
        Zipf { cum, n }
    }

    fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.gen_range(1 << 53) as f64 / (1u64 << 53) as f64;
        let rank = self.cum.partition_point(|&c| c < u).min(self.n - 1);
        rank.wrapping_mul(0x9E37_79B1) % self.n
    }
}

struct Leg {
    dev: SharedDevice,
    ftl: BlockFtl,
    scrub_on: bool,
}

/// Builds one leg's stack: aged device, iosched with a user tenant and a
/// GC-class tenant (GC copies *and* scrub patrol reads flow through the
/// latter), OX-Block FTL with the leg's scrub + wear-bias policy.
fn build_leg(cfg: &LifetimeConfig, scrub_on: bool, obs: &Obs, now: SimTime) -> (Leg, SimTime) {
    let geo = lifetime_geometry();
    let mut dc = DeviceConfig::with_geometry(geo);
    dc.reliability = ReliabilityConfig::aged(cfg.seed ^ 0xA6ED);
    let dev = crate::figure_device(dc, obs);
    let scope = if scrub_on { "scrub-on" } else { "scrub-off" };
    let base: Arc<dyn ox_core::Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let mut sched = IoScheduler::new(
        base,
        SchedConfig::with_arbiter(ArbiterKind::Deadline).scoped(scope),
    );
    let user = sched.add_tenant(TenantConfig::new("user").depth(4096));
    let gc = sched.add_tenant(TenantConfig::new("gc").depth(4096).gc_class());
    let media = Arc::new(SchedMedia::with_gc(SharedScheduler::new(sched), user, gc));

    let mut fc = BlockFtlConfig::with_capacity(LOGICAL_BYTES);
    if scrub_on {
        fc.scrub = ScrubConfig {
            enabled: true,
            chunks_per_step: 24,
            refreshes_per_step: 4,
            error_ppm_threshold: 1_500,
        };
        fc.gc.wear_bias = 2;
    }
    let (ftl, done) = BlockFtl::format(media, fc, now).expect("format lifetime leg");
    (Leg { dev, ftl, scrub_on }, done)
}

/// Total reliability-model read errors fired so far on the leg's device.
fn ledger_read_errors(dev: &SharedDevice) -> u64 {
    let l = dev.health_ledger();
    l.retention_errors + l.disturb_errors + l.wear_errors
}

/// `probes` reads of random live units; returns (model errors per million
/// probe reads, reads still failing after FTL read-retry, completion time).
fn probe_errors(
    leg: &mut Leg,
    rng: &mut Prng,
    live_units: u64,
    probes: usize,
    mut t: SimTime,
) -> (u64, u64, SimTime) {
    let before = ledger_read_errors(&leg.dev);
    let mut failed = 0u64;
    let mut buf = vec![0u8; SECTOR_BYTES];
    for _ in 0..probes {
        let lpn = rng.gen_range(live_units) * 4;
        match leg.ftl.read(t, lpn, &mut buf) {
            Ok(c) => t = c.done,
            Err(_) => failed += 1,
        }
    }
    let fired = ledger_read_errors(&leg.dev) - before;
    let ppm = if probes == 0 {
        0
    } else {
        fired * 1_000_000 / probes as u64
    };
    (ppm, failed, t)
}

/// One maintenance beat: media events, checkpoint, GC, one scrub step.
/// Spare exhaustion (read-only degradation) is terminal but not fatal —
/// the leg keeps probing.
fn maintain(leg: &mut Leg, t: SimTime) -> Result<SimTime, BlockFtlError> {
    let mut t = match leg.ftl.repair_media_events(t) {
        Ok((done, _, _)) => done,
        Err(BlockFtlError::ReadOnly) => t,
        Err(e) => return Err(e),
    };
    if let Some(done) = leg.ftl.maybe_checkpoint(t)? {
        t = done;
    }
    match leg.ftl.maybe_gc(t) {
        Ok(Some(pass)) => t = t.max(pass.done),
        Ok(None) | Err(BlockFtlError::ReadOnly) => {}
        Err(e) => return Err(e),
    }
    if leg.scrub_on {
        match leg.ftl.scrub_step(t) {
            Ok(rep) => t = t.max(rep.done),
            Err(BlockFtlError::ReadOnly) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(t)
}

/// Runs one leg of the experiment.
fn run_leg(cfg: &LifetimeConfig, scrub_on: bool, obs: &Obs) -> LegResult {
    let (mut leg, mut t) = build_leg(cfg, scrub_on, obs, SimTime::ZERO);
    let geo = lifetime_geometry();
    let name = if scrub_on { "scrub-on" } else { "scrub-off" };

    let unit_pages = geo.ws_min as u64; // 4 pages = 16 KiB per unit
    let logical_units = LOGICAL_BYTES / (unit_pages * SECTOR_BYTES as u64);
    let fill_units = logical_units * cfg.fill_pct as u64 / 100;
    let data = vec![if scrub_on { 0xB5 } else { 0xA5 }; unit_pages as usize * SECTOR_BYTES];

    let mut degraded = false;
    // Fill phase: sequential units up to the fill mark.
    for u in 0..fill_units {
        match leg.ftl.write(t, u * unit_pages, &data) {
            Ok(out) => t = out.done,
            Err(BlockFtlError::ReadOnly) => {
                degraded = true;
                break;
            }
            Err(e) => panic!("fill write failed: {e}"),
        }
        if (u as usize).is_multiple_of(cfg.maintain_every) {
            t = maintain(&mut leg, t).expect("fill maintenance");
        }
    }

    let zipf = Zipf::new(fill_units as usize, 0.99);
    let mut wrng = Prng::seed_from_u64(cfg.seed ^ 0x217F_0001);
    let mut prng = Prng::seed_from_u64(cfg.seed ^ 0x217F_0002);

    let mut windows = Vec::with_capacity(cfg.windows);
    let mut total_ops = 0u64;
    let mut last_phys = 0u64;
    let mut last_logical = 0u64;
    for w in 0..cfg.windows {
        let w_start = t;
        let mut ops = 0usize;
        if !degraded {
            for i in 0..cfg.churn_per_window {
                let unit = zipf.sample(&mut wrng) as u64;
                match leg.ftl.write(t, unit * unit_pages, &data) {
                    Ok(out) => {
                        t = out.done;
                        ops += 1;
                    }
                    Err(BlockFtlError::ReadOnly) => {
                        degraded = true;
                        break;
                    }
                    Err(e) => panic!("churn write failed: {e}"),
                }
                if i.is_multiple_of(cfg.maintain_every) {
                    t = maintain(&mut leg, t).expect("churn maintenance");
                }
            }
        }
        total_ops += ops as u64;
        let io_time = t.saturating_since(w_start);
        // Retention aging between windows: the cold majority of the data
        // sits for another idle period.
        t += IDLE_PER_WINDOW;
        t = maintain(&mut leg, t).expect("window maintenance");
        let (probe_ppm, _failed, done) =
            probe_errors(&mut leg, &mut prng, fill_units, cfg.probe_reads, t);
        t = done;

        let s = leg.ftl.stats();
        let phys = s.physical_user_writes.bytes() + s.gc_writes.bytes() + s.metadata_writes.bytes();
        let logical = s.user_writes.bytes();
        let dp = phys - last_phys;
        let dl = logical - last_logical;
        last_phys = phys;
        last_logical = logical;
        windows.push(WindowRow {
            window: w,
            ops,
            waf_cum: s.waf(),
            waf_window: if dl == 0 { 0.0 } else { dp as f64 / dl as f64 },
            ops_per_vsec: if io_time.as_nanos() == 0 {
                0.0
            } else {
                ops as f64 * 1e9 / io_time.as_nanos() as f64
            },
            probe_err_ppm: probe_ppm,
            refresh_backlog: leg.dev.refresh_backlog(t),
        });
    }

    // End-of-life probe: a larger sample after the final window.
    let (eol_ppm, eol_failed, done) =
        probe_errors(&mut leg, &mut prng, fill_units, cfg.eol_probe_reads, t);
    t = done;

    // Wear + estimated-error sweep over every chunk.
    let (mut wmin, mut wmax, mut wsum, mut counted) = (u32::MAX, 0u32, 0u64, 0u64);
    let (mut est_sum, mut est_n) = (0u64, 0u64);
    for lin in 0..geo.total_chunks() {
        let h = leg.dev.chunk_health(t, ChunkAddr::from_linear(&geo, lin));
        if h.state == ChunkState::Offline {
            continue;
        }
        wmin = wmin.min(h.wear);
        wmax = wmax.max(h.wear);
        wsum += h.wear as u64;
        counted += 1;
        if h.state == ChunkState::Closed {
            est_sum += h.error_ppm;
            est_n += 1;
        }
    }
    let name_scope = name;
    leg.dev.publish_pu_metrics_as(name_scope, t);
    leg.dev.publish_health_metrics_as(name_scope, t);

    let s = leg.ftl.stats();
    LegResult {
        name,
        windows,
        eol_err_ppm: eol_ppm,
        eol_failed_reads: eol_failed,
        eol_est_ppm: est_sum / est_n.max(1),
        wear_min: if counted == 0 { 0 } else { wmin },
        wear_max: wmax,
        wear_mean: if counted == 0 {
            0.0
        } else {
            wsum as f64 / counted as f64
        },
        scrub_refreshes: s.scrub_refreshes,
        grown_bad_blocks: leg.dev.grown_bad_blocks(),
        degraded: degraded || leg.ftl.is_degraded(),
        total_ops,
    }
}

/// Runs both legs, reporting into `obs`.
pub fn run(cfg: &LifetimeConfig, obs: &Obs) -> LifetimeResult {
    LifetimeResult {
        off: run_leg(cfg, false, obs),
        on: run_leg(cfg, true, obs),
    }
}

fn leg_rows(leg: &LegResult, widths: &[usize], out: &mut Report) {
    for w in &leg.windows {
        out.row(
            &[
                leg.name.to_string(),
                w.window.to_string(),
                w.ops.to_string(),
                format!("{:.2}", w.waf_window),
                format!("{:.2}", w.waf_cum),
                format!("{:.0}", w.ops_per_vsec),
                w.probe_err_ppm.to_string(),
                w.refresh_backlog.to_string(),
            ],
            widths,
        );
    }
}

/// The `fig_lifetime` figure: [`run`], with the per-window table and the
/// end-of-life summary of both legs written to `out`.
pub fn report(cfg: &LifetimeConfig, obs: &Obs, out: &mut Report) {
    out.line(format!(
        "lifetime — aged drive at {} % fill, zipfian overwrite to GC steady state\n",
        cfg.fill_pct
    ));
    let r = run(cfg, obs);

    let widths = [10usize, 6, 7, 8, 8, 10, 12, 11];
    out.row(
        &[
            "leg",
            "window",
            "ops",
            "WAF(w)",
            "WAF(Σ)",
            "ops/vsec",
            "err (ppm)",
            "backlog",
        ],
        &widths,
    );
    out.sep(&widths);
    leg_rows(&r.off, &widths, out);
    leg_rows(&r.on, &widths, out);

    for leg in [&r.off, &r.on] {
        out.line(format!(
            "\n{}: WAF {:.2} ({}), wear {}..{} (mean {:.1}, spread {}), \
             eol err {} ppm, {} scrub refreshes, {} grown bad blocks{}",
            leg.name,
            leg.final_waf(),
            if leg.reached_steady_state() {
                "steady"
            } else {
                "NOT steady"
            },
            leg.wear_min,
            leg.wear_max,
            leg.wear_mean,
            leg.wear_spread(),
            leg.eol_est_ppm,
            leg.scrub_refreshes,
            leg.grown_bad_blocks,
            if leg.degraded {
                " — DEGRADED to read-only"
            } else {
                ""
            },
        ));
    }
    out.line(format!(
        "\nend-of-life read error rate (estimated): scrub-off {} ppm vs scrub-on {} ppm",
        r.off.eol_est_ppm, r.on.eol_est_ppm
    ));
    out.line(format!(
        "end-of-life read error rate (sampled, {} probes): scrub-off {} ppm vs scrub-on {} ppm",
        cfg.eol_probe_reads, r.off.eol_err_ppm, r.on.eol_err_ppm
    ));
    out.line("(the robustness claim: patrol reads + refresh relocation + wear-biased victim");
    out.line(" selection hold the error floor down over the device's life; without them the");
    out.line(" cold majority of the data ages toward the uncorrectable cliff)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_and_leveling_beat_the_unscrubbed_leg() {
        let r = run(&LifetimeConfig::quick(), &Obs::default());
        for leg in [&r.off, &r.on] {
            assert_eq!(leg.windows.len(), 6, "{}", leg.name);
            assert!(leg.total_ops > 0, "{} did no work", leg.name);
            assert!(
                leg.final_waf() > 1.0,
                "{} WAF {}",
                leg.name,
                leg.final_waf()
            );
            assert!(
                leg.reached_steady_state(),
                "{} did not settle: {:?}",
                leg.name,
                leg.windows
            );
            assert!(!leg.degraded, "{} degraded unexpectedly", leg.name);
        }
        // The acceptance shape: the scrubbed leg ends life with a lower
        // estimated error rate, and actually refreshed something to get
        // there. (The sampled probe rate is too noisy at quick sizes; the
        // deterministic per-chunk estimate is the comparison.)
        assert!(r.on.scrub_refreshes > 0, "scrubber never refreshed");
        assert!(
            r.on.eol_est_ppm < r.off.eol_est_ppm,
            "scrub-on {} ppm vs scrub-off {} ppm (estimated)",
            r.on.eol_est_ppm,
            r.off.eol_est_ppm
        );
    }
}
