//! Figure 3: impact of checkpoint intervals on recovery time.
//!
//! Setup (paper §4.3): OX-Block serves random writes of up to 1 MB, each a
//! transaction. The process is killed at six points in time T1–T6; after
//! each failure OX restarts and recovery time is measured. Three
//! configurations: checkpointing disabled, every 10 s, every 30 s.
//!
//! Expected shape: without checkpoints, recovery time grows linearly with
//! the log written so far; with checkpoints it oscillates within a low,
//! bounded band, and 10 s vs 30 s is not significantly different.

use ocssd::{DeviceConfig, SECTOR_BYTES};
use ox_block::{BlockFtl, BlockFtlConfig};
use ox_core::layout::LayoutConfig;
use ox_core::{Media, OcssdMedia};
use ox_sim::trace::Obs;
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

pub use ox_block::BlockFtlError;

fn secs(s: f64) -> SimTime {
    SimTime::from_nanos((s * 1e9) as u64)
}

/// One measured failure point.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Failure time (virtual seconds since start).
    pub fail_at_secs: f64,
    /// Recovery duration (virtual seconds).
    pub recovery_secs: f64,
    /// Log frames scanned during recovery.
    pub frames_scanned: u64,
    /// Transactions replayed.
    pub txns_replayed: u64,
}

/// One configuration's curve.
#[derive(Clone, Debug)]
pub struct Fig3Curve {
    /// Checkpoint interval (`None` = disabled).
    pub interval: Option<SimDuration>,
    /// Measurements at T1..T6.
    pub points: Vec<Fig3Point>,
}

/// Full experiment output.
#[derive(Clone, Debug)]
pub struct Fig3Result {
    /// The three curves (disabled, Ci 10 s, Ci 30 s — scaled in quick mode).
    pub curves: Vec<Fig3Curve>,
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Config {
    /// Failure points (virtual seconds).
    pub fail_points: [f64; 6],
    /// Checkpoint intervals to compare (None = disabled).
    pub intervals: [Option<SimDuration>; 3],
    /// Logical capacity of the block device.
    pub logical_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Fig3Config {
    /// Full-scale run: T1–T6 = 10..60 s, intervals {off, 10 s, 30 s}.
    pub fn full() -> Self {
        Fig3Config {
            fail_points: [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            intervals: [
                None,
                Some(SimDuration::from_secs(10)),
                Some(SimDuration::from_secs(30)),
            ],
            logical_bytes: 256 * 1024 * 1024,
            seed: 0xF163,
        }
    }

    /// Quick run (same shape, ~6× less virtual time).
    pub fn quick() -> Self {
        Fig3Config {
            fail_points: [1.5, 3.0, 4.5, 6.0, 7.5, 9.0],
            intervals: [
                None,
                Some(SimDuration::from_secs(2)),
                Some(SimDuration::from_secs(5)),
            ],
            logical_bytes: 128 * 1024 * 1024,
            seed: 0xF163,
        }
    }
}

fn one_run(
    cfg: &Fig3Config,
    interval: Option<SimDuration>,
    fail_at: SimTime,
    obs: &Obs,
) -> Result<Fig3Point, BlockFtlError> {
    // Fresh device per run: the failure point is the only variable.
    let dev = crate::figure_device(DeviceConfig::paper_tlc_scaled(22, 8), obs);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let mut ftl_cfg = BlockFtlConfig::with_capacity(cfg.logical_bytes);
    ftl_cfg.checkpoint_interval = interval;
    // The disabled-checkpoint arm must hold the whole run's log in the ring.
    ftl_cfg.layout = LayoutConfig {
        wal_chunks: 1024,
        checkpoint_chunks_per_area: 2,
    };
    let (mut ftl, mut t) = BlockFtl::format(media, ftl_cfg, SimTime::ZERO)?;

    let pages = cfg.logical_bytes / SECTOR_BYTES as u64;
    let mut rng = Prng::seed_from_u64(cfg.seed ^ fail_at.as_nanos());
    // Zero payloads: the simulator stores them for free, and Figure 3 only
    // measures metadata recovery.
    let buf = vec![0u8; 256 * SECTOR_BYTES];

    while t < fail_at {
        // Random writes of up to 1 MB, each one a transaction.
        let pages_in_txn = rng.gen_range_in(1, 257);
        let lpn = rng.gen_range(pages - pages_in_txn);
        let out = ftl.write(t, lpn, &buf[..pages_in_txn as usize * SECTOR_BYTES])?;
        t = out.done;
        if let Some(done) = ftl.maybe_checkpoint(t)? {
            t = done;
        }
    }

    // kill -9 at the failure point (the frontier; see DESIGN.md on crash
    // granularity).
    dev.crash(t);
    dev.publish_pu_metrics(t);
    dev.publish_health_metrics(t);
    let media2: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let mut ftl_cfg2 = BlockFtlConfig::with_capacity(cfg.logical_bytes);
    ftl_cfg2.checkpoint_interval = interval;
    ftl_cfg2.layout = LayoutConfig {
        wal_chunks: 1024,
        checkpoint_chunks_per_area: 2,
    };
    let (_, outcome) = BlockFtl::recover(media2, ftl_cfg2, t)?;
    Ok(Fig3Point {
        fail_at_secs: fail_at.as_secs_f64(),
        recovery_secs: outcome.duration.as_secs_f64(),
        frames_scanned: outcome.frames_scanned,
        txns_replayed: outcome.txns_committed,
    })
}

/// Runs the Figure 3 experiment. Every per-run stack (device, FTL,
/// recovery) reports into `obs`, accumulating across the whole figure.
pub fn run(cfg: &Fig3Config, obs: &Obs) -> Result<Fig3Result, BlockFtlError> {
    let mut curves = Vec::new();
    for &interval in &cfg.intervals {
        let mut points = Vec::new();
        for &fp in &cfg.fail_points {
            let point = one_run(cfg, interval, secs(fp), obs)?;
            points.push(point);
        }
        curves.push(Fig3Curve { interval, points });
    }
    Ok(Fig3Result { curves })
}

/// Formats an interval label.
pub fn interval_label(i: Option<SimDuration>) -> String {
    match i {
        None => "disabled".to_string(),
        Some(d) => format!("Ci {:.0}s", d.as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_grows_without_checkpoints_and_stays_flat_with() {
        let mut cfg = Fig3Config::quick();
        // Intervals well under the run length so the checkpointed tail
        // (≤ one interval of log) stays clearly below the no-checkpoint
        // endpoint.
        cfg.fail_points = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
        cfg.intervals = [
            None,
            Some(SimDuration::from_millis(400)),
            Some(SimDuration::from_millis(800)),
        ];
        cfg.logical_bytes = 64 * 1024 * 1024;
        let result = run(&cfg, &Obs::default()).unwrap();

        let no_ckpt = &result.curves[0].points;
        // Monotone growth, roughly linear: last ≫ first.
        assert!(
            no_ckpt[5].recovery_secs > no_ckpt[0].recovery_secs * 3.0,
            "no-checkpoint recovery must grow: {:?}",
            no_ckpt.iter().map(|p| p.recovery_secs).collect::<Vec<_>>()
        );
        for w in no_ckpt.windows(2) {
            assert!(
                w[1].recovery_secs >= w[0].recovery_secs * 0.8,
                "roughly monotone"
            );
        }

        // Checkpointed recovery is bounded well below the no-checkpoint
        // endpoint at the last failure points.
        for curve in &result.curves[1..] {
            let last = &curve.points[5];
            assert!(
                last.recovery_secs < no_ckpt[5].recovery_secs * 0.5,
                "{}: {} vs {}",
                interval_label(curve.interval),
                last.recovery_secs,
                no_ckpt[5].recovery_secs
            );
        }
    }
}
