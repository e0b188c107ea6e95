//! §4.3 GC-locality measurement.
//!
//! "For garbage collection, OX-Block marks a group for collection. … This
//! guarantees locality of interferences from garbage collection. Put
//! differently, a significant percentage of application reads and writes
//! are not affected by garbage collection interferences. On an SSD with 16
//! channels, this percentage is 93,7%. On an SSD with 8 channels, this
//! percentage is 87,5%."
//!
//! Method: fill a logical region and overwrite it to create garbage; then
//! run a GC actor that keeps collecting in its marked group while a client
//! actor issues uniformly random reads. Every user I/O issued while GC is
//! active is classified by whether it targets the GC-marked group.

use ocssd::{DeviceConfig, Geometry, SECTOR_BYTES};
use ox_block::{BlockFtl, BlockFtlConfig, BlockFtlError};
use ox_core::{Media, OcssdMedia};
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{Actor, Executor, Prng, SimDuration, SimTime, Step};
use std::sync::Arc;

/// One device configuration's measurement.
#[derive(Clone, Copy, Debug)]
pub struct GcLocalityPoint {
    /// Independent groups (channels) on the device.
    pub groups: u32,
    /// Fraction of user I/O unaffected by GC, in percent.
    pub unaffected_pct: f64,
    /// The analytical expectation `(N−1)/N`, in percent.
    pub expected_pct: f64,
    /// User I/Os classified.
    pub ios_classified: u64,
}

/// Whole-measurement output.
#[derive(Clone, Debug)]
pub struct GcLocalityResult {
    /// 8-group and 16-group points.
    pub points: Vec<GcLocalityPoint>,
}

struct GcActor {
    ftl: Arc<Mutex<BlockFtl>>,
    deadline: SimTime,
}

impl Actor for GcActor {
    fn step(&mut self, now: SimTime) -> Step {
        if now >= self.deadline {
            return Step::Done;
        }
        let mut ftl = self.ftl.lock();
        match ftl.gc_once(now) {
            Ok(pass) if pass.victims > 0 => Step::RunAt(pass.done),
            Ok(_) => Step::RunAt(now + SimDuration::from_millis(1)),
            Err(e) => panic!("gc failed: {e}"),
        }
    }
}

struct ReadClient {
    ftl: Arc<Mutex<BlockFtl>>,
    pages: u64,
    rng: Prng,
    deadline: SimTime,
    buf: Vec<u8>,
}

impl Actor for ReadClient {
    fn step(&mut self, now: SimTime) -> Step {
        if now >= self.deadline {
            return Step::Done;
        }
        let lpn = self.rng.gen_range(self.pages);
        let mut ftl = self.ftl.lock();
        match ftl.read(now, lpn, &mut self.buf) {
            Ok(c) => Step::RunAt(c.done),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn run_point(
    geometry: Geometry,
    duration: SimDuration,
    obs: &Obs,
) -> Result<GcLocalityPoint, BlockFtlError> {
    let dev = crate::figure_device(DeviceConfig::with_geometry(geometry), obs);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let logical_bytes: u64 = 192 * 1024 * 1024;
    let (mut ftl, mut t) = BlockFtl::format(
        media,
        BlockFtlConfig::with_capacity(logical_bytes),
        SimTime::ZERO,
    )?;

    // Fill the logical space twice: the second pass invalidates the first,
    // leaving plenty of GC victims everywhere.
    let pages = logical_bytes / SECTOR_BYTES as u64;
    let buf = vec![0u8; 96 * SECTOR_BYTES];
    for round in 0..2 {
        let mut lpn = 0;
        while lpn + 96 <= pages {
            let out = ftl.write(t, lpn, &buf)?;
            t = out.done;
            lpn += 96;
        }
        let _ = round;
    }

    let ftl = Arc::new(Mutex::new(ftl));
    let deadline = t + duration;
    let mut ex = Executor::new();
    ex.spawn(
        Box::new(GcActor {
            ftl: ftl.clone(),
            deadline,
        }),
        t,
    );
    ex.spawn(
        Box::new(ReadClient {
            ftl: ftl.clone(),
            pages,
            rng: Prng::seed_from_u64(0x6C0C),
            deadline,
            buf: vec![0u8; SECTOR_BYTES],
        }),
        t,
    );
    ex.run();

    dev.publish_pu_metrics(deadline);
    dev.publish_health_metrics(deadline);
    let ftl = ftl.lock();
    let stats = ftl.stats();
    let classified = stats.ios_gc_clean + stats.ios_gc_interfered;
    Ok(GcLocalityPoint {
        groups: geometry.num_groups,
        unaffected_pct: stats.gc_unaffected_fraction() * 100.0,
        expected_pct: (geometry.num_groups - 1) as f64 / geometry.num_groups as f64 * 100.0,
        ios_classified: classified,
    })
}

/// Runs the measurement on the 8-group and 16-group paper drives,
/// reporting into `obs` across both.
pub fn run(duration: SimDuration, obs: &Obs) -> Result<GcLocalityResult, BlockFtlError> {
    let mut eight = Geometry::paper_tlc_scaled(22, 8);
    eight.num_groups = 8;
    let mut sixteen = Geometry::paper_tlc_16ch();
    sixteen.chunks_per_pu = eight.chunks_per_pu;
    sixteen.sectors_per_chunk = eight.sectors_per_chunk;
    Ok(GcLocalityResult {
        points: vec![
            run_point(eight, duration, obs)?,
            run_point(sixteen, duration, obs)?,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_matches_group_arithmetic() {
        let r = run(SimDuration::from_millis(300), &Obs::default()).unwrap();
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert!(p.ios_classified > 500, "need samples: {p:?}");
            assert!(
                (p.unaffected_pct - p.expected_pct).abs() < 4.0,
                "groups={} measured={:.1}% expected={:.1}%",
                p.groups,
                p.unaffected_pct,
                p.expected_pct
            );
        }
        // 16 channels localize better than 8.
        assert!(r.points[1].unaffected_pct > r.points[0].unaffected_pct);
    }
}
