//! Figure 7: impact of data copies on storage-controller utilization.
//!
//! Setup (paper §4.3): a varying number of host threads write LSS I/O
//! buffers to OX-ELEOS; the controller performs two data copies per buffer
//! (network stack → FTL, FTL → device). Expected shape: the controller CPU
//! saturates with 2 host threads; more threads add no ingest.
//!
//! The zero-copy rows reproduce the §4.4 lesson: with AF_XDP-style
//! zero-copy receive (one copy) or full hardware offload (no copies) the
//! same thread counts leave CPU headroom.

use ocssd::{CacheConfig, DeviceConfig};
use ox_core::{Media, OcssdMedia};
use ox_eleos::{CpuModel, EleosConfig, EleosError, EleosFtl, LogAddr};
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{Actor, Executor, SimDuration, SimTime, Step};
use std::sync::Arc;

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    /// Host writer threads.
    pub host_threads: usize,
    /// Copies charged per write.
    pub copies_per_write: u32,
    /// Mean controller CPU utilization over the run, in percent.
    pub cpu_utilization_pct: f64,
    /// Aggregate ingest in MB per virtual second.
    pub ingest_mb_per_sec: f64,
}

/// Whole-figure output.
#[derive(Clone, Debug)]
pub struct Fig7Result {
    /// Points for the paper configuration (2 copies).
    pub two_copies: Vec<Fig7Point>,
    /// Zero-copy ablation (1 copy).
    pub one_copy: Vec<Fig7Point>,
    /// Full-offload ablation (0 copies).
    pub zero_copies: Vec<Fig7Point>,
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Config {
    /// Thread counts to sweep.
    pub thread_counts: [usize; 4],
    /// Virtual run length.
    pub duration: SimDuration,
}

/// Per-thread network ingest bandwidth (bytes/s). 40GbE shared by a
/// handful of TCP streams ≈ 1.1 GB/s per stream.
const NET_BYTES_PER_SEC: u64 = 1_100_000_000;

impl Fig7Config {
    /// Full-scale run.
    pub fn full() -> Self {
        Fig7Config {
            thread_counts: [1, 2, 4, 8],
            duration: SimDuration::from_secs(3),
        }
    }

    /// Quick run.
    pub fn quick() -> Self {
        Fig7Config {
            duration: SimDuration::from_millis(600),
            ..Self::full()
        }
    }
}

struct HostWriter {
    ftl: Arc<Mutex<EleosFtl>>,
    buffer: Vec<u8>,
    net_time: SimDuration,
    deadline: SimTime,
    trim_watermark: u64,
    /// Completion times of buffers in flight: the host overlaps the next
    /// network receive with the controller's processing of earlier buffers,
    /// up to this window.
    outstanding: std::collections::VecDeque<SimTime>,
    pipeline_depth: usize,
}

impl Actor for HostWriter {
    fn step(&mut self, now: SimTime) -> Step {
        if now >= self.deadline {
            return Step::Done;
        }
        // Receive the buffer over the network (per-thread stream)...
        let arrived = now + self.net_time;
        // ...then hand it to OX-ELEOS on the controller.
        let mut ftl = self.ftl.lock();
        match ftl.append_buffer(arrived, &self.buffer) {
            Ok((_, done)) => {
                self.outstanding.push_back(done);
                // Keep receiving at line rate while the controller chews on
                // earlier buffers; block only when the window is full.
                let next = if self.outstanding.len() >= self.pipeline_depth {
                    self.outstanding
                        .pop_front()
                        .expect("non-empty")
                        .max(arrived)
                } else {
                    arrived
                };
                Step::RunAt(next)
            }
            Err(EleosError::WindowFull) => {
                // LLAMA-style log cleaning keeps the live window in check:
                // trim everything older than the retention watermark.
                let keep_from = ftl.tail_addr().0.saturating_sub(self.trim_watermark);
                let t = ftl.trim_until(arrived, LogAddr(keep_from)).expect("trim");
                Step::RunAt(t)
            }
            Err(e) => panic!("append failed: {e}"),
        }
    }
}

fn run_point(cfg: &Fig7Config, threads: usize, copies: u32, obs: &Obs) -> Fig7Point {
    let mut dev_cfg = DeviceConfig::paper_tlc_scaled(22, 8);
    dev_cfg.cache = CacheConfig {
        capacity_bytes: 256 * 1024 * 1024,
    };
    let dev = crate::figure_device(dev_cfg, obs);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let eleos_cfg = EleosConfig {
        cpu: CpuModel {
            copies_per_write: copies,
            ..CpuModel::default()
        },
        window_bytes: 1024 * 1024 * 1024,
        journal: false, // pure data-path measurement, as in the paper
        ..EleosConfig::default()
    };
    let buffer_bytes = eleos_cfg.buffer_bytes;
    let (ftl, t0) = EleosFtl::format(media, eleos_cfg, SimTime::ZERO).expect("format");
    let ftl = Arc::new(Mutex::new(ftl));

    let mut ex = Executor::new();
    let deadline = t0 + cfg.duration;
    let net_time = SimDuration::from_nanos(
        (buffer_bytes as u128 * 1_000_000_000 / NET_BYTES_PER_SEC as u128) as u64,
    );
    for _ in 0..threads {
        ex.spawn(
            Box::new(HostWriter {
                ftl: ftl.clone(),
                buffer: vec![0u8; buffer_bytes],
                net_time,
                deadline,
                trim_watermark: 512 * 1024 * 1024,
                outstanding: std::collections::VecDeque::new(),
                pipeline_depth: 4,
            }),
            t0,
        );
    }
    ex.run();

    dev.publish_pu_metrics(deadline);
    dev.publish_health_metrics(deadline);
    let ftl = ftl.lock();
    let horizon = deadline;
    let util = ftl.cpu().utilization(horizon) * 100.0;
    let ingested = ftl.stats().user_writes.bytes();
    Fig7Point {
        host_threads: threads,
        copies_per_write: copies,
        cpu_utilization_pct: util,
        ingest_mb_per_sec: ingested as f64 / (1 << 20) as f64 / cfg.duration.as_secs_f64(),
    }
}

/// Runs the figure plus the copy-count ablation, reporting into `obs`.
pub fn run(cfg: &Fig7Config, obs: &Obs) -> Fig7Result {
    let sweep = |copies: u32| {
        cfg.thread_counts
            .iter()
            .map(|&n| run_point(cfg, n, copies, obs))
            .collect::<Vec<_>>()
    };
    Fig7Result {
        two_copies: sweep(2),
        one_copy: sweep(1),
        zero_copies: sweep(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_saturates_at_two_threads() {
        let cfg = Fig7Config::quick();
        let r = run(&cfg, &Obs::default());
        let u: Vec<f64> = r.two_copies.iter().map(|p| p.cpu_utilization_pct).collect();
        assert!(u[0] < 85.0, "1 thread must not saturate: {u:?}");
        assert!(u[1] > 90.0, "2 threads saturate: {u:?}");
        assert!(
            u[2] > 95.0 && u[3] > 95.0,
            "beyond 2 stays saturated: {u:?}"
        );
        // Ingest plateaus once saturated.
        let ing: Vec<f64> = r.two_copies.iter().map(|p| p.ingest_mb_per_sec).collect();
        assert!(ing[1] > ing[0] * 1.3, "2 threads ingest more than 1");
        assert!(
            ing[3] < ing[1] * 1.25,
            "8 threads gain little over 2: {ing:?}"
        );
        // Fewer copies leave headroom at the same load.
        let one = &r.one_copy;
        assert!(one[0].cpu_utilization_pct < u[0]);
    }
}
