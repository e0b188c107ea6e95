//! Storage-controller CPU model.
//!
//! The DFC card's ARMv8 controller spends its cycles on data copies: "the
//! storage controller is saturated with 2 host threads, because it cannot
//! keep up with the data copies within OX: from the network stack to the
//! FTL, and from the FTL to the Open-Channel SSD" (paper §4.3, Figure 7).
//!
//! We model the controller as a pool of [`CORES`] cores, each a FIFO
//! [`Timeline`]. A write of `b` bytes charges `copies_per_write` memcpy
//! passes at [`COPY_BANDWIDTH`] plus [`PER_COMMAND`], on the least-loaded
//! core. Utilization over the experiment horizon is the Figure 7 y-axis.

use ox_sim::{SimDuration, SimTime, Timeline};

/// Data-path cores of the DFC's ARMv8 controller.
pub const CORES: usize = 2;

/// Sustained memcpy bandwidth per core, bytes per second: ~1.75 GB/s over
/// DDR (copy loops on ARM A57-class cores).
pub const COPY_BANDWIDTH: u64 = 1_750_000_000;

/// Fixed per-command processing overhead.
const PER_COMMAND: SimDuration = SimDuration::from_micros(20);

/// The controller CPU: a pool of FIFO cores.
pub struct ControllerCpu {
    copies_per_write: u32,
    cores: Vec<Timeline>,
    bytes_copied: u64,
    commands: u64,
}

impl ControllerCpu {
    /// A fresh CPU pool charging `copies_per_write` copies per write.
    pub fn new(copies_per_write: u32) -> Self {
        ControllerCpu {
            cores: vec![Timeline::new(); CORES],
            copies_per_write,
            bytes_copied: 0,
            commands: 0,
        }
    }

    /// Service time charged for one write of `bytes` (all copies + overhead).
    pub fn write_service_time(&self, bytes: u64) -> SimDuration {
        let copy_ns = (bytes as u128 * self.copies_per_write as u128 * 1_000_000_000
            / COPY_BANDWIDTH as u128) as u64;
        PER_COMMAND + SimDuration::from_nanos(copy_ns)
    }

    /// Charges the CPU work for one write of `bytes` arriving at `now`.
    /// Returns the completion time of the copies.
    pub fn charge_write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let service = self.write_service_time(bytes);
        #[expect(
            clippy::expect_used,
            reason = "the pool holds CORES > 0 cores, so it is never empty"
        )]
        let core = self
            .cores
            .iter_mut()
            .min_by_key(|c| c.busy_until())
            .expect("non-empty pool");
        let grant = core.acquire(now, service);
        self.bytes_copied += bytes * self.copies_per_write as u64;
        self.commands += 1;
        grant.end
    }

    /// Mean utilization of the pool over `[0, horizon]`, in `[0, 1]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.cores
            .iter()
            .map(|c| c.utilization(horizon))
            .sum::<f64>()
            / self.cores.len() as f64
    }

    /// Total bytes moved by copies.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Commands processed.
    pub fn commands(&self) -> u64 {
        self.commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_scales_with_copies() {
        let base = ControllerCpu::new(2);
        let one_copy = ControllerCpu::new(1);
        let zero_copy = ControllerCpu::new(0);
        let b = 8 * 1024 * 1024;
        assert!(base.write_service_time(b) > one_copy.write_service_time(b));
        assert_eq!(zero_copy.write_service_time(b), PER_COMMAND);
        // 8 MB × 2 copies at 1.75 GB/s ≈ 9.6 ms.
        let ms = base.write_service_time(b).as_millis();
        assert!((9..=11).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn work_spreads_across_cores() {
        let mut cpu = ControllerCpu::new(2);
        let t0 = SimTime::ZERO;
        let d1 = cpu.charge_write(t0, 8 << 20);
        let d2 = cpu.charge_write(t0, 8 << 20);
        // Two cores: both writes run in parallel.
        assert_eq!(d1, d2);
        let d3 = cpu.charge_write(t0, 8 << 20);
        assert!(d3 > d1, "third write queues behind a core");
    }

    #[test]
    fn utilization_saturates_under_overload() {
        let mut cpu = ControllerCpu::new(2);
        let mut t = SimTime::ZERO;
        // One synchronous writer cannot saturate two cores.
        for _ in 0..50 {
            t = cpu.charge_write(t, 8 << 20);
        }
        let one_writer = cpu.utilization(t);
        assert!(one_writer < 0.6, "one writer: {one_writer}");

        // Four concurrent writers (each waits only for its own copy) can.
        let mut cpu = ControllerCpu::new(2);
        let mut writer_t = [SimTime::ZERO; 4];
        for _ in 0..50 {
            for wt in writer_t.iter_mut() {
                *wt = cpu.charge_write(*wt, 8 << 20);
            }
        }
        let horizon = writer_t.iter().copied().max().unwrap();
        let four_writers = cpu.utilization(horizon);
        assert!(four_writers > 0.95, "four writers: {four_writers}");
    }

    #[test]
    fn counters_accumulate() {
        let mut cpu = ControllerCpu::new(2);
        cpu.charge_write(SimTime::ZERO, 1000);
        cpu.charge_write(SimTime::ZERO, 1000);
        assert_eq!(cpu.commands(), 2);
        assert_eq!(cpu.bytes_copied(), 4000);
    }
}
