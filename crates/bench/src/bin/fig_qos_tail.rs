//! §4.3 isolation as a latency distribution: per-tenant read p50/p99/p999
//! through the multi-queue I/O scheduler, with and without a competing
//! sequential writer + group-local GC relocation — once over native media,
//! then over oxztl's virtual device, in one report.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_qos_tail [--quick]`

use ox_bench::{figure_obs, qos_tail, quick_mode, Report};
use ox_sim::SimDuration;

fn main() {
    let duration = if quick_mode() {
        SimDuration::from_millis(150)
    } else {
        SimDuration::from_millis(1500)
    };
    let obs = figure_obs();
    let mut report = Report::new("fig_qos_tail");
    qos_tail::report(duration, &obs, &mut report);
    report.finish(&obs);
}
