//! Shard-scale figure: aggregate throughput and per-shard p99 as the
//! cluster grows from 1 to 32 sharded Open-Channel SSDs (weak scaling —
//! a fixed closed-loop client population per shard).
//!
//! The shared observability dump carries scoped per-shard iosched/device
//! metrics plus `oxshard.scale<N>.shard<k>.p99_ns` gauges.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_shard_scale [--quick]`

use ox_bench::shard_scale::run;
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let (counts, clients_per_shard, ops_per_client): (&[u32], usize, usize) = if quick_mode() {
        (&[1, 2, 4, 8], 32, 16)
    } else {
        (&[1, 2, 4, 8, 16, 32], 64, 24)
    };
    let obs = figure_obs();
    let result = run(counts, clients_per_shard, ops_per_client, &obs);

    let mut report = Report::new("fig_shard_scale", None);
    report.line(format!(
        "shard scaling — oxshard serving layer, {clients_per_shard} closed-loop clients/shard × {ops_per_client} ops (virtual time)\n"
    ));
    let widths = [7usize, 8, 10, 12, 9, 14, 14];
    report.row(
        &[
            "shards",
            "clients",
            "ops",
            "kops/s",
            "scale×",
            "p99 min (µs)",
            "p99 max (µs)",
        ],
        &widths,
    );
    report.sep(&widths);
    let base = result.points[0].kops_per_sec;
    for p in &result.points {
        report.row(
            &[
                p.shards.to_string(),
                p.clients.to_string(),
                p.total_ops.to_string(),
                format!("{:.1}", p.kops_per_sec),
                format!("{:.2}", p.kops_per_sec / base),
                format!("{:.1}", p.p99_min_us),
                format!("{:.1}", p.p99_max_us),
            ],
            &widths,
        );
    }
    let scale8 = result.scaling(1, 8);
    report.line(format!(
        "\n1→8 shards: {scale8:.2}× aggregate throughput ({:.0}% of linear; acceptance floor 80%)",
        scale8 / 8.0 * 100.0
    ));
    report
        .line("(closed-loop virtual-time clients: linear scaling means shards do not interfere —");
    report
        .line(" per-device FTL + GC + iosched queues stay independent and routing stays balanced)");
    report.finish(&obs);
}
