//! Shard-scale figure: aggregate throughput and per-shard p99 as the
//! cluster grows from 1 to 32 sharded Open-Channel SSDs (weak scaling —
//! a fixed closed-loop client population per shard).
//!
//! Writes the table to stdout **and** `results/fig_shard_scale.txt`, and
//! the shared observability dump (scoped per-shard iosched/device metrics
//! plus `oxshard.scale<N>.shard<k>.p99_ns` gauges) to
//! `results/fig_shard_scale.obs.json`.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_shard_scale [--quick]`

use ox_bench::shard_scale::run;
use ox_bench::{export_obs, figure_obs, quick_mode};
use std::fmt::Write as _;

fn main() {
    let (counts, clients_per_shard, ops_per_client): (&[u32], usize, usize) = if quick_mode() {
        (&[1, 2, 4, 8], 32, 16)
    } else {
        (&[1, 2, 4, 8, 16, 32], 64, 24)
    };
    let obs = figure_obs();
    let result = run(counts, clients_per_shard, ops_per_client, &obs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "shard scaling — oxshard serving layer, {clients_per_shard} closed-loop clients/shard × {ops_per_client} ops (virtual time)\n"
    );
    let widths = [7usize, 8, 10, 12, 9, 14, 14];
    let header = [
        "shards",
        "clients",
        "ops",
        "kops/s",
        "scale×",
        "p99 min (µs)",
        "p99 max (µs)",
    ];
    let mut line = String::from("|");
    for (c, w) in header.iter().zip(&widths) {
        let _ = write!(line, " {c:<w$} |");
    }
    let _ = writeln!(out, "{line}");
    let mut sep = String::from("|");
    for w in &widths {
        let _ = write!(sep, "{}|", "-".repeat(w + 2));
    }
    let _ = writeln!(out, "{sep}");
    let base = result.points[0].kops_per_sec;
    for p in &result.points {
        let cells = [
            p.shards.to_string(),
            p.clients.to_string(),
            p.total_ops.to_string(),
            format!("{:.1}", p.kops_per_sec),
            format!("{:.2}", p.kops_per_sec / base),
            format!("{:.1}", p.p99_min_us),
            format!("{:.1}", p.p99_max_us),
        ];
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(&widths) {
            let _ = write!(line, " {c:<w$} |");
        }
        let _ = writeln!(out, "{line}");
    }
    let scale8 = result.scaling(1, 8);
    let _ = writeln!(
        out,
        "\n1→8 shards: {scale8:.2}× aggregate throughput ({:.0}% of linear; acceptance floor 80%)",
        scale8 / 8.0 * 100.0
    );
    let _ = writeln!(
        out,
        "(closed-loop virtual-time clients: linear scaling means shards do not interfere —"
    );
    let _ = writeln!(
        out,
        " per-device FTL + GC + iosched queues stay independent and routing stays balanced)"
    );

    print!("{out}");
    let dir = std::path::Path::new("results");
    let path = dir.join("fig_shard_scale.txt");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &out)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    export_obs("fig_shard_scale", &obs);
}
