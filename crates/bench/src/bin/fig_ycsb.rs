//! YCSB A–F over both stacks: the single-device LSM key-value store
//! (lsmkv over LightLSM) and the 4-shard serving layer (oxshard).
//!
//! Each workload runs against a freshly loaded store, so rows are
//! independent and deterministic. The shared observability dump carries
//! per-op `ycsb.{read,write,scan}_ns` histograms plus device/FTL metrics.
//!
//! `OX_YCSB_WORKLOAD=<A..F>` restricts the sweep to one mix (the CI
//! matrix's knob); unset or `all` runs all six.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_ycsb [--quick]`

use lightlsm::Placement;
use ox_bench::backend::BenchBackend;
use ox_bench::fig5::make_db;
use ox_bench::ycsb::{
    load, matrix_workloads, run_ycsb, LsmBackend, ShardBackend, YcsbConfig, YcsbReport,
};
use ox_bench::{figure_obs, quick_mode, Report};
use ox_sim::sync::Mutex;
use ox_sim::SimTime;
use oxshard::{ClusterConfig, ShardCluster, SharedCluster};
use std::sync::Arc;

const SHARDS: u32 = 4;

fn report_cells(r: &YcsbReport) -> Vec<String> {
    vec![
        r.workload.letter().to_string(),
        r.backend.to_string(),
        r.total_ops.to_string(),
        format!("{:.1}", r.kops_per_sec()),
        format!("{:.1}", r.quantile_ns(0.50) as f64 / 1000.0),
        format!("{:.1}", r.quantile_ns(0.95) as f64 / 1000.0),
        format!("{:.1}", r.quantile_ns(0.99) as f64 / 1000.0),
        r.scanned_entries.to_string(),
        r.stall_retries.to_string(),
        r.failed_ops.to_string(),
    ]
}

fn main() {
    let quick = quick_mode();
    let obs = figure_obs();
    let workloads = matrix_workloads();

    let mut report = Report::new("fig_ycsb", None);
    report.line(format!(
        "YCSB A–F — lsmkv single device vs. oxshard {SHARDS}-shard cluster (virtual time{})\n",
        if quick { ", quick" } else { "" }
    ));
    let widths = [2usize, 7, 8, 8, 10, 10, 10, 9, 7, 6];
    report.row(
        &[
            "wl",
            "backend",
            "ops",
            "kops/s",
            "p50 (µs)",
            "p95 (µs)",
            "p99 (µs)",
            "scanned",
            "stalls",
            "failed",
        ],
        &widths,
    );
    report.sep(&widths);

    for wl in workloads {
        let mut cfg = YcsbConfig::new(wl);
        if quick {
            cfg.clients = 4;
            cfg.record_count = 1024;
            cfg.operations = 2048;
        } else {
            // Large enough that the single-device store spills past its
            // memtable: point reads exercise the on-media read path.
            cfg.record_count = 32_768;
            cfg.operations = 16_384;
        }

        // Single-device stack: the paper's LSM over LightLSM, horizontal
        // placement (its best configuration).
        let (db, dev, _store) = make_db(Placement::Horizontal, BenchBackend::OxBlock, &obs);
        let mut lsm = LsmBackend::new(db);
        eprintln!("[{}] lsmkv load...", wl.letter());
        let t0 = load(&mut lsm, &cfg, SimTime::ZERO);
        eprintln!("[{}] lsmkv run...", wl.letter());
        let (ycsb, t_done) = run_ycsb(&lsm, &cfg, &obs, t0);
        dev.publish_pu_metrics(t_done);
        dev.publish_health_metrics(t_done);
        report.row(&report_cells(&ycsb), &widths);

        // Sharded stack: same workload fanned over SHARDS devices. The
        // test-scale default of 16 MiB per shard is one 4 KiB slot per
        // record × 4096; the full-size load would overflow the fullest
        // hash bucket, so give each shard headroom.
        let mut ccfg = ClusterConfig::new(SHARDS);
        ccfg.shard_capacity_bytes = 64 << 20;
        let (cluster, tc) = ShardCluster::new(ccfg, obs.clone(), SimTime::ZERO).expect("cluster");
        let shared: SharedCluster = Arc::new(Mutex::new(cluster));
        let mut shard = ShardBackend::new(shared);
        eprintln!("[{}] oxshard load...", wl.letter());
        let t0 = load(&mut shard, &cfg, tc);
        eprintln!("[{}] oxshard run...", wl.letter());
        let (ycsb, _) = run_ycsb(&shard, &cfg, &obs, t0);
        report.row(&report_cells(&ycsb), &widths);
    }

    report.line(
        "\n(zipfian θ=0.99 scrambled ranks; D reads the latest distribution; E scans ≤16 keys;",
    );
    report.line(" A/B replace records after a read, F's RMW carries the read value forward.)");
    report.finish(&obs);
}
