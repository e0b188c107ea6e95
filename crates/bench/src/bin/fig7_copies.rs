//! Regenerates Figure 7: impact of data copies on storage-controller
//! utilization, plus the §4.4 zero-copy ablation.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig7_copies [--quick]`

use ox_bench::fig7::{run, Fig7Config, Fig7Point};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let cfg = if quick_mode() {
        Fig7Config::quick()
    } else {
        Fig7Config::full()
    };
    let mut report = Report::new("fig7_copies", None);
    report.line("Figure 7 — controller CPU utilization vs. host write threads (OX-ELEOS, ~8 MB LSS buffers)");
    report.line(format!(
        "controller model: 2 ARMv8 data-path cores, memcpy 1.75 GB/s/core; {}s virtual run\n",
        cfg.duration.as_secs_f64()
    ));
    let obs = figure_obs();
    let result = run(&cfg, &obs);

    let widths = [26usize, 12, 12, 12, 12];
    let mut header = vec!["configuration".to_string()];
    for n in cfg.thread_counts {
        header.push(format!("{n} thread(s)"));
    }
    report.row(&header, &widths);
    report.sep(&widths);
    let rows: [(&str, &Vec<Fig7Point>); 3] = [
        ("2 copies (OX as published)", &result.two_copies),
        ("1 copy (zero-copy rx)", &result.one_copy),
        ("0 copies (hw offload)", &result.zero_copies),
    ];
    for (name, points) in rows {
        let mut cells = vec![name.to_string()];
        for p in points {
            cells.push(format!("{:.0}%", p.cpu_utilization_pct));
        }
        report.row(&cells, &widths);
        let mut cells = vec!["  ingest (MB/s)".to_string()];
        for p in points {
            cells.push(format!("{:.0}", p.ingest_mb_per_sec));
        }
        report.row(&cells, &widths);
        report.sep(&widths);
    }

    let u = &result.two_copies;
    report.line("\nshape check vs. the paper:");
    report.line(format!(
        "  'the storage controller is saturated with 2 host threads': 1t {:.0}%, 2t {:.0}%, 4t {:.0}%, 8t {:.0}%",
        u[0].cpu_utilization_pct,
        u[1].cpu_utilization_pct,
        u[2].cpu_utilization_pct,
        u[3].cpu_utilization_pct
    ));
    report.line(format!(
        "  ingest plateau past saturation: 2t {:.0} MB/s vs 8t {:.0} MB/s",
        u[1].ingest_mb_per_sec, u[3].ingest_mb_per_sec
    ));
    report.finish(&obs);
}
