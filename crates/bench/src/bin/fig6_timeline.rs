//! Regenerates Figure 6: fill-sequential throughput as a function of time,
//! horizontal and vertical placement, 1/2/4/8 clients.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig6_timeline [--quick]`

use lightlsm::Placement;
use ox_bench::fig5::Fig5Config;
use ox_bench::fig6::run;
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let cfg = if quick_mode() {
        Fig5Config::quick()
    } else {
        Fig5Config::full()
    };
    let mut report = Report::new("fig6_timeline", None);
    report.line(format!(
        "Figure 6 — fill-sequential throughput over time (kops/s per {} ms window)\n",
        cfg.window.as_millis()
    ));
    let obs = figure_obs();
    let result = run(&cfg, &obs);

    for placement in [Placement::Horizontal, Placement::Vertical] {
        report.line(format!(
            "== fill-sequential with {} placement ==",
            placement.label()
        ));
        for &clients in &cfg.client_counts {
            let line = result.line(placement, clients);
            let series: Vec<String> = line
                .report
                .series
                .windows()
                .iter()
                .map(|w| format!("{:.0}", w.rate_per_sec / 1000.0))
                .collect();
            report.line(format!("{clients} client(s): [{}]", series.join(", ")));
            report.line(format!(
                "    duration {:.2}s  mean {:.1} kops/s  peak {:.1} kops/s",
                line.report.duration.as_secs_f64(),
                line.report.kops_per_sec,
                line.report.series.peak_rate() / 1000.0
            ));
        }
        report.line("");
    }

    report.line("shape checks vs. the paper:");
    let h1 = result
        .line(Placement::Horizontal, 1)
        .report
        .duration
        .as_secs_f64();
    let h8 = result
        .line(Placement::Horizontal, 8)
        .report
        .duration
        .as_secs_f64();
    let v1 = result
        .line(Placement::Vertical, 1)
        .report
        .duration
        .as_secs_f64();
    let v8 = result
        .line(Placement::Vertical, 8)
        .report
        .duration
        .as_secs_f64();
    report.line(format!(
        "  horizontal completion time grows with clients: 1c {h1:.2}s -> 8c {h8:.2}s ({:.1}x slower per op; paper: 'time to complete increases significantly')",
        (h8 / 8.0) / h1
    ));
    report.line(format!(
        "  vertical per-client completion shrinks with clients: 1c {v1:.2}s -> 8c {v8:.2}s ({:.2}x; paper: 'shorter for larger number of clients')",
        (v8 / 8.0) / v1
    ));
    let v1_line = result.line(Placement::Vertical, 1);
    report.line(format!(
        "  vertical 1 client: peak {:.0} kops vs mean {:.0} kops (paper: 'a peak of throughput for a single thread even though the average is the lowest')",
        v1_line.report.series.peak_rate() / 1000.0,
        v1_line.report.kops_per_sec
    ));
    report.finish(&obs);
}
