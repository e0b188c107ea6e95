//! Regenerates the §4.3 GC-locality numbers: the fraction of user I/O
//! unaffected by garbage collection on 8-channel and 16-channel drives
//! (paper: 87.5 % and 93.7 %).
//!
//! Usage: `cargo run --release -p ox-bench --bin gc_locality [--quick]`

use ox_bench::gc_locality::run;
use ox_bench::{figure_obs, quick_mode, Report};
use ox_sim::SimDuration;

fn main() {
    let duration = if quick_mode() {
        SimDuration::from_millis(300)
    } else {
        SimDuration::from_secs(2)
    };
    let mut report = Report::new("gc_locality", None);
    report.line(
        "§4.3 — GC interference locality (OX-Block, group-marked GC + uniform random reads)\n",
    );
    let obs = figure_obs();
    let result = run(duration, &obs).expect("experiment");

    let widths = [10usize, 16, 16, 14];
    report.row(
        &[
            "channels",
            "unaffected (%)",
            "paper/expected",
            "I/Os sampled",
        ],
        &widths,
    );
    report.sep(&widths);
    for p in &result.points {
        report.row(
            &[
                p.groups.to_string(),
                format!("{:.2}", p.unaffected_pct),
                format!("{:.2}", p.expected_pct),
                p.ios_classified.to_string(),
            ],
            &widths,
        );
    }
    report.line("\n(paper §4.3: 'On an SSD with 16 channels, this percentage is 93,7%. On an SSD with 8 channels, this percentage is 87,5%.')");
    report.finish(&obs);
}
