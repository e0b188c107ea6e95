//! Regenerates Figure 3: impact of checkpoint intervals on recovery time.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig3_recovery [--quick]`

use ox_bench::fig3::{interval_label, run, Fig3Config};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let cfg = if quick_mode() {
        Fig3Config::quick()
    } else {
        Fig3Config::full()
    };
    let mut report = Report::new("fig3_recovery");
    report.line(
        "Figure 3 — recovery time vs. failure point (OX-Block, random ≤1 MB transactional writes)",
    );
    report.line(format!(
        "device: paper TLC geometry scaled (22, 8); failure points T1..T6 = {:?} s\n",
        cfg.fail_points
    ));
    let obs = figure_obs();
    let result = run(&cfg, &obs).expect("experiment");

    let widths = [10usize, 10, 14, 14, 12];
    report.row(
        &[
            "config",
            "fail@ (s)",
            "recovery (s)",
            "frames read",
            "txns replay",
        ],
        &widths,
    );
    report.sep(&widths);
    for curve in &result.curves {
        for p in &curve.points {
            report.row(
                &[
                    interval_label(curve.interval),
                    format!("{:.1}", p.fail_at_secs),
                    format!("{:.3}", p.recovery_secs),
                    p.frames_scanned.to_string(),
                    p.txns_replayed.to_string(),
                ],
                &widths,
            );
        }
        report.sep(&widths);
    }

    let no = &result.curves[0].points;
    report.line("\nshape check (paper: linear growth without checkpoints; flat bounded with):");
    report.line(format!(
        "  no-checkpoint growth T6/T1: {:.1}x (paper: ~linear in log volume)",
        no[5].recovery_secs / no[0].recovery_secs.max(1e-9)
    ));
    for curve in &result.curves[1..] {
        let max = curve
            .points
            .iter()
            .map(|p| p.recovery_secs)
            .fold(0.0f64, f64::max);
        report.line(format!(
            "  {}: max recovery {:.3}s = {:.0}% of no-checkpoint T6 ({:.3}s)",
            interval_label(curve.interval),
            max,
            max / no[5].recovery_secs * 100.0,
            no[5].recovery_secs
        ));
    }
    report.finish(&obs);
}
