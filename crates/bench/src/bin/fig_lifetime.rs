//! Device-lifetime figure: wear-coupled aging under sustained zipfian
//! overwrite at the `OX_AGE_FILL` fill level (default 90 %), scrub-off vs.
//! scrub-on (background patrol + refresh + wear-biased GC).
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_lifetime [--quick]`
//! Env: `OX_AGE_FILL=70|90` selects the fill leg of the aging matrix.

use ox_bench::lifetime::{run, LegResult, LifetimeConfig};
use ox_bench::{export_bench_json, export_obs, figure_obs, print_row, print_sep, quick_mode};

fn leg_rows(leg: &LegResult, widths: &[usize]) {
    for w in &leg.windows {
        print_row(
            &[
                leg.name.to_string(),
                w.window.to_string(),
                w.ops.to_string(),
                format!("{:.2}", w.waf_window),
                format!("{:.2}", w.waf_cum),
                format!("{:.0}", w.ops_per_vsec),
                w.probe_err_ppm.to_string(),
                w.refresh_backlog.to_string(),
            ],
            widths,
        );
    }
}

fn leg_json(leg: &LegResult) -> String {
    format!(
        concat!(
            "{{\"steady_state_waf\": {:.3}, \"reached_steady_state\": {}, ",
            "\"ops_per_virtual_sec\": {:.1}, \"wall_ns_per_op\": {}, ",
            "\"eol_err_ppm\": {}, \"eol_est_ppm\": {}, \"eol_failed_reads\": {}, ",
            "\"wear_min\": {}, \"wear_max\": {}, \"wear_mean\": {:.2}, ",
            "\"scrub_refreshes\": {}, \"grown_bad_blocks\": {}, ",
            "\"degraded\": {}, \"total_ops\": {}}}"
        ),
        leg.final_waf(),
        leg.reached_steady_state(),
        leg.windows.last().map(|w| w.ops_per_vsec).unwrap_or(0.0),
        leg.wall_ns_per_op,
        leg.eol_err_ppm,
        leg.eol_est_ppm,
        leg.eol_failed_reads,
        leg.wear_min,
        leg.wear_max,
        leg.wear_mean,
        leg.scrub_refreshes,
        leg.grown_bad_blocks,
        leg.degraded,
        leg.total_ops,
    )
}

fn main() {
    let cfg = if quick_mode() {
        LifetimeConfig::quick()
    } else {
        LifetimeConfig::standard()
    };
    println!(
        "lifetime — aged drive at {} % fill, zipfian overwrite to GC steady state\n",
        cfg.fill_pct
    );
    let obs = figure_obs();
    let r = run(&cfg, &obs);

    let widths = [10usize, 6, 7, 8, 8, 10, 12, 11];
    print_row(
        &[
            "leg".into(),
            "window".into(),
            "ops".into(),
            "WAF(w)".into(),
            "WAF(Σ)".into(),
            "ops/vsec".into(),
            "err (ppm)".into(),
            "backlog".into(),
        ],
        &widths,
    );
    print_sep(&widths);
    leg_rows(&r.off, &widths);
    leg_rows(&r.on, &widths);

    for leg in [&r.off, &r.on] {
        println!(
            "\n{}: WAF {:.2} ({}), wear {}..{} (mean {:.1}, spread {}), \
             eol err {} ppm, {} scrub refreshes, {} grown bad blocks{}",
            leg.name,
            leg.final_waf(),
            if leg.reached_steady_state() {
                "steady"
            } else {
                "NOT steady"
            },
            leg.wear_min,
            leg.wear_max,
            leg.wear_mean,
            leg.wear_spread(),
            leg.eol_est_ppm,
            leg.scrub_refreshes,
            leg.grown_bad_blocks,
            if leg.degraded {
                " — DEGRADED to read-only"
            } else {
                ""
            },
        );
    }
    println!(
        "\nend-of-life read error rate (estimated): scrub-off {} ppm vs scrub-on {} ppm",
        r.off.eol_est_ppm, r.on.eol_est_ppm
    );
    println!(
        "end-of-life read error rate (sampled, {} probes): scrub-off {} ppm vs scrub-on {} ppm",
        if quick_mode() { 800 } else { 2000 },
        r.off.eol_err_ppm,
        r.on.eol_err_ppm
    );
    println!("(the robustness claim: patrol reads + refresh relocation + wear-biased victim");
    println!(" selection hold the error floor down over the device's life; without them the");
    println!(" cold majority of the data ages toward the uncorrectable cliff)");

    export_bench_json(
        "lifetime",
        &format!(
            "{{\"fill_pct\": {}, \"scrub_off\": {}, \"scrub_on\": {}}}\n",
            r.fill_pct,
            leg_json(&r.off),
            leg_json(&r.on)
        ),
    );
    export_obs("fig_lifetime", &obs);
}
