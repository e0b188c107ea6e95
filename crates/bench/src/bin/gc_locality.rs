//! Regenerates the §4.3 GC-locality numbers: the fraction of user I/O
//! unaffected by garbage collection on 8-channel and 16-channel drives
//! (paper: 87.5 % and 93.7 %).
//!
//! Usage: `cargo run --release -p ox-bench --bin gc_locality [--quick]`

use ox_bench::gc_locality::run;
use ox_bench::{export_obs, figure_obs, print_row, print_sep, quick_mode};
use ox_sim::SimDuration;

fn main() {
    let duration = if quick_mode() {
        SimDuration::from_millis(300)
    } else {
        SimDuration::from_secs(2)
    };
    println!(
        "§4.3 — GC interference locality (OX-Block, group-marked GC + uniform random reads)\n"
    );
    let obs = figure_obs();
    let result = run(duration, &obs).expect("experiment");

    let widths = [10usize, 16, 16, 14];
    print_row(
        &[
            "channels".into(),
            "unaffected (%)".into(),
            "paper/expected".into(),
            "I/Os sampled".into(),
        ],
        &widths,
    );
    print_sep(&widths);
    for p in &result.points {
        print_row(
            &[
                p.groups.to_string(),
                format!("{:.2}", p.unaffected_pct),
                format!("{:.2}", p.expected_pct),
                p.ios_classified.to_string(),
            ],
            &widths,
        );
    }
    println!("\n(paper §4.3: 'On an SSD with 16 channels, this percentage is 93,7%. On an SSD with 8 channels, this percentage is 87,5%.')");
    export_obs("gc_locality", &obs);
}
