//! Device-lifetime figure: wear-coupled aging under sustained zipfian
//! overwrite at a 90 % fill level, scrub-off vs. scrub-on (background
//! patrol + refresh + wear-biased GC).
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_lifetime [--quick]`

use ox_bench::lifetime::{self, LifetimeConfig};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let cfg = if quick_mode() {
        LifetimeConfig::quick()
    } else {
        LifetimeConfig::standard()
    };
    let obs = figure_obs();
    let mut report = Report::new("fig_lifetime");
    lifetime::report(&cfg, &obs, &mut report);
    report.finish(&obs);
}
