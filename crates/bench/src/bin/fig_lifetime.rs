//! Device-lifetime figure: wear-coupled aging under sustained zipfian
//! overwrite at the `OX_AGE_FILL` fill level (default 90 %), scrub-off vs.
//! scrub-on (background patrol + refresh + wear-biased GC).
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_lifetime [--quick]`
//! Env: `OX_AGE_FILL=70|90` selects the fill leg of the aging matrix.

use ox_bench::lifetime::{self, LifetimeConfig};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let cfg = if quick_mode() {
        LifetimeConfig::quick()
    } else {
        LifetimeConfig::standard()
    };
    let obs = figure_obs();
    let mut report = Report::new("fig_lifetime", None);
    lifetime::report(&cfg, &obs, &mut report);
    report.finish(&obs);
}
