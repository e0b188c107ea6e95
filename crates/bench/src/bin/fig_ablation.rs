//! Cross-interface ablation: YCSB A/B/C over the block FTL (`ox-block`),
//! the zone-translation layer (`oxztl` over OX-ZNS) and the KV-SSD
//! (`ox-kvssd`) on identical devices — the paper's §5 question "what does
//! the interface cost?" measured as throughput, steady-state write
//! amplification and tail latency from a single run.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_ablation [--quick]`

use ox_bench::ablation::{self, AblationConfig};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let cfg = if quick_mode() {
        AblationConfig::quick()
    } else {
        AblationConfig::full()
    };
    let obs = figure_obs();
    let mut report = Report::new("fig_ablation");
    ablation::report(&cfg, &obs, &mut report);
    report.finish(&obs);
}
