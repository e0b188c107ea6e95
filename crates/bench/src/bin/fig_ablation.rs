//! Cross-interface ablation: YCSB A/B/C over the block FTL (`ox-block`),
//! the zone-translation layer (`oxztl` over OX-ZNS) and the KV-SSD
//! (`ox-kvssd`) on identical devices — the paper's §5 question "what does
//! the interface cost?" measured as throughput, steady-state write
//! amplification and tail latency from a single run.
//!
//! By default all three interfaces run; `OX_BACKEND=oxblock|oxztl|kvssd`
//! restricts the run to one interface (a CI matrix leg).
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_ablation [--quick]`

use ox_bench::ablation::{self, AblationConfig};
use ox_bench::backend::{BenchBackend, ALL_BACKENDS};
use ox_bench::{figure_obs, quick_mode, Report};

fn main() {
    let only = BenchBackend::from_env(&ALL_BACKENDS);
    let cfg = if quick_mode() {
        AblationConfig::quick()
    } else {
        AblationConfig::full()
    };
    let obs = figure_obs();
    let mut report = Report::new("fig_ablation", only);
    ablation::report(&cfg, only, &obs, &mut report);
    report.finish(&obs);
}
