#!/usr/bin/env bash
# Regenerates results/ from the code: every figure binary in full mode. Each
# binary writes its own results/<name>.txt (committed) and .obs.json
# (git-ignored) through ox_bench::Report; the tables are a pure function of
# the source, so a second run changes nothing and CI's `results-fresh` job
# diffs the first. tests/regen_results.rs checks that the list below names
# every binary in crates/bench/src/bin/.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p ox-bench --bins
rm -f results/*.txt results/*.obs.json
for bin in fig3_recovery gc_locality fig5_throughput fig7_copies \
    fig_qos_tail fig_ycsb fig_lifetime fig_ablation; do
    cargo run --release -q -p ox-bench --bin "$bin" > /dev/null
done
