#!/usr/bin/env bash
# Regenerates results/ from the code: every figure binary in full mode, then
# the two OX_BACKEND=oxztl legs. Each binary writes its own
# results/<name>[.<backend>].txt (committed) and .obs.json (git-ignored)
# through ox_bench::Report; the tables are a pure function of the source, so
# a second run changes nothing and CI's `results-fresh` job diffs the first.
set -euo pipefail
cd "$(dirname "$0")/.."
unset OX_BACKEND OX_AGE_FILL OX_YCSB_WORKLOAD
cargo build --release -p ox-bench --bins
rm -f results/*.txt results/*.obs.json
run() { cargo run --release -q -p ox-bench --bin "$1" > /dev/null; }
for bin in fig3_recovery gc_locality fig5_throughput fig6_timeline fig7_copies \
    fig_qos_tail fig_ycsb fig_lifetime fig_ablation; do
    run "$bin"
done
for bin in fig5_throughput fig_qos_tail; do
    OX_BACKEND=oxztl run "$bin"
done
