#!/usr/bin/env bash
# The committed benchmark trajectory. BENCH_trajectory.jsonl holds, for every
# change that moved a modeled number, one `oxperf run --out` line per
# workload: seed 1, `--seconds 1 --quick --trace 0`, oldest first.
#
#   scripts/bench-trajectory.sh           rerun the quick runs and check each
#                                         against the file's last line for its
#                                         workload (exit 1 on any drift)
#   scripts/bench-trajectory.sh --append  rerun them, print the same check
#                                         without gating on it (the rows this
#                                         change moved), and append their lines
#
# The check is `oxperf compare --identical` with the three host metrics
# (wall_ns_per_op, peak_rss_mb, setup_s) dropped from both sides: every
# virtual-clock metric must repeat exactly, while the host metrics belong to
# the machine that wrote the line, so they are printed beside the run's own
# and not gated. Run from anywhere; builds oxperf through benchmark/run.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
trajectory=BENCH_trajectory.jsonl
oxperf="${CARGO_TARGET_DIR:-benchmark/target}/release/oxperf"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --quick --trace 0 \
        --out "$work/run.jsonl" > /dev/null
done

python3 - "$trajectory" "$work" <<'EOF'
import json, sys
trajectory, work = sys.argv[1], sys.argv[2]
host = ("wall_ns_per_op", "peak_rss_mb", "setup_s")
read = lambda path: [json.loads(l) for l in open(path) if l.strip()]
last = {r["workload"]: r for r in read(trajectory)}
runs = read(f"{work}/run.jsonl")
for r in runs:
    if not r["correct"]:
        sys.exit(f"{r['workload']}: the run disagrees with its shadow model")
    if r["workload"] not in last:
        sys.exit(f"{trajectory} has no line for {r['workload']}")
print(f"{'workload':<12} {'host metric':<16} {'last line':>12} {'this run':>12}")
for r in runs:
    for k in host:
        print(f"{r['workload']:<12} {k:<16} {last[r['workload']]['values'][k]:>12.4g} "
              f"{r['values'][k]:>12.4g}")
for name, recs in (("last", [last[r["workload"]] for r in runs]), ("run", runs)):
    with open(f"{work}/{name}.virtual.jsonl", "w") as out:
        for r in recs:
            r["values"] = {k: v for k, v in r["values"].items() if k not in host}
            out.write(json.dumps(r) + "\n")
EOF
if [ "${1:-}" = "--append" ]; then
    "$oxperf" compare "$work/last.virtual.jsonl" "$work/run.virtual.jsonl" --identical || true
    cat "$work/run.jsonl" >> "$trajectory"
    exit 0
fi
"$oxperf" compare "$work/last.virtual.jsonl" "$work/run.virtual.jsonl" --identical
