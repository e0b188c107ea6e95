#!/usr/bin/env bash
# Host-time claims, measured the one way they are made: alternating pairs of
# a parent build and a build of the working tree.
#
#   scripts/wall-pairs.sh <parent-rev> [workload…]
#
# Exports <parent-rev> with `git archive`, builds its oxperf and the working
# tree's, each in a target directory of its own and both with one codegen
# unit (with the default sixteen, the same source built twice differs by up
# to 15 % in wall time on the update workloads), then runs six alternating
# parent/change pairs of each workload (all six when none is named; seed 1,
# the benchmark's own `--seconds`, untraced). It prints, per workload and
# host metric, the median and quartiles of each side, the ratio of the
# medians and how many pairs the change won, and ends with
# `oxperf compare --identical` over every run with the three host metrics
# dropped from both sides, as scripts/bench-trajectory.sh does: a
# simulator-speed change must leave every virtual value and every count
# exactly equal, while single runs of host time differ by noise (the table
# above is where they are judged). The exit status is that comparison's.
# The runs are kept in the directory printed first.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <parent-rev> [workload...]" >&2; exit 2; }
cd "$(dirname "$0")/.."
parent_rev="$1"
shift
pairs=6
work="$(mktemp -d "${TMPDIR:-/tmp}/wall-pairs.XXXXXX")"
echo "runs in $work" >&2
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads="$*"
[ -n "$workloads" ] || workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

mkdir "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"
export CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
build() { # <checkout> <target dir>
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$2" >&2
}
build "$work/parent" "$work/parent-target"
# Cargo rewrites benchmark/Cargo.lock when it resolves; the checkout keeps its own.
cp benchmark/Cargo.lock "$work/Cargo.lock.saved"
trap 'cp "$work/Cargo.lock.saved" benchmark/Cargo.lock' EXIT
build . "$work/change-target"

for w in $workloads; do
    for pair in $(seq "$pairs"); do
        for side in parent change; do
            "$work/$side-target/release/oxperf" run --workload "$w" --seed 1 \
                --seconds "$seconds" --trace 0 --out-dir "$work/out" \
                --out "$work/$side.jsonl" > /dev/null
        done
        echo "$w: pair $pair of $pairs done" >&2
    done
done

python3 - "$work" <<'EOF'
import json, statistics, sys
work = sys.argv[1]
read = lambda side: [json.loads(l) for l in open(f"{work}/{side}.jsonl") if l.strip()]
parent, change = read("parent"), read("change")
print(f"{'workload':<11} {'host metric':<15} {'parent q1/med/q3':>28} {'change q1/med/q3':>28}"
      f" {'ratio':>6} {'wins':>5}")
for w in dict.fromkeys(r["workload"] for r in parent):
    ps = [r["values"] for r in parent if r["workload"] == w]
    cs = [r["values"] for r in change if r["workload"] == w]
    for k in ("wall_ns_per_op", "setup_s", "peak_rss_mb"):
        p, c = [v[k] for v in ps], [v[k] for v in cs]
        quart = lambda xs: "/".join(f"{q:.4g}" for q in statistics.quantiles(xs, n=4, method="inclusive"))
        wins = sum(b < a for a, b in zip(p, c))
        print(f"{w:<11} {k:<15} {quart(p):>28} {quart(c):>28}"
              f" {statistics.median(c) / statistics.median(p):>6.3f} {wins:>3}/{len(p)}")
host = ("wall_ns_per_op", "peak_rss_mb", "setup_s")
for side, recs in (("parent", parent), ("change", change)):
    with open(f"{work}/{side}.virtual.jsonl", "w") as out:
        for r in recs:
            r["values"] = {k: v for k, v in r["values"].items() if k not in host}
            out.write(json.dumps(r) + "\n")
EOF
"$work/change-target/release/oxperf" compare "$work/parent.virtual.jsonl" \
    "$work/change.virtual.jsonl" --identical
