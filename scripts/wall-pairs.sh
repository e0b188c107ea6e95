#!/usr/bin/env bash
# Host-time claims, measured the one way they are made: alternating pairs of
# a parent build and a build of the working tree.
#
#   scripts/wall-pairs.sh [--seed <n>] <parent-rev> [workload…]
#
# Exports <parent-rev> with `git archive`, builds its oxperf and the working
# tree's, each in a target directory of its own and both with one codegen
# unit (with the default sixteen, the same source built twice differs by up
# to 15 % in wall time on the update workloads), then runs ten
# parent/change pairs of each workload (all six when none is named; seed 1
# unless --seed names the held-back one, the benchmark's own `--seconds`,
# untraced). The side that runs first alternates from pair to pair, so
# neither one always finds the caches and the host as the other left them.
# It prints, per workload and host metric, the quartiles and median of each
# side, the ratio of the medians, how many pairs the change won (ties count
# for neither), and the two tests a claimed gain must pass: the change won
# at least nine pairs in ten ("9/10"), and the medians lie further apart
# than the parent's inter-quartile range ("gap>IQR"). It ends with
# `oxperf compare --identical` over every run with the three host metrics
# dropped from both sides, as scripts/bench-trajectory.sh does: a
# simulator-speed change must leave every virtual value and every count
# exactly equal, while single runs of host time differ by noise (the table
# above is where they are judged). The exit status is that comparison's.
# The runs are kept in the directory printed first.
set -euo pipefail
usage() { echo "usage: $0 [--seed <n>] <parent-rev> [workload...]" >&2; exit 2; }
seed=1
if [ "${1:-}" = --seed ]; then
    [ $# -ge 2 ] || usage
    seed="$2"
    shift 2
fi
[ $# -ge 1 ] || usage
cd "$(dirname "$0")/.."
parent_rev="$1"
shift
pairs=10
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
        order="parent change"
        [ $((pair % 2)) -eq 1 ] || order="change parent"
        for side in $order; do
            "$work/$side-target/release/oxperf" run --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace 0 --out-dir "$work/out" \
                --out "$work/$side.jsonl" > /dev/null
        done
        echo "$w: pair $pair of $pairs done ($order)" >&2
    done
done

python3 - "$work" <<'EOF'
import json, statistics, sys
work = sys.argv[1]
read = lambda side: [json.loads(l) for l in open(f"{work}/{side}.jsonl") if l.strip()]
parent, change = read("parent"), read("change")
print(f"{'workload':<11} {'host metric':<15} {'parent q1/med/q3':>28} {'change q1/med/q3':>28}"
      f" {'ratio':>6} {'wins':>6} {'9/10':>5} {'gap>IQR':>8}")
quartiles = lambda xs: statistics.quantiles(xs, n=4, method="inclusive")
for w in dict.fromkeys(r["workload"] for r in parent):
    ps = [r["values"] for r in parent if r["workload"] == w]
    cs = [r["values"] for r in change if r["workload"] == w]
    for k in ("wall_ns_per_op", "setup_s", "peak_rss_mb"):
        p, c = [v[k] for v in ps], [v[k] for v in cs]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(b < a for a, b in zip(p, c))
        # Lower is better for all three; a gain needs both tests.
        yes = lambda ok: "yes" if ok else "no"
        print(f"{w:<11} {k:<15} {'/'.join(f'{q:.4g}' for q in pq):>28}"
              f" {'/'.join(f'{q:.4g}' for q in cq):>28} {cq[1] / pq[1]:>6.3f}"
              f" {wins:>3}/{len(p):<2} {yes(10 * wins >= 9 * len(p)):>5}"
              f" {yes(pq[1] - cq[1] > pq[2] - pq[0]):>8}")
host = ("wall_ns_per_op", "peak_rss_mb", "setup_s")
for side, recs in (("parent", parent), ("change", change)):
    with open(f"{work}/{side}.virtual.jsonl", "w") as out:
        for r in recs:
            r["values"] = {k: v for k, v in r["values"].items() if k not in host}
            out.write(json.dumps(r) + "\n")
EOF
"$work/change-target/release/oxperf" compare "$work/parent.virtual.jsonl" \
    "$work/change.virtual.jsonl" --identical
