#!/usr/bin/env bash
# oxperf entry point: builds the benchmark from source (offline) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result object the driver reads.
#   benchmark/run.sh [--all] [oxperf run flags]
#       all six workloads in turn (seed 1 unless --seed is given), every metric
#       printed by name and unit, records appended to benchmark/out/latest.jsonl
#       for `oxperf compare`.
#
# Run from the root of a checkout. The target directory is CARGO_TARGET_DIR
# if set, else benchmark/target.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/oxperf"

case " $* " in
*" --workload "*)
    exec "$bin" run --out-dir "$here/out" "$@"
    ;;
esac

[ "${1:-}" = "--all" ] && shift
rm -f "$here/out/latest.jsonl"
status=0
for workload in $("$bin" list 2>/dev/null); do
    "$bin" run --out-dir "$here/out" --out "$here/out/latest.jsonl" \
        --workload "$workload" "$@" || status=$?
done
exit "$status"
