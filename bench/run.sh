#!/usr/bin/env bash
# bench/run.sh — build nc_benchmark and run it.
#
#   bash bench/run.sh                      every workload, untraced then traced, each in its
#                                          own process; merged into bench/out/result.json;
#                                          every metric printed by name with its unit
#   bash bench/run.sh --smoke              the same at tiny scale (a few seconds in all)
#   bash bench/run.sh --compare bench/ledger/baseline.json
#                                          ... then per-metric change against the baseline
#   bash bench/run.sh --seed 7             another request order (default 42)
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one run; the last line of standard output is its
#                                          result (this is BENCHMARK.json's command)
#
# Exits non-zero if the build fails, if any run fails a correctness check, or if
# --compare finds an end-to-end metric past its bound.
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=bench/nc_benchmark/Cargo.toml
# Build output is the only thing on standard output before a run's own lines, so it goes
# to standard error.
cargo build --release --offline --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-bench/nc_benchmark/target}/release/nc_benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

seed=42
scale=(--seconds "$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)")
baseline=""
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) scale=(--seconds 0.5 --smoke) ;;
        --seed) seed="$2"; shift ;;
        --compare) baseline="$2"; shift ;;
        *) echo "bench/run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

rm -rf bench/out
status=0
for workload in plan_burst direct_m build_light update_serve; do
    for trace in 0 1; do
        echo "bench/run.sh: $workload --trace $trace" >&2
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" "${scale[@]}" >/dev/null || status=1
    done
done
"$bin" report || status=1
if [ -n "$baseline" ]; then
    "$bin" compare "$baseline" || status=1
fi
exit "$status"
