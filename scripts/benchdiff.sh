#!/bin/sh
# benchdiff.sh — the benchmark-regression gate: re-collect the tracked
# performance metrics and diff them against the newest committed
# BENCH_<n>.json, failing (exit 1) when any metric regresses past its
# tolerance (15% for deterministic metrics, 60% for wall-clock ones).
#
#   scripts/benchdiff.sh            # full comparison (all metrics)
#   scripts/benchdiff.sh -quick     # deterministic metrics only — safe
#                                   # on loaded/shared machines, used by
#                                   # scripts/check.sh
#
# Refresh the baseline after an intentional perf change with:
#   go run ./cmd/armci-bench -baseline
set -eu

cd "$(dirname "$0")/.."

quick=""
if [ "${1:-}" = "-quick" ]; then
    quick="-quick"
fi

# The newest baseline is the one with the numerically highest <n> (the
# shell's glob order would put BENCH_10.json before BENCH_2.json).
n=$(ls | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)
if [ -z "$n" ]; then
    echo "benchdiff: no BENCH_<n>.json baseline committed; create one with: go run ./cmd/armci-bench -baseline" >&2
    exit 2
fi

exec go run ./cmd/armci-bench -compare "BENCH_$n.json" $quick
