#!/usr/bin/env bash
# Perf smoke run: builds wrht_perf, runs the tiny micro- and scale-suites,
# and checks four contracts:
#
#   1. BENCH_micro.json exists and carries the wrht-perf-1 schema markers
#      (schema id, phase table, thread efficiency, peak RSS) and the two
#      observability-contract metrics (scoped_timer_off, probe_overhead).
#   2. The measurement passes the checked-in tiny baseline
#      (bench/baselines/micro-tiny.baseline) — a real perf regression or a
#      metric-schema drift fails the script.
#   3. The regression path actually fires: a doctored baseline with an
#      injected 2x slowdown on every metric must make wrht_perf exit
#      non-zero. Catches comparator rot (a comparator that never fails is
#      worse than none).
#   4. The scale suite (wrht_perf --scale) passes its tiny baseline and
#      writes BENCH_scale.json carrying the sweep-volume gate metric
#      (scale_sweep.points_x_max_n) — the harness itself exits 1 when the
#      sweep's points x max N drops below 10x the micro sweep's volume.
#
# Wall-clock baselines are machine-sensitive; thresholds in the checked-in
# baseline are generous (4x slowdown). Refresh with
# `wrht_perf --write-baseline` per EXPERIMENTS.md when they drift for
# legitimate reasons.
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: ./build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"

cmake --build "$BUILD_DIR" -j "$(nproc)" --target wrht_perf

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "--- wrht_perf tiny vs checked-in baseline"
"$BUILD_DIR/examples/wrht_perf" --tiny \
  --baseline "$ROOT/bench/baselines/micro-tiny.baseline" \
  --out BENCH_micro.json

echo "--- BENCH_micro.json schema markers"
for marker in '"schema": "wrht-perf-1"' '"phases"' '"thread_efficiency"' \
              '"peak_rss_bytes"' '"metrics"' 'scoped_timer_off' \
              'probe_overhead'; do
  if ! grep -qF "$marker" BENCH_micro.json; then
    echo "FAIL: BENCH_micro.json is missing $marker"
    exit 1
  fi
done
echo "OK: schema markers present"

echo "--- wrht_perf scale tiny vs checked-in baseline"
"$BUILD_DIR/examples/wrht_perf" --scale --tiny \
  --baseline "$ROOT/bench/baselines/scale-tiny.baseline" \
  --out BENCH_scale.json

echo "--- BENCH_scale.json schema markers"
for marker in '"schema": "wrht-perf-1"' '"name": "scale"' \
              'scale_sweep.points_x_max_n' '"peak_rss_bytes"'; do
  if ! grep -qF "$marker" BENCH_scale.json; then
    echo "FAIL: BENCH_scale.json is missing $marker"
    exit 1
  fi
done
echo "OK: scale schema markers present"

echo "--- injected 2x slowdown must regress"
# Halve every lower-is-better value and double every higher-is-better one,
# with a 0.9 drift threshold: the fresh measurement then reads as a 2x
# slowdown across the board and the comparison must fail.
awk -F, 'BEGIN{OFS=","}
  /^#/ || /^metric/ {print; next}
  {if ($4 == "lower") $2 = $2 / 2; else $2 = $2 * 2; $3 = 0.9; print}' \
  "$ROOT/bench/baselines/micro-tiny.baseline" > doctored.baseline
if "$BUILD_DIR/examples/wrht_perf" --tiny --baseline doctored.baseline \
    --out /dev/null > doctored.log 2>&1; then
  echo "FAIL: wrht_perf exited 0 against a 2x-slowdown baseline"
  tail -n 20 doctored.log
  exit 1
fi
echo "OK: regression path fires (non-zero exit)"

echo "perf smoke passed"
