#!/usr/bin/env bash
# Bench smoke run: builds every figure/table bench, runs each once in tiny
# mode (WRHT_BENCH_TINY=1 shrinks the grids to seconds-scale runs with the
# same CSV schema), and checks that the header of every emitted CSV is
# byte-identical to the checked-in reference CSV at the repo root AND that
# the tiny grid produced exactly the expected number of data rows. Catches
# a bench that crashes, stops writing its CSV, silently changes schema, or
# truncates its sweep. A row-count trip exits immediately, naming the
# offending bench — a truncated sweep means the grid expansion itself is
# broken, and every later bench shares that machinery, so their output
# would only obscure the culprit. ablation_overlap.csv additionally gets
# its full column schema pinned here (the overlap/planner columns feed the
# reconfigure-or-not analysis, and the checked-in reference would follow a
# silently drifted writer). Every bench but Fig. 6 (11-12 s, ~1 GB, checked
# by hand) also runs once in full mode (about three seconds together), and
# its CSV must equal the checked-in one byte for byte: admission order,
# RWA, planning and engine pricing are deterministic, so any difference is
# a behaviour change. The utilization, reconfiguration and overlap
# ablations pin what the engines record into occupancy and how they charge
# reconfiguration; the RWA ablation pins first-fit and random-fit
# wavelength assignment, Fig. 4 and Fig. 5 first-fit on WRHT rings up to
# 256 wavelengths, Fig. 4 and Table 1 the closed-form WRHT plan, Fig. 2,
# Fig. 7 and the all-to-all and rate-convention ablations the optical and
# electrical engines' pricing.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: ./build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
# Absolutize: the smoke runs from a temp directory so CSVs never clobber
# the checked-in references, which breaks a relative [build-dir].
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"

# Bench name == CSV name; the binary is bench_<name>. The row count is the
# size of the bench's tiny grid (workloads x nodes x wavelengths x series,
# or the bench's own table shape) — update it when a grid changes shape.
BENCHES=(
  table1_steps
  fig2_motivating
  fig4_grouped_nodes
  fig5_wavelengths
  fig6_scaling
  fig7_electrical_vs_optical
  ablation_rwa
  ablation_alltoall
  ablation_convention
  ablation_reconfig
  ablation_overlap
  ablation_utilization
  ablation_svc_policies
  ablation_svc_telemetry
)
# Bench binaries whose CSV name differs from the binary name
# (bench_svc_policies writes ablation_svc_policies.csv and gates its own
# policy-ranking claims, exiting non-zero when they fail).
declare -A BIN_OVERRIDE=(
  [ablation_svc_policies]=bench_svc_policies
  [ablation_svc_telemetry]=bench_svc_telemetry
)
declare -A EXPECTED_ROWS=(
  [table1_steps]=4
  [fig2_motivating]=2
  [fig4_grouped_nodes]=2
  [fig5_wavelengths]=8
  [fig6_scaling]=8
  [fig7_electrical_vs_optical]=8
  [ablation_rwa]=16
  [ablation_alltoall]=2
  [ablation_convention]=2
  [ablation_reconfig]=3
  [ablation_overlap]=4
  [ablation_utilization]=8
  [ablation_svc_policies]=12
  [ablation_svc_telemetry]=4
)

targets=()
for b in "${BENCHES[@]}"; do targets+=("${BIN_OVERRIDE[$b]:-bench_$b}"); done
targets+=(wrht_analyze)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${targets[@]}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail=0
for b in "${BENCHES[@]}"; do
  bin="${BIN_OVERRIDE[$b]:-bench_$b}"
  echo "--- $bin (tiny)"
  if ! WRHT_BENCH_TINY=1 "$BUILD_DIR/bench/$bin" > "$bin.log" 2>&1; then
    echo "FAIL: $bin exited non-zero; last lines:"
    tail -n 20 "$bin.log"
    fail=1
    continue
  fi
  if [[ ! -f "$b.csv" ]]; then
    echo "FAIL: $bin did not write $b.csv"
    fail=1
    continue
  fi
  expected="$(head -n 1 "$ROOT/$b.csv")"
  actual="$(head -n 1 "$b.csv")"
  if [[ "$actual" != "$expected" ]]; then
    echo "FAIL: $b.csv header drifted"
    echo "  checked-in: $expected"
    echo "  emitted   : $actual"
    fail=1
    continue
  fi
  rows=$(($(wc -l < "$b.csv") - 1))
  if [[ "$rows" -ne "${EXPECTED_ROWS[$b]}" ]]; then
    # Fail fast: a wrong row count means the sweep grid itself truncated,
    # so later benches only bury the first culprit.
    echo "FAIL: $bin: $b.csv has $rows rows, expected ${EXPECTED_ROWS[$b]}"
    echo "bench smoke FAILED (row-count check tripped on $bin)"
    exit 1
  fi
  echo "OK: $b.csv ($rows rows, header matches)"
done

# ablation_overlap.csv: pin the full column schema, not just reference
# equality — the reconfigure-or-not analysis consumes these columns by
# name, and the checked-in reference CSV would follow a drifted writer.
overlap_schema='wavelengths,elements,wrht_serial_s,wrht_overlap_s,wrht_hidden_s,flat_overlap_s,ring_overlap_s,sim_best,planner_choice,planner_predicted_s,planner_ok'
if [[ -f ablation_overlap.csv ]]; then
  overlap_header="$(head -n 1 ablation_overlap.csv)"
  if [[ "$overlap_header" != "$overlap_schema" ]]; then
    echo "FAIL: ablation_overlap.csv header schema drifted"
    echo "  expected: $overlap_schema"
    echo "  emitted : $overlap_header"
    exit 1
  fi
  echo "OK: ablation_overlap.csv column schema pinned"
fi

# Full-mode runs: every row of every checked-in CSV but Fig. 6 must come
# out byte-identical. They run in their own directory so the tiny-mode
# artifacts checked below stay untouched.
mkdir full
for b in ablation_svc_policies ablation_svc_telemetry ablation_utilization \
         ablation_reconfig ablation_overlap ablation_rwa ablation_alltoall \
         ablation_convention fig2_motivating fig4_grouped_nodes \
         fig5_wavelengths fig7_electrical_vs_optical table1_steps; do
  bin="${BIN_OVERRIDE[$b]:-bench_$b}"
  echo "--- $bin (full)"
  if ! (cd full && "$BUILD_DIR/bench/$bin" > "$bin.log" 2>&1); then
    echo "FAIL: $bin (full) exited non-zero; last lines:"
    tail -n 20 "full/$bin.log"
    exit 1
  fi
  if ! cmp "full/$b.csv" "$ROOT/$b.csv"; then
    echo "FAIL: full-mode $b.csv differs from the checked-in reference"
    exit 1
  fi
  echo "OK: full-mode $b.csv is byte-identical to the checked-in reference"
done

# Telemetry side-channel artifacts from bench_svc_telemetry: the event log
# must lead with its svc-events-1 schema marker and hold exactly the row
# count its own header promises, and the time-series CSV must keep the
# metrics export schema. Each check fails fast naming the offending file —
# downstream tooling (wrht_analyze --service, CI artifact consumers) parses
# these by schema, so a drifted file is worse than a missing one.
if [[ ! -f svc_events.jsonl ]]; then
  echo "FAIL: bench_svc_telemetry did not write svc_events.jsonl"
  exit 1
fi
if ! head -n 1 svc_events.jsonl | grep -q '"schema": "svc-events-1"'; then
  echo "FAIL: svc_events.jsonl is missing the svc-events-1 schema marker"
  echo "  header: $(head -n 1 svc_events.jsonl)"
  exit 1
fi
declared_events="$(head -n 1 svc_events.jsonl \
  | sed -n 's/.*"events": \([0-9]*\).*/\1/p')"
actual_events="$(($(wc -l < svc_events.jsonl) - 1))"
if [[ -z "$declared_events" || "$actual_events" -ne "$declared_events" ]]; then
  echo "FAIL: svc_events.jsonl declares ${declared_events:-?} events but" \
       "holds $actual_events lines after the header"
  exit 1
fi
echo "OK: svc_events.jsonl (schema marker + $actual_events events)"

timeseries_schema='metric,kind,t_s,value'
if [[ ! -f svc_telemetry_timeseries.csv ]]; then
  echo "FAIL: bench_svc_telemetry did not write svc_telemetry_timeseries.csv"
  exit 1
fi
timeseries_header="$(head -n 1 svc_telemetry_timeseries.csv)"
if [[ "$timeseries_header" != "$timeseries_schema" ]]; then
  echo "FAIL: svc_telemetry_timeseries.csv header schema drifted"
  echo "  expected: $timeseries_schema"
  echo "  emitted : $timeseries_header"
  exit 1
fi
echo "OK: svc_telemetry_timeseries.csv column schema pinned"

# Causal blame smoke: wrht_analyze --blame must emit a wrht-blame-1 report
# whose accounting identity holds. The CLI gates the identity itself
# (verify::check_blame_identity, exit 1 on breakage); the schema marker and
# the attributed==total sum are re-checked here on the emitted bytes so a
# writer that drifts away from what the CLI validated still trips the smoke.
echo "--- wrht_analyze --blame"
if ! "$BUILD_DIR/examples/wrht_analyze" 32 4096 8 wrht optical-ring \
    --blame smoke_blame.json > wrht_analyze_blame.log 2>&1; then
  echo "FAIL: wrht_analyze --blame exited non-zero (identity gate?); last lines:"
  tail -n 20 wrht_analyze_blame.log
  exit 1
fi
if ! head -n 2 smoke_blame.json | grep -q '"schema": "wrht-blame-1"'; then
  echo "FAIL: smoke_blame.json is missing the wrht-blame-1 schema marker"
  echo "  head: $(head -n 2 smoke_blame.json | tr '\n' ' ')"
  exit 1
fi
blame_total="$(sed -n 's/.*"total_time": \([^,]*\),*$/\1/p' smoke_blame.json \
  | head -n 1)"
blame_attr="$(sed -n 's/.*"attributed_time": \([^,]*\),*$/\1/p' \
  smoke_blame.json | head -n 1)"
if [[ -z "$blame_total" || -z "$blame_attr" ]] || \
   ! awk -v t="$blame_total" -v a="$blame_attr" \
       'BEGIN { d = t - a; if (d < 0) d = -d;
                tol = 1e-9 * (t > 0 ? t : 1);
                exit (d <= tol) ? 0 : 1 }'; then
  echo "FAIL: smoke_blame.json blame identity broken:" \
       "attributed ${blame_attr:-?} != total ${blame_total:-?}"
  exit 1
fi
echo "OK: smoke_blame.json (schema marker + identity: $blame_attr s)"

# Stash the telemetry artifacts outside the temp dir (deleted on exit) so
# CI can upload them alongside the smoke logs.
mkdir -p "$BUILD_DIR/telemetry_artifacts"
cp svc_events.jsonl svc_telemetry_timeseries.csv svc_trace.json \
   ablation_svc_telemetry.csv smoke_blame.json \
   "$BUILD_DIR/telemetry_artifacts/"
echo "OK: telemetry artifacts staged in $BUILD_DIR/telemetry_artifacts"

if [[ $fail -ne 0 ]]; then
  echo "bench smoke FAILED"
  exit 1
fi
echo "bench smoke passed: ${#BENCHES[@]} benches, all CSVs match"
