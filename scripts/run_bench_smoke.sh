#!/usr/bin/env bash
# Benchmark smoke gate: build the Release preset, run a tiny facility
# scaling benchmark, and check that sharded execution actually beats
# sequential on multi-core hosts.
#
# On a single-CPU host there is nothing to compare (shards resolve to 1),
# so the check exits 77 — wired into CTest with SKIP_RETURN_CODE 77 the
# test reports as skipped, not passed.
#
#   scripts/run_bench_smoke.sh [build-dir]     (default: build-release)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-release}"
MIN_SPEEDUP="${SPRINTCON_SMOKE_MIN_SPEEDUP:-1.5}"
RIGS="${SPRINTCON_SMOKE_RIGS:-16}"

if [ "$(nproc)" -lt 2 ]; then
  echo "run_bench_smoke: only $(nproc) CPU — parallel speedup unmeasurable, skipping"
  exit 77
fi

if [ "$BUILD_DIR" = "build-release" ]; then
  cmake --preset release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target perf_controller

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "run_bench_smoke: WARNING: $BUILD_DIR is $BUILD_TYPE, not Release" >&2
fi

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
# Sequential (threads=1) and sharded (threads=0) rows for a small fleet,
# timed on the wall clock (the rows use UseRealTime, which appends
# /real_time to their names).
"$BUILD_DIR/bench/perf_controller" \
  --benchmark_filter="BM_FacilityScaling/$RIGS/[01]/real_time\$" \
  --benchmark_out="$OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2 >/dev/null

python3 - "$OUT" "$MIN_SPEEDUP" <<'EOF'
import json, sys
raw = json.load(open(sys.argv[1]))
min_speedup = float(sys.argv[2])
rows = {}
for entry in raw.get("benchmarks", []):
    if entry.get("run_type") != "iteration":
        continue
    rows[entry["name"]] = entry["items_per_second"]
seq = next((v for k, v in rows.items() if k.endswith("/1/real_time")), None)
par = next((v for k, v in rows.items() if k.endswith("/0/real_time")), None)
if seq is None or par is None:
    sys.exit(f"missing benchmark rows, got: {sorted(rows)}")
speedup = par / seq
print(f"sequential {seq:,.0f} ticks/s, sharded {par:,.0f} ticks/s, "
      f"speedup {speedup:.2f}x (need >= {min_speedup}x)")
if speedup < min_speedup:
    sys.exit(f"FAIL: sharded speedup {speedup:.2f}x < {min_speedup}x")
print("OK")
EOF
