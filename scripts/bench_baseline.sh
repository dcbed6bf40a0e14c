#!/usr/bin/env bash
# Capture or check the committed bench baselines under bench/baselines/.
#
#   scripts/bench_baseline.sh capture   re-runs the baseline benches and
#                                       overwrites bench/baselines/*.json
#   scripts/bench_baseline.sh check     re-runs them and diffs against the
#                                       committed baselines with bench_diff
#
# Baselines travel across machines, so the check runs bench_diff with
# --ignore-time: only the deterministic counters/metrics (output sizes,
# blowup ratios, answer counts, allocations per row) gate; wall times are
# compared by the same-machine ctest entries instead.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-check}
case "$mode" in
  capture|check) ;;
  *) echo "usage: $0 [capture|check]" >&2; exit 2 ;;
esac

cmake -B build >/dev/null
cmake --build build --target \
  bench_ns_elimination bench_wd_to_simple bench_opt_vs_ns bench_diff \
  >/dev/null

# <bench binary> <family filter>: restricted to the families whose
# counters are machine-independent (transformation sizes, and the E9
# query pair's answers and allocations per row).
benches=(
  "bench_ns_elimination BM_EliminateNs"
  "bench_wd_to_simple BM_WdToSimple"
  "bench_opt_vs_ns BM_"
)

mkdir -p bench/baselines bench/out
failures=0
for entry in "${benches[@]}"; do
  read -r name filter <<<"$entry"
  fresh=bench/out/BENCH_$name.json
  base=bench/baselines/BENCH_$name.json
  build/bench/"$name" --json="$fresh" --benchmark_filter="$filter" \
    --benchmark_min_time=0.01 >/dev/null
  if [ "$mode" = capture ]; then
    cp "$fresh" "$base"
    echo "captured $base"
  elif [ ! -f "$base" ]; then
    echo "$name: no baseline ($base); run '$0 capture' first" >&2
    failures=$((failures + 1))
  elif build/bench/bench_diff --ignore-time --require-cases \
      "$base" "$fresh"; then
    echo "$name: OK"
  else
    echo "$name: REGRESSION vs $base" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "bench_baseline.sh: $failures failure(s)" >&2
  exit 1
fi
