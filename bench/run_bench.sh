#!/usr/bin/env bash
# Run the perf microbench suite and archive the results as
# BENCH_<date>.json (google-benchmark JSON), so the perf trajectory of
# the simulator is tracked PR over PR.
#
# Archived runs are pinned for PR-over-PR comparability:
#   * NTSERV_THREADS=1 — sweep fan-out width must not depend on the host
#     (results are bit-identical anyway, but wall-clock is not);
#   * --benchmark_min_time is pinned (NTSERV_BENCH_MIN_TIME, seconds) so
#     iteration counts do not float with machine speed.
# Compare the two newest archives with bench/compare_bench.py.
#
# Usage: bench/run_bench.sh [build_dir] [out_dir]
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench/results}"
bin="${build_dir}/bench/perf_microbench"

if [[ ! -x "${bin}" ]]; then
  echo "error: ${bin} not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

mkdir -p "${out_dir}"
# Same-day archives auto-increment an "rN" suffix (BENCH_<date>.json,
# then BENCH_<date>r2.json, ...) so a second run never overwrites the
# first; NTSERV_BENCH_TAG still overrides the suffix explicitly. The
# suffix must sort lexicographically after ".json" strips, which plain
# alphanumerics do.
stamp="$(date +%Y-%m-%d)"
if [[ -n "${NTSERV_BENCH_TAG:-}" ]]; then
  out="${out_dir}/BENCH_${stamp}${NTSERV_BENCH_TAG}.json"
else
  out="${out_dir}/BENCH_${stamp}.json"
  n=2
  while [[ -e "${out}" ]]; do
    out="${out_dir}/BENCH_${stamp}r${n}.json"
    n=$((n + 1))
  done
fi

# Stamp the archive with what produced it: the commit and the scheduler
# wakeup-list mode land in the JSON "context" object, so a diff of two
# archives can say *which builds* it is comparing (compare_bench.py
# prints these labels).
git_sha="$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"
wakeup_mode="${NTSERV_WAKEUP_LIST:-1}"
# Self-profiling (src/obs phase timers) is on by default: the flag lands
# in the archive's context, the sweep-point/barrier wall costs surface as
# per-benchmark counters, and the phase table prints to stderr after the
# run. Set NTSERV_BENCH_PHASE_TIMERS=0 to switch it off.
phase_timers="${NTSERV_BENCH_PHASE_TIMERS:-1}"
# Name the host by CPU model and count: google-benchmark's own context
# gives only a hostname and a MHz figure, and wall-clock numbers from
# two archives compare only on the same kind of host.
cpu_model="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2 | sed 's/^ *//' || true)"
host="${cpu_model:-unknown CPU} x $(nproc 2>/dev/null || echo '?')"

NTSERV_THREADS=1 NTSERV_BENCH_PHASE_TIMERS="${phase_timers}" "${bin}" \
  --benchmark_format=json \
  --benchmark_min_time="${NTSERV_BENCH_MIN_TIME:-0.25}" \
  --benchmark_repetitions="${NTSERV_BENCH_REPS:-1}" \
  --benchmark_context=git_sha="${git_sha}" \
  --benchmark_context=wakeup_list="${wakeup_mode}" \
  --benchmark_context=phase_timers="${phase_timers}" \
  --benchmark_context=host="${host}" \
  --benchmark_out="${out}" \
  --benchmark_out_format=json

echo "wrote ${out}"
