#!/usr/bin/env bash
# Time the gating figure smokes (fig4-fig8 `--smoke`, the CI gates) and
# archive their wall times as bench/results/SMOKES_<date>.json: for each
# smoke the median, min and max over `reps` runs, plus the host.
#
# Every run must exit 0: the timing of a failing smoke means nothing, so a
# failure stops the script. Smoke output is discarded. NTSERV_THREADS is
# passed through (unset = the drivers' default) and recorded. Same-day
# archives get an "rN" suffix as in run_bench.sh; NTSERV_BENCH_TAG
# overrides it (e.g. "-parent" for a baseline built from another tree).
#
# Usage: bench/time_smokes.sh [build_dir] [reps]
set -euo pipefail

build_dir="${1:-build}"
reps="${2:-3}"
out_dir="$(dirname "$0")/results"
smokes=(fig4_closed_loop fig5_consolidation fig6_fault_tolerance fig7_orchestration fig8_brownout)

for s in "${smokes[@]}"; do
  if [[ ! -x "${build_dir}/bench/${s}" ]]; then
    echo "error: ${build_dir}/bench/${s} not found — build first:" >&2
    echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
    exit 1
  fi
done

mkdir -p "${out_dir}"
stamp="$(date +%Y-%m-%d)"
if [[ -n "${NTSERV_BENCH_TAG:-}" ]]; then
  out="${out_dir}/SMOKES_${stamp}${NTSERV_BENCH_TAG}.json"
else
  out="${out_dir}/SMOKES_${stamp}.json"
  n=2
  while [[ -e "${out}" ]]; do
    out="${out_dir}/SMOKES_${stamp}r${n}.json"
    n=$((n + 1))
  done
fi

cpu_model="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2 | sed 's/^ *//' || true)"
host="${cpu_model:-unknown CPU} x $(nproc 2>/dev/null || echo '?')"

# One "<smoke> <nanoseconds>" line per run; runs interleave the smokes
# (rep 1 of each, then rep 2, ...) so a slow spell on a shared host
# spreads over all of them instead of landing on one.
times="$(mktemp)"
trap 'rm -f "${times}"' EXIT
for ((r = 1; r <= reps; ++r)); do
  for s in "${smokes[@]}"; do
    t0="$(date +%s%N)"
    "${build_dir}/bench/${s}" --smoke > /dev/null
    t1="$(date +%s%N)"
    echo "${s} $((t1 - t0))" | tee -a "${times}"
  done
done

python3 - "${times}" "${out}" "${host}" "${reps}" "${NTSERV_THREADS:-default}" <<'EOF'
import json, statistics, sys
times_path, out, host, reps, threads = sys.argv[1:]
runs = {}
for line in open(times_path):
    name, ns = line.split()
    runs.setdefault(name, []).append(round(int(ns) / 1e9, 3))
record = {
    "host": host,
    "reps": int(reps),
    "ntserv_threads": threads,
    "unit": "s",
    "smokes": {
        name: {"median": statistics.median(v), "min": min(v), "max": max(v), "runs": v}
        for name, v in runs.items()
    },
}
with open(out, "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
EOF
echo "wrote ${out}"
