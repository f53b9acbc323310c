// Metric arithmetic shared by the workloads and the self-test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of a non-empty sample (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// part / whole, 0 when whole is 0.
inline double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Fleet quanta covering a simulated span: the run loop advances the
/// fleet one quantum of base-frequency cycles at a time.
inline std::uint64_t quanta(std::uint64_t span_cycles, std::uint64_t quantum) {
  return quantum == 0 ? 0 : (span_cycles + quantum - 1) / quantum;
}

/// Request copies a fleet ran to the end: completions plus the hedged
/// and failed-over copies that finished after the winner (wasted work).
inline std::uint64_t served_copies(std::uint64_t completed, std::uint64_t wasted) {
  return completed + wasted;
}

/// Share of the served copies that were useful.
inline double useful_copy_frac(std::uint64_t completed, std::uint64_t wasted) {
  return share(static_cast<double>(completed), static_cast<double>(served_copies(completed, wasted)));
}

/// Host milliseconds per unit of simulated work, 0 when no work was done.
inline double ms_per_unit(double seconds, double units) { return 1e3 * share(seconds, units); }

/// Parallel speedup of an N-worker run over the 1-worker run of the same
/// config, and its efficiency per worker.
inline double speedup(double one_worker_s, double n_worker_s) {
  return share(one_worker_s, n_worker_s);
}
inline double efficiency(double speedup_value, int workers) {
  return workers > 0 ? speedup_value / workers : 0.0;
}

/// Busy fraction of the workers over a phase: process CPU time over
/// wall time times workers.
inline double cpu_util(double cpu_s, double wall_s, int workers) {
  return share(cpu_s, wall_s * workers);
}

/// Extra wall time of the telemetry-on run relative to the untraced one.
inline double overhead_frac(double traced_s, double untraced_s) {
  return untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
}

/// Share of peak DRAM bus bandwidth used: DDR moves two 8-byte beats per
/// memory clock per channel (the same peak ServerSimulator assumes).
inline double bus_util(std::uint64_t bytes, std::uint64_t dram_cycles, int channels) {
  return share(static_cast<double>(bytes), static_cast<double>(dram_cycles) * channels * 16.0);
}

}  // namespace perfbench
