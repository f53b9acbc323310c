// Server-level evaluation facade: one call per (workload, frequency) point.
//
// Reproduces the paper's measurement pipeline: simulate one cluster under
// SMARTS sampling, scale UIPS to the chip by the cluster count (clusters
// share no state, Sec. II-B), feed the measured activity into the server
// power model, and report UIPS/Watt at the paper's three scopes
// (cores / SoC / server — Figs. 3 and 4).
#pragma once

#include <vector>

#include "power/server_power.hpp"
#include "sim/cluster.hpp"
#include "sim/sampling.hpp"
#include "sim/thread_pool.hpp"
#include "workload/synthetic.hpp"

namespace ntserv::sim {

struct ServerSimConfig {
  ClusterConfig cluster;
  SmartsConfig smarts;
  power::ChipConfig chip;
  std::uint64_t seed = 1;

  /// Dynamic-power activity floor: clocking, fetch and speculation keep a
  /// core partially active even when the backend stalls.
  double activity_floor = 0.30;
};

struct OperatingPointResult {
  Hertz frequency;
  Volt vdd;
  /// Chip-level user instructions per second (the paper's UIPS).
  double uips = 0.0;
  double uipc_cluster = 0.0;
  power::ActivityVector activity;
  power::PowerBreakdown power;
  double eff_cores = 0.0;   ///< UIPS / W(cores)
  double eff_soc = 0.0;     ///< UIPS / W(SoC)
  double eff_server = 0.0;  ///< UIPS / W(server)
  SampleResult sampling;
  ClusterMetrics window;
};

class ServerSimulator {
 public:
  ServerSimulator(workload::WorkloadProfile profile, power::ServerPowerModel power_model,
                  ServerSimConfig config);

  [[nodiscard]] const workload::WorkloadProfile& profile() const { return profile_; }
  [[nodiscard]] const ServerSimConfig& config() const { return config_; }
  [[nodiscard]] const power::ServerPowerModel& power_model() const { return power_; }

  /// Simulate one DVFS point (fresh cluster, per-point SplitMix-derived
  /// seed). Thread-safe: touches no mutable simulator state.
  [[nodiscard]] OperatingPointResult evaluate(Hertz f) const;

  /// Simulate a frequency sweep, fanning the points out over `threads`
  /// workers (default: NTSERV_THREADS / hardware concurrency). Every
  /// point is an independent simulation with a seed derived purely from
  /// (config seed, frequency), so results are bit-identical for any
  /// thread count, including the serial path.
  [[nodiscard]] std::vector<OperatingPointResult> sweep(
      const std::vector<Hertz>& points, int threads = ThreadPool::default_threads()) const;

  /// Convert a measured cluster window into the chip activity vector.
  [[nodiscard]] power::ActivityVector activity_from(const ClusterMetrics& m, Hertz f) const;

 private:
  workload::WorkloadProfile profile_;
  power::ServerPowerModel power_;
  ServerSimConfig config_;
};

/// Uniform frequency grid helper for sweeps (inclusive endpoints).
[[nodiscard]] std::vector<Hertz> frequency_grid(Hertz lo, Hertz hi, int points);

}  // namespace ntserv::sim
