// The benchmark's workloads and the metrics each run reports.
//
//  * paper-sweep    ServerSimulator::sweep of Data Serving over the
//                   paper's 0.2-2.0 GHz grid, 1 thread: the cycle model
//                   (cpu, cache, dram, workload) does nearly all the work.
//  * fleet-scaleout webserving-diurnal-ntcboost scaled to 32 chips and
//                   256 measured requests, 4 workers: parallel setup, the
//                   per-quantum pool handoff and the epoch barrier.
//  * fleet-control  the thermal-emergency-mixed registry scenario, serial:
//                   every control subsystem engaged, data plane serial.
//
// Simulated arrivals are open-loop; on the host each workload is a batch
// (one sweep, one fleet run), repeated for the run's wall-clock budget. The workload
// seed reaches the library only through the simulator or scenario config.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall-clock budget of an untraced run: batches repeat while the next
  /// one is predicted to end within it (at least one batch runs).
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string spans_path;
};

struct Outcome {
  /// Untraced run: medians over the batches of the host time per unit of
  /// simulated work, the set-up time and the peak memory.
  std::vector<Metric> end_to_end;
  /// Untraced run: medians over the batches of the run phase's own wall
  /// and CPU time (run_s, run_cpu_s), which scale with the seed's work.
  std::vector<Metric> host;
  /// Simulated model outputs (deterministic for a seed).
  std::vector<Metric> model;
  /// Traced run: the per-layer catalogue, 0 where the workload's traced
  /// run does not exercise the layer.
  std::vector<Metric> per_layer;
  Checks checks;
  int workers = 1;
  int batches = 0;
  /// Units measured again because the hypervisor stole CPU time during
  /// them (see least_stolen in workloads.cpp).
  int steal_retries = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Every per-layer metric name and unit, in report order.
[[nodiscard]] const std::vector<Metric>& per_layer_catalogue();

/// Run one workload (throws std::invalid_argument on an unknown name).
[[nodiscard]] Outcome run_workload(const Options& options);

/// Host stamp fields the binary knows: compiler and build type.
[[nodiscard]] std::string compiler_version();
[[nodiscard]] std::string build_type();

}  // namespace perfbench
