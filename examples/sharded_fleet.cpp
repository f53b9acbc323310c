// Parallel fleet execution: one fleet run split across worker threads
// with bit-identical results (the dc::FleetRunner API).
//
// The data plane (per-chip cycle advancement — the cache/DRAM/core
// models, ~all of the wall clock at rack scale) is advanced in parallel
// one horizon at a time (up to the next fleet event), each worker
// claiming the next unadvanced chip; the control plane (dispatch,
// admission, governors, brownout, autoscaling, telemetry) stays serial
// between horizons. The determinism
// contract: ANY thread count produces an equal FleetResult. This demo
// runs a governed diurnal fleet serially and in parallel, checks
// equality, and reports the speedup.
//
// Build & run:  ./build/example_sharded_fleet [chips] [requests] [threads]
//   defaults:   ./build/example_sharded_fleet 32 400 <hardware threads>
// A rack-scale run:  ./build/example_sharded_fleet 512 4000 8
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

namespace {

double wall_seconds(const dc::FleetRunner& runner, const dc::RunOptions& options,
                    dc::FleetResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = runner.run(options);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int chips = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::uint64_t requests =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 400;
  const int threads = argc > 3 ? std::atoi(argv[3])
                               : static_cast<int>(std::thread::hardware_concurrency());

  // A governed diurnal web fleet, described through the builder (the
  // deprecated single-tenant FleetConfig fields never appear): diurnal
  // Poisson arrivals, ondemand-style NTC-boost DVFS per chip.
  dc::Scenario base = dc::Scenario::by_name("webserving-diurnal-ntcboost");
  dc::ArrivalConfig arrival = base.arrival;
  arrival.rate *= static_cast<double>(chips) / static_cast<double>(base.servers);
  const dc::FleetConfig config = dc::FleetConfigBuilder{}
                                     .profile(workload::WorkloadProfile::for_name(base.workload))
                                     .frequency(ghz(2.0))
                                     .shape(chips)
                                     .policy(base.policy)
                                     .governor(base.governor)
                                     .admission(base.admission)
                                     .arrival(arrival)
                                     .request_cost(base.user_instructions_per_request)
                                     .requests(requests, requests / 10)
                                     .warm(base.warm_instructions)
                                     .seed(base.seed)
                                     .build();
  const dc::FleetRunner runner{config};

  std::cout << "Parallel fleet execution: " << chips << " chips, " << requests
            << " requests, " << threads << " worker threads ("
            << std::thread::hardware_concurrency() << " hardware threads)\n\n";

  dc::FleetResult serial, parallel;
  const double serial_s = wall_seconds(runner, dc::RunOptions{.threads = 1}, serial);
  std::cout << "serial   (1 thread):  " << serial_s << " s, p99 " << in_us(serial.p99)
            << " us, completed " << serial.completed_all << ", energy "
            << serial.energy.value() * 1e3 << " mJ\n";
  const double parallel_s =
      wall_seconds(runner, dc::RunOptions{.threads = threads}, parallel);
  std::cout << "parallel (" << threads << " threads): " << parallel_s << " s, p99 "
            << in_us(parallel.p99) << " us, completed " << parallel.completed_all
            << ", energy " << parallel.energy.value() * 1e3 << " mJ\n\n";

  if (serial != parallel) {
    std::cout << "FAIL: parallel run diverged from the serial reference\n";
    return 1;
  }
  std::cout << "bit-identical: yes\n"
            << "speedup: " << serial_s / parallel_s << "x at " << threads
            << " threads\n";
  return 0;
}
