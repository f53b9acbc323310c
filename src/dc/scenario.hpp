// Named serving scenarios: the catalog the figure drivers and DSE sweeps
// fan out over.
//
// A Scenario is plain data — workload name, arrival process, balancing
// policy, fleet shape, request budget — that expands into a FleetConfig at
// a chosen frequency. Keeping scenarios declarative means every new
// arrival×policy×fleet combination is one registry entry, and the sweep
// drivers (dse::sweep_measured_qos, bench/fig2_measured_qos) pick them up
// by name with no new plumbing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dc/fleet.hpp"
#include "dc/runner.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::dc {

struct Scenario {
  std::string name;
  std::string description;
  /// WorkloadProfile name (resolved via WorkloadProfile::for_name).
  std::string workload;
  ArrivalConfig arrival;
  BalancePolicy policy = BalancePolicy::kLeastLoaded;
  /// Fleet shape: `servers` chips of `clusters_per_chip` clusters each
  /// (1 reproduces the old one-cluster-per-server fleet).
  int servers = 2;
  int clusters_per_chip = 1;
  std::uint64_t user_instructions_per_request = 8'000;
  /// Runtime-control knobs (src/ctrl): per-request budget distribution,
  /// saturation admission control, closed-loop DVFS governor. Defaults
  /// keep the scenario open-loop with the paper's constant budget.
  ctrl::BudgetConfig budget;
  ctrl::AdmissionConfig admission;
  ctrl::GovernorConfig governor;
  /// Co-located tenants (cross-scenario consolidation). Empty means
  /// single-tenant from the traffic fields above. All tenants share the
  /// chips' workload class (one binary per chip); they differ in
  /// arrivals, budgets, QoS bounds and steering class.
  std::vector<TenantSpec> tenants;
  /// Fault schedule and request-level resilience (src/fault; both default
  /// to the healthy, patient fleet).
  fault::FaultConfig faults;
  ResilienceConfig resilience;
  /// Fleet orchestration (src/orch): autoscaling, fleet power cap,
  /// multi-fleet tech routing. Defaults to all-off.
  orch::OrchestratorConfig orchestration;
  /// Overload brownout ladder and per-chip circuit breakers
  /// (ctrl/brownout). Both default off (the fully-patient fleet).
  ctrl::BrownoutConfig brownout;
  ctrl::BreakerConfig breaker;
  /// Safety stop (FleetConfig::max_cycles), in cycles of the base
  /// frequency; tests trim it to force a truncated run.
  Cycle max_cycles = 400'000'000;
  std::uint64_t requests = 400;
  std::uint64_t warmup_requests = 40;
  /// Per-cluster architectural warm budget (FleetConfig::warm_instructions);
  /// tests trim it for turnaround.
  std::uint64_t warm_instructions = 600'000;
  std::uint64_t seed = 1;

  /// Expand into a runnable FleetConfig at frequency `f` (default cluster
  /// and platform parameters; override fields on the result if needed).
  [[nodiscard]] FleetConfig fleet_config(Hertz f) const;

  /// The dedicated-fleet split of a consolidated scenario: tenant `t`
  /// alone on an identically shaped fleet (the consolidation studies'
  /// baseline). Throws if the scenario has no tenant table.
  [[nodiscard]] Scenario dedicated(std::size_t t) const;

  /// The full scenario catalog (see docs/datacenter.md for the tour).
  static std::vector<Scenario> registry();

  /// Look up a catalog scenario by name; throws ModelError if unknown.
  static Scenario by_name(const std::string& name);
};

/// Arrival rate that loads a fleet to `load` (fraction of nominal service
/// capacity) at the 2 GHz baseline, given the per-request instruction
/// budget. Uses a nominal per-core user-IPC; the *measured* utilization of
/// a run is reported in FleetResult, this is only for sizing scenarios.
[[nodiscard]] double rate_for_load(double load, int servers, int cores_per_server,
                                   std::uint64_t user_instructions_per_request);

/// Run one scenario at frequency `f` through dc::FleetRunner — the one
/// entry point serial and parallel execution share. The default options
/// run serially with no telemetry: scenario runs usually ride inside a
/// sweep-level fan-out (run_scenarios, dse::sweep_*) that already owns
/// the cores. Results and telemetry are bit-identical for any
/// options.threads; use one obs::Telemetry per run.
[[nodiscard]] FleetResult run_scenario(const Scenario& scenario, Hertz f,
                                       const RunOptions& options = {.threads = 1});

/// Static exporter context (chip/core/tenant names) for writing a
/// scenario's trace with obs::write_chrome_trace.
[[nodiscard]] obs::TraceMeta trace_meta(const Scenario& scenario);

/// Run many scenarios at one frequency, fanning them out over `threads`
/// workers (default NTSERV_THREADS). Each scenario is an independent
/// seed-derived simulation, so results are bit-identical for any thread
/// count.
[[nodiscard]] std::vector<FleetResult> run_scenarios(
    const std::vector<Scenario>& scenarios, Hertz f,
    int threads = sim::ThreadPool::default_threads());

}  // namespace ntserv::dc
