// The redesigned fleet-run API: build a config, run.
//
// dc::ClusterFleet is the engine and FleetConfig its plain-data input,
// whose tenant table is the only traffic description. This header fronts
// both with the composable surface new code should use:
//
//   FleetConfig cfg = FleetConfigBuilder{}
//                         .profile(workload::WorkloadProfile::web_search())
//                         .shape(/*servers=*/64)
//                         .arrival({.kind = ArrivalKind::kDiurnal, .rate = 4e6})
//                         .requests(1'000'000, 10'000)
//                         .build();   // tenant 0 filled from the setters
//   FleetRunner runner{cfg};          // validates once
//   FleetResult r = runner.run({.telemetry = &t, .threads = 8});
//
// FleetRunner::run() constructs a fresh engine per call, so every run is
// an independent, identically-seeded experiment: serial and parallel
// execution share this one entry point, and RunOptions carries the
// telemetry and the worker count. Results and telemetry are bit-identical
// for any thread count (see fleet.hpp's intra-run parallelism contract).
#pragma once

#include <cstdint>
#include <vector>

#include "dc/fleet.hpp"
#include "obs/obs.hpp"

namespace ntserv::dc {

/// Per-run options (a RunSession in all but name — the run owns them for
/// its duration). Everything here defaults to the untelemetered run at
/// the default worker width; nothing mutates the FleetRunner.
struct RunOptions {
  /// Observability bundle (trace/metrics/timers); only enabled
  /// components are wired. Must outlive the run() call.
  obs::Telemetry* telemetry = nullptr;
  /// Worker threads advancing the chips (capped at the chip count). 0 = auto
  /// (sim::ThreadPool::default_threads(), i.e. NTSERV_THREADS). Also
  /// bounds the parallel chip-construction fan-out. Bit-identical for
  /// any value. Callers already inside a sweep worker should pass 1.
  int threads = 0;
};

/// Fluent construction of a FleetConfig. The single-tenant setters
/// (arrival/budget/request_cost/requests/qos_p99_limit) fill one
/// builder-held TenantSpec, which build() uses as the whole tenant table
/// when no tenant() was given. Mixing explicit tenant() calls (or a base
/// config's tenant table) with the single-tenant setters is rejected at
/// build().
class FleetConfigBuilder {
 public:
  FleetConfigBuilder() = default;
  /// Start from an existing config (e.g. a scenario expansion) and
  /// override selectively; `base`'s tenant table is kept.
  explicit FleetConfigBuilder(FleetConfig base) : cfg_(std::move(base)) {}

  FleetConfigBuilder& profile(workload::WorkloadProfile p);
  FleetConfigBuilder& cluster(sim::ClusterConfig c);
  FleetConfigBuilder& frequency(Hertz f);
  /// Fleet shape: `servers` chips of `clusters_per_chip` clusters each.
  FleetConfigBuilder& shape(int servers, int clusters_per_chip = 1);
  FleetConfigBuilder& seed(std::uint64_t s);
  FleetConfigBuilder& quantum(Cycle q);
  /// Cache-warm budget per cluster; max_cycles == 0 keeps the default
  /// warm cap.
  FleetConfigBuilder& warm(std::uint64_t instructions, Cycle max_cycles = 0);
  FleetConfigBuilder& max_cycles(Cycle c);
  FleetConfigBuilder& policy(BalancePolicy p);
  FleetConfigBuilder& pack_depth(double per_core);
  FleetConfigBuilder& admission(ctrl::AdmissionConfig a);
  FleetConfigBuilder& governor(ctrl::GovernorConfig g);
  FleetConfigBuilder& faults(fault::FaultConfig f);
  FleetConfigBuilder& resilience(ResilienceConfig r);
  FleetConfigBuilder& brownout(ctrl::BrownoutConfig b);
  FleetConfigBuilder& breaker(ctrl::BreakerConfig b);
  FleetConfigBuilder& orchestration(orch::OrchestratorConfig o);

  /// Append one explicit tenant (multi-tenant configs).
  FleetConfigBuilder& tenant(TenantSpec t);

  // Single-tenant conveniences: they fill the tenant build() uses when
  // no tenant() was given.
  FleetConfigBuilder& arrival(ArrivalConfig a);
  FleetConfigBuilder& budget(ctrl::BudgetConfig b);
  FleetConfigBuilder& request_cost(std::uint64_t user_instructions);
  FleetConfigBuilder& requests(std::uint64_t measured, std::uint64_t warmup);
  FleetConfigBuilder& qos_p99_limit(Second bound);

  /// Fill the tenant table, validate, and return the config. Throws
  /// ModelError on an invalid config or on mixed explicit-tenant /
  /// single-tenant traffic description.
  [[nodiscard]] FleetConfig build() const;

 private:
  FleetConfig cfg_;
  /// The single-tenant setters' traffic (tenant 0 when no tenant() is given).
  TenantSpec single_;
  bool single_tenant_touched_ = false;
};

/// One entry point for serial and parallel fleet execution:
/// config validation -> run -> FleetResult.
///
/// The runner owns only the (validated) config; each run() constructs a
/// fresh ClusterFleet, so runs are independent and repeatable — calling
/// run() twice with the same options yields byte-identical results and
/// telemetry.
class FleetRunner {
 public:
  /// Validates the config once, up front (throws ModelError).
  explicit FleetRunner(FleetConfig config);

  [[nodiscard]] const FleetConfig& config() const { return config_; }

  /// Execute one run under `options`. Bit-identical results and
  /// telemetry for any thread count.
  [[nodiscard]] FleetResult run(const RunOptions& options = {}) const;

 private:
  FleetConfig config_;
};

}  // namespace ntserv::dc
