// The redesigned fleet-run API: build a config, run.
//
// dc::ClusterFleet grew as an engine — a ~30-field FleetConfig
// god-struct with legacy single-tenant fields resolved at run time, plus
// a call-before-run() telemetry side channel. This header fronts it with
// the composable surface new code should use:
//
//   FleetConfig cfg = FleetConfigBuilder{}
//                         .profile(workload::WorkloadProfile::web_search())
//                         .shape(/*servers=*/64)
//                         .arrival({.kind = ArrivalKind::kDiurnal, .rate = 4e6})
//                         .requests(1'000'000, 10'000)
//                         .build();   // tenant table normalized here
//   FleetRunner runner{cfg};          // validates once
//   FleetResult r = runner.run({.telemetry = &t, .threads = 8});
//
// FleetRunner::run() constructs a fresh engine per call, so every run is
// an independent, identically-seeded experiment: serial and parallel
// execution share this one entry point, and RunOptions carries what used
// to be set through setters. Results and telemetry are bit-identical for
// any thread count (see fleet.hpp's intra-run parallelism contract).
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

/// Fluent construction of a FleetConfig that normalizes the traffic
/// description into the tenant table at build(): the single-tenant
/// convenience setters (arrival/budget/request_cost/requests) become
/// tenant 0 exactly as FleetConfig::resolved_tenants() would resolve
/// them, so builder-made configs are bit-identical to legacy-field
/// configs — with `tenants` always populated and the deprecated legacy
/// fields kept as a read-only mirror of tenant 0 for back-compat.
/// Mixing explicit tenant() calls with the single-tenant setters is
/// rejected at build().
class FleetConfigBuilder {
 public:
  FleetConfigBuilder() = default;
  /// Start from an existing config (e.g. a scenario expansion) and
  /// override selectively. Legacy single-tenant fields of `base` are
  /// honored exactly like resolved_tenants() honors them.
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

  // Single-tenant conveniences: folded into tenant 0 at build().
  FleetConfigBuilder& arrival(ArrivalConfig a);
  FleetConfigBuilder& budget(ctrl::BudgetConfig b);
  FleetConfigBuilder& request_cost(std::uint64_t user_instructions);
  FleetConfigBuilder& requests(std::uint64_t measured, std::uint64_t warmup);
  FleetConfigBuilder& qos_p99_limit(Second bound);

  /// Normalize (tenant table always populated), validate, and return the
  /// config. Throws ModelError on an invalid config or on mixed
  /// explicit-tenant / single-tenant traffic description.
  [[nodiscard]] FleetConfig build() const;

 private:
  FleetConfig cfg_;
  bool single_tenant_touched_ = false;
  bool explicit_tenants_ = false;
  /// qos bound for the normalized single tenant (legacy FleetConfig
  /// never carried one fleet-wide).
  Second single_qos_{0.0};
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
