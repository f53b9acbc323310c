#include "dc/runner.hpp"

#include <utility>

#include "common/error.hpp"

namespace ntserv::dc {

FleetConfigBuilder& FleetConfigBuilder::profile(workload::WorkloadProfile p) {
  cfg_.profile = std::move(p);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::cluster(sim::ClusterConfig c) {
  cfg_.cluster = c;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::frequency(Hertz f) {
  cfg_.frequency = f;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::shape(int servers, int clusters_per_chip) {
  cfg_.servers = servers;
  cfg_.clusters_per_chip = clusters_per_chip;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::quantum(Cycle q) {
  cfg_.quantum = q;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::warm(std::uint64_t instructions,
                                             Cycle max_cycles) {
  cfg_.warm_instructions = instructions;
  if (max_cycles > 0) cfg_.warm_max_cycles = max_cycles;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::max_cycles(Cycle c) {
  cfg_.max_cycles = c;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::policy(BalancePolicy p) {
  cfg_.policy = p;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::pack_depth(double per_core) {
  cfg_.pack_depth_per_core = per_core;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::admission(ctrl::AdmissionConfig a) {
  cfg_.admission = a;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::governor(ctrl::GovernorConfig g) {
  cfg_.governor = std::move(g);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::faults(fault::FaultConfig f) {
  cfg_.faults = std::move(f);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::resilience(ResilienceConfig r) {
  cfg_.resilience = r;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::brownout(ctrl::BrownoutConfig b) {
  cfg_.brownout = b;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::breaker(ctrl::BreakerConfig b) {
  cfg_.breaker = b;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::orchestration(orch::OrchestratorConfig o) {
  cfg_.orchestration = std::move(o);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::tenant(TenantSpec t) {
  cfg_.tenants.push_back(std::move(t));
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::arrival(ArrivalConfig a) {
  single_tenant_touched_ = true;
  single_.arrival = a;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::budget(ctrl::BudgetConfig b) {
  single_tenant_touched_ = true;
  single_.budget = b;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::request_cost(std::uint64_t user_instructions) {
  single_tenant_touched_ = true;
  single_.user_instructions_per_request = user_instructions;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::requests(std::uint64_t measured,
                                                 std::uint64_t warmup) {
  single_tenant_touched_ = true;
  single_.requests = measured;
  single_.warmup_requests = warmup;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::qos_p99_limit(Second bound) {
  single_tenant_touched_ = true;
  single_.qos_p99_limit = bound;
  return *this;
}

FleetConfig FleetConfigBuilder::build() const {
  NTSERV_EXPECTS(!(single_tenant_touched_ && !cfg_.tenants.empty()),
                 "describe traffic either with tenant() / a base tenant table or "
                 "with the single-tenant setters, not both");
  FleetConfig cfg = cfg_;
  if (cfg.tenants.empty()) cfg.tenants = {single_};
  cfg.validate();
  return cfg;
}

FleetRunner::FleetRunner(FleetConfig config) : config_(std::move(config)) {
  config_.validate();
}

FleetResult FleetRunner::run(const RunOptions& options) const {
  // A fresh engine per run: runs are independent, identically-seeded
  // experiments, so run() is repeatable and const.
  ClusterFleet fleet{config_, options.threads};
  return fleet.run(options.threads, options.telemetry);
}

}  // namespace ntserv::dc
