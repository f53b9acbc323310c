#include "checks.hpp"

#include <cmath>

namespace perfbench {

using ntserv::dc::FleetResult;
using ntserv::sim::ClusterMetrics;
using ntserv::sim::OperatingPointResult;

void Checks::expect(bool ok, const std::string& what) {
  ++made_;
  if (!ok) failures_.push_back(what);
}

void check_conservation(Checks& checks, const FleetResult& r) {
  checks.expect(r.offered == r.completed_all + r.shed + r.timed_out + r.in_flight,
                "fleet conservation: offered == completed_all + shed + timed_out + in_flight");
  checks.expect(!r.truncated, "fleet run not truncated at max_cycles");
  checks.expect(r.offered > 0 && r.completed > 0, "fleet offered and completed requests");
  for (const auto& t : r.tenants) {
    checks.expect(t.offered == t.completed_all + t.shed + t.timed_out + t.in_flight,
                  "tenant " + t.name + " conservation");
  }
}

void check_same_fleet(Checks& checks, const FleetResult& a, const FleetResult& b,
                      const std::string& what) {
  bool same = a.completed == b.completed && a.completed_all == b.completed_all &&
              a.offered == b.offered && a.admitted == b.admitted && a.retries == b.retries &&
              a.shed == b.shed && a.timed_out == b.timed_out && a.hedged == b.hedged &&
              a.wasted_completions == b.wasted_completions && a.in_flight == b.in_flight &&
              a.faults_injected == b.faults_injected && a.transitions == b.transitions &&
              a.brownout_shed == b.brownout_shed && a.brownout_epochs == b.brownout_epochs &&
              a.breaker_trips == b.breaker_trips && a.cap_clamp_epochs == b.cap_clamp_epochs &&
              a.span_cycles == b.span_cycles && a.p50.value() == b.p50.value() &&
              a.p99.value() == b.p99.value() && a.mean_latency.value() == b.mean_latency.value() &&
              a.energy.value() == b.energy.value() && a.epochs.size() == b.epochs.size() &&
              a.tenants.size() == b.tenants.size();
  for (std::size_t t = 0; same && t < a.tenants.size(); ++t) {
    same = a.tenants[t].completed_all == b.tenants[t].completed_all &&
           a.tenants[t].p99.value() == b.tenants[t].p99.value();
  }
  checks.expect(same, what);
}

void check_sweep(Checks& checks, const std::vector<OperatingPointResult>& points,
                 int max_samples) {
  checks.expect(!points.empty(), "sweep returned points");
  for (const auto& p : points) {
    const std::string at = " at " + std::to_string(ntserv::in_ghz(p.frequency)) + " GHz";
    checks.expect(p.sampling.converged || p.sampling.samples == max_samples,
                  "sweep point sampling ended at convergence or at the sample cap" + at);
    checks.expect(std::isfinite(p.sampling.uipc_rel_error),
                  "sweep point relative error finite" + at);
    checks.expect(std::isfinite(p.uips) && p.uips > 0.0, "sweep point UIPS positive" + at);
    checks.expect(std::isfinite(p.eff_server) && p.eff_server > 0.0,
                  "sweep point UIPS/W positive" + at);
  }
}

void check_same_sweep(Checks& checks, const std::vector<OperatingPointResult>& a,
                      const std::vector<OperatingPointResult>& b, const std::string& what) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].uips == b[i].uips && a[i].eff_server == b[i].eff_server &&
           a[i].sampling.samples == b[i].sampling.samples &&
           a[i].window.cycles == b[i].window.cycles;
  }
  checks.expect(same, what);
}

void check_same_cluster(Checks& checks, const ClusterMetrics& x, const ClusterMetrics& y,
                        const std::string& what) {
  const auto& m = x.memory;
  const auto& n = y.memory;
  const bool same =
      x.cycles == y.cycles && x.uipc == y.uipc && x.ipc == y.ipc &&
      x.issue_utilization == y.issue_utilization && x.dram_cycles == y.dram_cycles &&
      x.branch_mpki == y.branch_mpki && m.l1i_hits == n.l1i_hits &&
      m.l1i_misses == n.l1i_misses && m.l1d_hits == n.l1d_hits &&
      m.l1d_misses == n.l1d_misses && m.merged_misses == n.merged_misses &&
      m.llc_hits == n.llc_hits && m.llc_misses == n.llc_misses &&
      m.llc_writebacks == n.llc_writebacks && m.l1_writebacks == n.l1_writebacks &&
      m.xbar_flits == n.xbar_flits && m.prefetches_issued == n.prefetches_issued &&
      x.dram.reads == y.dram.reads && x.dram.writes == y.dram.writes &&
      x.dram.refreshes == y.dram.refreshes && x.dram.row_hit_rate == y.dram.row_hit_rate;
  checks.expect(same, what);
}

}  // namespace perfbench
