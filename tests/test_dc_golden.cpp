// Stored goldens for the fleet engine: the run's outputs pinned as
// constants, so a change to how the fleet advances its chips is checked
// against recorded numbers, not only against itself at another thread
// count (1-vs-N equality cannot tell a wrong data plane from a right one
// when both thread counts take the same wrong path).
//
// Each golden holds a few headline FleetResult fields at full precision
// (so a mismatch says *what* moved) plus FNV-1a digests of:
//   - a canonical dump of every FleetResult field, tenant slice, epoch
//     record and router epoch (doubles as exact hexfloats);
//   - the trace JSONL and the metrics CSV of the same run.
// Every case runs at 1, 2 and 4 worker threads against the same row.
//
// The cases: every registry scenario, trimmed for turnaround (60k-
// instruction warm, at most 60 measured requests per tenant);
// thermal-emergency-mixed at full size (hedged copies race across chips,
// so a completion cancels a sibling on another chip); and one stressed
// fleet with per-attempt timeouts, hedging and a crash with recovery.
//
// When a deliberate model change moves the numbers, the failure message
// prints the new row in the table's own syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "dc/runner.hpp"
#include "dc/scenario.hpp"

namespace ntserv::dc {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Canonical text of a FleetResult: one `name=value` line per field, in
/// declaration order, doubles as exact hexfloats.
class Dump {
 public:
  void operator()(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    line(name, buf);
  }
  void operator()(const char* name, std::uint64_t v) { line(name, std::to_string(v)); }
  void operator()(const char* name, int v) { line(name, std::to_string(v)); }
  void operator()(const char* name, bool v) { line(name, v ? "1" : "0"); }
  void operator()(const char* name, const std::string& v) { line(name, v); }
  template <class Tag>
  void operator()(const char* name, Quantity<Tag> q) {
    (*this)(name, q.value());
  }
  template <class T>
  void operator()(const char* name, const std::vector<T>& v) {
    (*this)(name, static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) (*this)(name, x);
  }

  [[nodiscard]] const std::string& str() const { return os_; }

 private:
  void line(const char* name, const std::string& value) {
    os_ += name;
    os_ += '=';
    os_ += value;
    os_ += '\n';
  }
  std::string os_;
};

std::string dump(const FleetResult& r) {
  Dump d;
  d("workload", r.workload);
  d("frequency", r.frequency);
  d("completed", r.completed);
  d("offered", r.offered);
  d("admitted", r.admitted);
  d("retries", r.retries);
  d("shed", r.shed);
  d("shed_rate", r.shed_rate);
  d("steered", r.steered);
  d("truncated", r.truncated);
  d("completed_all", r.completed_all);
  d("timed_out", r.timed_out);
  d("hedged", r.hedged);
  d("hedge_wins", r.hedge_wins);
  d("redispatched", r.redispatched);
  d("wasted_completions", r.wasted_completions);
  d("in_flight", r.in_flight);
  d("goodput", r.goodput);
  d("sla_violations", r.sla_violations);
  d("degraded_sla_violations", r.degraded_sla_violations);
  d("faults_injected", r.faults_injected);
  d("first_fault", r.first_fault);
  d("recovered", r.recovered);
  d("time_to_recover", r.time_to_recover);
  d("guardband_epochs", r.guardband_epochs);
  d("brownout_shed", r.brownout_shed);
  d("brownout_epochs", r.brownout_epochs);
  d("brownout_stage_epochs", r.brownout_stage_epochs);
  d("breaker_trips", r.breaker_trips);
  d("breaker_open_epochs", r.breaker_open_epochs);
  d("mean_latency", r.mean_latency);
  d("p50", r.p50);
  d("p95", r.p95);
  d("p99", r.p99);
  d("mean_wait", r.mean_wait);
  d("offered_rate", r.offered_rate);
  d("throughput", r.throughput);
  d("utilization", r.utilization);
  d("server_active_fraction", r.server_active_fraction);
  d("span_cycles", static_cast<std::uint64_t>(r.span_cycles));
  d("span_seconds", r.span_seconds);
  for (const TenantResult& t : r.tenants) {
    d("tenant", t.name);
    d("t.completed", t.completed);
    d("t.offered", t.offered);
    d("t.shed", t.shed);
    d("t.shed_rate", t.shed_rate);
    d("t.completed_all", t.completed_all);
    d("t.timed_out", t.timed_out);
    d("t.hedged", t.hedged);
    d("t.redispatched", t.redispatched);
    d("t.in_flight", t.in_flight);
    d("t.degraded_sla_violations", t.degraded_sla_violations);
    d("t.brownout_shed", t.brownout_shed);
    d("t.brownout_epochs", t.brownout_epochs);
    d("t.mean_latency", t.mean_latency);
    d("t.p50", t.p50);
    d("t.p95", t.p95);
    d("t.p99", t.p99);
    d("t.mean_wait", t.mean_wait);
    d("t.sla_violations", t.sla_violations);
    d("t.busy_core_seconds", t.busy_core_seconds);
    d("t.busy_share", t.busy_share);
    d("t.energy", t.energy);
  }
  d("energy", r.energy);
  d("avg_frequency_ghz", r.avg_frequency_ghz);
  d("transitions", r.transitions);
  d("transition_time_total", r.transition_time_total);
  d("transition_epochs", r.transition_epochs);
  d("qos_violation_epochs", r.qos_violation_epochs);
  for (const ctrl::EpochRecord& e : r.epochs) {
    d("e.frequency", e.decision.frequency);
    d("e.duty", e.decision.duty);
    d("e.sleeps", e.decision.sleeps);
    d("e.met_demand", e.decision.met_demand);
    d("e.avg_power", e.decision.avg_power);
    d("e.chip", e.chip);
    d("e.epoch", e.epoch);
    d("e.utilization", e.utilization);
    d("e.p99", e.p99);
    d("e.duration", e.duration);
    d("e.transition", e.transition);
    d("e.transition_time", e.transition_time);
    d("e.boosted", e.boosted);
    d("e.violation", e.violation);
    d("e.margin", e.margin);
    d("e.down_time", e.down_time);
    d("e.parked_time", e.parked_time);
    d("e.capped", e.capped);
  }
  d("autoscale_parks", r.autoscale_parks);
  d("autoscale_unparks", r.autoscale_unparks);
  d("autoscale_drains", r.autoscale_drains);
  d("emergency_wakes", r.emergency_wakes);
  d("parked_seconds", r.parked_seconds);
  d("wake_energy", r.wake_energy);
  d("cap_clamp_epochs", r.cap_clamp_epochs);
  d("cap_violation_epochs", r.cap_violation_epochs);
  d("fleet_cap", r.fleet_cap);
  d("peak_epoch_power", r.peak_epoch_power);
  for (const orch::RouterEpoch& e : r.router_epochs) {
    d("re.epoch", e.epoch);
    d("re.utilization", e.utilization);
    d("re.offpeak", e.offpeak);
    d("re.routed", e.routed);
    d("re.fallback", e.fallback);
  }
  d("group_names", r.group_names);
  d("group_dispatches", r.group_dispatches);
  d("group_energy", r.group_energy);
  return d.str();
}

/// One recorded run.
struct Golden {
  const char* name;
  std::uint64_t offered;
  std::uint64_t completed_all;
  std::uint64_t shed;
  std::uint64_t timed_out;
  std::uint64_t hedged;
  double p99_s;
  double energy_j;
  double span_s;
  std::uint64_t result_fnv;
  std::uint64_t trace_fnv;
  std::uint64_t metrics_fnv;
};

/// The goldens, recorded from the per-quantum loop (one parallel step per
/// 64-cycle quantum), which the per-horizon data plane reproduces bit for
/// bit.
constexpr Golden kGoldens[] = {
    {"websearch-poisson-light", 66, 66, 0, 0, 0, 1.6817069281239842e-05, 0, 0.0039018170000000149,
     0x00b60c7c50c82c91ull, 0xd0d1d45c07635a88ull, 0xf7e7469ea4e9031full},
    {"websearch-poisson-heavy", 66, 66, 0, 0, 0, 1.7205190709289231e-05, 0, 0.00018873749999998333,
     0xab41f33ac9c78474ull, 0xc86d913c0e4c413cull, 0xf7e7469ea4e9031full},
    {"dataserving-deterministic", 66, 66, 0, 0, 0, 1.8156733893560113e-05, 0, 0.00032581800000000479,
     0xb846f998aadce5c1ull, 0xb8e89fb20d86f1a4ull, 0xf7e7469ea4e9031full},
    {"dataserving-mmpp-bursty", 66, 66, 0, 0, 0, 2.0331636441879218e-05, 0, 0.00039567250000003748,
     0x69d7cf148f0f2f1eull, 0xf5d53f1454bbd0bbull, 0xf7e7469ea4e9031full},
    {"webserving-diurnal", 66, 66, 0, 0, 0, 2.1300924664684911e-05, 0, 0.00058906449999990556,
     0x8ba7a7de5520df01ull, 0xf51d0a267b578fb8ull, 0xf7e7469ea4e9031full},
    {"mediastreaming-powercap", 66, 66, 0, 0, 0, 2.6019505837639932e-05, 0, 0.00031149000000001029,
     0xeffb83e782f82918ull, 0x42885d4cedd148ecull, 0x2aab1d3e79aa0640ull},
    {"vm-bitbrains-lowmem", 66, 66, 0, 0, 0, 5.213239254800534e-06, 0, 0.00065053849999999354,
     0x1e32e905a60a76f1ull, 0xd9ff3649ba15f264ull, 0xf7e7469ea4e9031full},
    {"websearch-roundrobin", 66, 66, 0, 0, 0, 1.7407106610027072e-05, 0, 0.00038038200000000539,
     0xd38eae9eb0659a83ull, 0x6f338353fac9b4e0ull, 0xf7e7469ea4e9031full},
    {"webserving-diurnal-ntcboost", 66, 66, 0, 0, 0, 2.0019145151862019e-05, 0.041576034275902632, 0.00045233900000008528,
     0xc80ded57bcb034faull, 0x117e02194fb5451bull, 0xdd3ba5a0dcd3e96eull},
    {"dataserving-mmpp-ondemand", 66, 66, 0, 0, 0, 0.00011553061150106994, 0.039130596246129766, 0.00041247200000004797,
     0xc29c1971327a8c17ull, 0xb9c927d5cbcfb3edull, 0xc59bd679a763fed7ull},
    {"websearch-saturation-admission", 66, 66, 0, 0, 0, 9.4524994418983591e-05, 0, 0.00012697100000000485,
     0x75a805bc16b481c4ull, 0x401f3744768e2252ull, 0xf7e7469ea4e9031full},
    {"consolidated-antiphase-search", 132, 132, 0, 0, 0, 1.6212636480838093e-05, 0.031008653612763355, 0.00067440099999999104,
     0x1e9d65a151e7d3daull, 0x95c7efac88a3575aull, 0x28187063a89b941aull},
    {"consolidated-web-batch", 132, 132, 0, 0, 0, 8.1533275604213097e-05, 0.036897863712164365, 0.0004560525000000697,
     0xf6d0440eeae43d40ull, 0x775779e9bfc66c0eull, 0x3a57550f1a1af337ull},
    {"diurnal-chipfail", 66, 66, 0, 0, 0, 2.537879104786776e-05, 0, 0.00033206900000001431,
     0x8f58c73483470f8bull, 0x9c1fa1d93b587bf0ull, 0x9ab53cf89325d6b4ull},
    {"ntc-guardband-web", 66, 66, 0, 0, 0, 2.3798419231518741e-05, 0.045654204322139992, 0.00048538050000001138,
     0xd6e70f236c292594ull, 0x85989aa0bc21a80aull, 0x58f062f7fcae631aull},
    {"autoscale-diurnal-web", 66, 66, 0, 0, 0, 2.637452285883155e-05, 0.084444296679120928, 0.00039513800000006913,
     0xc06fe94d6de8fa06ull, 0x5e8ff29be8e10160ull, 0xd9d393523778e867ull},
    {"powercap-web", 66, 66, 0, 0, 0, 2.7816630019935736e-05, 0.019511090461543961, 0.00016951949999999003,
     0x81318dee214c449dull, 0x3fbba04f1831f019ull, 0x430fd2957f7081adull},
    {"multifleet-ntc-conv", 132, 132, 0, 0, 0, 0.00010133496258991903, 0.10251084391244918, 0.00055420800000000698,
     0xb02613c67eda67a0ull, 0xb83cabbb6dc4088cull, 0xcf0105c959e3f482ull},
    {"rack-loss-web", 132, 132, 0, 0, 0, 2.4354465959153326e-05, 0.13693607544080713, 0.00042293950000006473,
     0xa09b57133c7b9327ull, 0x605a43355dfa9c75ull, 0x7fbfb1cce33e1d09ull},
    {"thermal-emergency-mixed", 132, 109, 23, 0, 35, 0.00010963368666045735, 0.072275123984144291, 0.00048490600000008409,
     0x464fd6b89bd1e606ull, 0x6a5e7368c90cedc9ull, 0x48c6e74ca306d86full},
    {"dataserving-lognormal-budget", 66, 66, 0, 0, 0, 7.5698495226200237e-05, 0, 0.00031706750000001332,
     0x8f72c17f8be6437cull, 0xa21422bc5dc5e318ull, 0xf7e7469ea4e9031full},
    {"thermal-emergency-mixed/full", 880, 759, 121, 0, 21, 0.00012260404363104651, 0.24769739046919423, 0.0016767005000000001,
     0xedc007e611463531ull, 0x1077d8f39b96fbacull, 0x63feeb4aa1314818ull},
    {"stressed-timeouts-hedges-crash", 118, 37, 45, 36, 20, 1.0836551239528727e-05, 0.0087900835040940553, 5.9538000000001855e-05,
     0xd72b06214948b917ull, 0xa10e68a5271c9cf0ull, 0x88bdfe9d4d688ea9ull},
};

/// The row a run produced, in kGoldens syntax.
std::string row(const Golden& g) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %.17g, %.17g, %.17g,\n     0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull},",
                g.name, g.offered, g.completed_all, g.shed, g.timed_out, g.hedged, g.p99_s,
                g.energy_j, g.span_s, g.result_fnv, g.trace_fnv, g.metrics_fnv);
  return buf;
}

Golden measure(const char* name, const FleetConfig& cfg, int threads) {
  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  const FleetResult r = FleetRunner{cfg}.run({.telemetry = &telemetry, .threads = threads});
  std::ostringstream trace, metrics;
  telemetry.trace.write_jsonl(trace);
  telemetry.metrics.write_csv(metrics);
  return {name,        r.offered,    r.completed_all,    r.shed,
          r.timed_out, r.hedged,     r.p99.value(),      r.energy.value(),
          r.span_seconds.value(),    fnv1a(dump(r)),     fnv1a(trace.str()),
          fnv1a(metrics.str())};
}

void expect_golden(const char* name, const FleetConfig& cfg) {
  const auto it = std::find_if(std::begin(kGoldens), std::end(kGoldens),
                               [&](const Golden& g) { return std::string{g.name} == name; });
  for (const int threads : {1, 2, 4}) {
    const Golden got = measure(name, cfg, threads);
    if (it == std::end(kGoldens)) {
      ADD_FAILURE() << "no golden row for " << name << "; this run's row:\n" << row(got);
      return;
    }
    std::string moved;
    const auto check = [&](bool same, const char* field) {
      if (!same) moved += std::string{" "} + field;
    };
    check(got.offered == it->offered, "offered");
    check(got.completed_all == it->completed_all, "completed_all");
    check(got.shed == it->shed, "shed");
    check(got.timed_out == it->timed_out, "timed_out");
    check(got.hedged == it->hedged, "hedged");
    check(got.p99_s == it->p99_s, "p99");
    check(got.energy_j == it->energy_j, "energy");
    check(got.span_s == it->span_s, "span");
    check(got.result_fnv == it->result_fnv, "FleetResult");
    check(got.trace_fnv == it->trace_fnv, "trace-JSONL");
    check(got.metrics_fnv == it->metrics_fnv, "metrics-CSV");
    if (!moved.empty()) {
      ADD_FAILURE() << name << " at " << threads << " threads moved:" << moved
                    << "\nthis run's row:\n" << row(got);
      return;
    }
  }
}

/// A registry scenario cut down for turnaround.
Scenario trimmed(Scenario s) {
  constexpr std::uint64_t kRequests = 60;
  s.warm_instructions = 60'000;
  s.requests = std::min(s.requests, kRequests);
  s.warmup_requests = std::min(s.warmup_requests, kRequests / 10);
  for (TenantSpec& t : s.tenants) {
    t.requests = std::min(t.requests, kRequests);
    t.warmup_requests = std::min(t.warmup_requests, kRequests / 10);
  }
  return s;
}

TEST(FleetGolden, TrimmedRegistryScenarios) {
  for (const Scenario& s : Scenario::registry()) {
    expect_golden(s.name.c_str(), trimmed(s).fleet_config(ghz(2.0)));
  }
}

TEST(FleetGolden, ThermalEmergencyMixedFullSize) {
  expect_golden("thermal-emergency-mixed/full",
                Scenario::by_name("thermal-emergency-mixed").fleet_config(ghz(2.0)));
}

TEST(FleetGolden, StressedTimeoutsHedgesAndCrash) {
  // Offered well past the service rate of three chips, with per-attempt
  // timeouts a couple of service times long, hedges that fire almost at
  // once, a crash inside the burst that recovers later, the brownout
  // ladder and breakers on a short epoch grid, and a batch tenant.
  FleetConfig cfg;
  cfg.profile = workload::WorkloadProfile::web_search();
  cfg.frequency = ghz(2.0);
  cfg.servers = 3;
  cfg.warm_instructions = 60'000;
  cfg.seed = 0x57E55;
  cfg.policy = BalancePolicy::kLeastLoaded;
  cfg.admission.enabled = true;
  cfg.admission.max_outstanding_per_core = 2.0;
  cfg.admission.max_retries = 0;
  cfg.faults.events.push_back({20e-6, 1, fault::FaultKind::kCrash});
  cfg.faults.events.push_back({50e-6, 1, fault::FaultKind::kRecover});
  cfg.resilience.failover = true;
  cfg.resilience.timeout = Second{8e-6};
  cfg.resilience.hedging = true;
  cfg.resilience.hedge_min_delay = Second{3e-6};
  cfg.resilience.hedge_multiplier = 1.5;
  cfg.resilience.hedge_warmup = 6;
  cfg.governor.kind = ctrl::GovernorKind::kFixedMax;
  cfg.governor.epoch_quanta = 64;
  cfg.brownout.enabled = true;
  cfg.breaker.enabled = true;
  cfg.breaker.min_samples = 4;
  TenantSpec critical;
  critical.name = "critical";
  critical.arrival.kind = ArrivalKind::kPoisson;
  critical.arrival.rate = 1.6e6;
  critical.user_instructions_per_request = 3'000;
  critical.requests = 70;
  critical.warmup_requests = 4;
  TenantSpec batch = critical;
  batch.name = "batch";
  batch.latency_critical = false;
  batch.arrival.rate = 0.8e6;
  batch.requests = 40;
  cfg.tenants = {critical, batch};
  expect_golden("stressed-timeouts-hedges-crash", cfg);
}

}  // namespace
}  // namespace ntserv::dc
