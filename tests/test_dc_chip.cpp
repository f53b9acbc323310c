#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dc/fleet.hpp"
#include "dc/runner.hpp"
#include "dc/scenario.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {
namespace {

ArrivalConfig poisson(double rate) {
  ArrivalConfig a;
  a.kind = ArrivalKind::kPoisson;
  a.rate = rate;
  return a;
}

/// Small, fast multi-cluster chip fleet shared by the behavioural tests;
/// tests override the shape and traffic through the builder.
FleetConfigBuilder chip_builder() {
  return FleetConfigBuilder{}
      .profile(workload::WorkloadProfile::web_search())
      .frequency(ghz(2.0))
      .shape(/*servers=*/2, /*clusters_per_chip=*/2)
      .request_cost(3'000)
      .arrival(poisson(200'000.0))
      .requests(120, 12)
      .warm(60'000)
      .seed(5);
}

/// Trimmed two-tenant consolidated scenario (fast warm) used by the
/// determinism and golden checks.
Scenario tiny_consolidated() {
  Scenario s;
  s.name = "tiny-consolidated";
  s.workload = "Web Search";
  s.servers = 2;
  s.clusters_per_chip = 2;
  s.policy = BalancePolicy::kGovernorAware;
  s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
  s.governor.epoch_quanta = 512;
  s.warm_instructions = 60'000;
  s.seed = 31;
  TenantSpec critical;
  critical.name = "critical";
  critical.arrival.kind = ArrivalKind::kDiurnal;
  critical.arrival.rate = 400'000.0;
  critical.arrival.diurnal_trough = 0.2;
  critical.arrival.diurnal_period = Second{4e-4};
  critical.user_instructions_per_request = 3'000;
  critical.qos_p99_limit = microseconds(80.0);
  critical.requests = 120;
  critical.warmup_requests = 12;
  TenantSpec batch;
  batch.name = "batch";
  batch.arrival.kind = ArrivalKind::kPoisson;
  batch.arrival.rate = 150'000.0;
  batch.user_instructions_per_request = 3'000;
  batch.budget.kind = ctrl::BudgetKind::kLognormal;
  batch.budget.sigma = 0.6;
  batch.latency_critical = false;
  batch.requests = 80;
  batch.warmup_requests = 8;
  s.tenants = {critical, batch};
  return s;
}

// ---- ChipServer::advance_until: one horizon == its quanta one by one ----

constexpr Cycle kQuantum = 64;
constexpr double kDt = static_cast<double>(kQuantum) / 2e9;  // base clock 2 GHz

/// A warmed two-cluster chip (eight core slots) with `requests` queued
/// requests of varied budgets.
std::unique_ptr<ChipServer> loaded_chip(int requests) {
  ChipParams params;
  params.clusters = 2;
  params.profile = workload::WorkloadProfile::web_search();
  params.frequency = ghz(2.0);
  params.warm_instructions = 60'000;
  params.fleet_seed = 7;
  auto chip = std::make_unique<ChipServer>(params);
  for (int i = 0; i < requests; ++i) {
    chip->queue().push_back(Request{.id = static_cast<std::uint64_t>(i),
                                    .budget = 1'500 + 700 * static_cast<std::uint64_t>(i % 5)});
  }
  return chip;
}

/// Everything a span of quanta leaves behind on a chip.
struct SpanOutcome {
  std::vector<StagedCompletion> completions;  ///< tags are absolute quantum indices
  int busy_quanta = 0;
  double end_s = 0.0;
};

/// The start of quantum `n` counted from `now_s`, accumulated as the
/// fleet clock is.
double quantum_start(double now_s, int n) {
  for (int i = 0; i < n; ++i) now_s += kDt;
  return now_s;
}

SpanOutcome one_horizon(ChipServer& chip, double now_s, int quanta) {
  SpanOutcome out;
  out.busy_quanta =
      chip.advance_until(now_s, quantum_start(now_s, quanta), kDt, kQuantum, out.completions);
  out.end_s = quantum_start(now_s, out.busy_quanta);
  return out;
}

SpanOutcome quantum_by_quantum(ChipServer& chip, double now_s, int quanta) {
  SpanOutcome out;
  bool awake = true;
  double t = now_s;
  for (int i = 0; i < quanta; ++i, t += kDt) {
    std::vector<StagedCompletion> step;
    // A horizon at or before now_s is a single quantum.
    const int busy = chip.advance_until(t, t, kDt, kQuantum, step);
    EXPECT_LE(busy, 1);
    for (StagedCompletion& c : step) {
      EXPECT_EQ(c.quantum, 0);
      c.quantum = i;
      out.completions.push_back(c);
    }
    awake = awake && busy == 1;
    if (awake) {
      ++out.busy_quanta;
      out.end_s = t + kDt;
    }
  }
  if (out.busy_quanta == 0) out.end_s = now_s;
  return out;
}

void expect_same_chip_state(const ChipServer& a, const ChipServer& b) {
  EXPECT_EQ(a.active_seconds(), b.active_seconds());
  EXPECT_EQ(a.busy_core_seconds(), b.busy_core_seconds());
  EXPECT_EQ(a.tenant_busy_seconds(0), b.tenant_busy_seconds(0));
  EXPECT_EQ(a.cycle_carry(), b.cycle_carry());
  EXPECT_EQ(a.busy_cores(), b.busy_cores());
  EXPECT_EQ(a.outstanding(), b.outstanding());
}

void expect_same_span(const SpanOutcome& horizon, const SpanOutcome& stepped) {
  EXPECT_EQ(horizon.busy_quanta, stepped.busy_quanta);
  EXPECT_EQ(horizon.end_s, stepped.end_s);
  ASSERT_EQ(horizon.completions.size(), stepped.completions.size());
  for (std::size_t i = 0; i < horizon.completions.size(); ++i) {
    const StagedCompletion& h = horizon.completions[i];
    const StagedCompletion& s = stepped.completions[i];
    SCOPED_TRACE("completion " + std::to_string(i));
    EXPECT_EQ(h.quantum, s.quantum);
    EXPECT_EQ(h.request.id, s.request.id);
    EXPECT_EQ(h.request.core, s.request.core);
    EXPECT_EQ(h.request.start_s, s.request.start_s);
    EXPECT_EQ(h.request.completion_s, s.request.completion_s);
  }
}

/// Run the same span both ways on two identically built chips, after
/// `prepare` put both into the same state.
template <class Prepare>
void expect_horizon_matches_quanta(int requests, double now_s, int quanta, Prepare prepare) {
  auto a = loaded_chip(requests);
  auto b = loaded_chip(requests);
  prepare(*a);
  prepare(*b);
  const SpanOutcome horizon = one_horizon(*a, now_s, quanta);
  const SpanOutcome stepped = quantum_by_quantum(*b, now_s, quanta);
  EXPECT_FALSE(horizon.completions.empty()) << "the span must complete some requests";
  expect_same_span(horizon, stepped);
  expect_same_chip_state(*a, *b);
}

TEST(ChipHorizon, MatchesQuantumByQuantumAtTheBaseClock) {
  // More requests than core slots: back-to-back service and fresh
  // start_services both happen inside the horizon.
  expect_horizon_matches_quanta(14, 0.0, 120, [](ChipServer&) {});
}

TEST(ChipHorizon, MatchesQuantumByQuantumOnADescendedChip) {
  // 1.3 GHz against the 2 GHz master clock: 41.6 cycles per quantum, so
  // the fractional carry moves every quantum.
  expect_horizon_matches_quanta(14, 0.0, 160, [](ChipServer& chip) {
    chip.set_frequency(ghz(1.3));
  });
  auto chip = loaded_chip(4);
  chip->set_frequency(ghz(1.3));
  one_horizon(*chip, 0.0, 3);
  EXPECT_GT(chip->cycle_carry(), 0.0);
}

TEST(ChipHorizon, MatchesQuantumByQuantumThroughATransitionWithBusyCores) {
  // Serve a few quanta, then begin a 3.5-quantum transition stall with
  // every core busy and work queued: the horizon must hold service
  // through the stall and resume at the first quantum past it.
  const double stall_at = quantum_start(0.0, 5);
  expect_horizon_matches_quanta(14, stall_at, 120, [&](ChipServer& chip) {
    std::vector<StagedCompletion> sink;
    chip.advance_until(0.0, stall_at, kDt, kQuantum, sink);
    ASSERT_GT(chip.busy_cores(), 0);
    ASSERT_FALSE(chip.queue().empty());
    chip.set_frequency(ghz(1.6));
    chip.begin_stall(stall_at, Second{3.5 * kDt});
  });
}

TEST(ChipHorizon, StopsAtTheFirstQuantumWithNoBusyCore) {
  // Two short requests on a chip given a long horizon: the call returns
  // once both complete, and the busy count says where.
  auto chip = loaded_chip(2);
  std::vector<StagedCompletion> done;
  const int busy = chip->advance_until(0.0, quantum_start(0.0, 10'000), kDt, kQuantum, done);
  EXPECT_EQ(done.size(), 2u);
  EXPECT_GT(busy, 0);
  EXPECT_LT(busy, 10'000);
  EXPECT_EQ(chip->busy_cores(), 0);
  EXPECT_EQ(done.back().quantum, busy - 1) << "the last busy quantum holds the last completion";
  // An idle chip serves nothing, however long the horizon.
  EXPECT_EQ(chip->advance_until(1.0, 2.0, kDt, kQuantum, done), 0);
  EXPECT_EQ(done.size(), 2u);
}

TEST(Chip, MultiClusterChipUsesAllItsClusters) {
  // A 2-cluster chip exposes 8 core slots behind one queue: under enough
  // load both clusters serve, and the fleet completes every request.
  const auto cfg = chip_builder().shape(1, 2).arrival(poisson(400'000.0)).build();
  ClusterFleet fleet{cfg};
  EXPECT_EQ(fleet.cores_per_server(), 2 * cfg.cluster.hierarchy.cores);
  const FleetResult r = fleet.run();
  EXPECT_EQ(r.completed, cfg.tenants[0].requests);
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.server_active_fraction.size(), 1u);
  EXPECT_GT(r.server_active_fraction[0], 0.0);
  // With 8 cores on the chip and bursts of outstanding work, the span
  // must beat what a single 4-core cluster could deliver: utilization is
  // measured against all 8, and the queue drains through both clusters.
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
}

TEST(Chip, FlatAndChipGroupingsExposeTheSameCapacity) {
  // 2 chips x 1 cluster and 1 chip x 2 clusters hold the same 8 cores;
  // both shapes must complete the same offered load untruncated (the
  // dispatch granularity differs — chips share one queue — so tails are
  // close but not identical).
  const FleetResult rf = ClusterFleet{chip_builder().shape(2, 1).build()}.run();
  const FleetResult rc = ClusterFleet{chip_builder().shape(1, 2).build()}.run();
  EXPECT_EQ(rf.completed, rc.completed);
  EXPECT_FALSE(rf.truncated);
  EXPECT_FALSE(rc.truncated);
  EXPECT_GT(rc.p99.value(), 0.0);
  // Same total service capacity: the spans agree within dispatch noise.
  EXPECT_NEAR(rc.span_seconds.value(), rf.span_seconds.value(),
              0.25 * rf.span_seconds.value());
}

TEST(Chip, RunsAreDeterministicAcrossThreadCountsAndPolicies) {
  // The satellite determinism requirement: chip-level dispatch must be
  // bit-identical for any NTSERV_THREADS under every balance policy,
  // including the governor-aware one (its peeks read only fleet state).
  const std::vector<BalancePolicy> policies{
      BalancePolicy::kRoundRobin, BalancePolicy::kLeastLoaded,
      BalancePolicy::kPowerAware, BalancePolicy::kGovernorAware};
  std::vector<Scenario> batch;
  for (const auto p : policies) {
    Scenario s = tiny_consolidated();
    s.policy = p;
    batch.push_back(s);
  }
  const auto serial = run_scenarios(batch, ghz(2.0), 1);
  const auto parallel = run_scenarios(batch, ghz(2.0), 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << to_string(policies[i]);
  }
}

TEST(Chip, TenantAccountingIsConsistent) {
  const auto r = run_scenario(tiny_consolidated(), ghz(2.0));
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_FALSE(r.truncated);
  std::uint64_t completed = 0, offered = 0, shed = 0;
  double share = 0.0, energy = 0.0;
  for (const auto& t : r.tenants) {
    completed += t.completed;
    offered += t.offered;
    shed += t.shed;
    share += t.busy_share;
    energy += t.energy.value();
    EXPECT_LE(t.p50.value(), t.p95.value());
    EXPECT_LE(t.p95.value(), t.p99.value());
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(shed, r.shed);
  // Busy shares partition occupied core time, and the energy attribution
  // redistributes exactly the governed fleet energy.
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_NEAR(energy, r.energy.value(), 1e-9 + r.energy.value() * 1e-9);
}

TEST(Chip, PerTenantPercentileGoldens) {
  // Golden per-tenant percentiles for the trimmed consolidated scenario:
  // the numbers are a deterministic function of (config, seed) and must
  // not drift silently (dispatch-order or accounting regressions move
  // them far more than the tolerance).
  const auto r = run_scenario(tiny_consolidated(), ghz(2.0));
  ASSERT_EQ(r.tenants.size(), 2u);
  const auto& critical = r.tenants[0];
  const auto& batch = r.tenants[1];
  EXPECT_EQ(critical.completed, 120u);
  EXPECT_EQ(batch.completed, 80u);
  constexpr double kCriticalP50 = 1.0103013421059424e-05;
  constexpr double kCriticalP99 = 1.5398710601159963e-05;
  constexpr double kBatchP50 = 8.4582827667097115e-06;
  constexpr double kBatchP99 = 3.7292871589441701e-05;
  const double rel = 1e-6;  // identical math everywhere; allow libm noise
  EXPECT_NEAR(critical.p50.value(), kCriticalP50, kCriticalP50 * rel);
  EXPECT_NEAR(critical.p99.value(), kCriticalP99, kCriticalP99 * rel);
  EXPECT_NEAR(batch.p50.value(), kBatchP50, kBatchP50 * rel);
  EXPECT_NEAR(batch.p99.value(), kBatchP99, kBatchP99 * rel);
}

TEST(Chip, GovernorAwareSteersUnderForcedDescent) {
  // Force per-chip frequency descents: ondemand chips climb during MMPP
  // bursts and descend between them. The governor-aware balancer must
  // (a) actually steer latency-critical work off descending chips and
  // (b) end no worse than least-loaded on non-transition QoS violations.
  Scenario s;
  s.name = "forced-descent";
  s.workload = "Web Search";
  s.servers = 2;
  s.clusters_per_chip = 1;
  s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
  s.governor.epoch_quanta = 512;
  s.governor.qos_p99_limit = microseconds(80.0);
  s.arrival.kind = ArrivalKind::kMmpp;
  s.arrival.rate = 150'000.0;
  s.arrival.burst_rate_multiplier = 4.0;
  s.arrival.burst_fraction = 0.15;
  s.arrival.burst_dwell = Second{1e-4};
  s.user_instructions_per_request = 3'000;
  s.requests = 250;
  s.warmup_requests = 25;
  s.warm_instructions = 60'000;
  s.seed = 33;

  s.policy = BalancePolicy::kLeastLoaded;
  const auto ll = run_scenario(s, ghz(2.0));
  s.policy = BalancePolicy::kGovernorAware;
  const auto ga = run_scenario(s, ghz(2.0));

  EXPECT_FALSE(ll.truncated);
  EXPECT_FALSE(ga.truncated);
  EXPECT_GT(ll.transitions, 0) << "scenario must actually force descents";
  EXPECT_EQ(ll.steered, 0u);
  EXPECT_GT(ga.steered, 0u);
  EXPECT_LE(ga.qos_violation_epochs, ll.qos_violation_epochs);
}

}  // namespace
}  // namespace ntserv::dc
