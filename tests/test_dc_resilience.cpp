#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "dc/runner.hpp"
#include "dc/scenario.hpp"
#include "obs/obs.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {
namespace {

ArrivalConfig poisson(double rate) {
  ArrivalConfig a;
  a.kind = ArrivalKind::kPoisson;
  a.rate = rate;
  return a;
}

/// Small, fast two-chip fleet shared by the behavioural tests. Traffic
/// overrides go through the builder's single-tenant setters; fault and
/// resilience knobs may still be set on the built config.
FleetConfigBuilder small_builder() {
  return FleetConfigBuilder{}
      .profile(workload::WorkloadProfile::web_search())
      .frequency(ghz(2.0))
      .shape(/*servers=*/2)
      .request_cost(3'000)
      .arrival(poisson(20'000.0))
      .requests(80, 10)
      .warm(60'000)
      .seed(3);
}

FleetConfig small_config() { return small_builder().build(); }

void expect_tiling(const FleetResult& r) {
  EXPECT_EQ(r.offered, r.completed_all + r.shed + r.timed_out + r.in_flight);
  // Every fleet total is the sum of its tenant slices, and goodput's
  // numerator is the measured completions that met their bound.
  std::uint64_t offered = 0, completed = 0, shed = 0, timed_out = 0, in_flight = 0;
  std::uint64_t measured = 0, hedged = 0, redispatched = 0, brownout_shed = 0;
  std::uint64_t violations = 0, degraded = 0;
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.offered, t.completed_all + t.shed + t.timed_out + t.in_flight)
        << "tenant " << t.name;
    offered += t.offered;
    completed += t.completed_all;
    shed += t.shed;
    timed_out += t.timed_out;
    in_flight += t.in_flight;
    measured += t.completed;
    hedged += t.hedged;
    redispatched += t.redispatched;
    brownout_shed += t.brownout_shed;
    violations += t.sla_violations;
    degraded += t.degraded_sla_violations;
  }
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(completed, r.completed_all);
  EXPECT_EQ(shed, r.shed);
  EXPECT_EQ(timed_out, r.timed_out);
  EXPECT_EQ(in_flight, r.in_flight);
  EXPECT_EQ(measured, r.completed);
  EXPECT_EQ(hedged, r.hedged);
  EXPECT_EQ(redispatched, r.redispatched);
  EXPECT_EQ(brownout_shed, r.brownout_shed);
  EXPECT_EQ(violations, r.sla_violations);
  EXPECT_EQ(degraded, r.degraded_sla_violations);
  if (r.span_seconds.value() > 0.0) {
    EXPECT_EQ(r.goodput,
              static_cast<double>(measured - violations) / r.span_seconds.value());
  }
}

TEST(Resilience, HealthyFleetIsBitIdenticalWithResilienceArmed) {
  // Failover/timeout/hedging must be pure overhead-free bookkeeping while
  // nothing fails: same completions, same tail, same span.
  auto cfg = small_config();
  const FleetResult plain = ClusterFleet{cfg}.run();
  cfg.resilience.failover = true;
  cfg.resilience.timeout = Second{5e-3};  // far above any healthy latency
  const FleetResult armed = ClusterFleet{cfg}.run();
  EXPECT_EQ(plain.completed, armed.completed);
  EXPECT_DOUBLE_EQ(plain.p99.value(), armed.p99.value());
  EXPECT_EQ(plain.span_cycles, armed.span_cycles);
  EXPECT_EQ(armed.timed_out, 0u);
  EXPECT_EQ(armed.redispatched, 0u);
}

TEST(Resilience, CrashWithoutFailoverPaysTheOutageInLatency) {
  auto cfg = small_config();
  const FleetResult healthy = ClusterFleet{cfg}.run();
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash},
                       {2.0e-3, 0, fault::FaultKind::kRecover}};
  const FleetResult r = ClusterFleet{cfg}.run();
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.faults_injected, 2u);
  // Nothing is lost: in-flight work restarts locally at recovery and the
  // dead chip's queue waits out the outage...
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_EQ(r.redispatched, 0u);
  // ...so the ~1ms outage shows up in the tail instead.
  EXPECT_GT(r.p99.value(), healthy.p99.value() * 5.0);
  EXPECT_TRUE(r.recovered);
  EXPECT_GT(r.time_to_recover.value(), 0.0);
  expect_tiling(r);
}

TEST(Resilience, FailoverKeepsTheTailNearHealthy) {
  auto cfg = small_config();
  const FleetResult healthy = ClusterFleet{cfg}.run();
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash},
                       {2.0e-3, 0, fault::FaultKind::kRecover}};
  const FleetResult blind = ClusterFleet{cfg}.run();
  cfg.resilience.failover = true;
  const FleetResult failover = ClusterFleet{cfg}.run();
  EXPECT_FALSE(failover.truncated);
  EXPECT_EQ(failover.offered, failover.completed_all);
  EXPECT_EQ(failover.timed_out, 0u);
  // The crash drains the victim onto the healthy chip, so the outage
  // barely moves the tail while the blind fleet's explodes.
  EXPECT_LT(failover.p99.value(), blind.p99.value() / 2.0);
  EXPECT_LT(failover.p99.value(), healthy.p99.value() * 3.0);
  expect_tiling(failover);
}

TEST(Resilience, UnrecoveredCrashStrandsInFlightWorkWithoutFailover) {
  auto cfg = small_config();
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash}};  // never recovers
  cfg.max_cycles = 40'000'000;  // bound the wait for work that cannot finish
  const FleetResult r = ClusterFleet{cfg}.run();
  EXPECT_TRUE(r.truncated);
  EXPECT_GT(r.in_flight, 0u);
  EXPECT_FALSE(r.recovered);
  expect_tiling(r);
}

TEST(Resilience, FailoverSurvivesAnUnrecoveredCrash) {
  auto cfg = small_config();
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash}};
  cfg.resilience.failover = true;
  const FleetResult r = ClusterFleet{cfg}.run();
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_EQ(r.in_flight, 0u);
  expect_tiling(r);
}

TEST(Resilience, TimeoutsExhaustTheRetryBudgetOnADarkFleet) {
  auto cfg = small_builder().shape(1).arrival(poisson(10'000.0)).requests(30, 5).build();
  cfg.faults.events = {{0.5e-3, 0, fault::FaultKind::kCrash}};  // forever
  cfg.resilience.timeout = Second{50e-6};
  const FleetResult r = ClusterFleet{cfg}.run();
  EXPECT_FALSE(r.truncated);
  // Every request that had not finished by the crash times out, retries
  // through the back-off budget onto the same dead chip, and gives up.
  EXPECT_GT(r.timed_out, 0u);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.offered, r.completed_all + r.timed_out + r.shed);
  expect_tiling(r);
}

TEST(Resilience, HedgingDuplicatesSlowRequestsAndFirstCompletionWins) {
  // 60 krps: enough queueing for hedges to fire.
  auto cfg = small_builder().arrival(poisson(60'000.0)).build();
  cfg.resilience.hedging = true;
  cfg.resilience.hedge_min_delay = Second{5e-6};
  cfg.resilience.hedge_warmup = 1'000'000;  // pin the delay at hedge_min_delay
  const FleetResult r = ClusterFleet{cfg}.run();
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.hedged, 0u);
  EXPECT_LE(r.hedged, r.offered);  // at most one hedge per request
  EXPECT_LE(r.hedge_wins, r.hedged);
  // Every loser copy is either dequeued in time or its completion is
  // discarded as wasted work; requests are never double-counted.
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_LE(r.wasted_completions, r.hedged);
  expect_tiling(r);
}

TEST(Resilience, DegradationFrequencyCapSlowsTheFleet) {
  auto cfg = small_builder().shape(1).arrival(poisson(10'000.0)).build();
  const FleetResult healthy = ClusterFleet{cfg}.run();
  // Deep whole-run cap (0.15 of nominal -> 0.3 GHz). The slowdown is
  // sub-linear in frequency — web search is memory-bound, which is the
  // paper's NTC argument — so the latency ratio is well under 1/0.15.
  cfg.faults.events = {{1e-6, 0, fault::FaultKind::kDegrade, 0.15, 0}};
  const FleetResult degraded = ClusterFleet{cfg}.run();
  EXPECT_FALSE(degraded.truncated);
  EXPECT_EQ(degraded.offered, degraded.completed_all);
  EXPECT_GT(degraded.mean_latency.value(), healthy.mean_latency.value() * 1.5);
  EXPECT_GT(degraded.p99.value(), healthy.p99.value() * 1.3);
  expect_tiling(degraded);
}

TEST(Resilience, GuardbandChargesEnergyAndRecoversToThePin) {
  Scenario s = Scenario::by_name("ntc-guardband-web");
  Scenario healthy = s;
  healthy.faults = fault::FaultConfig{};
  const FleetResult faulted = run_scenario(s, ghz(2.0));
  const FleetResult clean = run_scenario(healthy, ghz(2.0));
  EXPECT_FALSE(faulted.truncated);
  EXPECT_GT(faulted.guardband_epochs, 0);
  EXPECT_EQ(clean.guardband_epochs, 0);
  // Bound: hold + ceil(margin/step) epochs per error event.
  const int bound = s.governor.guardband_hold_epochs + 4;  // ceil(0.12/0.03)
  EXPECT_LE(faulted.guardband_epochs, 2 * bound);  // one error event per chip
  EXPECT_GT(faulted.energy.value(), clean.energy.value());
  // The margin has fully relaxed by the end of the run on every chip.
  ASSERT_FALSE(faulted.epochs.empty());
  for (auto it = faulted.epochs.rbegin();
       it != faulted.epochs.rend() && it->epoch == faulted.epochs.back().epoch; ++it) {
    EXPECT_DOUBLE_EQ(it->margin, 0.0);
  }
  expect_tiling(faulted);
}

TEST(Resilience, FaultedRunsAreDeterministicAcrossThreadCounts) {
  Scenario s = Scenario::by_name("diurnal-chipfail");
  s.requests = 300;  // span still covers the scripted crash window
  s.warmup_requests = 20;
  std::vector<Scenario> batch{s, s};
  const auto one = run_scenarios(batch, ghz(2.0), 1);
  const auto four = run_scenarios(batch, ghz(2.0), 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_TRUE(one[i] == four[i]) << "run " << i;
}

// ---- Randomized accounting property tests ----
//
// offered == completed_all + shed + timed_out + in_flight must tile at
// the fleet level and per tenant for *any* combination of load, policy,
// admission, faults and resilience — the conservation law of the serving
// layer. The generator is seeded, so the "random" sample is stable.
// These tests deliberately assemble raw FleetConfig values, writing the
// tenant table directly (one tenant, or the load split across two)
// rather than through FleetConfigBuilder.

/// One randomized fleet: load, policy, admission, faults, resilience,
/// brownout/breakers and the tenant split, all drawn from `rng`.
FleetConfig draw_config(Xoshiro256StarStar& rng) {
  FleetConfig cfg;
  cfg.profile = workload::WorkloadProfile::web_search();
  cfg.frequency = ghz(2.0);
  cfg.servers = 1 + static_cast<int>(rng() % 3);
  TenantSpec single;
  single.user_instructions_per_request = 3'000;
  single.arrival.kind = ArrivalKind::kPoisson;
  single.arrival.rate = 8'000.0 + 5'000.0 * static_cast<double>(rng() % 8);
  single.requests = 60 + rng() % 60;
  single.warmup_requests = 8;
  cfg.warm_instructions = 60'000;
  cfg.seed = rng();
  cfg.policy = rng() % 2 == 0 ? BalancePolicy::kLeastLoaded : BalancePolicy::kRoundRobin;
  if (rng() % 2 == 0) {
    cfg.admission.enabled = true;
    cfg.admission.max_outstanding_per_core = 2.0;
  }
  // Fault schedule: none / scripted crash(+maybe recover) / stochastic.
  switch (rng() % 3) {
    case 1: {
      const int chip = static_cast<int>(rng() % cfg.servers);
      const double at = 0.3e-3 + 1e-4 * static_cast<double>(rng() % 10);
      cfg.faults.events.push_back({at, chip, fault::FaultKind::kCrash});
      if (rng() % 2 == 0) {
        cfg.faults.events.push_back({at + 0.8e-3, chip, fault::FaultKind::kRecover});
      }
      break;
    }
    case 2:
      cfg.faults.mtbf.enabled = true;
      cfg.faults.mtbf.mttf = Second{2.0e-3};
      cfg.faults.mtbf.mttr = Second{0.4e-3};
      cfg.faults.mtbf.horizon = Second{20e-3};
      break;
    default: break;
  }
  // Half the fleets carve their chips into two correlated failure
  // domains and take a rack-scale hit: a scripted domain outage or the
  // per-domain renewal stream, on top of whatever per-chip schedule the
  // switch above picked.
  if (cfg.servers >= 2 && rng() % 2 == 0) {
    fault::FaultDomain head, tail;
    head.name = "rack0";
    head.members = {0};
    tail.name = "rack1";
    for (int c = 1; c < cfg.servers; ++c) tail.members.push_back(c);
    cfg.faults.domains = {head, tail};
    if (rng() % 2 == 0) {
      fault::FaultEvent outage;
      outage.at_s = 0.3e-3 + 1e-4 * static_cast<double>(rng() % 10);
      outage.kind = fault::FaultKind::kDomainOutage;
      outage.domain = static_cast<int>(rng() % 2);
      outage.duration_s = rng() % 2 == 0 ? 0.6e-3 : 0.0;
      cfg.faults.events.push_back(outage);
    } else {
      cfg.faults.domain_mtbf.enabled = true;
      cfg.faults.domain_mtbf.mttf = Second{3.0e-3};
      cfg.faults.domain_mtbf.mttr = Second{0.5e-3};
      cfg.faults.domain_mtbf.horizon = Second{20e-3};
    }
  }
  // Resilience posture: none / failover / failover+timeout+hedging.
  switch (rng() % 3) {
    case 1: cfg.resilience.failover = true; break;
    case 2:
      cfg.resilience.failover = true;
      cfg.resilience.timeout = Second{150e-6};
      cfg.resilience.hedging = true;
      cfg.resilience.hedge_min_delay = Second{20e-6};
      cfg.resilience.hedge_warmup = 1'000'000;
      break;
    default: break;
  }
  // Brownout posture: none / full ladder / ladder + circuit breakers.
  // The ladder sheds by priority and the breakers fence chips off, so
  // both must keep the ledger tiling through every fault combination.
  // Both act at the epoch barrier, so they need a governed fleet.
  switch (rng() % 3) {
    case 1:
      cfg.governor.kind = ctrl::GovernorKind::kFixedMax;
      cfg.brownout.enabled = true;
      break;
    case 2:
      cfg.governor.kind = ctrl::GovernorKind::kFixedMax;
      cfg.brownout.enabled = true;
      cfg.breaker.enabled = true;
      break;
    default: break;
  }
  // Sometimes split the load across two tenants to exercise the
  // per-tenant tiling.
  if (rng() % 2 == 0) {
    TenantSpec a, b;
    a.name = "a";
    a.arrival = single.arrival;
    a.user_instructions_per_request = 3'000;
    a.requests = single.requests / 2;
    a.warmup_requests = 4;
    b.name = "b";
    b.arrival = single.arrival;
    b.arrival.rate *= 0.5;
    b.user_instructions_per_request = 3'000;
    b.requests = single.requests / 2;
    b.warmup_requests = 4;
    cfg.tenants = {a, b};
  } else {
    cfg.tenants = {single};
  }
  cfg.max_cycles = 80'000'000;  // unrecovered crashes truncate quickly
  return cfg;
}

/// The stressed posture on top of a plain draw: a multi-chip fleet
/// offered from about half to several times its service rate (a 3,000
/// instruction request takes ~6 us at 2 GHz), per-attempt timeouts and hedge
/// delays a few service times long, a hedge delay that tracks the
/// measured p95 almost at once, a batch tenant beside the critical one,
/// and the brownout ladder on a short epoch grid. These are the postures
/// under which every ledger path fires: hedges and their wins, timeouts
/// and the wasted completions of abandoned copies, brownout shedding,
/// breaker trips, failover re-dispatch and back-off retries.
FleetConfig draw_stressed_config(Xoshiro256StarStar& rng) {
  FleetConfig cfg = draw_config(rng);
  cfg.servers = std::max(cfg.servers, 2);  // a hedge needs a second chip
  const double rate = 0.4e6 + 0.4e6 * static_cast<double>(rng() % 6);
  cfg.admission.max_retries = static_cast<int>(rng() % 3);
  cfg.resilience.failover = true;
  cfg.resilience.timeout = Second{(6.0 + 6.0 * static_cast<double>(rng() % 4)) * 1e-6};
  cfg.resilience.hedging = true;
  cfg.resilience.hedge_min_delay = Second{(2.0 + static_cast<double>(rng() % 4)) * 1e-6};
  cfg.resilience.hedge_multiplier = 1.0 + 0.5 * static_cast<double>(rng() % 3);
  cfg.resilience.hedge_warmup = 4 + rng() % 8;
  // The plain draw's faults land after this short burst is over, so hit a
  // chip inside it: a crash (recovered or not) or a deep frequency cap.
  const double at = (10.0 + 10.0 * static_cast<double>(rng() % 5)) * 1e-6;
  const int chip = static_cast<int>(rng() % static_cast<std::uint64_t>(cfg.servers));
  switch (rng() % 3) {
    case 0: cfg.faults.events.push_back({at, chip, fault::FaultKind::kCrash}); break;
    case 1:
      cfg.faults.events.push_back({at, chip, fault::FaultKind::kCrash});
      cfg.faults.events.push_back({at + 30e-6, chip, fault::FaultKind::kRecover});
      break;
    default: cfg.faults.events.push_back({at, chip, fault::FaultKind::kDegrade, 0.25, 0}); break;
  }
  cfg.governor.kind = ctrl::GovernorKind::kFixedMax;
  cfg.governor.epoch_quanta = 64;  // ~2 us epochs: the ladder climbs within the burst
  cfg.brownout.enabled = true;
  cfg.breaker.enabled = rng() % 4 != 0;
  cfg.breaker.min_samples = 4;
  TenantSpec critical, batch;
  critical.name = "critical";
  critical.arrival.kind = ArrivalKind::kPoisson;
  critical.arrival.rate = rate;
  critical.user_instructions_per_request = 3'000;
  critical.requests = 50 + rng() % 40;
  critical.warmup_requests = 4;
  batch = critical;
  batch.name = "batch";
  batch.latency_critical = false;
  batch.arrival.rate = 0.5 * rate;
  batch.requests = 30 + rng() % 30;
  cfg.tenants = {critical, batch};
  return cfg;
}

constexpr int kPlainDraws = 14;
constexpr int kStressedDraws = 10;
constexpr std::uint64_t kStressedStream = 0x57E55;

/// Stressed draw `trial` (0-based); each trial reseeds its own stream,
/// so one trial reproduces without replaying the others.
FleetConfig stressed_draw(int trial) {
  Xoshiro256StarStar rng{derive_seed(kStressedStream, static_cast<std::uint64_t>(trial))};
  return draw_stressed_config(rng);
}

std::string reproducer(const char* kind, int trial, const FleetConfig& cfg) {
  return std::string{"reproduce: "} + kind + " draw " + std::to_string(trial) + " (servers " +
         std::to_string(cfg.servers) + ", seed " + std::to_string(cfg.seed) + ")";
}

TEST(ResilienceProperty, AccountingTilesAcrossRandomizedScenarios) {
  // Every ledger path the draws must reach, with its hit count.
  struct Path {
    const char* name;
    std::uint64_t hits = 0;
  };
  Path hedged{"hedged"}, hedge_wins{"hedge_wins"}, timed_out{"timed_out"};
  Path wasted{"wasted_completions"}, brownout_shed{"brownout_shed"};
  Path breaker_trips{"breaker_trips"}, redispatched{"redispatched"}, retries{"retries"};
  const auto check = [&](const FleetConfig& cfg, const char* kind, int trial) {
    const FleetResult r = ClusterFleet{cfg}.run();
    SCOPED_TRACE(reproducer(kind, trial, cfg));
    expect_tiling(r);
    if (!r.truncated) EXPECT_EQ(r.in_flight, 0u);
    hedged.hits += r.hedged;
    hedge_wins.hits += r.hedge_wins;
    timed_out.hits += r.timed_out;
    wasted.hits += r.wasted_completions;
    brownout_shed.hits += r.brownout_shed;
    breaker_trips.hits += static_cast<std::uint64_t>(r.breaker_trips);
    redispatched.hits += r.redispatched;
    retries.hits += r.retries;
  };
  Xoshiro256StarStar rng{derive_seed(0xACC7, 0)};
  for (int trial = 0; trial < kPlainDraws; ++trial) check(draw_config(rng), "plain", trial);
  for (int trial = 0; trial < kStressedDraws; ++trial) {
    check(stressed_draw(trial), "stressed", trial);
  }
  // Coverage: a path no draw reaches is a path the tiling never checked.
  for (const Path* p : {&hedged, &hedge_wins, &timed_out, &wasted, &brownout_shed,
                        &breaker_trips, &redispatched, &retries}) {
    EXPECT_GT(p->hits, 0u) << "no randomized draw reached the " << p->name << " path";
  }
}

TEST(ResilienceProperty, StressedDrawsAreThreadCountInvariantAndTraceConserved) {
  // The stressed draws race hedge copies across chips, so a completion on
  // one chip cancels a sibling queued or running on another, and the
  // wasted-completion drain runs: the paths the parallel data plane must
  // keep bit-identical to the serial loop.
  for (int trial = 0; trial < kStressedDraws; ++trial) {
    const FleetConfig cfg = stressed_draw(trial);
    SCOPED_TRACE(reproducer("stressed", trial, cfg));
    const FleetResult serial = ClusterFleet{cfg}.run(1);
    obs::Telemetry telemetry;
    telemetry.trace.enable();
    const FleetResult parallel = ClusterFleet{cfg}.run(4, &telemetry);
    EXPECT_TRUE(serial == parallel);
    // Each admitted id ends in exactly one disposition event, or is still
    // in flight at truncation.
    std::unordered_map<std::int64_t, int> dispositions;
    std::uint64_t stray = 0;
    for (const obs::TraceEvent& e : telemetry.trace.events()) {
      switch (e.kind) {
        case obs::EventKind::kAdmit: dispositions.emplace(e.id, 0); break;
        case obs::EventKind::kComplete:
        case obs::EventKind::kShed:
        case obs::EventKind::kBrownoutShed:
        case obs::EventKind::kTimeout: {
          auto it = dispositions.find(e.id);
          if (it == dispositions.end()) {
            ++stray;
          } else {
            ++it->second;
          }
          break;
        }
        default: break;
      }
    }
    EXPECT_EQ(stray, 0u) << "disposition of an id with no earlier admit";
    EXPECT_EQ(dispositions.size(), parallel.offered);
    std::uint64_t open = 0;
    for (const auto& [id, n] : dispositions) {
      EXPECT_LE(n, 1) << "request " << id << " disposed " << n << " times";
      if (n == 0) ++open;
    }
    EXPECT_EQ(open, parallel.in_flight);
  }
}

TEST(Resilience, ValidationRejectsBadConfigs) {
  {
    auto cfg = small_config();
    cfg.resilience.timeout = Second{-1.0};
    EXPECT_THROW(ClusterFleet{cfg}, ModelError);
  }
  {
    auto cfg = small_config();
    cfg.resilience.hedging = true;
    cfg.resilience.hedge_multiplier = 0.0;
    EXPECT_THROW(ClusterFleet{cfg}, ModelError);
  }
  {
    auto cfg = small_config();  // 2 servers; event names chip 5
    cfg.faults.events = {{1e-3, 5, fault::FaultKind::kCrash}};
    EXPECT_THROW(ClusterFleet{cfg}, ModelError);
  }
}

}  // namespace
}  // namespace ntserv::dc
