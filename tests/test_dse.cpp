#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "dse/dse.hpp"

namespace ntserv::dse {
namespace {

/// Hand-built sweep with analytically known behaviour: UIPS = k*f^0.8
/// (sub-linear), core power ~ f^3, fixed uncore and memory.
SweepResult synthetic_sweep() {
  SweepResult s;
  s.workload = "synthetic";
  for (double g = 0.2; g <= 2.01; g += 0.2) {
    sim::OperatingPointResult p;
    p.frequency = ghz(g);
    p.uips = 30e9 * std::pow(g / 2.0, 0.8);
    p.power.core_dynamic = watts(20.0 * g * g * g / 8.0);
    p.power.core_leakage = watts(0.05);
    p.power.llc = watts(18.0);
    p.power.interconnect = watts(0.22);
    p.power.io = watts(5.0);
    p.power.dram_background = watts(1.9);
    p.power.dram_dynamic = watts(2.0 * g / 2.0);
    p.eff_cores = p.uips / p.power.cores().value();
    p.eff_soc = p.uips / p.power.soc().value();
    p.eff_server = p.uips / p.power.server().value();
    s.points.push_back(p);
  }
  return s;
}

TEST(Dse, ScopeNames) {
  EXPECT_STREQ(to_string(Scope::kCores), "cores");
  EXPECT_STREQ(to_string(Scope::kSoc), "SoC");
  EXPECT_STREQ(to_string(Scope::kServer), "server");
}

TEST(Dse, CoresOptimumAtLowestFrequency) {
  const auto s = synthetic_sweep();
  EXPECT_EQ(s.optimal_index(Scope::kCores), 0u);
  EXPECT_NEAR(in_ghz(s.optimal_frequency(Scope::kCores)), 0.2, 1e-9);
}

TEST(Dse, SocOptimumInTheMiddle) {
  const auto s = synthetic_sweep();
  const double f = in_ghz(s.optimal_frequency(Scope::kSoc));
  EXPECT_GT(f, 0.5);
  EXPECT_LT(f, 2.0);
}

TEST(Dse, ServerOptimumAtOrRightOfSocOptimum) {
  const auto s = synthetic_sweep();
  EXPECT_GE(s.optimal_frequency(Scope::kServer).value(),
            s.optimal_frequency(Scope::kSoc).value() - 1.0);
}

TEST(Dse, BaselineUipsIsHighestFrequencyPoint) {
  const auto s = synthetic_sweep();
  EXPECT_DOUBLE_EQ(s.baseline_uips(), s.points.back().uips);
}

TEST(Dse, UipsSamplesMatchPoints) {
  const auto s = synthetic_sweep();
  const auto samples = s.uips_samples();
  ASSERT_EQ(samples.size(), s.points.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].uips, s.points[i].uips);
  }
}

TEST(Dse, ChooseOperatingPointRespectsFloor) {
  const auto s = synthetic_sweep();
  // Tight QoS: floor lands mid-sweep.
  qos::QosTarget tight{"t", milliseconds(100), milliseconds(55)};
  const auto choice = choose_operating_point(s, tight);
  EXPECT_GE(choice.chosen_frequency.value(), choice.qos_floor.value());
  EXPECT_LE(choice.normalized_p99, 1.0 + 1e-9);
  EXPECT_GT(choice.efficiency, 0.0);
}

TEST(Dse, ChooseOperatingPointPicksEfficiencyAboveFloor) {
  const auto s = synthetic_sweep();
  qos::QosTarget loose{"l", seconds(100), milliseconds(1)};
  const auto choice = choose_operating_point(s, loose);
  // Floor is the bottom of the sweep; chosen = server-scope optimum.
  EXPECT_NEAR(choice.chosen_frequency.value(),
              s.optimal_frequency(Scope::kServer).value(), 1.0);
}

TEST(Dse, EnergyProportionalityBounds) {
  const auto s = synthetic_sweep();
  for (Scope scope : {Scope::kCores, Scope::kSoc, Scope::kServer}) {
    const double ep = energy_proportionality(s, scope);
    EXPECT_GE(ep, 0.0);
    EXPECT_LE(ep, 1.2);
  }
  // Cores alone are nearly proportional (cubic power, sublinear UIPS);
  // the server with its constant uncore is much less so.
  EXPECT_GT(energy_proportionality(s, Scope::kCores),
            energy_proportionality(s, Scope::kServer) + 0.2);
}

TEST(Dse, ConsolidationHeadroomAboveOneWhenFloorBelowOptimum) {
  const auto s = synthetic_sweep();
  qos::QosTarget loose{"l", seconds(100), milliseconds(1)};
  EXPECT_GT(consolidation_headroom(s, loose), 1.0);
}

TEST(Dse, ConsolidationHeadroomOneWhenFloorAtOptimum) {
  const auto s = synthetic_sweep();
  // QoS so tight the floor sits above the efficiency optimum.
  qos::QosTarget tight{"t", milliseconds(100), milliseconds(95)};
  EXPECT_DOUBLE_EQ(consolidation_headroom(s, tight), 1.0);
}

TEST(Dse, EmptySweepThrows) {
  SweepResult empty;
  EXPECT_THROW((void)empty.optimal_index(Scope::kCores), ModelError);
  EXPECT_THROW((void)empty.baseline_uips(), ModelError);
}

/// A registry scenario trimmed so its fleet hits the cycle cap mid-run:
/// the truncation-propagation fixture.
dc::Scenario truncating_scenario() {
  dc::Scenario s = dc::Scenario::by_name("powercap-web");
  s.orchestration.cap.enabled = false;  // plain governed fleet
  s.max_cycles = 200'000;               // far below what the run needs
  return s;
}

TEST(Dse, GovernorSweepSurfacesTruncatedRuns) {
  const dc::Scenario s = truncating_scenario();
  testing::internal::CaptureStderr();
  const GovernorSweep sweep =
      sweep_governors(s, {ctrl::GovernorKind::kFixedMax}, ghz(2.0), 1);
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(sweep.points.size(), 1u);
  const dc::FleetResult& r = sweep.points[0].result;
  EXPECT_TRUE(r.truncated);  // the flag itself propagates through the sweep
  // The deterministic post-parallel pass warns on stderr, naming the run.
  EXPECT_NE(err.find("truncated"), std::string::npos);
  EXPECT_NE(err.find(s.name), std::string::npos);
}

TEST(Dse, ProvisioningSweepTreatsTruncatedRunsAsNotMeeting) {
  const dc::Scenario s = truncating_scenario();
  std::vector<ProvisioningArm> arms(2);
  arms[0].label = "fixed";
  arms[1].label = "also-fixed";
  testing::internal::CaptureStderr();
  const ProvisioningSweep sweep =
      sweep_provisioning(s, {2, 3}, arms, microseconds(200.0), ghz(2.0), 4);
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(sweep.points.size(), 2u);
  for (const auto& p : sweep.points) {
    ASSERT_EQ(p.results.size(), 2u);
    for (const auto& r : p.results) {
      EXPECT_TRUE(r.truncated);
      EXPECT_FALSE(sweep.meets(r));  // a partial run never "meets"
    }
  }
  EXPECT_EQ(sweep.min_chips(0), -1);
  // One warning per run, in run order (chip count, then arm) whatever
  // order the workers finished in.
  std::string expected;
  for (const char* run : {"arm 'fixed' @2 chips", "arm 'also-fixed' @2 chips",
                          "arm 'fixed' @3 chips", "arm 'also-fixed' @3 chips"}) {
    expected += "[ntserv::dse] warning: provisioning sweep of 'powercap-web': run " +
                std::string(run) +
                " truncated at its cycle cap — reported metrics are partial\n";
  }
  EXPECT_EQ(err, expected);
}

/// diurnal-chipfail shrunk for turnaround: two chips, a short busy run,
/// and chip 1's crash and recovery moved inside it.
dc::Scenario small_chipfail() {
  dc::Scenario s = dc::Scenario::by_name("diurnal-chipfail");
  s.warm_instructions = 60'000;
  s.servers = 2;
  s.tenants[0].arrival.rate *= 2.0;
  s.tenants[0].requests = 30;
  s.tenants[0].warmup_requests = 4;
  s.faults.events = {{0.03e-3, 1, fault::FaultKind::kCrash},
                     {0.06e-3, 1, fault::FaultKind::kRecover}};
  return s;
}

/// rack-loss-web shrunk the same way: two one-chip racks, rack0 lost
/// early in a short overloaded run.
dc::Scenario small_rack_loss() {
  dc::Scenario s = dc::Scenario::by_name("rack-loss-web");
  s.warm_instructions = 60'000;
  s.servers = 2;
  s.orchestration.autoscaler.min_active = 1;
  s.faults.domains = {{"rack0", {0}}, {"rack1", {1}}};
  s.faults.events[0].at_s = 0.04e-3;
  s.faults.events[0].duration_s = 0.04e-3;
  s.tenants[0].arrival.rate *= 1.5;
  s.tenants[0].requests = 40;
  s.tenants[0].warmup_requests = 4;
  s.tenants[1].arrival.rate *= 2.0;
  s.tenants[1].requests = 10;
  s.tenants[1].warmup_requests = 2;
  return s;
}

/// The sweep_faults contract for either arm kind: every result is
/// thread-count invariant, points come back in arm order, and the healthy
/// reference is the fault-stripped scenario under the first arm.
/// `apply_arm` writes one arm's posture into a scenario. Returns the
/// serial sweep.
template <typename Arm, typename ApplyArm>
FaultSweep expect_fault_sweep_contract(const dc::Scenario& s, const std::vector<Arm>& arms,
                                       ApplyArm apply_arm) {
  const FaultSweep one = sweep_faults(s, arms, ghz(2.0), 1);
  const FaultSweep four = sweep_faults(s, arms, ghz(2.0), 4);
  EXPECT_EQ(one.scenario, s.name);
  EXPECT_TRUE(one.healthy == four.healthy);
  EXPECT_EQ(one.points.size(), arms.size());
  EXPECT_EQ(four.points.size(), arms.size());
  const std::size_t n = std::min({arms.size(), one.points.size(), four.points.size()});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(one.points[i].label, arms[i].label);
    EXPECT_EQ(four.points[i].label, arms[i].label);
    EXPECT_TRUE(one.points[i].result == four.points[i].result) << arms[i].label;
    EXPECT_GT(one.points[i].result.faults_injected, 0u) << arms[i].label;
  }

  EXPECT_EQ(one.healthy.faults_injected, 0u);
  dc::Scenario healthy = s;
  healthy.faults = fault::FaultConfig{};
  apply_arm(healthy, arms.front());
  EXPECT_TRUE(one.healthy == dc::run_scenario(healthy, ghz(2.0)));
  // The last point is the last arm's run, not another arm's result
  // under its label.
  dc::Scenario last = s;
  apply_arm(last, arms.back());
  if (n == arms.size()) {
    EXPECT_TRUE(one.points.back().result == dc::run_scenario(last, ghz(2.0)));
  }
  return one;
}

TEST(Dse, ResilienceFaultSweepIsThreadCountInvariant) {
  const dc::Scenario s = small_chipfail();
  // The first arm hedges every request at once, so it changes even the
  // fault-free reference run; the default arms differ only under faults.
  dc::ResilienceConfig eager = s.resilience;
  eager.hedge_min_delay = microseconds(1.0);
  eager.hedge_warmup = 1'000'000;
  std::vector<ResilienceArm> arms{{"eager-hedge", eager}};
  for (const auto& arm : default_resilience_arms(s)) arms.push_back(arm);
  const FaultSweep sweep = expect_fault_sweep_contract(
      s, arms, [](dc::Scenario& h, const ResilienceArm& arm) { h.resilience = arm.resilience; });
  EXPECT_GT(sweep.healthy.hedged, 0u);
}

TEST(Dse, BrownoutFaultSweepIsThreadCountInvariant) {
  const dc::Scenario s = small_rack_loss();
  (void)expect_fault_sweep_contract(
      s, default_brownout_arms(), [](dc::Scenario& h, const BrownoutArm& arm) {
        h.brownout.enabled = arm.brownout;
        if (arm.brownout) h.brownout.max_stage = arm.max_stage;
        h.breaker.enabled = arm.breaker;
        h.orchestration.autoscaler.emergency_wake = arm.emergency_wake;
      });
}

TEST(Dse, TruncatedMarkFlagsOnlyTruncatedRows) {
  // The bench-side half: every figure driver marks truncated rows through
  // this one shared helper.
  dc::FleetResult r;
  EXPECT_STREQ(bench::truncated_mark(r), "");
  r.truncated = true;
  EXPECT_STREQ(bench::truncated_mark(r), " [TRUNCATED]");
  EXPECT_STREQ(bench::truncated_mark(false), "");
  EXPECT_STREQ(bench::truncated_mark(true), " [TRUNCATED]");
}

}  // namespace
}  // namespace ntserv::dse
