#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dc/scenario.hpp"
#include "orch/orch.hpp"

namespace ntserv::orch {
namespace {

ChipStatus chip(int id, double util, int outstanding = 0) {
  ChipStatus c;
  c.chip = id;
  c.utilization = util;
  c.outstanding = outstanding;
  return c;
}

AutoscalerConfig scaler_config() {
  AutoscalerConfig cfg;
  cfg.enabled = true;
  cfg.min_active = 1;
  cfg.scale_up_utilization = 0.75;
  cfg.scale_down_utilization = 0.30;
  cfg.hysteresis_epochs = 2;
  cfg.wake_latency = microseconds(50.0);
  return cfg;
}

RouterConfig router_config() {
  RouterConfig cfg;
  cfg.enabled = true;
  cfg.groups.resize(2);
  cfg.groups[0].name = "ntc";
  cfg.groups[0].servers = 2;
  cfg.groups[0].governor.kind = ctrl::GovernorKind::kFixedMax;
  cfg.groups[1].name = "conv";
  cfg.groups[1].servers = 2;
  cfg.groups[1].governor.kind = ctrl::GovernorKind::kFixedMax;
  cfg.groups[1].governor.tech = tech::TechnologyParams::bulk28();
  cfg.groups[1].prefers_latency_critical = true;
  cfg.ntc_group = 0;
  return cfg;
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(OrchConfig, AutoscalerRejectsBadBands) {
  auto cfg = scaler_config();
  cfg.min_active = 0;
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg = scaler_config();
  cfg.scale_down_utilization = cfg.scale_up_utilization;
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg = scaler_config();
  cfg.hysteresis_epochs = 0;
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg = scaler_config();
  cfg.wake_latency = Second{-1e-6};
  EXPECT_THROW(cfg.validate(), ModelError);
}

TEST(OrchConfig, CapRequiresPositiveBound) {
  PowerCapConfig cfg;
  cfg.enabled = true;
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg.fleet_cap = Watt{100.0};
  EXPECT_NO_THROW(cfg.validate());
  cfg.min_share = 1.5;
  EXPECT_THROW(cfg.validate(), ModelError);
}

TEST(OrchConfig, RouterRejectsDegenerateShapes) {
  auto cfg = router_config();
  cfg.groups.pop_back();
  EXPECT_THROW(cfg.validate(), ModelError);

  cfg = router_config();
  cfg.ntc_group = 2;
  EXPECT_THROW(cfg.validate(), ModelError);

  cfg = router_config();
  cfg.groups[1].prefers_latency_critical = false;  // nobody prefers LC
  EXPECT_THROW(cfg.validate(), ModelError);

  cfg = router_config();
  cfg.groups[0].prefers_latency_critical = true;  // both prefer LC
  EXPECT_THROW(cfg.validate(), ModelError);

  cfg = router_config();
  cfg.ntc_group = 1;  // the LC home cannot also be the NTC soak group
  EXPECT_THROW(cfg.validate(), ModelError);

  EXPECT_NO_THROW(router_config().validate());
}

TEST(OrchConfig, AutoscalerAndRouterCannotCombine) {
  OrchestratorConfig cfg;
  cfg.autoscaler = scaler_config();
  cfg.router = router_config();
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg.router.enabled = false;
  EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------------
// Autoscaler state machine
// ---------------------------------------------------------------------------

TEST(Autoscaler, HighLoadWakesAParkedChip) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.9, 4), chip(1, 0.0)};
  chips[1].parked = true;
  const auto d = a.decide(chips);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].action, ScaleAction::kUnpark);
  EXPECT_EQ(d[0].chip, 1);
}

TEST(Autoscaler, PrefersCancellingADrainOverWaking) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.9, 4), chip(1, 0.2, 1), chip(2, 0.0)};
  chips[1].draining = true;
  chips[2].parked = true;
  const auto d = a.decide(chips);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].action, ScaleAction::kCancelDrain);
  EXPECT_EQ(d[0].chip, 1);
}

TEST(Autoscaler, NeverWakesAFaultedChip) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.9, 4), chip(1, 0.0)};
  chips[1].parked = true;
  chips[1].down = true;
  EXPECT_TRUE(a.decide(chips).empty());
}

TEST(Autoscaler, ScaleDownWaitsForConsecutiveLowEpochs) {
  Autoscaler a{scaler_config()};  // hysteresis_epochs = 2
  const std::vector<ChipStatus> low = {chip(0, 0.1), chip(1, 0.1)};
  const std::vector<ChipStatus> mid = {chip(0, 0.5), chip(1, 0.5)};

  EXPECT_TRUE(a.decide(low).empty());  // 1st low epoch: armed, no action
  EXPECT_TRUE(a.decide(mid).empty());  // mid band resets the count
  EXPECT_EQ(a.low_epochs(), 0);
  EXPECT_TRUE(a.decide(low).empty());
  const auto d = a.decide(low);  // 2nd consecutive low epoch fires
  ASSERT_EQ(d.size(), 1u);
  // The idle highest-index chip parks outright (nothing to drain).
  EXPECT_EQ(d[0].action, ScaleAction::kPark);
  EXPECT_EQ(d[0].chip, 1);
}

TEST(Autoscaler, BusyVictimDrainsInsteadOfParking) {
  Autoscaler a{scaler_config()};
  const std::vector<ChipStatus> low = {chip(0, 0.1, 0), chip(1, 0.1, 2)};
  EXPECT_TRUE(a.decide(low).empty());
  const auto d = a.decide(low);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].action, ScaleAction::kDrain);
  EXPECT_EQ(d[0].chip, 1);
}

TEST(Autoscaler, HoldsTheMinActiveFloor) {
  Autoscaler a{scaler_config()};
  const std::vector<ChipStatus> low = {chip(0, 0.05)};
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(a.decide(low).empty());
}

TEST(Autoscaler, ParksAChipThatFinishedDraining) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.5, 1), chip(1, 0.0)};
  chips[1].draining = true;  // drained dry mid-band
  const auto d = a.decide(chips);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].action, ScaleAction::kPark);
  EXPECT_EQ(d[0].chip, 1);
}

TEST(Autoscaler, ReclaimedDrainIsNotParkedSameBarrier) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.9, 4), chip(1, 0.0)};
  chips[1].draining = true;  // dry, but needed again right now
  const auto d = a.decide(chips);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].action, ScaleAction::kCancelDrain);
}

TEST(Autoscaler, AllParkedFleetForcesAWake) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.0), chip(1, 0.0)};
  chips[0].parked = true;
  chips[1].parked = true;
  const auto d = a.decide(chips);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].action, ScaleAction::kUnpark);
  EXPECT_EQ(d[0].chip, 0);
}

TEST(Autoscaler, EmergencyWakesEveryParkedChipAndCancelsDrains) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.4, 1), chip(1, 0.0), chip(2, 0.0),
                                   chip(3, 0.1, 1), chip(4, 0.0)};
  chips[1].parked = true;
  chips[2].parked = true;
  chips[3].draining = true;
  chips[4].parked = true;
  chips[4].down = true;  // faulted spare stays down even in an emergency
  const auto d = a.decide(chips, /*emergency=*/true);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].action, ScaleAction::kUnpark);
  EXPECT_EQ(d[0].chip, 1);
  EXPECT_EQ(d[1].action, ScaleAction::kUnpark);
  EXPECT_EQ(d[1].chip, 2);
  EXPECT_EQ(d[2].action, ScaleAction::kCancelDrain);
  EXPECT_EQ(d[2].chip, 3);
}

TEST(Autoscaler, EmergencyFlagOffKeepsTheOneWakePerBarrierLadder) {
  Autoscaler a{scaler_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.9, 4), chip(1, 0.0), chip(2, 0.0)};
  chips[1].parked = true;
  chips[2].parked = true;
  const auto d = a.decide(chips, /*emergency=*/false);
  ASSERT_EQ(d.size(), 1u);  // gradualism: one unpark per barrier
  EXPECT_EQ(d[0].action, ScaleAction::kUnpark);
}

TEST(Autoscaler, WarmSleepWindowDiscountsTheWakeLatency) {
  AutoscalerConfig cfg = scaler_config();  // wake_latency = 50us
  cfg.warm_sleep_window = Second{1e-3};
  cfg.warm_wake_fraction = 0.25;
  // Inside the window the chip is still warm: a quarter of the latency.
  EXPECT_DOUBLE_EQ(cfg.wake_latency_for(0.5e-3).value(), 0.25 * 50e-6);
  EXPECT_DOUBLE_EQ(cfg.wake_latency_for(1e-3).value(), 0.25 * 50e-6);
  // Past the window the sleep went cold: the full latency.
  EXPECT_DOUBLE_EQ(cfg.wake_latency_for(2e-3).value(), 50e-6);
  // A zero window disables the warm tier entirely.
  cfg.warm_sleep_window = Second{0.0};
  EXPECT_DOUBLE_EQ(cfg.wake_latency_for(0.0).value(), 50e-6);
}

// ---------------------------------------------------------------------------
// Power capper
// ---------------------------------------------------------------------------

TEST(PowerCapper, SplitSumsToTheAvailableBudget) {
  PowerCapConfig cfg;
  cfg.enabled = true;
  cfg.fleet_cap = Watt{100.0};
  cfg.min_share = 0.10;
  PowerCapper capper{cfg};

  std::vector<ChipStatus> chips = {chip(0, 0.5, 0), chip(1, 0.9, 3), chip(2, 0.0),
                                   chip(3, 0.0)};
  chips[2].parked = true;
  chips[3].down = true;
  const auto b = capper.split(chips, Watt{10.0});
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[2].value(), 0.0);
  EXPECT_DOUBLE_EQ(b[3].value(), 0.0);
  // floor 0.10 each, remainder 0.80 split 1:4 by (1 + outstanding).
  EXPECT_NEAR(b[0].value(), 90.0 * (0.10 + 0.80 * 1.0 / 5.0), 1e-9);
  EXPECT_NEAR(b[1].value(), 90.0 * (0.10 + 0.80 * 4.0 / 5.0), 1e-9);
  EXPECT_NEAR(b[0].value() + b[1].value(), 90.0, 1e-9);
  EXPECT_GT(b[1].value(), b[0].value());  // deeper queue, bigger budget
}

TEST(PowerCapper, MinShareClampsToAnEvenSplit) {
  PowerCapConfig cfg;
  cfg.enabled = true;
  cfg.fleet_cap = Watt{100.0};
  cfg.min_share = 0.90;  // > 1/serving: clamps to an even split
  PowerCapper capper{cfg};
  const std::vector<ChipStatus> chips = {chip(0, 0.5, 0), chip(1, 0.5, 9)};
  const auto b = capper.split(chips, Watt{0.0});
  EXPECT_NEAR(b[0].value(), 50.0, 1e-9);
  EXPECT_NEAR(b[1].value(), 50.0, 1e-9);
}

TEST(PowerCapper, NothingAvailableMeansZeroBudgets) {
  PowerCapConfig cfg;
  cfg.enabled = true;
  cfg.fleet_cap = Watt{50.0};
  PowerCapper capper{cfg};
  const std::vector<ChipStatus> chips = {chip(0, 0.5, 1)};
  for (const Watt w : capper.split(chips, Watt{60.0})) EXPECT_DOUBLE_EQ(w.value(), 0.0);
  std::vector<ChipStatus> parked = {chip(0, 0.0)};
  parked[0].parked = true;
  for (const Watt w : capper.split(parked, Watt{0.0})) EXPECT_DOUBLE_EQ(w.value(), 0.0);
}

TEST(PowerCapper, GroupWeightsBiasTheSplit) {
  PowerCapConfig cfg;
  cfg.enabled = true;
  cfg.fleet_cap = Watt{100.0};
  cfg.min_share = 0.0;
  cfg.group_weights = {1.0, 3.0};
  PowerCapper capper{cfg};
  std::vector<ChipStatus> chips = {chip(0, 0.5, 0), chip(1, 0.5, 0)};
  chips[0].group = 0;
  chips[1].group = 1;
  const auto b = capper.split(chips, Watt{0.0});
  // Equal queues: the weighted chip draws three times the budget.
  EXPECT_NEAR(b[0].value(), 25.0, 1e-9);
  EXPECT_NEAR(b[1].value(), 75.0, 1e-9);
  // A group outside the weight table falls back to weight 1.0.
  EXPECT_DOUBLE_EQ(cfg.group_weight(-1), 1.0);
  EXPECT_DOUBLE_EQ(cfg.group_weight(2), 1.0);
  EXPECT_DOUBLE_EQ(cfg.group_weight(1), 3.0);
}

TEST(PowerCapper, FloorPowerIsGrantedBeforeTheWeightedSplit) {
  PowerCapConfig cfg;
  cfg.enabled = true;
  cfg.fleet_cap = Watt{100.0};
  cfg.min_share = 0.0;
  PowerCapper capper{cfg};
  std::vector<ChipStatus> chips = {chip(0, 0.5, 0), chip(1, 0.5, 3)};
  chips[0].floor_power = Watt{30.0};  // e.g. an NTC chip at its grid bottom
  chips[1].floor_power = Watt{10.0};
  const auto b = capper.split(chips, Watt{0.0});
  // Every serving chip gets at least its floor; the 60 W of headroom is
  // split 1:4 by (1 + outstanding) on top.
  EXPECT_NEAR(b[0].value(), 30.0 + 60.0 * 1.0 / 5.0, 1e-9);
  EXPECT_NEAR(b[1].value(), 10.0 + 60.0 * 4.0 / 5.0, 1e-9);
  EXPECT_GE(b[0].value(), chips[0].floor_power.value());
  EXPECT_GE(b[1].value(), chips[1].floor_power.value());
  EXPECT_NEAR(b[0].value() + b[1].value(), 100.0, 1e-9);
}

TEST(PowerCapper, InfeasibleFloorsStillGrantTheFloors) {
  // When the floors alone exceed the budget there is no feasible split:
  // grant the floors anyway (the chips cannot clock lower) and let the
  // fleet report the realized violation.
  PowerCapConfig cfg;
  cfg.enabled = true;
  cfg.fleet_cap = Watt{40.0};
  PowerCapper capper{cfg};
  std::vector<ChipStatus> chips = {chip(0, 0.5, 0), chip(1, 0.5, 0)};
  chips[0].floor_power = Watt{30.0};
  chips[1].floor_power = Watt{30.0};
  const auto b = capper.split(chips, Watt{0.0});
  EXPECT_NEAR(b[0].value(), 30.0, 1e-9);
  EXPECT_NEAR(b[1].value(), 30.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Multi-fleet router
// ---------------------------------------------------------------------------

TEST(Router, StartsOffpeakAndConsolidatesOnNtc) {
  MultiFleetRouter r{router_config()};
  EXPECT_TRUE(r.offpeak());
  EXPECT_EQ(r.preferred_group(true), 0);
  EXPECT_EQ(r.preferred_group(false), 0);
}

TEST(Router, PeakSplitsClassesAcrossGroups) {
  MultiFleetRouter r{router_config()};
  const std::vector<ChipStatus> busy = {chip(0, 0.8), chip(1, 0.8)};
  r.observe_epoch(0, busy);
  EXPECT_FALSE(r.offpeak());
  EXPECT_EQ(r.preferred_group(true), 1);   // latency-critical -> conv
  EXPECT_EQ(r.preferred_group(false), 0);  // batch keeps soaking NTC

  const std::vector<ChipStatus> idle = {chip(0, 0.05), chip(1, 0.05)};
  r.observe_epoch(1, idle);
  EXPECT_TRUE(r.offpeak());
  EXPECT_EQ(r.preferred_group(true), 0);
}

TEST(Router, EpochRecordsFlushTheDispatchCounters) {
  MultiFleetRouter r{router_config()};
  r.note_dispatch(0, false);
  r.note_dispatch(0, false);
  r.note_dispatch(1, true);
  const std::vector<ChipStatus> busy = {chip(0, 0.9), chip(1, 0.9)};
  r.observe_epoch(7, busy);
  r.observe_epoch(8, busy);

  ASSERT_EQ(r.epochs().size(), 2u);
  const RouterEpoch& first = r.epochs()[0];
  EXPECT_EQ(first.epoch, 7u);
  EXPECT_TRUE(first.offpeak);  // the preference that held *during* epoch 7
  ASSERT_EQ(first.routed.size(), 2u);
  EXPECT_EQ(first.routed[0], 2u);
  EXPECT_EQ(first.routed[1], 1u);
  EXPECT_EQ(first.fallback, 1u);
  EXPECT_NEAR(first.utilization, 0.9, 1e-12);

  const RouterEpoch& second = r.epochs()[1];
  EXPECT_FALSE(second.offpeak);
  EXPECT_EQ(second.routed[0] + second.routed[1], 0u);  // counters were reset
  EXPECT_EQ(second.fallback, 0u);
}

TEST(Router, IgnoresDownChipsInTheUtilizationAverage) {
  MultiFleetRouter r{router_config()};
  std::vector<ChipStatus> chips = {chip(0, 0.8), chip(1, 0.0)};
  chips[1].down = true;
  r.observe_epoch(0, chips);
  EXPECT_FALSE(r.offpeak());  // avg over serving chips only: 0.8
}

// ---------------------------------------------------------------------------
// Fleet integration (the registry's orchestration scenarios)
// ---------------------------------------------------------------------------

const dc::FleetResult& autoscaled_result() {
  static const dc::FleetResult r =
      dc::run_scenario(dc::Scenario::by_name("autoscale-diurnal-web"), ghz(2.0));
  return r;
}

const dc::FleetResult& capped_result() {
  static const dc::FleetResult r =
      dc::run_scenario(dc::Scenario::by_name("powercap-web"), ghz(2.0));
  return r;
}

const dc::FleetResult& routed_result() {
  static const dc::FleetResult r =
      dc::run_scenario(dc::Scenario::by_name("multifleet-ntc-conv"), ghz(2.0));
  return r;
}

TEST(OrchFleet, AutoscalerParksAndRecoversLosslessly) {
  const dc::FleetResult& r = autoscaled_result();
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_GT(r.autoscale_parks, 0u);
  EXPECT_GT(r.autoscale_unparks, 0u);
  EXPECT_GT(r.autoscale_drains, 0u);
  EXPECT_GT(r.parked_seconds.value(), 0.0);
  EXPECT_GT(r.wake_energy.value(), 0.0);
  EXPECT_LT(r.wake_energy.value(), r.energy.value());  // a slice, not an add-on
}

TEST(OrchFleet, DisabledOrchestrationLeavesCountersZero) {
  dc::Scenario s = dc::Scenario::by_name("autoscale-diurnal-web");
  s.orchestration.autoscaler.enabled = false;
  const dc::FleetResult r = dc::run_scenario(s, ghz(2.0));
  EXPECT_EQ(r.autoscale_parks, 0u);
  EXPECT_EQ(r.autoscale_unparks, 0u);
  EXPECT_DOUBLE_EQ(r.parked_seconds.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.wake_energy.value(), 0.0);
  EXPECT_EQ(r.cap_clamp_epochs, 0);
  EXPECT_TRUE(r.router_epochs.empty());
  // The autoscaled arm spends less energy on the same diurnal day.
  EXPECT_LT(autoscaled_result().energy.value(), r.energy.value());
}

TEST(OrchFleet, CapIsNeverViolatedOnTheEpochGrid) {
  const dc::FleetResult& r = capped_result();
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.fleet_cap.value(), 0.0);
  EXPECT_EQ(r.cap_violation_epochs, 0);
  EXPECT_GT(r.cap_clamp_epochs, 0);  // the cap binds, not just exists
  EXPECT_LE(r.peak_epoch_power.value(), r.fleet_cap.value() * (1.0 + 1e-9));
}

TEST(OrchFleet, RouterLedgersTileTheRun) {
  const dc::FleetResult& r = routed_result();
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.group_names.size(), 2u);
  EXPECT_EQ(r.group_names[0], "ntc");
  EXPECT_EQ(r.group_names[1], "conv");
  ASSERT_EQ(r.group_dispatches.size(), 2u);
  EXPECT_EQ(r.group_dispatches[0] + r.group_dispatches[1], r.admitted);
  ASSERT_EQ(r.group_energy.size(), 2u);
  EXPECT_GT(r.group_energy[0].value(), 0.0);
  EXPECT_GT(r.group_energy[1].value(), 0.0);
  EXPECT_FALSE(r.router_epochs.empty());

  std::uint64_t routed_total = 0;
  bool saw_offpeak = false, saw_peak = false;
  for (const RouterEpoch& e : r.router_epochs) {
    routed_total += e.routed[0] + e.routed[1];
    (e.offpeak ? saw_offpeak : saw_peak) = true;
  }
  EXPECT_EQ(routed_total, r.admitted);  // every dispatch lands in some epoch
  EXPECT_TRUE(saw_offpeak);
  EXPECT_TRUE(saw_peak);
}

TEST(OrchFleet, OrchestratedRunsAreThreadCountInvariant) {
  // All orchestration happens at the epoch barrier inside each run's
  // single-threaded loop; NTSERV_THREADS only spreads *runs* over a pool.
  const std::vector<dc::Scenario> scenarios = {
      dc::Scenario::by_name("autoscale-diurnal-web"),
      dc::Scenario::by_name("powercap-web"),
      dc::Scenario::by_name("multifleet-ntc-conv"),
      dc::Scenario::by_name("thermal-emergency-mixed")};
  const auto one = dc::run_scenarios(scenarios, ghz(2.0), 1);
  const auto four = dc::run_scenarios(scenarios, ghz(2.0), 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(one[i] == four[i]) << "scenario " << scenarios[i].name;
  }
}

}  // namespace
}  // namespace ntserv::orch
