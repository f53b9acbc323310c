#include <gtest/gtest.h>

#include <string>

#include "dc/fleet.hpp"
#include "dc/runner.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {
namespace {

/// The small fleet's shape without its traffic: two chips, light warm.
FleetConfigBuilder untrafficked_builder() {
  return FleetConfigBuilder{}
      .profile(workload::WorkloadProfile::web_search())
      .frequency(ghz(2.0))
      .shape(/*servers=*/2)
      .warm(60'000)
      .seed(3);
}

ArrivalConfig light_poisson() {
  ArrivalConfig arrival;
  arrival.kind = ArrivalKind::kPoisson;
  arrival.rate = 20'000.0;
  return arrival;
}

/// Small, fast fleet builder shared by the behavioural tests: two chips,
/// light Poisson traffic. Tests override traffic through the builder's
/// single-tenant setters.
FleetConfigBuilder small_builder() {
  return untrafficked_builder().request_cost(3'000).arrival(light_poisson()).requests(80, 10);
}

FleetConfig small_config() { return small_builder().build(); }

TEST(Fleet, CompletesEveryMeasuredRequest) {
  const FleetRunner runner{small_config()};
  const FleetResult r = runner.run();
  EXPECT_EQ(r.completed, 80u);
  EXPECT_EQ(r.admitted, 90u);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.p99.value(), 0.0);
  EXPECT_LE(r.p50.value(), r.p95.value());
  EXPECT_LE(r.p95.value(), r.p99.value());
  EXPECT_GT(r.mean_latency.value(), 0.0);
  EXPECT_GE(r.mean_wait.value(), 0.0);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
  ASSERT_EQ(r.server_active_fraction.size(), 2u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.offered_rate, 0.0);
}

TEST(Fleet, BuilderFillsTheTenantTable) {
  const FleetConfig cfg = small_config();
  // build() made tenant 0 from the single-tenant setters.
  ASSERT_EQ(cfg.tenants.size(), 1u);
  EXPECT_EQ(cfg.tenants[0].requests, 80u);
  EXPECT_EQ(cfg.tenants[0].warmup_requests, 10u);
  EXPECT_EQ(cfg.tenants[0].user_instructions_per_request, 3'000u);
  EXPECT_EQ(cfg.tenants[0].arrival.kind, ArrivalKind::kPoisson);
}

TEST(Fleet, SingleTenantSettersMatchAnExplicitTenant) {
  // The single-tenant setters are shorthand for one default-named tenant:
  // both descriptions must run the same fleet, bit for bit.
  TenantSpec t;
  t.user_instructions_per_request = 3'000;
  t.arrival = light_poisson();
  t.requests = 80;
  t.warmup_requests = 10;
  const FleetResult explicit_tenant =
      FleetRunner{untrafficked_builder().tenant(t).build()}.run();
  const FleetResult setters = FleetRunner{small_config()}.run();
  EXPECT_GT(setters.completed, 0u);
  EXPECT_TRUE(setters == explicit_tenant);
}

TEST(Fleet, BuilderRejectsMixedTrafficDescriptions) {
  TenantSpec t;
  t.name = "web";
  t.arrival.kind = ArrivalKind::kPoisson;
  t.arrival.rate = 1'000.0;
  EXPECT_THROW((void)FleetConfigBuilder{}
                   .tenant(t)
                   .requests(80, 10)  // single-tenant setter: conflict
                   .build(),
               ModelError);
}

TEST(Fleet, RunsAreDeterministic) {
  ClusterFleet a{small_config()};
  ClusterFleet b{small_config()};
  EXPECT_TRUE(a.run() == b.run());
}

TEST(Fleet, SeedChangesTheMeasurement) {
  ClusterFleet a{small_config()};
  ClusterFleet b{small_builder().seed(4).build()};
  EXPECT_NE(a.run().p99.value(), b.run().p99.value());
}

TEST(Fleet, PowerAwarePacksAndRoundRobinSpreads) {
  ArrivalConfig light;
  light.kind = ArrivalKind::kPoisson;
  light.rate = 8'000.0;  // light: one server can absorb it
  auto builder = small_builder().shape(3).arrival(light);

  const FleetResult packed =
      ClusterFleet{builder.policy(BalancePolicy::kPowerAware).build()}.run();
  // Packing leaves the last server cold so it could sleep.
  EXPECT_GT(packed.server_active_fraction[0], 0.0);
  EXPECT_EQ(packed.server_active_fraction[2], 0.0);

  const FleetResult spread =
      ClusterFleet{builder.policy(BalancePolicy::kRoundRobin).build()}.run();
  for (double a : spread.server_active_fraction) EXPECT_GT(a, 0.0);
}

TEST(Fleet, SaturatedFleetTruncatesAtTheCycleCap) {
  ArrivalConfig flood;
  flood.kind = ArrivalKind::kPoisson;
  flood.rate = 5e6;  // far beyond service capacity
  const FleetConfig cfg = small_builder()
                              .arrival(flood)
                              .requests(4'000, 10)
                              .max_cycles(200'000)
                              .build();
  const FleetResult r = ClusterFleet{cfg}.run();
  EXPECT_TRUE(r.truncated);
  EXPECT_LT(r.completed, 4'000u);
  EXPECT_LE(r.span_cycles, 200'000u + cfg.quantum);
}

TEST(Fleet, QueueingInflatesTheTail) {
  ArrivalConfig arrival;
  arrival.kind = ArrivalKind::kPoisson;
  arrival.rate = 5'000.0;
  auto builder = small_builder().requests(120, 10);
  const FleetResult light = ClusterFleet{builder.arrival(arrival).build()}.run();
  arrival.rate = 2'000'000.0;  // ~70% of the fleet's service capacity
  const FleetResult heavy = ClusterFleet{builder.arrival(arrival).build()}.run();
  EXPECT_GT(heavy.mean_wait.value(), light.mean_wait.value());
  EXPECT_GT(heavy.p99.value(), light.p99.value());
}

TEST(Fleet, EnergyAccountsIdleServersAtSleepPower) {
  ArrivalConfig light;
  light.kind = ArrivalKind::kPoisson;
  light.rate = 8'000.0;
  const FleetResult r = ClusterFleet{small_builder()
                                         .shape(3)
                                         .arrival(light)
                                         .policy(BalancePolicy::kPowerAware)
                                         .build()}
                            .run();

  const power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  const pm::UipsCurve curve{{ghz(0.5), 1e10}, {ghz(2.0), 3e10}};
  const pm::PowerManager manager{platform, curve};

  const Joule e = fleet_energy(r, manager, ghz(2.0));
  EXPECT_GT(e.value(), 0.0);
  // Packing must cost less than a hypothetical all-active fleet.
  const Second span{static_cast<double>(r.span_cycles) / 2e9};
  FleetResult all_active = r;
  for (auto& a : all_active.server_active_fraction) a = 1.0;
  EXPECT_LT(e.value(), fleet_energy(all_active, manager, ghz(2.0)).value());
  // And at least as much as a fleet asleep the whole span.
  EXPECT_GE(e.value(), (manager.sleep_power() * span).value() * 3 * 0.99);
}

TEST(Fleet, ValidationRejectsBadConfigs) {
  auto cfg = small_config();
  cfg.servers = 0;
  EXPECT_THROW(cfg.validate(), ModelError);
  auto no_traffic = small_config();
  no_traffic.tenants.clear();
  try {
    no_traffic.validate();
    ADD_FAILURE() << "an empty tenant table validated";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("tenants"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)small_builder().requests(0, 10).build(), ModelError);
  EXPECT_THROW((void)small_builder().request_cost(0).build(), ModelError);
}

TEST(Fleet, RunIsSingleShot) {
  // The first run consumes the arrival streams and the tenant ledgers, so
  // a second run on the same engine must refuse up front and name the
  // repeatable entry point.
  ClusterFleet fleet{small_config()};
  (void)fleet.run();
  try {
    (void)fleet.run();
    ADD_FAILURE() << "a second run() on one engine did not throw";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("single-shot"), std::string::npos) << what;
    EXPECT_NE(what.find("FleetRunner"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ntserv::dc
