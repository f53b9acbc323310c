// Self-test of the benchmark's own logic: metric arithmetic, span self
// time, the replay's equality with sim::Cluster, and each output check
// firing on a deliberately corrupted result.
//
//   python3 perfbench/run.py selftest     (builds and runs this binary)
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>

#include "checks.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                              \
  do {                                                                            \
    if (!(cond)) {                                                                \
      ++g_failures;                                                               \
      std::cerr << __FILE__ << ":" << __LINE__ << ": expected " #cond << "\n";   \
    }                                                                             \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

using namespace perfbench;
namespace dc = ntserv::dc;
namespace sim = ntserv::sim;

void test_arithmetic() {
  EXPECT(near(median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(quanta(0, 64) == 0);
  EXPECT(quanta(64, 64) == 1);
  EXPECT(quanta(65, 64) == 2);
  EXPECT(near(share(1.0, 4.0), 0.25));
  EXPECT(share(1.0, 0.0) == 0.0);
  EXPECT(served_copies(90, 10) == 100);
  EXPECT(near(useful_copy_frac(90, 10), 0.9));
  EXPECT(near(ms_per_unit(2.0, 400.0), 5.0));
  EXPECT(ms_per_unit(1.0, 0.0) == 0.0);
  EXPECT(near(speedup(27.0, 11.25), 2.4));
  EXPECT(near(efficiency(2.4, 4), 0.6));
  EXPECT(near(cpu_util(12.0, 6.0, 4), 0.5));
  EXPECT(near(overhead_frac(11.0, 10.0), 0.1));
  EXPECT(near(bus_util(1600, 100, 1), 1.0));
}

void test_span_self_time() {
  using std::chrono::milliseconds;
  Spans spans;
  const auto t0 = Spans::Clock::now();
  const int parent = spans.id("parent");
  const int child = spans.id("child");
  const int leaf = spans.id("leaf");
  spans.open_at(parent, true, t0);
  spans.open_at(child, true, t0 + milliseconds(2));
  spans.open_at(leaf, false, t0 + milliseconds(3));
  spans.close_at(t0 + milliseconds(4));
  spans.close_at(t0 + milliseconds(5));
  spans.open_at(child, false, t0 + milliseconds(6));
  spans.close_at(t0 + milliseconds(7));
  spans.close_at(t0 + milliseconds(10));
  EXPECT(spans.idle());

  // self = span - children, at every level.
  EXPECT(near(spans.total("parent").span_s, 0.010));
  EXPECT(near(spans.total("parent").self_s(), 0.010 - 0.003 - 0.001));
  EXPECT(near(spans.total("child").span_s, 0.004));
  EXPECT(near(spans.total("child").self_s(), 0.004 - 0.001));
  EXPECT(spans.total("child").count == 2);
  EXPECT(near(spans.total("leaf").self_s(), 0.001));
  // Only kept spans become instances, each pointing at its kept parent.
  EXPECT(spans.instances().size() == 2);
  EXPECT(spans.instances()[1].parent == 0);
  EXPECT(spans.instances()[0].parent == -1);
  EXPECT(spans.total("missing").count == 0);
}

dc::FleetResult good_fleet() {
  dc::FleetResult r;
  r.offered = 10;
  r.completed = 7;
  r.completed_all = 8;
  r.shed = 1;
  r.timed_out = 1;
  dc::TenantResult t;
  t.name = "t0";
  t.offered = 10;
  t.completed_all = 8;
  t.shed = 1;
  t.timed_out = 1;
  r.tenants = {t};
  r.p99 = ntserv::Second{20e-6};
  return r;
}

int failures_of(const std::function<void(Checks&)>& f) {
  Checks c;
  f(c);
  return static_cast<int>(c.failed());
}

void test_fleet_checks() {
  const dc::FleetResult good = good_fleet();
  EXPECT(failures_of([&](Checks& c) { check_conservation(c, good); }) == 0);
  EXPECT(failures_of([&](Checks& c) { check_same_fleet(c, good, good, "same"); }) == 0);

  dc::FleetResult lost = good;
  lost.offered = 11;
  EXPECT(failures_of([&](Checks& c) { check_conservation(c, lost); }) == 1);
  dc::FleetResult cut = good;
  cut.truncated = true;
  EXPECT(failures_of([&](Checks& c) { check_conservation(c, cut); }) == 1);
  dc::FleetResult tenant = good;
  tenant.tenants[0].shed = 0;
  EXPECT(failures_of([&](Checks& c) { check_conservation(c, tenant); }) == 1);

  dc::FleetResult tail = good;
  tail.p99 = ntserv::Second{21e-6};
  EXPECT(failures_of([&](Checks& c) { check_same_fleet(c, good, tail, "p99"); }) == 1);
  dc::FleetResult split = good;
  split.tenants[0].completed_all = 7;
  EXPECT(failures_of([&](Checks& c) { check_same_fleet(c, good, split, "tenant"); }) == 1);

  Checks c;
  check_conservation(c, lost);
  EXPECT(c.made() == 4 && c.failed() == 1);
}

void test_sweep_checks() {
  sim::OperatingPointResult p;
  p.frequency = ntserv::ghz(1.0);
  p.uips = 1e9;
  p.eff_server = 5e8;
  p.sampling.samples = 8;
  p.sampling.uipc_rel_error = 0.03;
  const std::vector<sim::OperatingPointResult> good{p};
  EXPECT(failures_of([&](Checks& c) { check_sweep(c, good, 8); }) == 0);
  EXPECT(failures_of([&](Checks& c) { check_same_sweep(c, good, good, "same"); }) == 0);

  auto bad = good;
  bad[0].eff_server = std::numeric_limits<double>::quiet_NaN();
  EXPECT(failures_of([&](Checks& c) { check_sweep(c, bad, 8); }) == 1);
  bad = good;
  bad[0].uips = 0.0;
  EXPECT(failures_of([&](Checks& c) { check_sweep(c, bad, 8); }) == 1);
  bad = good;
  bad[0].sampling.samples = 3;  // stopped early without converging
  EXPECT(failures_of([&](Checks& c) { check_sweep(c, bad, 8); }) == 1);
  EXPECT(failures_of([&](Checks& c) { check_sweep(c, {}, 8); }) == 1);
  bad = good;
  bad[0].uips = 1.5e9;
  EXPECT(failures_of([&](Checks& c) { check_same_sweep(c, good, bad, "uips"); }) == 1);
}

void test_replay_matches_cluster() {
  const auto profile = ntserv::workload::WorkloadProfile::data_serving();
  for (const double f_ghz : {0.2, 2.0}) {
    sim::ClusterConfig cc;
    cc.core_clock = ntserv::ghz(f_ghz);
    sim::Cluster reference{cc, make_sources(profile, 7, cc.hierarchy.cores)};
    reference.run(5'000);
    reference.reset_stats();
    reference.run(20'000);

    Spans spans;
    ReplayCluster replay{cc, profile, 7, spans, "t"};
    replay.run(5'000, false);
    replay.reset_stats();
    const ntserv::Cycle skipped0 = replay.skipped_cycles();
    replay.run(20'000, true);
    const ntserv::Cycle ticked = 20'000 - (replay.skipped_cycles() - skipped0);
    const sim::ClusterMetrics m = replay.metrics();
    EXPECT(failures_of([&](Checks& c) {
             check_same_cluster(c, m, reference.metrics(), "replay");
           }) == 0);
    // One core.tick span per core per ticked (not fast-forwarded) cycle.
    EXPECT(spans.total("t:core.tick").count == 4 * ticked);
    EXPECT(replay.timed_uops() > 0);
    EXPECT(spans.total("t:workload").count > 0);

    sim::ClusterMetrics corrupt = m;
    ++corrupt.memory.llc_misses;
    EXPECT(failures_of([&](Checks& c) {
             check_same_cluster(c, corrupt, reference.metrics(), "llc");
           }) == 1);
  }
}

}  // namespace

int main() {
  test_arithmetic();
  test_span_self_time();
  test_fleet_checks();
  test_sweep_checks();
  test_replay_matches_cluster();
  if (g_failures != 0) {
    std::cerr << "perfbench selftest: " << g_failures << " failure(s)\n";
    return 1;
  }
  std::cout << "perfbench selftest: all passed\n";
  return 0;
}
