// Thread-invariance contract of the parallel intra-run data plane
// (dc/runner.hpp, fleet.hpp): for ANY worker-thread count, a fleet run
// must produce an equal FleetResult and a byte-identical telemetry
// stream. The matrix below runs 2 and 4 threads against the 1-thread
// reference on the two contract scenarios — rack-loss-web (6 chips:
// faults, brownout ladder, breakers, hedging, emergency wake all active)
// and consolidated-antiphase-search (1 chip: more workers than chips,
// NTC-boost + multi-tenant) — and both CI wakeup legs rerun it under
// either issue scheduler.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dc/runner.hpp"
#include "dc/scenario.hpp"

namespace ntserv::dc {
namespace {

struct TelemetryCapture {
  FleetResult result;
  std::string trace_jsonl;
  std::string metrics_csv;
};

TelemetryCapture run_with(const Scenario& s, int threads) {
  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  TelemetryCapture out;
  out.result =
      run_scenario(s, ghz(2.0), RunOptions{.telemetry = &telemetry, .threads = threads});
  std::ostringstream trace_os;
  telemetry.trace.write_jsonl(trace_os);
  out.trace_jsonl = trace_os.str();
  std::ostringstream metrics_os;
  telemetry.metrics.write_csv(metrics_os);
  out.metrics_csv = metrics_os.str();
  return out;
}

void expect_thread_invariant(const std::string& scenario_name) {
  const Scenario s = Scenario::by_name(scenario_name);
  const TelemetryCapture reference = run_with(s, /*threads=*/1);
  EXPECT_FALSE(reference.trace_jsonl.empty());
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(scenario_name + " threads=" + std::to_string(threads));
    const TelemetryCapture got = run_with(s, threads);
    // Structural equality over every result field, including the epoch
    // and routing trajectories; doubles compare exactly.
    EXPECT_TRUE(reference.result == got.result);
    // The telemetry stream must match byte for byte: the trace merge at
    // the epoch barrier assigns the canonical order, and the metrics
    // snapshots are taken serially at the same barrier.
    EXPECT_EQ(reference.trace_jsonl, got.trace_jsonl);
    EXPECT_EQ(reference.metrics_csv, got.metrics_csv);
  }
}

TEST(ThreadInvariance, RackLossWebIsBitIdenticalAcrossThreads) {
  // 6 chips, 2 failure domains, autoscaler + brownout + breakers +
  // hedging: every control-plane subsystem crosses the barrier while the
  // data plane runs in parallel under it.
  expect_thread_invariant("rack-loss-web");
}

TEST(ThreadInvariance, ConsolidatedAntiphaseIsBitIdenticalAcrossThreads) {
  // One 2-cluster chip: the pool clamps to the chip count, so the
  // parallel legs run serially — the clamping path is the contract here.
  expect_thread_invariant("consolidated-antiphase-search");
}

TEST(FleetRunner, RunsAreRepeatable) {
  // A FleetRunner builds a fresh engine per run(), so back-to-back runs
  // are independent, identically-seeded experiments.
  Scenario s = Scenario::by_name("consolidated-antiphase-search");
  const FleetRunner runner{s.fleet_config(ghz(2.0))};
  const FleetResult a = runner.run(RunOptions{.threads = 1});
  const FleetResult b = runner.run(RunOptions{.threads = 1});
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace ntserv::dc
