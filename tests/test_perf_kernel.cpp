// Tests for the performance kernel: event-skipping equivalence against
// the cycle-by-cycle path, stored goldens of the paper path, and
// thread-count-independent sweep results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ntserv/ntserv.hpp"

namespace ntserv {
namespace {

sim::ClusterConfig cluster_config(bool event_skipping, Hertz clock = ghz(2.0),
                                  bool wakeup_list = true) {
  sim::ClusterConfig cc;
  cc.core_clock = clock;
  cc.event_skipping = event_skipping;
  cc.core.wakeup_list = wakeup_list;
  return cc;
}

std::vector<std::unique_ptr<cpu::UopSource>> sources_for(
    const workload::WorkloadProfile& profile, std::uint64_t seed) {
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < 4; ++c) {
    sources.push_back(std::make_unique<workload::SyntheticWorkload>(
        profile, seed + static_cast<std::uint64_t>(c) * 7919,
        workload::AddressSpace::for_core(static_cast<CoreId>(c))));
  }
  return sources;
}

void expect_identical_metrics(sim::Cluster& ticked, sim::Cluster& skipping) {
  ASSERT_EQ(ticked.now(), skipping.now());
  EXPECT_EQ(ticked.total_committed(), skipping.total_committed());

  const auto a = ticked.metrics();
  const auto b = skipping.metrics();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.uipc, b.uipc);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.issue_utilization, b.issue_utilization);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);

  EXPECT_EQ(a.memory.l1i_misses, b.memory.l1i_misses);
  EXPECT_EQ(a.memory.l1d_misses, b.memory.l1d_misses);
  EXPECT_EQ(a.memory.llc_hits, b.memory.llc_hits);
  EXPECT_EQ(a.memory.llc_misses, b.memory.llc_misses);
  EXPECT_EQ(a.memory.llc_writebacks, b.memory.llc_writebacks);
  EXPECT_EQ(a.memory.xbar_flits, b.memory.xbar_flits);
  EXPECT_EQ(a.memory.rejected, b.memory.rejected);
  EXPECT_EQ(a.memory.prefetches_issued, b.memory.prefetches_issued);

  EXPECT_EQ(a.dram.reads, b.dram.reads);
  EXPECT_EQ(a.dram.writes, b.dram.writes);
  EXPECT_EQ(a.dram.refreshes, b.dram.refreshes);
  EXPECT_EQ(a.dram.forwarded_reads, b.dram.forwarded_reads);
  EXPECT_DOUBLE_EQ(a.dram.row_hit_rate, b.dram.row_hit_rate);
  EXPECT_DOUBLE_EQ(a.dram.avg_read_latency_cycles, b.dram.avg_read_latency_cycles);

  for (int c = 0; c < 4; ++c) {
    const auto& sa = ticked.core(c).stats();
    const auto& sb = skipping.core(c).stats();
    EXPECT_EQ(sa.cycles, sb.cycles) << "core " << c;
    EXPECT_EQ(sa.committed_total, sb.committed_total) << "core " << c;
    EXPECT_EQ(sa.committed_user, sb.committed_user) << "core " << c;
    EXPECT_EQ(sa.issued, sb.issued) << "core " << c;
    EXPECT_EQ(sa.loads, sb.loads) << "core " << c;
    EXPECT_EQ(sa.stores, sb.stores) << "core " << c;
    EXPECT_EQ(sa.branches, sb.branches) << "core " << c;
    EXPECT_EQ(sa.branch_mispredicts, sb.branch_mispredicts) << "core " << c;
    EXPECT_EQ(sa.load_forwards, sb.load_forwards) << "core " << c;
    EXPECT_EQ(sa.fetch_stall_cycles, sb.fetch_stall_cycles) << "core " << c;
    EXPECT_EQ(sa.rob_full_cycles, sb.rob_full_cycles) << "core " << c;
  }
}

void run_equivalence(const workload::WorkloadProfile& profile, Hertz clock) {
  // Full scheduler x kernel matrix against one reference: the polled
  // issue scan without event skipping (the original cycle-by-cycle path).
  sim::Cluster reference{cluster_config(false, clock, false), sources_for(profile, 9001)};
  sim::Cluster polled_skipping{cluster_config(true, clock, false), sources_for(profile, 9001)};
  sim::Cluster wakeup_ticked{cluster_config(false, clock, true), sources_for(profile, 9001)};
  sim::Cluster wakeup_skipping{cluster_config(true, clock, true), sources_for(profile, 9001)};
  const auto each = [&](auto&& fn) {
    fn(polled_skipping);
    fn(wakeup_ticked);
    fn(wakeup_skipping);
  };

  reference.run(150'000);
  each([&](sim::Cluster& c) {
    c.run(150'000);
    expect_identical_metrics(reference, c);
  });

  // And again over a measurement window after a stats reset, the way the
  // SMARTS sampler drives the cluster.
  reference.reset_stats();
  reference.run(60'000);
  each([&](sim::Cluster& c) {
    c.reset_stats();
    c.run(60'000);
    expect_identical_metrics(reference, c);
  });
}

TEST(EventSkipping, MatchesTickedPathOnMemoryBoundWorkload) {
  // Data Serving is the paper's memory-bound outlier: high MPKI, low IPC,
  // long all-core DRAM stalls — exactly where the kernel skips.
  run_equivalence(workload::WorkloadProfile::data_serving(), ghz(2.0));
}

TEST(EventSkipping, MatchesTickedPathOnComputeBoundWorkload) {
  run_equivalence(workload::WorkloadProfile::vm_banking_low_mem(), ghz(2.0));
}

TEST(EventSkipping, MatchesTickedPathAtLowFrequency) {
  // Low core clock flips the core/memory cycle ratio above one, stressing
  // the clock-domain conversion in the skip-length computation.
  run_equivalence(workload::WorkloadProfile::media_streaming(), mhz(400));
}

TEST(EventSkipping, SkipsCyclesOnMemoryBoundWorkload) {
  sim::Cluster cl{cluster_config(true),
                  sources_for(workload::WorkloadProfile::data_serving(), 77)};
  cl.run(150'000);
  EXPECT_GT(cl.skipped_cycles(), 0u);
}

TEST(EventSkipping, RunUntilCommittedAgrees) {
  sim::Cluster reference{cluster_config(false, ghz(2.0), false),
                         sources_for(workload::WorkloadProfile::web_search(), 5)};
  reference.run_until_committed(100'000, 1'000'000);
  for (const bool skipping : {false, true}) {
    for (const bool wakeup : {false, true}) {
      if (!skipping && !wakeup) continue;  // the reference itself
      sim::Cluster c{cluster_config(skipping, ghz(2.0), wakeup),
                     sources_for(workload::WorkloadProfile::web_search(), 5)};
      c.run_until_committed(100'000, 1'000'000);
      EXPECT_EQ(reference.now(), c.now()) << "skipping=" << skipping << " wakeup=" << wakeup;
      EXPECT_EQ(reference.total_committed(), c.total_committed())
          << "skipping=" << skipping << " wakeup=" << wakeup;
    }
  }
}

TEST(WakeupList, CalendarFeedsSkipKernelAndStaysMetricIdentical) {
  // The wake calendar feeds next_event_cycle() the exact issue-side wake
  // cycle, so the skip kernel must still find (and take) quiet windows
  // under the wakeup scheduler. Individual hints are tighter than the
  // polled path's conservative bounds, but aggregate skip totals are
  // path-dependent (a longer skip changes where later hints are
  // evaluated), so only skip *activity* and metric identity are
  // invariants worth asserting — not a skip-count ordering.
  sim::Cluster polled{cluster_config(true, ghz(2.0), false),
                      sources_for(workload::WorkloadProfile::data_serving(), 77)};
  sim::Cluster wakeup{cluster_config(true, ghz(2.0), true),
                      sources_for(workload::WorkloadProfile::data_serving(), 77)};
  polled.run(150'000);
  wakeup.run(150'000);
  EXPECT_GT(wakeup.skipped_cycles(), 0u);
  expect_identical_metrics(polled, wakeup);
}

// ---------------------------------------------------------------------------
// Paper-path stored goldens. The tests above compare the kernel with
// itself (ticked vs skipping, polled vs wakeup), which cannot tell a wrong
// cycle model from a right one when every path shares the same fault.
// These pin the numbers of the paper's path (sim::Cluster and
// ServerSimulator::sweep) as recorded constants, so a change to the cycle
// model's data structures is checked against recorded results. A failure
// prints the run's row in the table's own syntax; re-record only for a
// deliberate model change.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Canonical text of a result: one `name=value` line per field, doubles
/// as exact hexfloats.
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
  template <class Tag>
  void operator()(const char* name, Quantity<Tag> q) {
    (*this)(name, q.value());
  }

  [[nodiscard]] std::uint64_t fnv() const { return fnv1a(os_); }

 private:
  void line(const char* name, const std::string& value) {
    os_ += name;
    os_ += '=';
    os_ += value;
    os_ += '\n';
  }
  std::string os_;
};

void dump(Dump& d, const sim::ClusterMetrics& m) {
  d("cycles", m.cycles);
  d("uipc", m.uipc);
  d("ipc", m.ipc);
  d("issue_utilization", m.issue_utilization);
  d("l1i_hits", m.memory.l1i_hits);
  d("l1i_misses", m.memory.l1i_misses);
  d("l1d_hits", m.memory.l1d_hits);
  d("l1d_misses", m.memory.l1d_misses);
  d("merged_misses", m.memory.merged_misses);
  d("llc_hits", m.memory.llc_hits);
  d("llc_misses", m.memory.llc_misses);
  d("llc_writebacks", m.memory.llc_writebacks);
  d("l1_writebacks", m.memory.l1_writebacks);
  d("back_invalidations", m.memory.back_invalidations);
  d("owner_forwards", m.memory.owner_forwards);
  d("xbar_flits", m.memory.xbar_flits);
  d("rejected", m.memory.rejected);
  d("prefetches_issued", m.memory.prefetches_issued);
  d("dram.reads", m.dram.reads);
  d("dram.writes", m.dram.writes);
  d("dram.read_bytes", m.dram.read_bytes);
  d("dram.write_bytes", m.dram.write_bytes);
  d("dram.row_hit_rate", m.dram.row_hit_rate);
  d("dram.avg_read_latency_cycles", m.dram.avg_read_latency_cycles);
  d("dram.refreshes", m.dram.refreshes);
  d("dram.forwarded_reads", m.dram.forwarded_reads);
  d("dram_cycles", m.dram_cycles);
  d("l1i_mpki", m.l1i_mpki);
  d("l1d_mpki", m.l1d_mpki);
  d("llc_mpki", m.llc_mpki);
  d("branch_mpki", m.branch_mpki);
}

void dump(Dump& d, const cpu::CoreStats& s) {
  d("core.cycles", s.cycles);
  d("core.committed_total", s.committed_total);
  d("core.committed_user", s.committed_user);
  d("core.branches", s.branches);
  d("core.branch_mispredicts", s.branch_mispredicts);
  d("core.loads", s.loads);
  d("core.stores", s.stores);
  d("core.load_forwards", s.load_forwards);
  d("core.fetch_stall_cycles", s.fetch_stall_cycles);
  d("core.rob_full_cycles", s.rob_full_cycles);
  d("core.issued", s.issued);
}

struct ClusterGolden {
  double ghz;
  std::uint64_t committed;
  std::uint64_t llc_misses;
  std::uint64_t load_forwards;  ///< summed over cores
  std::uint64_t digest;         ///< ClusterMetrics + every core's CoreStats
};

/// Data Serving on one cluster with event skipping: 120k cycles, a stats
/// reset, then a 50k-cycle window (the SMARTS sampler's shape). Recorded
/// from the deque-ROB / array-of-structs tag store model; both issue
/// schedulers must reproduce the same row.
constexpr ClusterGolden kClusterGoldens[] = {
    {0.20000000000000001, 911903, 6360, 46, 0x42f9befaaff69e95ull},
    {2, 131041, 2473, 23, 0x346bd1e835d9017dull},
};

ClusterGolden measure_cluster(double f_ghz, bool wakeup_list) {
  sim::Cluster cl{cluster_config(true, ghz(f_ghz), wakeup_list),
                  sources_for(workload::WorkloadProfile::data_serving(), 4242)};
  cl.run(120'000);
  cl.reset_stats();
  cl.run(50'000);
  Dump d;
  d("now", cl.now());
  d("total_committed", cl.total_committed());
  const auto m = cl.metrics();
  dump(d, m);
  std::uint64_t forwards = 0;
  for (int c = 0; c < cl.cores(); ++c) {
    dump(d, cl.core(c).stats());
    forwards += cl.core(c).stats().load_forwards;
  }
  return {f_ghz, cl.total_committed(), m.memory.llc_misses, forwards, d.fnv()};
}

std::string row(const ClusterGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {%.17g, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ull},", g.ghz,
                g.committed, g.llc_misses, g.load_forwards, g.digest);
  return buf;
}

TEST(PaperGolden, DataServingClusterUnderBothSchedulers) {
  for (const double f : {0.2, 2.0}) {
    const auto it = std::find_if(std::begin(kClusterGoldens), std::end(kClusterGoldens),
                                 [&](const ClusterGolden& g) { return g.ghz == f; });
    for (const bool wakeup : {false, true}) {
      const ClusterGolden got = measure_cluster(f, wakeup);
      if (it == std::end(kClusterGoldens)) {
        ADD_FAILURE() << "no golden row for " << f << " GHz; this run's row:\n" << row(got);
        break;
      }
      EXPECT_EQ(got.committed, it->committed) << f << " GHz wakeup=" << wakeup;
      EXPECT_EQ(got.llc_misses, it->llc_misses) << f << " GHz wakeup=" << wakeup;
      EXPECT_EQ(got.load_forwards, it->load_forwards) << f << " GHz wakeup=" << wakeup;
      EXPECT_EQ(got.digest, it->digest)
          << f << " GHz wakeup=" << wakeup << " moved; this run's row:\n" << row(got);
    }
  }
}

/// FNV-1a of every OperatingPointResult field of a trimmed Data Serving
/// sweep (4 points over 0.2-2.0 GHz, 2-3 SMARTS samples each), recorded
/// like kClusterGoldens.
constexpr std::uint64_t kSweepDigest = 0x6b3dd1b137b88b81ull;

TEST(PaperGolden, TrimmedServerSweepDigest) {
  power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  sim::ServerSimConfig cfg;
  cfg.smarts.warm_instructions = 100'000;
  cfg.smarts.warmup = 5'000;
  cfg.smarts.measure = 10'000;
  cfg.smarts.min_samples = 2;
  cfg.smarts.max_samples = 3;
  sim::ServerSimulator simulator{workload::WorkloadProfile::data_serving(), platform, cfg};
  const auto points = simulator.sweep(sim::frequency_grid(ghz(0.2), ghz(2.0), 4), 2);
  Dump d;
  for (const auto& p : points) {
    d("frequency", p.frequency);
    d("vdd", p.vdd);
    d("uips", p.uips);
    d("uipc_cluster", p.uipc_cluster);
    d("core_activity", p.activity.core_activity);
    d("llc_reads_per_s", p.activity.llc_reads_per_s);
    d("llc_writes_per_s", p.activity.llc_writes_per_s);
    d("llc_probes_per_s", p.activity.llc_probes_per_s);
    d("xbar_flits_per_s", p.activity.xbar_flits_per_s);
    d("dram_read_bw", p.activity.dram_read_bw);
    d("dram_write_bw", p.activity.dram_write_bw);
    d("core_dynamic", p.power.core_dynamic);
    d("core_leakage", p.power.core_leakage);
    d("llc", p.power.llc);
    d("interconnect", p.power.interconnect);
    d("io", p.power.io);
    d("dram_background", p.power.dram_background);
    d("dram_dynamic", p.power.dram_dynamic);
    d("eff_cores", p.eff_cores);
    d("eff_soc", p.eff_soc);
    d("eff_server", p.eff_server);
    d("uipc_mean", p.sampling.uipc_mean);
    d("uipc_rel_error", p.sampling.uipc_rel_error);
    d("samples", p.sampling.samples);
    d("converged", p.sampling.converged);
    d("per_sample.count", p.sampling.per_sample.count());
    d("per_sample.mean", p.sampling.per_sample.mean());
    d("per_sample.min", p.sampling.per_sample.min());
    d("per_sample.max", p.sampling.per_sample.max());
    d("per_sample.variance", p.sampling.per_sample.variance());
    dump(d, p.sampling.last_window);
    dump(d, p.window);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", d.fnv());
  EXPECT_EQ(d.fnv(), kSweepDigest) << "sweep digest moved; this run's digest: " << buf;
}

TEST(SweepDeterminism, SameResultsForOneAndManyThreads) {
  power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  sim::ServerSimConfig cfg;
  cfg.smarts.warm_instructions = 100'000;
  cfg.smarts.warmup = 5'000;
  cfg.smarts.measure = 10'000;
  cfg.smarts.min_samples = 2;
  cfg.smarts.max_samples = 3;
  sim::ServerSimulator simulator{workload::WorkloadProfile::web_search(), platform, cfg};

  const auto grid = sim::frequency_grid(mhz(400), ghz(2.0), 5);
  const auto serial = simulator.sweep(grid, 1);
  const auto parallel = simulator.sweep(grid, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].uips, parallel[i].uips) << "point " << i;
    EXPECT_DOUBLE_EQ(serial[i].uipc_cluster, parallel[i].uipc_cluster) << "point " << i;
    EXPECT_DOUBLE_EQ(serial[i].power.server().value(), parallel[i].power.server().value())
        << "point " << i;
    EXPECT_DOUBLE_EQ(serial[i].eff_server, parallel[i].eff_server) << "point " << i;
    EXPECT_EQ(serial[i].sampling.samples, parallel[i].sampling.samples) << "point " << i;
  }
}

TEST(SweepDeterminism, BackToBackFanOutsRunEveryIndexOnceAndPublishTheirWrites) {
  // The fleet fans out once per quantum, so the next fan-out usually
  // starts while the helpers are still spinning on the previous one.
  // `seen` is written without atomics: each index belongs to one thread
  // per fan-out, and the barrier must make those writes visible to the
  // caller (and to the next fan-out's claimers). ThreadSanitizer reports
  // a missing happens-before edge here as a race.
  sim::ThreadPool pool{4};
  constexpr std::size_t n = 32;
  constexpr std::uint32_t rounds = 10'000;
  std::vector<std::uint32_t> seen(n, 0);
  for (std::uint32_t round = 1; round <= rounds; ++round) {
    pool.run_indexed(n, [&seen](std::size_t i) { ++seen[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(seen[i], round) << "round " << round << " i=" << i;
    }
  }
}

TEST(SweepDeterminism, WidthOnePoolRunsOnTheCallerAndStartsNoThread) {
  const auto live_threads = [] {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++count;
    }
    return count;
  };
  const bool has_proc = std::filesystem::exists("/proc/self/task");
  const std::size_t before = has_proc ? live_threads() : 0;
  sim::ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1);
  if (has_proc) EXPECT_LE(live_threads(), before);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  pool.run_indexed(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(SweepDeterminism, DestroyingAPoolWithParkedHelpersReturns) {
  // Never used: the helpers may not have reached their first wait yet.
  { sim::ThreadPool pool{4}; }
  // Used, then idle far past the spin budget, so every helper is parked
  // on the generation counter when the destructor runs.
  sim::ThreadPool pool{4};
  std::atomic<int> ran{0};
  pool.run_indexed(8, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(SweepDeterminism, RunIndexedRunsEveryIndexExactlyOnce) {
  sim::ThreadPool pool{4};
  // n = 0, n below the pool width, and n far above it: the claimers must
  // hand out every index once and only once.
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.run_indexed(n, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SweepDeterminism, RunIndexedRethrowsAfterTheBarrierAndStaysUsable) {
  sim::ThreadPool pool{4};
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run_indexed(64,
                                [&ran](std::size_t i) {
                                  ++ran;
                                  if (i == 17) throw std::runtime_error("index 17");
                                }),
               std::runtime_error);
  // The throw does not cut the fan-out short: the barrier waits for
  // every index before the exception surfaces.
  EXPECT_EQ(ran.load(), 64);
  std::atomic<int> after{0};
  pool.run_indexed(32, [&after](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 32);
}

}  // namespace
}  // namespace ntserv
