// P1 — google-benchmark microbenchmarks of the simulator's hot loops:
// DRAM channel scheduling, cache-array probes, OoO core cycles, the
// workload generator and the technology-model solver.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

namespace {

/// One random request every `range(0)` memory cycles. At 4 the channels
/// saturate (about a quarter of the requests are refused and the queues
/// stay full); at 256 about 1% of ticks act, so the idle path (the quiet
/// window and the event bound computed after an idle tick) is timed.
void BM_DramRandomTraffic(benchmark::State& state) {
  dram::DramSystem mem;
  const auto period = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t id = 0;
  Xoshiro256StarStar rng{42};
  // Scratch-vector completion drain, matching the simulator's hot path
  // (Cluster::step reuses one vector; the allocating drain_completions()
  // overload is for tests and tools).
  std::vector<dram::MemResponse> completions;
  for (auto _ : state) {
    if (id % period == 0) {
      const Addr a = rng.uniform_below(1ull << 30) & ~63ull;
      (void)mem.enqueue(id, a, rng.bernoulli(0.25));
    }
    mem.tick();
    completions.clear();
    mem.drain_completions_into(completions);
    benchmark::DoNotOptimize(completions.data());
    ++id;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramRandomTraffic)->Arg(4)->Arg(256);

void BM_CacheArrayProbe(benchmark::State& state) {
  cache::CacheArray cache{{4 * kMiB, 16, cache::ReplacementPolicy::kLru, 7, false}};
  Xoshiro256StarStar rng{7};
  // Pre-populate.
  for (int i = 0; i < 100000; ++i) {
    const Addr a = rng.uniform_below(1ull << 24) & ~63ull;
    if (!cache.probe(a)) cache.insert(a, false);
  }
  for (auto _ : state) {
    const Addr a = rng.uniform_below(1ull << 24) & ~63ull;
    auto ref = cache.probe(a);
    if (!ref) benchmark::DoNotOptimize(cache.insert(a, false));
    benchmark::DoNotOptimize(ref);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheArrayProbe);

/// The same traffic spread over 32 paper-geometry LLC tag stores, one per
/// cluster of the 32-chip scale-out fleet: the host working set is every
/// store's tag array, so this measures the tag store's memory layout, not
/// one array that stays in the host's caches.
void BM_CacheArrayProbeFleet(benchmark::State& state) {
  constexpr std::size_t kArrays = 32;
  std::vector<cache::CacheArray> llcs;
  llcs.reserve(kArrays);
  for (std::size_t i = 0; i < kArrays; ++i) {
    llcs.emplace_back(cache::CacheArrayParams{4 * kMiB, 16, cache::ReplacementPolicy::kLru,
                                              7 + i, true});
  }
  Xoshiro256StarStar rng{7};
  for (auto& llc : llcs) {
    for (int i = 0; i < 100000; ++i) {
      const Addr a = rng.uniform_below(1ull << 24) & ~63ull;
      if (!llc.probe(a)) llc.insert(a, false);
    }
  }
  for (auto _ : state) {
    auto& llc = llcs[rng.uniform_below(kArrays)];
    const Addr a = rng.uniform_below(1ull << 24) & ~63ull;
    auto ref = llc.probe(a);
    if (!ref) benchmark::DoNotOptimize(llc.insert(a, false));
    benchmark::DoNotOptimize(ref);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheArrayProbeFleet);

void BM_ClusterCycle(benchmark::State& state) {
  sim::ClusterConfig cc;
  cc.core_clock = ghz(2.0);
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < 4; ++c) {
    sources.push_back(std::make_unique<workload::SyntheticWorkload>(
        workload::WorkloadProfile::web_search(), 100 + static_cast<std::uint64_t>(c),
        workload::AddressSpace::for_core(static_cast<CoreId>(c))));
  }
  sim::Cluster cluster{cc, std::move(sources)};
  cluster.run(50'000);  // warm
  for (auto _ : state) {
    cluster.run(100);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  state.counters["ipc"] = cluster.metrics().ipc / 4.0;
}
BENCHMARK(BM_ClusterCycle);

/// The event-skipping kernel against the pure ticked path, on the
/// memory-bound workload where skipping matters (range arg 0 = ticked,
/// 1 = event-skipping).
void BM_ClusterRunEventSkip(benchmark::State& state) {
  sim::ClusterConfig cc;
  cc.core_clock = ghz(2.0);
  cc.event_skipping = state.range(0) != 0;
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < 4; ++c) {
    sources.push_back(std::make_unique<workload::SyntheticWorkload>(
        workload::WorkloadProfile::data_serving(), 100 + static_cast<std::uint64_t>(c),
        workload::AddressSpace::for_core(static_cast<CoreId>(c))));
  }
  sim::Cluster cluster{cc, std::move(sources)};
  cluster.run(50'000);  // warm
  for (auto _ : state) {
    cluster.run(1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
  state.counters["skip_frac"] =
      static_cast<double>(cluster.skipped_cycles()) / static_cast<double>(cluster.now());
}
BENCHMARK(BM_ClusterRunEventSkip)->Arg(0)->Arg(1);

/// One small DSE sweep through the thread pool (range arg = threads).
void BM_SweepParallel(benchmark::State& state) {
  power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  sim::ServerSimConfig cfg;
  cfg.smarts.warm_instructions = 100'000;
  cfg.smarts.warmup = 5'000;
  cfg.smarts.measure = 10'000;
  cfg.smarts.min_samples = 2;
  cfg.smarts.max_samples = 3;
  sim::ServerSimulator simulator{workload::WorkloadProfile::web_search(), platform, cfg};
  const auto grid = sim::frequency_grid(mhz(400), ghz(2.0), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.sweep(grid, static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_SweepParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// The fork-join handoff alone: one empty fan-out of Arg indices on a
/// 4-wide pool, back to back, as the fleet issues one per horizon. The
/// reported time per iteration is the per-fan-out handoff cost in us.
void BM_PoolHandoff(benchmark::State& state) {
  sim::ThreadPool pool{4};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pool.run_indexed(n, [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PoolHandoff)->Arg(32)->UseRealTime()->Unit(benchmark::kMicrosecond);

/// One closed-loop fleet run (governed dispatch, epochs, admission,
/// budgets): the whole src/ctrl + src/dc serving stack end to end, sized
/// for bench turnaround. Range arg 0 = open loop at 2 GHz, 1 = NTC-boost
/// governor — the delta is the runtime-control overhead plus whatever
/// DVFS trajectory the governor drives.
void BM_ClosedLoopFleet(benchmark::State& state) {
  dc::Scenario s = dc::Scenario::by_name("webserving-diurnal-ntcboost");
  s.requests = 60;
  s.warmup_requests = 8;
  if (state.range(0) == 0) s.governor.kind = ctrl::GovernorKind::kNone;
  // Self-profiling rides along (trace and metrics stay disabled): the
  // epoch-barrier and whole-run wall costs land as counters in the
  // archived BENCH JSON, so control-plane overhead is tracked PR over PR.
  obs::Telemetry telemetry;
  telemetry.timers.enable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dc::run_scenario(s, ghz(2.0), dc::RunOptions{.telemetry = &telemetry, .threads = 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.requests));
  const auto barriers = telemetry.timers.count("epoch-barrier");
  if (barriers > 0) {
    state.counters["barrier_us_per_epoch"] =
        telemetry.timers.total_seconds("epoch-barrier") * 1e6 /
        static_cast<double>(barriers);
  }
  const auto runs = telemetry.timers.count("fleet-run");
  if (runs > 0) {
    state.counters["fleet_run_ms"] =
        telemetry.timers.total_seconds("fleet-run") * 1e3 / static_cast<double>(runs);
  }
}
BENCHMARK(BM_ClosedLoopFleet)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The parallel intra-run data plane (dc::FleetRunner): one governed
/// diurnal fleet run whose chips are claimed and advanced by `Arg`
/// workers between epoch barriers. The Arg(4) leg also gates two
/// contracts inline: the parallel FleetResult must equal the serial one
/// field for field (always), and on hosts with >= 4 hardware threads the
/// parallel run must actually be faster — a soft 1.5x sanity bound (see
/// docs/performance.md, "Measured scaling").
void BM_ShardedFleet(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  dc::Scenario s = dc::Scenario::by_name("webserving-diurnal-ntcboost");
  s.servers = 16;  // enough chips that every worker carries real work
  s.requests = 240;
  s.warmup_requests = 24;
  const dc::FleetRunner runner{s.fleet_config(ghz(2.0))};
  const dc::RunOptions options{.threads = threads};
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.requests));
  if (threads != 4) return;
  const auto wall = [&](const dc::RunOptions& o, dc::FleetResult& out) {
    const auto t0 = std::chrono::steady_clock::now();
    out = runner.run(o);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  dc::FleetResult serial, parallel;
  const double serial_s = wall(dc::RunOptions{.threads = 1}, serial);
  const double parallel_s = wall(options, parallel);
  if (serial != parallel) {
    state.SkipWithError("parallel run diverged from the serial reference");
    return;
  }
  state.counters["speedup_4t"] = serial_s / parallel_s;
  if (std::thread::hardware_concurrency() >= 4 && serial_s / parallel_s < 1.5) {
    state.SkipWithError("parallel fleet under the 1.5x speedup bound at 4 threads");
  }
}
BENCHMARK(BM_ShardedFleet)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// A single core against its memory system, on a dependency-heavy stream
/// that keeps the ROB's waiting region full — the worst case for the
/// polled issue scan and the best isolation of the issue stage. Range
/// args: {issue scheduler (0 = polled scan, 1 = wakeup list), core clock
/// in MHz (the paper's sweeps spend most wall-clock at the low end)}.
void BM_IssueWakeup(benchmark::State& state) {
  class ChainSource final : public cpu::UopSource {
   public:
    cpu::MicroOp next() override {
      cpu::MicroOp op;
      op.pc = 0x1000 + (n_ % 8) * 4;
      // Mostly long serial chains (the window fills with waiting uops),
      // salted with L1-resident loads so the memory path stays live.
      if (n_ % 7 == 0) {
        op.type = cpu::UopType::kLoad;
        op.mem_addr = 0x100000 + (n_ % 128) * 8;
      }
      op.src_dist[0] = 1;
      op.src_dist[1] = static_cast<std::uint16_t>(n_ % 5 == 0 ? 24 : 0);
      ++n_;
      return op;
    }

   private:
    std::uint64_t n_ = 0;
  };

  cpu::CoreParams params;
  params.wakeup_list = state.range(0) != 0;
  const Hertz clock = mhz(static_cast<double>(state.range(1)));
  ChainSource source;
  cache::ClusterMemorySystem memory{cache::HierarchyParams{}, dram::DramConfig{}, clock};
  cpu::OooCore core{params, 0, memory, source};
  std::vector<cache::MissCompletion> completions;
  Cycle now = 0;
  auto run = [&](Cycle cycles) {
    for (Cycle c = 0; c < cycles; ++c, ++now) {
      memory.tick(now);
      completions.clear();
      memory.drain_completions_into(completions);
      for (const auto& d : completions) core.on_miss_completion(d.user_tag, d.done);
      core.tick(now);
    }
  };
  run(20'000);  // warm
  for (auto _ : state) {
    run(1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
  state.counters["ipc"] = core.stats().ipc();
}
BENCHMARK(BM_IssueWakeup)
    ->Args({0, 200})
    ->Args({1, 200})
    ->Args({0, 2000})
    ->Args({1, 2000});

void BM_WorkloadGenerator(benchmark::State& state) {
  workload::SyntheticWorkload gen{workload::WorkloadProfile::data_serving(), 11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGenerator);

void BM_VoltageSolver(benchmark::State& state) {
  const tech::TechnologyModel soi{tech::TechnologyParams::fdsoi28()};
  double f = 0.2e9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soi.voltage_for(Hertz{f}));
    f += 1e6;
    if (f > 3.0e9) f = 0.2e9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VoltageSolver);

void BM_ZipfSampler(benchmark::State& state) {
  Xoshiro256StarStar rng{3};
  ZipfSampler zipf{1 << 20, 0.99};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSampler);

// The observability zero-cost contract: a disabled TraceSink's emit() is
// one branch and returns. Arg(0) measures the disabled fast path (and
// asserts the per-emit bound the fleet relies on); Arg(1) the enabled
// record path for comparison.
void BM_TraceOverhead(benchmark::State& state) {
  obs::TraceSink sink;
  if (state.range(0) == 1) {
    sink.enable();
    sink.begin_run(/*chips=*/4);
  }
  std::int64_t id = 0;
  for (auto _ : state) {
    sink.emit(obs::EventKind::kDispatch, /*chip=*/2, /*time_s=*/1.0 + 1e-9 * id,
              /*tenant=*/0, id);
    ++id;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.range(0) == 0) {
    // Assert the disabled-path bound explicitly: 50 ns/emit is ~2 orders
    // above the expected one-branch cost, but trips if an allocation or
    // virtual call ever creeps into the fast path.
    constexpr int kOps = 1'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
      sink.emit(obs::EventKind::kDispatch, 2, 1.0, 0, i);
    }
    const double ns_per_emit =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(kOps);
    state.counters["disabled_ns_per_emit"] = ns_per_emit;
    if (ns_per_emit > 50.0) {
      state.SkipWithError("disabled TraceSink emit exceeds the 50 ns/op bound");
    }
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

/// One unit of fleet setup: a cold paper-geometry cluster on the
/// Web Serving profile at 2 GHz warmed through 600k committed
/// instructions, as ChipServer builds every cluster of a fleet. The warm
/// is DRAM-heavy (cold caches), so the channels' event bound shows here.
void BM_ClusterWarm(benchmark::State& state) {
  sim::ClusterConfig cc;
  cc.core_clock = ghz(2.0);
  const auto profile = workload::WorkloadProfile::web_serving();
  for (auto _ : state) {
    std::vector<std::unique_ptr<cpu::UopSource>> sources;
    for (int c = 0; c < cc.hierarchy.cores; ++c) {
      sources.push_back(std::make_unique<workload::SyntheticWorkload>(
          profile, 500 + static_cast<std::uint64_t>(c) * 7919,
          workload::AddressSpace::for_core(static_cast<CoreId>(c))));
    }
    sim::Cluster cluster{cc, std::move(sources)};
    cluster.run_until_committed(600'000, 6'000'000);
    benchmark::DoNotOptimize(cluster.total_committed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterWarm)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() plus the self-profiling hook: with
// NTSERV_BENCH_PHASE_TIMERS set (run_bench.sh's default), a global
// obs::PhaseTimers collects the DSE sweep-point wall costs of any
// dse-driven benchmark and the accumulated phase table prints after the
// run (stderr, so --benchmark_out JSON stays clean).
int main(int argc, char** argv) {
  obs::PhaseTimers timers;
  const char* flag = std::getenv("NTSERV_BENCH_PHASE_TIMERS");
  if (flag != nullptr && flag[0] != '\0' && flag[0] != '0') {
    timers.enable();
    dse::set_phase_timers(&timers);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (timers.enabled()) timers.report(std::cerr);
  dse::set_phase_timers(nullptr);
  return 0;
}
