// Replay of sim::Cluster::run through the public step and skip calls of
// the cycle model, with a span around each call.
//
// The cycle-model layers (cpu, cache, dram, workload) cannot be timed
// from outside a FleetRunner or ServerSimulator call, so the traced run
// builds the same cores, memory system and uop sources itself and drives
// them in the order Cluster::run does. Its metrics must equal those of a
// sim::Cluster built with the same seeds and run for the same cycles;
// check_same_cluster() verifies that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ntserv/ntserv.hpp"
#include "spans.hpp"

namespace perfbench {

/// The uop sources ServerSimulator::evaluate builds for one point: one
/// SyntheticWorkload per core, seeded `seed + core * 7919`, each in its
/// core's address space.
std::vector<std::unique_ptr<ntserv::cpu::UopSource>> make_sources(
    const ntserv::workload::WorkloadProfile& profile, std::uint64_t seed, int cores);

/// Wraps a uop source and generates its uops in batches ahead of the
/// core, timing each batch as a span. next() takes no input, so the core
/// sees exactly the stream it would see calling the source directly.
class TimedSource final : public ntserv::cpu::UopSource {
 public:
  static constexpr int kBatch = 64;

  TimedSource(std::unique_ptr<ntserv::cpu::UopSource> inner, int span);

  ntserv::cpu::MicroOp next() override {
    if (pos_ == kBatch) refill();
    return ring_[static_cast<std::size_t>(pos_++)];
  }

  void attach(Spans* spans) { spans_ = spans; }
  /// Uops generated while a Spans was attached.
  [[nodiscard]] std::uint64_t timed_uops() const { return timed_uops_; }

 private:
  void refill();

  std::unique_ptr<ntserv::cpu::UopSource> inner_;
  int span_;
  Spans* spans_ = nullptr;
  std::vector<ntserv::cpu::MicroOp> ring_;
  int pos_ = kBatch;
  std::uint64_t timed_uops_ = 0;
};

class ReplayCluster {
 public:
  /// `label` prefixes the span names ("lo" -> "lo:core.tick"), so the
  /// replays at the two ends of a grid keep separate totals in one Spans.
  ReplayCluster(ntserv::sim::ClusterConfig config,
                const ntserv::workload::WorkloadProfile& profile, std::uint64_t seed,
                Spans& spans, const std::string& label);

  ReplayCluster(const ReplayCluster&) = delete;
  ReplayCluster& operator=(const ReplayCluster&) = delete;

  /// Advance `cycles` core cycles; spans are recorded only when `timed`.
  void run(ntserv::Cycle cycles, bool timed);
  void reset_stats();
  [[nodiscard]] ntserv::sim::ClusterMetrics metrics() const;
  [[nodiscard]] ntserv::Cycle skipped_cycles() const { return skipped_cycles_; }
  [[nodiscard]] std::uint64_t timed_uops() const;
  [[nodiscard]] const ntserv::cpu::OooCore& core(int i) const {
    return *cores_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int cores() const { return static_cast<int>(cores_.size()); }

  /// Span names, prefixed with the label.
  struct Names {
    int memory_tick, drain, on_miss, core_tick, core_hint, memory_hint, fast_forward,
        workload;
  };
  [[nodiscard]] const Names& names() const { return names_; }

 private:
  [[nodiscard]] ntserv::Cycle next_cluster_event(ntserv::Cycle from, Spans* spans) const;

  ntserv::sim::ClusterConfig config_;
  Spans& spans_;
  Names names_;
  std::vector<std::unique_ptr<TimedSource>> sources_;
  ntserv::cache::ClusterMemorySystem memory_;
  std::vector<std::unique_ptr<ntserv::cpu::OooCore>> cores_;
  std::vector<ntserv::cache::MissCompletion> completions_;
  std::uint64_t committed_running_ = 0;
  ntserv::Cycle now_ = 0;
  ntserv::Cycle stats_epoch_ = 0;
  ntserv::Cycle dram_now_epoch_ = 0;
  ntserv::Cycle skipped_cycles_ = 0;
};

}  // namespace perfbench
