#include "replay.hpp"

#include <algorithm>

namespace perfbench {

using ntserv::Cycle;
using ntserv::kNeverCycle;
namespace cpu = ntserv::cpu;
namespace sim = ntserv::sim;
namespace workload = ntserv::workload;

std::vector<std::unique_ptr<cpu::UopSource>> make_sources(const workload::WorkloadProfile& profile,
                                                          std::uint64_t seed, int cores) {
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < cores; ++c) {
    sources.push_back(std::make_unique<workload::SyntheticWorkload>(
        profile, seed + static_cast<std::uint64_t>(c) * 7919,
        workload::AddressSpace::for_core(static_cast<ntserv::CoreId>(c))));
  }
  return sources;
}

TimedSource::TimedSource(std::unique_ptr<cpu::UopSource> inner, int span)
    : inner_(std::move(inner)), span_(span), ring_(kBatch) {}

void TimedSource::refill() {
  Spans::Hot span(spans_, span_);
  for (auto& uop : ring_) uop = inner_->next();
  pos_ = 0;
  if (spans_ != nullptr) timed_uops_ += kBatch;
}

namespace {

ntserv::dram::DramConfig with_event_skipping(ntserv::dram::DramConfig d, bool on) {
  d.event_skipping = on;
  return d;
}

ReplayCluster::Names resolve_names(Spans& spans, const std::string& label) {
  const auto id = [&](const char* name) { return spans.id(label + ":" + name); };
  return {id("memory.tick"),          id("drain_completions_into"),
          id("on_miss_completion"),   id("core.tick"),
          id("next_event_cycle"),     id("next_event_core_cycle"),
          id("fast_forward"),         id("workload")};
}

std::vector<std::unique_ptr<TimedSource>> timed_sources(const workload::WorkloadProfile& profile,
                                                        std::uint64_t seed, int cores, int span) {
  std::vector<std::unique_ptr<TimedSource>> out;
  for (auto& s : make_sources(profile, seed, cores)) {
    out.push_back(std::make_unique<TimedSource>(std::move(s), span));
  }
  return out;
}

}  // namespace

ReplayCluster::ReplayCluster(sim::ClusterConfig config, const workload::WorkloadProfile& profile,
                             std::uint64_t seed, Spans& spans, const std::string& label)
    : config_(std::move(config)),
      spans_(spans),
      names_(resolve_names(spans, label)),
      sources_(timed_sources(profile, seed, config_.hierarchy.cores, names_.workload)),
      memory_(config_.hierarchy, with_event_skipping(config_.dram, config_.event_skipping),
              config_.core_clock) {
  for (int c = 0; c < config_.hierarchy.cores; ++c) {
    cores_.push_back(std::make_unique<cpu::OooCore>(config_.core, static_cast<ntserv::CoreId>(c),
                                                    memory_,
                                                    *sources_[static_cast<std::size_t>(c)]));
    cores_.back()->set_commit_counter(&committed_running_);
    cores_.back()->set_event_skipping(config_.event_skipping);
  }
}

Cycle ReplayCluster::next_cluster_event(Cycle from, Spans* spans) const {
  Cycle wake = kNeverCycle;
  for (const auto& core : cores_) {
    Cycle h = 0;
    {
      Spans::Hot span(spans, names_.core_hint);
      h = core->next_event_cycle(from);
    }
    if (h <= from) return from;
    wake = std::min(wake, h);
  }
  Cycle mem = 0;
  {
    Spans::Hot span(spans, names_.memory_hint);
    mem = memory_.next_event_core_cycle(from);
  }
  if (mem <= from) return from;
  return std::min(wake, mem);
}

void ReplayCluster::run(Cycle cycles, bool timed) {
  Spans* spans = timed ? &spans_ : nullptr;
  for (auto& s : sources_) s->attach(spans);
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    {
      Spans::Hot span(spans, names_.memory_tick);
      memory_.tick(now_);
    }
    completions_.clear();
    {
      Spans::Hot span(spans, names_.drain);
      memory_.drain_completions_into(completions_);
    }
    for (const auto& done : completions_) {
      Spans::Hot span(spans, names_.on_miss);
      cores_[done.core]->on_miss_completion(done.user_tag, done.done);
    }
    for (auto& core : cores_) {
      Spans::Hot span(spans, names_.core_tick);
      core->tick(now_);
    }
    ++now_;
    if (!config_.event_skipping || now_ >= end) continue;

    // Cluster::run's skip gate: probe only out of a globally quiet tick.
    if (memory_.acted_last_tick()) continue;
    const bool any_core_progress = std::any_of(
        cores_.begin(), cores_.end(), [](const auto& core) { return core->made_progress(); });
    if (any_core_progress) continue;

    const Cycle wake = next_cluster_event(now_, spans);
    if (wake <= now_) continue;
    const Cycle target = std::min(wake, end);
    const Cycle delta = target - now_;
    {
      Spans::Hot span(spans, names_.fast_forward);
      memory_.fast_forward(delta);
      for (auto& core : cores_) core->note_idle_cycles(now_, delta);
    }
    skipped_cycles_ += delta;
    now_ = target;
  }
  for (auto& s : sources_) s->attach(nullptr);
}

void ReplayCluster::reset_stats() {
  for (auto& core : cores_) core->reset_stats();
  memory_.reset_stats();
  stats_epoch_ = now_;
  dram_now_epoch_ = memory_.dram().now();
}

sim::ClusterMetrics ReplayCluster::metrics() const {
  // Same arithmetic, in the same order, as sim::Cluster::metrics().
  sim::ClusterMetrics m;
  m.cycles = now_ - stats_epoch_;
  std::uint64_t committed = 0;
  std::uint64_t mispredicts = 0;
  for (const auto& core : cores_) {
    const auto& s = core->stats();
    m.uipc += s.uipc();
    m.ipc += s.ipc();
    m.issue_utilization +=
        s.issue_utilization(config_.core.width) / static_cast<double>(cores_.size());
    committed += s.committed_total;
    mispredicts += s.branch_mispredicts;
  }
  m.memory = memory_.stats();
  m.dram = memory_.dram().stats();
  m.dram_cycles = memory_.dram().now() - dram_now_epoch_;
  if (committed > 0) {
    const double per_kilo = 1000.0 / static_cast<double>(committed);
    m.l1i_mpki = static_cast<double>(m.memory.l1i_misses) * per_kilo;
    m.l1d_mpki = static_cast<double>(m.memory.l1d_misses) * per_kilo;
    m.llc_mpki = static_cast<double>(m.memory.llc_misses) * per_kilo;
    m.branch_mpki = static_cast<double>(mispredicts) * per_kilo;
  }
  return m;
}

std::uint64_t ReplayCluster::timed_uops() const {
  std::uint64_t n = 0;
  for (const auto& s : sources_) n += s->timed_uops();
  return n;
}

}  // namespace perfbench
