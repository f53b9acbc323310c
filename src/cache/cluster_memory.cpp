#include "cache/cluster_memory.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ntserv::cache {

namespace {
/// L1 line meta bit 0: the core may write this line without an upgrade
/// (MESI E or M state).
constexpr std::uint32_t kL1Exclusive = 1u;
}  // namespace

std::uint32_t ClusterMemorySystem::pack(DirEntry e) {
  return static_cast<std::uint32_t>(e.sharers) |
         (static_cast<std::uint32_t>(e.owner + 1) << 8);
}

ClusterMemorySystem::DirEntry ClusterMemorySystem::unpack(std::uint32_t meta) {
  DirEntry e;
  e.sharers = static_cast<std::uint8_t>(meta & 0xFF);
  e.owner = static_cast<int>((meta >> 8) & 0xFF) - 1;
  return e;
}

ClusterMemorySystem::ClusterMemorySystem(HierarchyParams params,
                                         dram::DramConfig dram_config, Hertz core_clock)
    : params_(params), dram_(std::move(dram_config)), llc_(params.llc) {
  NTSERV_EXPECTS(params_.cores > 0 && params_.cores <= 8,
                 "directory bitmask supports 1..8 cores per cluster");
  NTSERV_EXPECTS(params_.llc_banks > 0, "LLC needs at least one bank");
  for (int c = 0; c < params_.cores; ++c) {
    CacheArrayParams pi = params_.l1i;
    CacheArrayParams pd = params_.l1d;
    pi.seed += static_cast<std::uint64_t>(c) * 101;
    pd.seed += static_cast<std::uint64_t>(c) * 103;
    l1i_.emplace_back(pi);
    l1d_.emplace_back(pd);
  }
  bank_free_.assign(static_cast<std::size_t>(params_.llc_banks), 0);
  last_dmiss_line_.assign(static_cast<std::size_t>(params_.cores), ~0ull);
  l1_mshr_used_.assign(static_cast<std::size_t>(params_.cores), 0);
  llc_mshr_used_.assign(static_cast<std::size_t>(params_.llc_banks), 0);
  set_core_clock(core_clock);
}

void ClusterMemorySystem::set_core_clock(Hertz f) {
  NTSERV_EXPECTS(f.value() > 0.0, "core clock must be positive");
  mem_per_core_cycle_ = dram_.clock().value() / f.value();
  core_clock_ = f;
}

Cycle ClusterMemorySystem::uncore_cycles(Cycle uncore_lat) const {
  // Uncore latencies are specified in cycles of the fixed 1 GHz uncore
  // domain; convert to core cycles at the current DVFS point. Slow cores
  // see the (absolutely constant) uncore time as fewer of their own cycles.
  const double scale = core_clock_.value() / 1e9;
  const double cycles = static_cast<double>(uncore_lat) * scale;
  return cycles <= 1.0 ? 1 : static_cast<Cycle>(std::llround(cycles));
}

int ClusterMemorySystem::bank_of(Addr line) const {
  return static_cast<int>((line / kCacheLineBytes) %
                          static_cast<std::uint64_t>(params_.llc_banks));
}

CacheArray& ClusterMemorySystem::l1_of(CoreId core, AccessType type) {
  return type == AccessType::kIFetch ? l1i_[core] : l1d_[core];
}

Cycle ClusterMemorySystem::charge_llc_path(int bank, Cycle now) {
  auto& free_at = bank_free_[static_cast<std::size_t>(bank)];
  const Cycle start = std::max(now + uncore_cycles(params_.xbar_hop), free_at);
  free_at = start + uncore_cycles(params_.bank_occupancy);
  stats_.xbar_flits += 2;  // request + response
  return start;
}

Cycle ClusterMemorySystem::handle_llc_hit(CoreId core, AccessType type,
                                          CacheArray::WayRef ref, Addr line) {
  DirEntry dir = unpack(llc_.meta(ref));
  Cycle extra = 0;

  if (type == AccessType::kStore) {
    // GetM: invalidate all other sharers; pull data from a dirty owner.
    if (dir.owner >= 0 && dir.owner != static_cast<int>(core)) {
      extra += uncore_cycles(params_.owner_forward_penalty);
      llc_.set_dirty(ref, true);
      ++stats_.owner_forwards;
    }
    for (int c = 0; c < params_.cores; ++c) {
      if (c == static_cast<int>(core) || !(dir.sharers & (1u << c))) continue;
      l1d_[static_cast<std::size_t>(c)].invalidate(line);
      l1i_[static_cast<std::size_t>(c)].invalidate(line);
      extra = std::max(extra, uncore_cycles(2 * params_.xbar_hop));
      ++stats_.back_invalidations;
    }
    dir.sharers = static_cast<std::uint8_t>(1u << core);
    dir.owner = static_cast<int>(core);
  } else {
    // GetS: downgrade a dirty owner to shared; data written back to LLC.
    if (dir.owner >= 0 && dir.owner != static_cast<int>(core)) {
      extra += uncore_cycles(params_.owner_forward_penalty);
      llc_.set_dirty(ref, true);
      auto peer = l1d_[static_cast<std::size_t>(dir.owner)].probe(line, false);
      if (peer) {
        l1d_[static_cast<std::size_t>(dir.owner)].set_dirty(*peer, false);
        l1d_[static_cast<std::size_t>(dir.owner)].set_meta(*peer, 0);
      }
      dir.owner = -1;
      ++stats_.owner_forwards;
    }
    dir.sharers = static_cast<std::uint8_t>(dir.sharers | (1u << core));
  }
  llc_.set_meta(ref, pack(dir));
  return extra;
}

void ClusterMemorySystem::fill_l1(CoreId core, AccessType type, Addr line, bool dirty) {
  CacheArray& l1 = l1_of(core, type);
  if (l1.probe(line, true)) {
    // Already filled by an earlier waiter of the same merged miss.
    if (dirty) {
      auto ref = l1.probe(line, false);
      l1.set_dirty(*ref, true);
      l1.set_meta(*ref, kL1Exclusive);
    }
    return;
  }
  const auto ev = l1.insert(line, dirty, dirty ? kL1Exclusive : 0);
  if (!ev.valid) return;

  // Victim leaves this L1: update the directory; dirty data goes to LLC.
  auto vref = llc_.probe(ev.line_addr, false);
  if (vref) {
    DirEntry dir = unpack(llc_.meta(*vref));
    dir.sharers = static_cast<std::uint8_t>(dir.sharers & ~(1u << core));
    if (dir.owner == static_cast<int>(core)) dir.owner = -1;
    if (ev.dirty) {
      llc_.set_dirty(*vref, true);
      ++stats_.l1_writebacks;
      stats_.xbar_flits += 1;
    }
    llc_.set_meta(*vref, pack(dir));
  }
}

void ClusterMemorySystem::issue_prefetch(CoreId core, AccessType type, Addr next_line) {
  if (!params_.nextline_prefetch) return;
  const AccessType fill_type = type == AccessType::kIFetch ? AccessType::kIFetch
                                                           : AccessType::kLoad;
  if (l1_of(core, fill_type).probe(next_line, false)) return;
  if (pending_.contains(next_line)) return;

  if (auto lref = llc_.probe(next_line, true)) {
    // LLC-resident: install toward the L1 directly (prefetches ride spare
    // bank bandwidth; their latency is hidden by design).
    handle_llc_hit(core, fill_type, *lref, next_line);
    fill_l1(core, fill_type, next_line, /*dirty=*/false);
    ++stats_.prefetches_issued;
    return;
  }
  const int bank = bank_of(next_line);
  if (llc_mshr_used_[static_cast<std::size_t>(bank)] >= params_.llc_mshrs_per_bank) return;
  PendingMiss miss;
  miss.line = next_line;
  miss.prefetch = true;
  miss.prefetch_core = core;
  miss.prefetch_type = fill_type;
  pending_.emplace(next_line, std::move(miss));
  ++unissued_misses_;
  ++llc_mshr_used_[static_cast<std::size_t>(bank)];
  ++stats_.prefetches_issued;
  issue_pending_to_dram();
}

void ClusterMemorySystem::fill_llc(const PendingMiss& miss) {
  // Decide the fill's coherence state from its waiters.
  bool single_core = true;
  for (const auto& w : miss.waiters) {
    if (w.core != miss.waiters.front().core) single_core = false;
  }
  const bool exclusive_fill =
      miss.want_exclusive && single_core && !miss.waiters.empty();

  DirEntry dir;
  const auto ev = llc_.insert(miss.line, /*dirty=*/false, 0);
  if (ev.valid) {
    // Inclusive LLC: shoot down any L1 copies of the victim.
    const DirEntry vdir = unpack(ev.meta);
    bool victim_dirty = ev.dirty;
    for (int c = 0; c < params_.cores; ++c) {
      if (!(vdir.sharers & (1u << c))) continue;
      auto di = l1d_[static_cast<std::size_t>(c)].invalidate(ev.line_addr);
      l1i_[static_cast<std::size_t>(c)].invalidate(ev.line_addr);
      if (di && di->dirty) victim_dirty = true;
      ++stats_.back_invalidations;
    }
    if (victim_dirty) {
      writeback_q_.push_back(ev.line_addr);
      ++stats_.llc_writebacks;
    }
  }

  auto ref = llc_.probe(miss.line, true);
  NTSERV_ENSURES(ref.has_value(), "LLC fill must land");
  for (const auto& w : miss.waiters) {
    const bool dirty = exclusive_fill && w.type == AccessType::kStore;
    fill_l1(w.core, w.type, miss.line, dirty);
    dir.sharers = static_cast<std::uint8_t>(dir.sharers | (1u << w.core));
  }
  if (exclusive_fill) dir.owner = static_cast<int>(miss.waiters.front().core);
  if (miss.prefetch) {
    fill_l1(miss.prefetch_core, miss.prefetch_type, miss.line, /*dirty=*/false);
    dir.sharers = static_cast<std::uint8_t>(dir.sharers | (1u << miss.prefetch_core));
  }
  llc_.set_meta(*ref, pack(dir));
}

AccessTicket ClusterMemorySystem::access(CoreId core, Addr addr, AccessType type,
                                         std::uint64_t user_tag, Cycle now) {
  bool l1_missed = false;
  const AccessTicket t = access_impl(core, addr, type, user_tag, now, l1_missed);
  if (t.status != AccessTicket::Status::kRejected && params_.nextline_prefetch) {
    const Addr line = line_base(addr);
    if (type == AccessType::kIFetch) {
      // I-side: always prefetch the sequential next line (fetch runs ahead).
      issue_prefetch(core, type, line + kCacheLineBytes);
    } else if (l1_missed) {
      // D-side: only confirmed sequential streams earn a prefetch —
      // prefetching after random misses would just burn DRAM bandwidth.
      Addr& last = last_dmiss_line_[core];
      if (line == last + kCacheLineBytes) {
        issue_prefetch(core, type, line + kCacheLineBytes);
        issue_prefetch(core, type, line + 2 * kCacheLineBytes);
      }
      last = line;
    }
  }
  return t;
}

AccessTicket ClusterMemorySystem::access_impl(CoreId core, Addr addr, AccessType type,
                                              std::uint64_t user_tag, Cycle now,
                                              bool& l1_missed) {
  NTSERV_EXPECTS(static_cast<int>(core) < params_.cores, "core id out of range");
  const Addr line = line_base(addr);
  CacheArray& l1 = l1_of(core, type);

  // ---- L1 lookup ----
  if (auto ref = l1.probe(line, true)) {
    auto& hits = type == AccessType::kIFetch ? stats_.l1i_hits : stats_.l1d_hits;
    if (type != AccessType::kStore) {
      ++hits;
      return {AccessTicket::Status::kHit, now + params_.l1_latency};
    }
    // Store hit: exclusive lines complete locally, shared lines upgrade.
    if (l1.meta(*ref) & kL1Exclusive) {
      l1.set_dirty(*ref, true);
      ++hits;
      return {AccessTicket::Status::kHit, now + params_.l1_latency};
    }
    auto lref = llc_.probe(line, true);
    NTSERV_ENSURES(lref.has_value(), "inclusive LLC must hold an L1-resident line");
    const int bank = bank_of(line);
    const Cycle start = charge_llc_path(bank, now);
    const Cycle extra = handle_llc_hit(core, type, *lref, line);
    l1.set_dirty(*ref, true);
    l1.set_meta(*ref, kL1Exclusive);
    ++hits;
    ++stats_.llc_hits;
    return {AccessTicket::Status::kHit,
            start + uncore_cycles(params_.llc_tag_latency) + extra +
                uncore_cycles(params_.xbar_hop)};
  }

  auto& misses = type == AccessType::kIFetch ? stats_.l1i_misses : stats_.l1d_misses;
  l1_missed = true;

  // ---- merge with an in-flight miss on the same line ----
  if (auto it = pending_.find(line); it != pending_.end()) {
    bool core_already_waiting = false;
    for (const auto& w : it->second.waiters) {
      if (w.core == core) core_already_waiting = true;
    }
    if (!core_already_waiting) {
      if (l1_mshr_used_[core] >= params_.l1_mshrs) {
        ++stats_.rejected;
        return {AccessTicket::Status::kRejected, 0};
      }
      ++l1_mshr_used_[core];
    }
    it->second.waiters.push_back({core, type, user_tag});
    it->second.want_exclusive |= (type == AccessType::kStore);
    ++misses;
    ++stats_.merged_misses;
    return {AccessTicket::Status::kMiss, 0};
  }

  if (l1_mshr_used_[core] >= params_.l1_mshrs) {
    ++stats_.rejected;
    return {AccessTicket::Status::kRejected, 0};
  }

  const int bank = bank_of(line);

  // ---- LLC lookup ----
  if (auto lref = llc_.probe(line, true)) {
    const Cycle start = charge_llc_path(bank, now);
    const Cycle extra = handle_llc_hit(core, type, *lref, line);
    fill_l1(core, type, line, /*dirty=*/type == AccessType::kStore);
    ++misses;
    ++stats_.llc_hits;
    return {AccessTicket::Status::kHit,
            start + uncore_cycles(params_.llc_tag_latency + params_.llc_data_latency) +
                extra + uncore_cycles(params_.xbar_hop)};
  }

  // ---- LLC miss: to DRAM ----
  if (llc_mshr_used_[static_cast<std::size_t>(bank)] >= params_.llc_mshrs_per_bank) {
    ++stats_.rejected;
    return {AccessTicket::Status::kRejected, 0};
  }
  charge_llc_path(bank, now);
  PendingMiss miss;
  miss.line = line;
  miss.want_exclusive = (type == AccessType::kStore);
  miss.waiters.push_back({core, type, user_tag});
  pending_.emplace(line, std::move(miss));
  ++unissued_misses_;
  ++l1_mshr_used_[core];
  ++llc_mshr_used_[static_cast<std::size_t>(bank)];
  ++misses;
  ++stats_.llc_misses;
  issue_pending_to_dram();
  return {AccessTicket::Status::kMiss, 0};
}

bool ClusterMemorySystem::issue_pending_to_dram() {
  bool issued = false;
  // Dirty-victim writebacks first (they free LLC MSHR-adjacent resources
  // and writes are posted).
  while (!writeback_q_.empty()) {
    const Addr line = writeback_q_.front();
    if (!dram_.enqueue(next_dram_id_, line, /*is_write=*/true)) break;
    ++next_dram_id_;
    writeback_q_.pop_front();
    issued = true;
  }
  if (unissued_misses_ == 0) return issued;
  for (auto& [line, miss] : pending_) {
    if (miss.issued_to_dram) continue;
    if (!dram_.enqueue(next_dram_id_, line, /*is_write=*/false)) continue;
    dram_id_to_line_[next_dram_id_] = line;
    ++next_dram_id_;
    miss.issued_to_dram = true;
    --unissued_misses_;
    issued = true;
  }
  return issued;
}

void ClusterMemorySystem::handle_dram_completions(Cycle core_now) {
  dram_resp_scratch_.clear();
  dram_.drain_completions_into(dram_resp_scratch_);
  for (const auto& resp : dram_resp_scratch_) {
    auto idit = dram_id_to_line_.find(resp.id);
    if (idit == dram_id_to_line_.end()) continue;  // posted write echo
    const Addr line = idit->second;
    dram_id_to_line_.erase(idit);

    auto it = pending_.find(line);
    NTSERV_ENSURES(it != pending_.end(), "DRAM completion without pending miss");
    PendingMiss& miss = it->second;

    fill_llc(miss);
    const Cycle done = core_now +
                       uncore_cycles(params_.llc_data_latency + params_.xbar_hop);
    // Release MSHRs: one per distinct waiting core, one per LLC bank entry.
    std::uint8_t cores_seen = 0;
    for (const auto& w : miss.waiters) {
      completions_.push_back({w.core, w.user_tag, done});
      if (!(cores_seen & (1u << w.core))) {
        cores_seen = static_cast<std::uint8_t>(cores_seen | (1u << w.core));
        --l1_mshr_used_[w.core];
      }
    }
    --llc_mshr_used_[static_cast<std::size_t>(bank_of(line))];
    pending_.erase(it);
  }
}

void ClusterMemorySystem::tick(Cycle core_now) {
  last_core_now_ = core_now;
  mem_accum_ += mem_per_core_cycle_;
  bool acted = false;
  while (mem_accum_ >= 1.0) {
    acted |= dram_.tick();
    mem_accum_ -= 1.0;
  }
  handle_dram_completions(core_now);
  acted |= issue_pending_to_dram();
  mem_acted_ = acted;
}

std::vector<MissCompletion> ClusterMemorySystem::drain_completions() {
  std::vector<MissCompletion> out;
  out.swap(completions_);
  return out;
}

void ClusterMemorySystem::drain_completions_into(std::vector<MissCompletion>& out) {
  out.insert(out.end(), completions_.begin(), completions_.end());
  completions_.clear();
}

void ClusterMemorySystem::fast_forward(Cycle core_cycles) {
  // Replay the exact per-tick accumulation arithmetic (one add and one
  // subtract at a time) so the floating-point phase matches the ticked
  // path bit for bit; the DRAM cycles themselves are skipped wholesale.
  Cycle mem_ticks = 0;
  for (Cycle i = 0; i < core_cycles; ++i) {
    mem_accum_ += mem_per_core_cycle_;
    while (mem_accum_ >= 1.0) {
      ++mem_ticks;
      mem_accum_ -= 1.0;
    }
  }
  dram_.skip(mem_ticks);
  last_core_now_ += core_cycles;
}

Cycle ClusterMemorySystem::next_event_core_cycle(Cycle core_now) const {
  if (!completions_.empty()) return core_now;
  // Anything enqueueable to DRAM acts on the very next tick.
  if (!writeback_q_.empty() && dram_.can_accept(writeback_q_.front(), /*is_write=*/true)) {
    return core_now;
  }
  if (unissued_misses_ > 0) {
    for (const auto& [line, miss] : pending_) {
      if (!miss.issued_to_dram && dram_.can_accept(line, /*is_write=*/false)) {
        return core_now;
      }
    }
  }

  const Cycle mem_event = dram_.next_event_cycle();
  if (mem_event == kNeverCycle) return kNeverCycle;
  const Cycle mem_now = dram_.now();
  if (mem_event < mem_now) return core_now;

  // The tick at core cycle core_now + (k-1) executes memory cycles up to
  // floor(mem_accum_ + k * ratio) past mem_now; find the smallest k that
  // reaches mem_event. The epsilon biases the estimate early, which is
  // safe: an early wake is a no-op tick followed by a re-estimate.
  const double need = static_cast<double>(mem_event - mem_now + 1) - mem_accum_;
  if (need <= mem_per_core_cycle_) return core_now;
  const double k = std::ceil(need / mem_per_core_cycle_ - 1e-9);
  return core_now + static_cast<Cycle>(k) - 1;
}

void ClusterMemorySystem::reset_stats() {
  stats_ = HierarchyStats{};
  dram_.reset_stats();
}

void ClusterMemorySystem::check_coherence_invariants() const {
  // Single-owner: a line Modified in some L1 must have exactly that core's
  // sharer bit and no dirty copies elsewhere. Inclusivity: every valid L1
  // line must be present in the LLC.
  for (int c = 0; c < params_.cores; ++c) {
    const CacheArray& l1d = l1d_[static_cast<std::size_t>(c)];
    auto& llc = const_cast<CacheArray&>(llc_);
    for (std::size_t set = 0; set < l1d.num_sets(); ++set) {
      for (int way = 0; way < l1d.params().associativity; ++way) {
        const CacheArray::WayRef ref{set, way};
        if (!l1d.valid(ref)) continue;
        auto lref = llc.probe(l1d.line_addr_of(ref), false);
        NTSERV_ENSURES(lref.has_value(), "inclusivity violated: L1 line absent from LLC");
        const DirEntry dir = unpack(llc.meta(*lref));
        NTSERV_ENSURES((dir.sharers >> c) & 1u, "directory lost track of a sharer");
        if (l1d.is_dirty(ref)) {
          NTSERV_ENSURES(dir.owner == c, "dirty L1 line without directory ownership");
        }
      }
    }
  }
}

}  // namespace ntserv::cache
