#include "cpu/ooo_core.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>

#include "common/error.hpp"

namespace ntserv::cpu {

namespace {
constexpr std::uint64_t kTagIFetch = 1ull << 63;
constexpr std::uint64_t kTagStore = 1ull << 62;
constexpr std::uint64_t kTagMask = kTagIFetch | kTagStore;

/// Wake-calendar order (std::*_heap builds max-heaps, so the comparator
/// is inverted to get the minimum at the front).
constexpr auto wake_later = [](const auto& a, const auto& b) { return a.at > b.at; };
}  // namespace

bool default_wakeup_list() {
  static const bool value = [] {
    const char* env = std::getenv("NTSERV_WAKEUP_LIST");
    if (env == nullptr) return true;
    const std::string_view v{env};
    return !(v == "0" || v == "false" || v == "off");
  }();
  return value;
}

OooCore::OooCore(CoreParams params, CoreId id, cache::ClusterMemorySystem& memory,
                 UopSource& source)
    : params_(params), id_(id), memory_(memory), source_(source), bpred_(params.bpred) {
  NTSERV_EXPECTS(params_.width > 0, "core width must be positive");
  NTSERV_EXPECTS(params_.rob_entries >= params_.width, "ROB must hold one fetch group");
  // The wakeup-list scheduler assumes results land strictly after the
  // cycle they become known (so a wake scheduled mid-issue is never due
  // in the same cycle); every FU path already guarantees this.
  NTSERV_EXPECTS(params_.forward_latency >= 1, "forwarding must take at least one cycle");
  fu_int_alu_.assign(static_cast<std::size_t>(params_.fu_int_alu), 0);
  fu_int_muldiv_.assign(static_cast<std::size_t>(params_.fu_int_muldiv), 0);
  fu_fp_.assign(static_cast<std::size_t>(params_.fu_fp), 0);
  fu_load_.assign(static_cast<std::size_t>(params_.fu_load), 0);
  fu_store_.assign(static_cast<std::size_t>(params_.fu_store), 0);
  fu_branch_.assign(static_cast<std::size_t>(params_.fu_branch), 0);
  // At least one 64-slot word, so the ready bitmap has whole words.
  const std::uint64_t rob_slots =
      std::bit_ceil(std::max<std::uint64_t>(static_cast<std::uint64_t>(params_.rob_entries), 64));
  rob_.resize(static_cast<std::size_t>(rob_slots));
  rob_mask_ = rob_slots - 1;
  ready_bits_.assign(static_cast<std::size_t>(rob_slots / 64), 0);
  const std::uint64_t store_slots =
      std::bit_ceil(std::max<std::uint64_t>(static_cast<std::uint64_t>(params_.store_queue), 1));
  store_seqs_.resize(static_cast<std::size_t>(store_slots));
  store_mask_ = store_slots - 1;
}

void OooCore::reset_stats() {
  stats_ = CoreStats{};
  bpred_.reset_stats();
}

OooCore::RobEntry* OooCore::find_producer(std::uint64_t seq, std::uint16_t dist) {
  if (dist == 0 || seq < dist) return nullptr;
  const std::uint64_t prod_seq = seq - dist;
  if (prod_seq < head_seq_) return nullptr;  // already committed: ready
  if (prod_seq >= next_seq_) return nullptr;
  return &at(prod_seq);
}

const OooCore::RobEntry* OooCore::find_producer(std::uint64_t seq, std::uint16_t dist) const {
  return const_cast<OooCore*>(this)->find_producer(seq, dist);
}

Cycle OooCore::operands_ready_time(const RobEntry& e, Cycle now) const {
  Cycle t = 0;
  for (std::uint16_t d : e.op.src_dist) {
    const RobEntry* p = find_producer(e.seq, d);
    if (p == nullptr) continue;  // committed or no dependency
    Cycle cand;
    if (p->state == State::kWaiting) {
      // The producer itself cannot issue before its own bound, and its
      // result lands at least one cycle after it issues. Producers are
      // earlier in program order, so the issue scan has already updated
      // their bound this cycle.
      cand = p->not_before >= kNeverCycle - 1 ? kNeverCycle
                                              : std::max(p->not_before, now) + 1;
    } else if (!p->ready_known) {
      cand = kNeverCycle;  // miss-pending: re-bounded on completion
    } else {
      cand = p->ready_at;
    }
    t = std::max(t, cand);
  }
  return t;
}

bool OooCore::claim_fu(UopType type, Cycle now, Cycle* latency) {
  auto claim = [&](std::vector<Cycle>& units, Cycle lat, bool pipelined) {
    for (auto& free_at : units) {
      if (free_at <= now) {
        free_at = pipelined ? now + 1 : now + lat;
        *latency = lat;
        return true;
      }
    }
    return false;
  };
  const auto& lat = params_.lat;
  switch (type) {
    case UopType::kIntAlu: return claim(fu_int_alu_, lat.int_alu, true);
    case UopType::kIntMul: return claim(fu_int_muldiv_, lat.int_mul, true);
    case UopType::kIntDiv: return claim(fu_int_muldiv_, lat.int_div, false);
    case UopType::kFpAlu: return claim(fu_fp_, lat.fp_alu, true);
    case UopType::kFpMul: return claim(fu_fp_, lat.fp_mul, true);
    case UopType::kFpDiv: return claim(fu_fp_, lat.fp_div, false);
    case UopType::kLoad: return claim(fu_load_, 0, true);
    case UopType::kStore: return claim(fu_store_, 1, true);
    case UopType::kBranch: return claim(fu_branch_, lat.branch, true);
  }
  return false;
}

void OooCore::do_fetch(Cycle now) {
  if (ifetch_outstanding_ || now < fetch_blocked_until_) {
    ++stats_.fetch_stall_cycles;
    return;
  }
  for (int slot = 0; slot < params_.width; ++slot) {
    if (rob_full()) {
      ++stats_.rob_full_cycles;
      return;
    }
    if (!staged_) staged_ = source_.next();
    const MicroOp& op = *staged_;

    // Load/store queue occupancy.
    if (op.type == UopType::kLoad && loads_in_flight_ >= params_.load_queue) return;
    if (op.type == UopType::kStore &&
        store_tail_ - store_head_ >= static_cast<std::uint64_t>(params_.store_queue)) {
      return;
    }

    // Instruction-side: crossing into a new cache line costs an L1I access.
    const Addr fetch_line = line_base(op.pc);
    if (fetch_line != current_fetch_line_) {
      const auto ticket = memory_.access(id_, op.pc, cache::AccessType::kIFetch,
                                         kTagIFetch | (next_seq_ & ~kTagMask), now);
      switch (ticket.status) {
        case cache::AccessTicket::Status::kHit:
          current_fetch_line_ = fetch_line;
          // Pipelined L1I hits do not bubble; anything slower (line served
          // by the LLC) stalls fetch until it lands.
          if (ticket.complete_at > now + params_.lat.int_alu + 2) {
            fetch_blocked_until_ = ticket.complete_at;
            return;
          }
          break;
        case cache::AccessTicket::Status::kMiss:
          ifetch_outstanding_ = true;
          current_fetch_line_ = fetch_line;
          return;
        case cache::AccessTicket::Status::kRejected:
          return;  // retry next cycle
      }
    }

    RobEntry& e = at(next_seq_);
    e = RobEntry{};
    e.op = op;
    e.seq = next_seq_++;
    staged_.reset();

    if (e.op.type == UopType::kBranch) {
      ++stats_.branches;
      const bool predicted = bpred_.predict(e.op.pc);
      bpred_.update(e.op.pc, e.op.branch_taken);
      if (predicted != e.op.branch_taken) {
        e.mispredicted = true;
        ++stats_.branch_mispredicts;
      }
    }
    if (e.op.type == UopType::kLoad) ++loads_in_flight_;
    if (e.op.type == UopType::kStore) store_seqs_[store_tail_++ & store_mask_] = e.seq;

    if (params_.wakeup_list) link_dependencies();
    if (e.mispredicted) {
      // Mispredict redirect: the front end refetches from the correct
      // target after a fixed pipeline-refill bubble. (Trace-driven model:
      // wrong-path work is charged as this bubble rather than simulated —
      // the OoO backend continues draining real work meanwhile, as a
      // speculative core's correct-path instructions would.)
      fetch_blocked_until_ = now + params_.mispredict_penalty;
      return;
    }
  }
}

bool OooCore::try_issue_entry(RobEntry& e, Cycle now) {
  if (e.op.type == UopType::kLoad) {
    // Store-to-load forwarding: youngest older store to the same word.
    for (std::uint64_t i = store_tail_; i-- > store_head_;) {
      const std::uint64_t s = store_seqs_[i & store_mask_];
      if (s >= e.seq) continue;  // younger than the load
      const RobEntry& older = at(s);
      if (older.state == State::kWaiting) continue;  // address unknown
      if ((older.op.mem_addr & ~7ull) == (e.op.mem_addr & ~7ull)) {
        e.state = State::kIssued;
        e.ready_known = true;
        e.ready_at = now + params_.forward_latency;
        ++stats_.load_forwards;
        ++stats_.issued;
        if (params_.wakeup_list) wake_consumers(e);
        return true;
      }
    }

    Cycle lat = 0;
    if (!claim_fu(UopType::kLoad, now, &lat)) return false;
    const auto ticket =
        memory_.access(id_, e.op.mem_addr, cache::AccessType::kLoad, e.seq, now);
    if (ticket.status == cache::AccessTicket::Status::kRejected) return false;
    e.state = State::kIssued;
    if (ticket.status == cache::AccessTicket::Status::kHit) {
      e.ready_known = true;
      e.ready_at = ticket.complete_at;
      if (params_.wakeup_list) wake_consumers(e);
    } else {
      e.ready_known = false;  // consumers stay parked until the completion
    }
    ++stats_.issued;
    return true;
  }

  Cycle lat = 0;
  if (!claim_fu(e.op.type, now, &lat)) return false;
  e.state = State::kIssued;
  e.ready_known = true;
  e.ready_at = now + std::max<Cycle>(lat, 1);
  ++stats_.issued;
  if (params_.wakeup_list) wake_consumers(e);
  return true;
}

void OooCore::schedule_wake(std::uint64_t seq, Cycle at) {
  wake_heap_.push_back(PendingWake{at, seq});
  std::push_heap(wake_heap_.begin(), wake_heap_.end(), wake_later);
}

void OooCore::link_dependencies() {
  RobEntry& e = at(next_seq_ - 1);
  for (int s = 0; s < 2; ++s) {
    const std::uint16_t d = e.op.src_dist[s];
    if (d == 0) continue;
    RobEntry* p = find_producer(e.seq, d);
    if (p == nullptr) continue;  // producer already committed: ready
    if (p->state != State::kWaiting && p->ready_known) {
      e.ready_time = std::max(e.ready_time, p->ready_at);
    } else {
      // Producer's result cycle unknown (not yet issued, or miss
      // outstanding): park on its consumer list until it is.
      e.next_consumer[s] = p->consumer_head;
      p->consumer_head = (e.seq << 1) | static_cast<std::uint64_t>(s);
      ++e.wait_count;
    }
  }
  if (e.wait_count == 0) schedule_wake(e.seq, e.ready_time);
}

void OooCore::wake_consumers(RobEntry& p) {
  std::uint64_t link = p.consumer_head;
  if (link == kNoLink) return;
  p.consumer_head = kNoLink;
  while (link != kNoLink) {
    const std::uint64_t seq = link >> 1;
    const int slot = static_cast<int>(link & 1);
    RobEntry& c = at(seq);
    link = c.next_consumer[slot];
    c.next_consumer[slot] = kNoLink;
    c.ready_time = std::max(c.ready_time, p.ready_at);
    if (--c.wait_count == 0) schedule_wake(seq, c.ready_time);
  }
}

void OooCore::do_issue_wakeup(Cycle now) {
  // Calendar drain: mark every entry whose wake event has come due as
  // ready. `at` stamps are exact, so no re-evaluation.
  while (!wake_heap_.empty() && wake_heap_.front().at <= now) {
    const std::uint64_t slot = wake_heap_.front().seq & rob_mask_;
    ready_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++ready_count_;
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), wake_later);
    wake_heap_.pop_back();
  }
  if (ready_count_ == 0) return;

  // Try ready entries oldest-first (ring order from the head slot) until
  // `width` issue: exactly the polled scan's order and cutoff. FU-limited
  // or memory-rejected entries stay set and retry next cycle. Words are
  // visited from the head's word round to it again, the first visit
  // masked to slots at or after the head, the last to slots before it.
  const std::size_t words = ready_bits_.size();
  const std::uint64_t head_slot = head_seq_ & rob_mask_;
  const std::size_t head_word = static_cast<std::size_t>(head_slot >> 6);
  const std::uint64_t before_head = (std::uint64_t{1} << (head_slot & 63)) - 1;
  int issued = 0;
  for (std::size_t n = 0; n <= words; ++n) {
    const std::size_t wi = (head_word + n) & (words - 1);
    std::uint64_t bits = ready_bits_[wi];
    if (n == 0) bits &= ~before_head;
    if (n == words) bits &= before_head;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      if (!try_issue_entry(rob_[wi * 64 + static_cast<std::size_t>(b)], now)) continue;
      ready_bits_[wi] &= ~(std::uint64_t{1} << b);
      --ready_count_;
      if (++issued == params_.width) return;
    }
  }
}

void OooCore::do_issue(Cycle now) {
  if (params_.wakeup_list) {
    do_issue_wakeup(now);
  } else {
    do_issue_polled(now);
  }
}

void OooCore::do_issue_polled(Cycle now) {
  if (rob_size() == 0) return;
  int issued = 0;
  std::uint64_t first_still_waiting = next_seq_;
  bool have_first = false;
  for (std::uint64_t seq = std::max(first_waiting_seq_, head_seq_); seq < next_seq_; ++seq) {
    RobEntry& e = at(seq);
    if (issued >= params_.width) {
      if (!have_first) first_still_waiting = e.seq;  // unscanned tail starts here
      have_first = true;
      break;
    }
    if (e.state != State::kWaiting) continue;
    bool still_waiting = true;
    if (e.operands_ok) {
      still_waiting = !try_issue_entry(e, now);
    } else if (now < e.not_before) {
      // cached: operands provably not ready yet
    } else {
      const Cycle ready = operands_ready_time(e, now);
      if (ready > now) {
        e.not_before = ready;  // valid until a completion re-bounds it
      } else {
        e.operands_ok = true;  // readiness is monotone: never re-walk
        still_waiting = !try_issue_entry(e, now);
      }
    }
    if (!still_waiting) {
      ++issued;
    } else if (!have_first) {
      first_still_waiting = e.seq;
      have_first = true;
    }
  }
  first_waiting_seq_ = first_still_waiting;
}

void OooCore::do_commit(Cycle now) {
  for (int n = 0; n < params_.width && rob_size() != 0; ++n) {
    RobEntry& head = at(head_seq_);
    if (head.state != State::kIssued || !head.ready_known || head.ready_at > now) return;

    if (head.op.type == UopType::kStore) {
      if (store_buffer_.size() >= static_cast<std::size_t>(params_.store_buffer)) return;
      store_buffer_.emplace_back(head.op.mem_addr,
                                 kTagStore | (head.seq & ~kTagMask));
      ++store_head_;
      ++stats_.stores;
    }
    if (head.op.type == UopType::kLoad) {
      --loads_in_flight_;
      ++stats_.loads;
    }
    ++stats_.committed_total;
    if (commit_counter_ != nullptr) ++*commit_counter_;
    if (head.op.is_user) ++stats_.committed_user;
    ++head_seq_;
  }
}

void OooCore::drain_store_buffer(Cycle now) {
  if (store_buffer_.empty()) return;
  const auto [addr, tag] = store_buffer_.front();
  const auto ticket = memory_.access(id_, addr, cache::AccessType::kStore, tag, now);
  if (ticket.status != cache::AccessTicket::Status::kRejected) {
    store_buffer_.pop_front();  // posted: completion not awaited
  }
}

void OooCore::on_miss_completion(std::uint64_t user_tag, Cycle done) {
  if (user_tag & kTagIFetch) {
    ifetch_outstanding_ = false;
    fetch_blocked_until_ = std::max(fetch_blocked_until_, done);
    quiet_until_ = std::min(quiet_until_, done);
    return;
  }
  if (user_tag & kTagStore) return;  // posted store echo
  quiet_until_ = std::min(quiet_until_, done);

  if (user_tag < head_seq_ || user_tag >= next_seq_) return;
  RobEntry& e = at(user_tag);
  NTSERV_ENSURES(e.seq == user_tag, "ROB sequence bookkeeping corrupt");
  e.ready_known = true;
  e.ready_at = done;
  if (params_.wakeup_list) {
    // The completion wakes exactly the consumers parked on this load's
    // list (the polled path instead re-bounds every waiting entry,
    // including ones pinned by *other* pending misses).
    wake_consumers(e);
    return;
  }
  // Re-bound operand caches pinned on pending misses: dependents of this
  // load can become ready from `done` on. Entries before the first
  // waiting seq are not waiting, so start the walk there.
  for (std::uint64_t seq = std::max(first_waiting_seq_, head_seq_); seq < next_seq_; ++seq) {
    RobEntry& w = at(seq);
    if (w.state == State::kWaiting && w.not_before > done) w.not_before = done;
  }
}

void OooCore::tick(Cycle now) {
  ++stats_.cycles;
  if (event_skipping_ && now < quiet_until_) {
    // Proven no-op tick: only the clock and the stall counters advance
    // (same bookkeeping the full pipeline walk would have done).
    if (ifetch_outstanding_ || fetch_blocked_until_ > now) {
      ++stats_.fetch_stall_cycles;
    } else if (rob_full()) {
      ++stats_.rob_full_cycles;
    }
    made_progress_ = false;
    return;
  }
  const std::uint64_t committed0 = stats_.committed_total;
  const std::uint64_t issued0 = stats_.issued;
  const std::uint64_t seq0 = next_seq_;
  const std::size_t sb0 = store_buffer_.size();
  do_commit(now);
  drain_store_buffer(now);
  do_issue(now);
  do_fetch(now);
  made_progress_ = stats_.committed_total != committed0 || stats_.issued != issued0 ||
                   next_seq_ != seq0 || store_buffer_.size() != sb0;
  if (event_skipping_ && !made_progress_) quiet_until_ = next_event_cycle(now + 1);
}

Cycle OooCore::next_event_cycle(Cycle now) const {
  // A previously proven quiet window is itself a (conservative) bound.
  if (now < quiet_until_) return quiet_until_;

  // The store buffer retries memory every cycle until accepted.
  if (!store_buffer_.empty()) return now;

  Cycle next = kNeverCycle;

  // Commit: the head retires at its completion stamp.
  if (rob_size() != 0) {
    const RobEntry& head = at(head_seq_);
    if (head.state == State::kIssued && head.ready_known) {
      if (head.ready_at <= now) return now;
      next = std::min(next, head.ready_at);
    }
  }

  // Issue: earliest operand-readiness among waiting entries. An entry
  // whose operands are already ready must tick every cycle (it may be
  // FU-limited or memory-rejected and retries).
  if (params_.wakeup_list) {
    // The wake calendar holds the *exact* arrival cycle of every fully
    // resolved waiting entry, so the bound is tight, not conservative.
    // Entries still parked on a producer wake either with that producer
    // (whose own event is covered here or by the memory system) or with
    // a miss completion, which caps quiet_until_.
    if (ready_count_ != 0) return now;  // ready: may be FU-limited, must tick
    if (!wake_heap_.empty()) {
      const Cycle at = wake_heap_.front().at;
      if (at <= now) return now;
      next = std::min(next, at);
    }
  } else {
    // Polled reference: conservative re-derivation over the waiting
    // region (kNever-bounded entries wake via a miss completion, which
    // caps quiet_until_).
    for (std::uint64_t seq = std::max(first_waiting_seq_, head_seq_); seq < next_seq_; ++seq) {
      const RobEntry& e = at(seq);
      if (e.state != State::kWaiting) continue;
      if (e.operands_ok) return now;  // ready: may be FU-limited, must tick
      Cycle ready = e.not_before;
      if (ready <= now) {
        ready = operands_ready_time(e, now);
        if (ready <= now) return now;
      }
      if (ready != kNeverCycle) next = std::min(next, ready);
    }
  }

  // Fetch: live every cycle unless hard-blocked. Structural gates (ROB,
  // load/store queue) release at commit, which the head term covers.
  if (!ifetch_outstanding_) {
    if (fetch_blocked_until_ > now) {
      next = std::min(next, fetch_blocked_until_);
    } else if (rob_full()) {
      // ROB-full: wakes with commit.
    } else if (staged_ && staged_->type == UopType::kLoad &&
               loads_in_flight_ >= params_.load_queue) {
      // Load-queue-full: wakes with commit.
    } else if (staged_ && staged_->type == UopType::kStore &&
               store_tail_ - store_head_ >= static_cast<std::uint64_t>(params_.store_queue)) {
      // Store-queue-full: wakes with commit.
    } else {
      return now;
    }
  }
  return next;
}

void OooCore::note_idle_cycles(Cycle now, Cycle cycles) {
  stats_.cycles += cycles;
  // Replicate do_fetch's per-cycle stall accounting. The caller never
  // skips across fetch_blocked_until_, so the gate is constant over the
  // whole window.
  if (ifetch_outstanding_ || fetch_blocked_until_ > now) {
    stats_.fetch_stall_cycles += cycles;
  } else if (rob_full()) {
    stats_.rob_full_cycles += cycles;
  }
}

}  // namespace ntserv::cpu
