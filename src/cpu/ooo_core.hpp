// Cycle-level 3-way out-of-order core model (Cortex-A57 class).
//
// Matches the paper's core configuration (Sec. IV): 3-way OoO with a
// 128-entry instruction window, 32KB 2-way L1I/L1D. The model implements
// the standard trace-driven OoO decomposition:
//
//  * fetch      — up to `width` uops/cycle, gated by L1I line fetches and
//                 branch-mispredict redirects (predict-at-fetch, resolve-at-
//                 execute gating; wrong-path work is charged as stall time);
//  * dispatch   — into a circular ROB window with register renaming via
//                 dependency distances;
//  * issue      — oldest-first within the window, operand- and FU-limited.
//                 Two metric-identical schedulers: an event-driven
//                 wakeup-list (producers push wake events, cost ~ issued
//                 uops; the default) and the reference polled scan of the
//                 waiting region (CoreParams::wakeup_list = false);
//  * memory     — loads/stores through the cluster memory system with MSHR
//                 back-pressure, store-to-load forwarding, posted stores
//                 drained from a store buffer at commit;
//  * commit     — in order, up to `width`/cycle; user-instruction counting
//                 for the paper's UIPC metric.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cluster_memory.hpp"
#include "common/types.hpp"
#include "cpu/bpred.hpp"
#include "cpu/uop.hpp"

namespace ntserv::cpu {

struct FuLatencies {
  Cycle int_alu = 1;
  Cycle int_mul = 3;
  Cycle int_div = 12;  ///< unpipelined
  Cycle fp_alu = 4;
  Cycle fp_mul = 5;
  Cycle fp_div = 16;   ///< unpipelined
  Cycle branch = 1;
};

/// Default for CoreParams::wakeup_list: true unless the environment sets
/// NTSERV_WAKEUP_LIST to 0/false/off (CI uses this to matrix the whole
/// test suite over both issue schedulers so the reference path cannot rot).
[[nodiscard]] bool default_wakeup_list();

struct CoreParams {
  int width = 3;             ///< fetch/dispatch/issue/commit width
  int rob_entries = 128;     ///< the paper's 128-entry instruction window
  int load_queue = 32;
  int store_queue = 16;
  int store_buffer = 8;      ///< post-commit store buffer
  Cycle mispredict_penalty = 12;  ///< redirect-to-refill, core cycles
  Cycle forward_latency = 2;      ///< store-to-load forwarding
  FuLatencies lat;
  /// Functional-unit counts.
  int fu_int_alu = 2;
  int fu_int_muldiv = 1;
  int fu_fp = 2;
  int fu_load = 1;
  int fu_store = 1;
  int fu_branch = 1;
  BpredParams bpred;
  /// Issue scheduler. true = wakeup-list scheduling: producers push wake
  /// events to their consumers when a result's arrival cycle becomes
  /// known, and do_issue pops at most `width` ready entries per cycle —
  /// cost proportional to instructions issued. false = the reference
  /// polled scan over the waiting ROB region (O(window) per active
  /// cycle). The two are metric-identical (tests/test_perf_kernel.cpp).
  bool wakeup_list = default_wakeup_list();
};

struct CoreStats {
  std::uint64_t cycles = 0;
  std::uint64_t committed_total = 0;
  std::uint64_t committed_user = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_mispredicts = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_forwards = 0;
  std::uint64_t fetch_stall_cycles = 0;
  std::uint64_t rob_full_cycles = 0;
  std::uint64_t issued = 0;

  /// The paper's throughput metric: user instructions per cycle.
  [[nodiscard]] double uipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed_user) / static_cast<double>(cycles);
  }
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed_total) / static_cast<double>(cycles);
  }
  /// Fraction of issue slots used — the activity factor fed to the dynamic
  /// power model.
  [[nodiscard]] double issue_utilization(int width) const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(issued) /
                             (static_cast<double>(cycles) * static_cast<double>(width));
  }
};

/// One out-of-order core attached to a cluster memory system.
class OooCore {
 public:
  OooCore(CoreParams params, CoreId id, cache::ClusterMemorySystem& memory,
          UopSource& source);

  OooCore(const OooCore&) = delete;
  OooCore& operator=(const OooCore&) = delete;

  /// Advance one core cycle. The owner must call memory.tick() once per
  /// cluster cycle (not per core) and route completions via
  /// on_miss_completion().
  void tick(Cycle now);

  /// Deliver a memory-miss completion (matched by user tag).
  void on_miss_completion(std::uint64_t user_tag, Cycle done);

  /// Earliest cycle >= `now` at which tick() would do any work. Returns
  /// `now` when the core is active (the next tick fetches, issues,
  /// commits, or retries something), a later cycle when the core sleeps
  /// until a known internal timestamp (ROB wakeup, commit, redirect
  /// refill), or kNeverCycle when it is blocked purely on memory-miss
  /// completions. Drives the cluster's event-skipping kernel.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const;

  /// Account `cycles` skipped stall cycles starting at `now` (the caller
  /// verified via next_event_cycle that tick() is a no-op throughout),
  /// replicating the per-cycle stall counters the ticked path increments.
  void note_idle_cycles(Cycle now, Cycle cycles);

  /// Attach a cluster-level running commit counter, bumped on every
  /// committed uop (so the cluster never re-sums per-core stats).
  void set_commit_counter(std::uint64_t* counter) { commit_counter_ = counter; }

  /// Enable/disable the core-local event skip (the cluster wires its
  /// ClusterConfig::event_skipping flag through; off = pure ticked path).
  void set_event_skipping(bool on) { event_skipping_ = on; }

  /// True when the last tick() committed, issued, fetched, or drained
  /// anything. Cheap gate for the cluster's skip attempts.
  [[nodiscard]] bool made_progress() const { return made_progress_; }

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const GsharePredictor& predictor() const { return bpred_; }
  void reset_stats();

  [[nodiscard]] CoreId id() const { return id_; }

 private:
  enum class State : std::uint8_t { kWaiting, kIssued, kDone };

  /// Null link for the intrusive consumer lists (wakeup-list scheduler).
  static constexpr std::uint64_t kNoLink = ~std::uint64_t{0};

  struct RobEntry {
    MicroOp op;
    State state = State::kWaiting;
    Cycle ready_at = 0;     ///< valid when state != kWaiting
    bool ready_known = false;  ///< false while a miss is outstanding
    std::uint64_t seq = 0;
    bool mispredicted = false;
    /// Operand-readiness caches (polled scheduler). Readiness is monotone
    /// (an issued producer's ready_at never changes, commits only retire
    /// producers), so once proven ready it stays ready (operands_ok);
    /// until then not_before lower-bounds the next cycle worth
    /// re-examining (kNever-pinned entries are re-bounded by miss
    /// completions).
    bool operands_ok = false;
    Cycle not_before = 0;
    /// Wakeup-list scheduler state. As a producer, this entry heads an
    /// intrusive list of waiting consumers, threaded through each
    /// consumer's per-operand next_consumer link ((seq << 1) | slot
    /// encoding). As a consumer, wait_count counts producers whose result
    /// cycle is not yet known and ready_time accumulates the exact cycle
    /// all known operands have landed.
    std::uint64_t consumer_head = kNoLink;
    std::uint64_t next_consumer[2] = {kNoLink, kNoLink};
    Cycle ready_time = 0;
    std::uint8_t wait_count = 0;
  };

  /// ROB ring: the entry of `seq` lives in slot `seq & rob_mask_`; the
  /// window is [head_seq_, next_seq_).
  [[nodiscard]] RobEntry& at(std::uint64_t seq) { return rob_[seq & rob_mask_]; }
  [[nodiscard]] const RobEntry& at(std::uint64_t seq) const { return rob_[seq & rob_mask_]; }
  [[nodiscard]] std::uint64_t rob_size() const { return next_seq_ - head_seq_; }
  [[nodiscard]] bool rob_full() const {
    return rob_size() >= static_cast<std::uint64_t>(params_.rob_entries);
  }

  void do_fetch(Cycle now);
  void do_issue(Cycle now);
  void do_issue_polled(Cycle now);
  void do_issue_wakeup(Cycle now);
  void do_commit(Cycle now);
  void drain_store_buffer(Cycle now);

  /// Wakeup-list scheduler: register the just-dispatched youngest entry
  /// with its in-flight producers (or schedule its wake directly when every
  /// operand's arrival cycle is already known).
  void link_dependencies();
  /// Producer `p` just learned its ready_at: push wake events to the
  /// consumers parked on its list, scheduling any that became fully
  /// resolved.
  void wake_consumers(RobEntry& p);
  /// Queue entry `seq` to enter the ready set once `at` arrives.
  void schedule_wake(std::uint64_t seq, Cycle at);

  /// Earliest cycle the entry's operands can all be ready: <= now when
  /// ready now, kNeverCycle when gated by a miss-pending producer (the
  /// completion walk in on_miss_completion re-bounds those). Bounds from
  /// still-waiting producers propagate through their own not_before.
  [[nodiscard]] Cycle operands_ready_time(const RobEntry& e, Cycle now) const;
  [[nodiscard]] RobEntry* find_producer(std::uint64_t seq, std::uint16_t dist);
  [[nodiscard]] const RobEntry* find_producer(std::uint64_t seq, std::uint16_t dist) const;

  /// Attempt to issue one waiting entry; returns true when it issued
  /// (and so leaves the waiting index).
  bool try_issue_entry(RobEntry& e, Cycle now);

  /// Try to claim a functional unit of the uop's class; updates busy state.
  bool claim_fu(UopType type, Cycle now, Cycle* latency);

  CoreParams params_;
  CoreId id_;
  cache::ClusterMemorySystem& memory_;
  UopSource& source_;
  GsharePredictor bpred_;

  /// Fixed ring of capacity a power of two >= max(rob_entries, 64).
  std::vector<RobEntry> rob_;
  std::uint64_t rob_mask_ = 0;
  std::uint64_t head_seq_ = 0;  ///< oldest in-window seq (== next_seq_ when empty)
  std::uint64_t next_seq_ = 0;
  /// Seq of the oldest still-waiting ROB entry (== next_seq_ when none):
  /// the issue and wake-up scans start here, skipping the issued prefix
  /// that is only waiting to commit.
  std::uint64_t first_waiting_seq_ = 0;

  /// Fetch gating.
  Cycle fetch_blocked_until_ = 0;
  Addr current_fetch_line_ = ~0ull;
  bool ifetch_outstanding_ = false;
  std::optional<MicroOp> staged_;  ///< fetched but not yet dispatchable

  /// Post-commit store buffer: line addresses awaiting issue to memory.
  std::deque<std::pair<Addr, std::uint64_t>> store_buffer_;

  /// Per-FU-class pipelines: next cycle each unit is free.
  std::vector<Cycle> fu_int_alu_, fu_int_muldiv_, fu_fp_, fu_load_, fu_store_, fu_branch_;

  /// Wakeup-list scheduler queues (CoreParams::wakeup_list = true).
  struct PendingWake {
    Cycle at;           ///< exact cycle the entry's operands are all ready
    std::uint64_t seq;
  };
  /// Min-heap by `at`: the cycle-indexed wake calendar. Its minimum feeds
  /// next_event_cycle() an exact issue-side bound (tighter than the
  /// polled path's conservative re-derivation).
  std::vector<PendingWake> wake_heap_;
  /// Operand-ready waiting entries, one bit per ROB ring slot. do_issue
  /// scans it from the head slot, which is the polled scan's oldest-first
  /// order; FU-limited or memory-rejected entries stay set and retry next
  /// cycle.
  std::vector<std::uint64_t> ready_bits_;
  int ready_count_ = 0;

  int loads_in_flight_ = 0;
  /// Seqs of the in-window stores, oldest first: a ring of capacity a
  /// power of two >= store_queue, pushed at dispatch and popped at commit.
  /// Store-to-load forwarding walks it instead of the whole window.
  std::vector<std::uint64_t> store_seqs_;
  std::uint64_t store_mask_ = 0;
  std::uint64_t store_head_ = 0;
  std::uint64_t store_tail_ = 0;

  std::uint64_t* commit_counter_ = nullptr;
  bool made_progress_ = true;
  bool event_skipping_ = true;
  /// Core-local event skip: tick() proved itself a no-op until this
  /// cycle (set after a no-progress tick from next_event_cycle; capped
  /// by arriving miss completions), so ticks before it only advance the
  /// clock and stall counters. Works per core, independent of whether
  /// the rest of the cluster is busy.
  Cycle quiet_until_ = 0;
  CoreStats stats_;
};

}  // namespace ntserv::cpu
