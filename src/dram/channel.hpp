// One DDR4 channel: banks, ranks, timing-constraint tracking and the
// command scheduler. This is the core of the DRAMSim2-equivalent substrate.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "dram/address_map.hpp"
#include "dram/ddr4_params.hpp"

namespace ntserv::dram {

/// A memory transaction as seen by the DRAM system (line granularity).
struct MemRequest {
  std::uint64_t id = 0;
  Addr line_addr = 0;
  bool is_write = false;
  Cycle arrival = 0;  ///< memory-clock cycle of enqueue
};

/// Completion notification for a read (writes are posted).
struct MemResponse {
  std::uint64_t id = 0;
  Cycle completion = 0;  ///< memory-clock cycle data is available
};

/// Aggregate statistics for one channel.
struct ChannelStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;     ///< bank was precharged (ACT needed)
  std::uint64_t row_conflicts = 0;  ///< wrong row open (PRE + ACT needed)
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  std::uint64_t read_latency_sum = 0;  ///< enqueue -> data, memory cycles
  std::uint64_t read_count = 0;
  std::uint64_t forwarded_reads = 0;  ///< reads served from the write queue

  [[nodiscard]] double row_hit_rate() const {
    const auto total = row_hits + row_misses + row_conflicts;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(total);
  }
  [[nodiscard]] double avg_read_latency() const {
    return read_count == 0 ? 0.0
                           : static_cast<double>(read_latency_sum) /
                                 static_cast<double>(read_count);
  }
};

/// Cycle-level model of one DDR4 channel with its ranks and banks.
class Channel {
 public:
  Channel(const DramConfig& config, const AddressMapper& mapper);

  /// True when the appropriate queue can take one more request.
  [[nodiscard]] bool can_accept(bool is_write) const;

  /// Enqueue a request; caller must have checked can_accept.
  void enqueue(const MemRequest& req, Cycle now);

  /// Advance one memory-clock cycle: issue at most one command, retire
  /// finished reads into the completion list. Returns true when the
  /// channel did anything (the cluster's skip gate).
  bool tick(Cycle now);

  /// Allocation-free drain: append completions to `out` and clear.
  void drain_completions_into(std::vector<MemResponse>& out);

  /// Earliest memory cycle >= `from` at which this channel might act
  /// (issue a command, retire a burst, or start a refresh). Returning
  /// `from` means the channel is active right now; the bound is
  /// conservative (never later than the true next event), so the
  /// event-skipping kernel may wake early but never misses an event.
  [[nodiscard]] Cycle next_event_cycle(Cycle from) const;

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t read_queue_size() const { return read_q_.size(); }
  [[nodiscard]] std::size_t write_queue_size() const { return write_q_.size(); }
  [[nodiscard]] bool idle() const {
    return read_q_.empty() && write_q_.empty() && in_flight_.empty();
  }

 private:
  struct Bank {
    bool active = false;
    std::uint32_t open_row = 0;
    Cycle next_act = 0;
    Cycle next_pre = 0;
    Cycle next_cas = 0;  ///< earliest RD/WR to this bank (post-ACT)
  };

  struct Rank {
    std::vector<Bank> banks;
    /// tFAW: each of the last four ACTs' stamp + tFAW, oldest at
    /// faw_head (zero until four ACTs have issued, which gates nothing).
    std::array<Cycle, 4> faw_ring{};
    std::uint8_t faw_head = 0;
    /// Bank summary kept on every state change, so the event bound and
    /// the refresh pass need not scan the banks: the number of open
    /// banks, and the max of every bank's next_act (exact as a running
    /// max, since a bank's next_act only grows).
    int active_banks = 0;
    Cycle max_next_act = 0;
    Cycle next_refresh_due = 0;
    Cycle busy_until = 0;  ///< tRFC window after REF
    Cycle next_rd = 0;     ///< rank-level read gating (tWTR etc.)
    Cycle next_wr = 0;
    /// tRRD gates kept at rank level instead of broadcast into every
    /// bank's next_act on each ACT: earliest next ACT to any bank
    /// (tRRD_S) and to each bank group (tRRD_L).
    Cycle next_act_any = 0;
    std::vector<Cycle> group_next_act;
  };

  struct Pending {
    MemRequest req;
    DramCoord coord;
    /// The request needed a bank-state change (ACT/PRE): its eventual CAS
    /// is not a row-buffer hit.
    bool needed_act = false;
  };

  // Scheduler passes.
  bool try_refresh(Cycle now);
  bool try_issue_cas(std::deque<Pending>& q, bool is_write, Cycle now);
  bool try_issue_activate_or_precharge(std::deque<Pending>& q, Cycle now);

  [[nodiscard]] bool cas_ready(const Pending& p, bool is_write, Cycle now) const;
  void do_activate(const DramCoord& c, Cycle now);
  void do_precharge(const DramCoord& c, Cycle now);
  /// Close an open bank (explicit or auto-precharge): no ACT before `act_ready`.
  void close_bank(Rank& rank, Bank& bank, Cycle act_ready);
  void do_cas(const Pending& p, bool is_write, Cycle now);

  [[nodiscard]] Cycle act_allowed_at(const Rank& r, const DramCoord& c) const;

  const DramConfig& config_;
  const AddressMapper& mapper_;
  std::vector<Rank> ranks_;

  std::deque<Pending> read_q_;
  std::deque<Pending> write_q_;
  /// Line -> occurrence count over write_q_, for O(1) write-forwarding
  /// lookups in enqueue (replaces the linear write-queue scan).
  std::unordered_map<Addr, int> write_lines_;
  bool draining_writes_ = false;

  /// The write-drain direction tick() would settle on given the current
  /// queue sizes (the hysteresis update is a one-step fixed point).
  [[nodiscard]] bool effective_draining_writes() const;

  /// Reads whose data burst is in flight: (request, completion time).
  struct InFlight {
    std::uint64_t id;
    Cycle arrival;
    Cycle done;
  };
  std::vector<InFlight> in_flight_;
  std::vector<MemResponse> completions_;

  /// Channel-local event skip: tick() proved itself a no-op until this
  /// cycle (recomputed after every idle tick; cleared on enqueue).
  Cycle quiet_until_ = 0;

  Cycle data_bus_free_ = 0;  ///< first cycle the data bus is free
  int last_cas_rank_ = -1;   ///< for tRTRS rank-switch penalty
  Cycle next_cas_same_group_ = 0;
  Cycle next_cas_other_group_ = 0;
  int last_cas_group_ = -1;

  ChannelStats stats_;
};

}  // namespace ntserv::dram
