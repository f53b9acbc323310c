#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <set>

#include "common/rng.hpp"
#include "dram/dram_system.hpp"

namespace ntserv::dram {
namespace {

/// Drive the system until idle or `limit` cycles; collect completions.
std::vector<MemResponse> drain(DramSystem& mem, Cycle limit = 200000) {
  std::vector<MemResponse> all;
  for (Cycle c = 0; c < limit && !mem.idle(); ++c) {
    mem.tick();
    auto part = mem.drain_completions();
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

TEST(Dram, SingleReadLatencyBounds) {
  DramSystem mem;
  ASSERT_TRUE(mem.enqueue(1, 0x1000, false));
  const auto done = drain(mem);
  ASSERT_EQ(done.size(), 1u);
  const auto& t = mem.config().timing;
  // Closed bank: at least ACT + tRCD + CL + burst.
  EXPECT_GE(done[0].completion, static_cast<Cycle>(t.trcd + t.cl + t.burst_cycles()));
  EXPECT_LE(done[0].completion, 100u);
}

TEST(Dram, AllRequestsComplete) {
  DramSystem mem;
  Xoshiro256StarStar rng{17};
  std::set<std::uint64_t> outstanding;
  std::uint64_t id = 0;
  std::vector<MemResponse> done;
  for (Cycle c = 0; c < 100000; ++c) {
    if (c % 5 == 0 && id < 5000) {
      const Addr a = rng.uniform_below(1ull << 28) & ~63ull;
      const bool wr = rng.bernoulli(0.3);
      if (mem.enqueue(id, a, wr)) {
        if (!wr) outstanding.insert(id);
        ++id;
      }
    }
    mem.tick();
    for (const auto& r : mem.drain_completions()) {
      EXPECT_TRUE(outstanding.erase(r.id)) << "spurious completion " << r.id;
    }
  }
  auto rest = drain(mem);
  for (const auto& r : rest) outstanding.erase(r.id);
  EXPECT_TRUE(outstanding.empty());
  EXPECT_TRUE(mem.idle());
}

TEST(Dram, CompletionsAreMonotonicInTime) {
  DramSystem mem;
  std::uint64_t id = 0;
  Cycle last = 0;
  for (Cycle c = 0; c < 20000; ++c) {
    if (c % 11 == 0) {
      (void)mem.enqueue(id, (id * 4096 + 4096) & ((1ull << 28) - 1), false);
      ++id;
    }
    mem.tick();
    for (const auto& r : mem.drain_completions()) {
      EXPECT_GE(r.completion, last);
      last = r.completion;
    }
  }
}

TEST(Dram, RowHitsForSequentialTraffic) {
  // Default mapping places the column right above the channel bits:
  // consecutive lines on one channel fill a row.
  DramSystem mem;
  std::uint64_t id = 0;
  // March through one row's worth of lines on one channel.
  for (int i = 0; i < 64; ++i) {
    while (!mem.enqueue(id, static_cast<Addr>(i) * 64 * 4 /*stay on channel 0*/, false)) {
      mem.tick();
    }
    ++id;
  }
  drain(mem);
  EXPECT_GT(mem.stats().row_hit_rate, 0.8);
}

TEST(Dram, RandomTrafficHasLowerRowHitRate) {
  DramSystem seq, rnd;
  Xoshiro256StarStar rng{23};
  std::uint64_t id = 0;
  for (int i = 0; i < 2000; ++i) {
    while (!seq.enqueue(id, static_cast<Addr>(i) * 64, false)) seq.tick();
    const Addr a = rng.uniform_below(1ull << 30) & ~63ull;
    while (!rnd.enqueue(id, a, false)) rnd.tick();
    ++id;
  }
  drain(seq);
  drain(rnd);
  EXPECT_GT(seq.stats().row_hit_rate, rnd.stats().row_hit_rate);
}

TEST(Dram, RefreshHappensAtTrefiRate) {
  DramSystem mem;
  const Cycle cycles = 100000;
  for (Cycle c = 0; c < cycles; ++c) mem.tick();
  const auto expected = cycles / mem.config().timing.trefi *
                        static_cast<Cycle>(mem.config().geometry.total_ranks());
  EXPECT_NEAR(static_cast<double>(mem.stats().refreshes), static_cast<double>(expected),
              static_cast<double>(expected) * 0.15);
}

TEST(Dram, BandwidthApproachesPeakForStreaming) {
  DramSystem mem;
  std::uint64_t id = 0;
  Addr a = 0;
  std::uint64_t reads = 0;
  const Cycle cycles = 50000;
  for (Cycle c = 0; c < cycles; ++c) {
    // Saturate: offer sequential lines to all channels every cycle.
    for (int k = 0; k < 4; ++k) {
      if (mem.enqueue(id, a, false)) {
        ++id;
        a += 64;
      }
    }
    mem.tick();
    reads += mem.drain_completions().size();
  }
  // Peak data bus: 4 channels x 1 line per 4 cycles = 1 line/cycle.
  const double utilization = static_cast<double>(reads) / static_cast<double>(cycles);
  EXPECT_GT(utilization, 0.7);
}

TEST(Dram, WriteDrainHysteresis) {
  DramSystem mem;
  std::uint64_t id = 0;
  // Fill the write queue of channel 0 beyond the high watermark.
  int accepted = 0;
  for (int i = 0; i < 800; ++i) {
    if (mem.enqueue(id++, static_cast<Addr>(i) * 64 * 4, true)) ++accepted;
    mem.tick();
  }
  drain(mem);
  EXPECT_EQ(static_cast<std::uint64_t>(accepted), mem.stats().writes);
  EXPECT_GT(mem.stats().writes, 100u);
}

TEST(Dram, QueueBackpressure) {
  DramConfig cfg;
  cfg.read_queue_depth = 4;
  DramSystem mem{cfg};
  int accepted = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (mem.enqueue(i, i * 64 * 4, false)) ++accepted;  // all to channel 0
  }
  EXPECT_LE(accepted, 4 + 1);  // queue depth (plus possible same-cycle issue)
}

TEST(Dram, ForwardingFromWriteQueue) {
  DramSystem mem;
  ASSERT_TRUE(mem.enqueue(1, 0x40000, true));
  ASSERT_TRUE(mem.enqueue(2, 0x40000, false));  // read of the queued write
  bool got = false;
  for (Cycle c = 0; c < 1000 && !got; ++c) {
    mem.tick();
    for (const auto& r : mem.drain_completions()) {
      if (r.id == 2) {
        got = true;
        EXPECT_LE(r.completion, 4u);  // served from the queue, near-instant
      }
    }
  }
  EXPECT_TRUE(got);
}

class SchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerTest, CompletesMixedTraffic) {
  DramConfig cfg;
  cfg.scheduler = GetParam();
  DramSystem mem{cfg};
  Xoshiro256StarStar rng{29};
  std::uint64_t id = 0, issued_reads = 0, completed = 0;
  for (Cycle c = 0; c < 60000; ++c) {
    if (c % 6 == 0) {
      const bool wr = rng.bernoulli(0.25);
      if (mem.enqueue(id, rng.uniform_below(1ull << 29) & ~63ull, wr)) {
        if (!wr) ++issued_reads;
        ++id;
      }
    }
    mem.tick();
    completed += mem.drain_completions().size();
  }
  completed += drain(mem).size();
  EXPECT_EQ(completed, issued_reads);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SchedulerTest,
                         ::testing::Values(SchedulerKind::kFrFcfs, SchedulerKind::kFcfs),
                         [](const auto& info) {
                           return info.param == SchedulerKind::kFrFcfs ? "FrFcfs" : "Fcfs";
                         });

TEST(Dram, FrFcfsBeatsFcfsOnRowLocality) {
  auto run = [](SchedulerKind kind) {
    DramConfig cfg;
    cfg.scheduler = kind;
    DramSystem mem{cfg};
    Xoshiro256StarStar rng{31};
    std::uint64_t id = 0;
    Cycle busy = 0;
    // Interleave two row-local streams with random disturbers.
    for (Cycle c = 0; c < 30000; ++c) {
      if (c % 3 == 0) {
        Addr a;
        if (rng.bernoulli(0.7)) {
          a = (id % 128) * 64 * 4;  // row-local
        } else {
          a = rng.uniform_below(1ull << 29) & ~63ull;
        }
        (void)mem.enqueue(id++, a, false);
      }
      mem.tick();
      (void)mem.drain_completions();
      ++busy;
    }
    return mem.stats().avg_read_latency_cycles;
  };
  EXPECT_LE(run(SchedulerKind::kFrFcfs), run(SchedulerKind::kFcfs) * 1.05);
}

TEST(Dram, ClosedPagePolicyWorks) {
  DramConfig cfg;
  cfg.page_policy = PagePolicy::kClosed;
  DramSystem mem{cfg};
  std::uint64_t id = 0;
  for (int i = 0; i < 500; ++i) {
    while (!mem.enqueue(id, static_cast<Addr>(i) * 64, false)) mem.tick();
    ++id;
  }
  const auto done = drain(mem);
  EXPECT_EQ(done.size(), 500u);
  // Every access precharges: no row hits.
  EXPECT_LT(mem.stats().row_hit_rate, 0.05);
}

TEST(Dram, StatsResetReportsDeltas) {
  DramSystem mem;
  std::uint64_t id = 0;
  for (int i = 0; i < 100; ++i) {
    while (!mem.enqueue(id, static_cast<Addr>(i) * 4096, false)) mem.tick();
    ++id;
  }
  drain(mem);
  EXPECT_EQ(mem.stats().reads, 100u);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().reads, 0u);
  while (!mem.enqueue(id, 0x123400, false)) mem.tick();
  drain(mem);
  EXPECT_EQ(mem.stats().reads, 1u);
}

TEST(Dram, ConfigValidation) {
  DramConfig cfg;
  cfg.write_drain_low_watermark = 30;
  cfg.write_drain_high_watermark = 20;
  EXPECT_THROW(DramSystem{cfg}, ModelError);
  cfg = DramConfig{};
  cfg.geometry.channels = 0;
  EXPECT_THROW(DramSystem{cfg}, ModelError);
}

TEST(Dram, Lpddr4TimingSlower) {
  const auto ddr4 = Ddr4Timing::ddr4_1600();
  const auto lp = Ddr4Timing::lpddr4_1600();
  EXPECT_GT(lp.cl, ddr4.cl);
  EXPECT_GT(lp.trcd, ddr4.trcd);
  EXPECT_EQ(lp.clock().value(), ddr4.clock().value());
}

// ---------------------------------------------------------------------------
// Channel-level differential test of event skipping: the same traffic run
// once ticking every memory cycle with the channels' quiet windows off,
// and once skipping straight to the next channel event after every tick,
// must give the same completion stream and the same channel counters.
// A pinned digest per case (recorded with the full rank x bank rescan
// bound) also holds the results to the recorded ones, so a change that
// moves both legs alike (say, a refresh let out before tRP) fails too.

/// One request of the differential traffic, offered at cycle `at`.
struct Scheduled {
  Cycle at;
  std::uint64_t id;
  Addr line_addr;
  bool is_write;
};

/// Twelve rounds of a burst that overfills both queues of two channels (a
/// few rows per bank, so row hits, misses and conflicts all occur)
/// followed by an idle gap of 2-4 tREFI holding three lone requests, so
/// refreshes come due while the channels sleep.
std::vector<Scheduled> bursty_traffic(const DramConfig& cfg, std::uint64_t seed) {
  const AddressMapper mapper{cfg.geometry, cfg.mapping};
  const auto& g = cfg.geometry;
  Xoshiro256StarStar rng{seed};
  auto line = [&](int channel) {
    DramCoord c;
    c.channel = channel;
    c.rank = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(g.ranks_per_channel)));
    c.bank_group = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(g.bank_groups)));
    c.bank = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(g.banks_per_group)));
    c.flat = c.flat_bank(g);
    c.row = static_cast<std::uint32_t>(rng.uniform_below(3));
    c.column = static_cast<std::uint32_t>(rng.uniform_below(g.lines_per_row));
    return mapper.encode(c);
  };
  std::vector<Scheduled> out;
  std::uint64_t id = 0;
  Cycle t = 100;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 160; ++i) out.push_back({t + i / 4, id++, line(i % 2), rng.bernoulli(0.5)});
    t += 40;
    // Random phase against the refresh grid, so some bursts are still
    // queued when their ranks' refresh falls due.
    const Cycle gap = 2 * cfg.timing.trefi + rng.uniform_below(2 * cfg.timing.trefi);
    for (int k = 0; k < 3; ++k) {
      out.push_back({t + rng.uniform_below(gap), id++, line(k % g.channels), rng.bernoulli(0.3)});
    }
    t += gap;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Scheduled& a, const Scheduled& b) { return a.at < b.at; });
  return out;
}

struct DrivenRun {
  std::vector<MemResponse> done;
  Cycle ticks = 0;                   ///< tick() calls made
  std::uint64_t woken_refreshes = 0;  ///< REFs issued on the tick right after a skip
};

/// Offer `traffic` in order (a refused request holds back the ones behind
/// it until its channel frees a slot) and run the memory clock to `end`.
/// With `skipping`, every tick is followed by a skip to the earlier of
/// the next channel event and the next enqueue attempt.
DrivenRun drive(DramSystem& mem, const std::vector<Scheduled>& traffic, Cycle end, bool skipping) {
  DrivenRun run;
  std::size_t next = 0;
  bool skipped = false;
  while (mem.now() < end) {
    while (next < traffic.size() && traffic[next].at <= mem.now() &&
           mem.enqueue(traffic[next].id, traffic[next].line_addr, traffic[next].is_write)) {
      ++next;
    }
    const auto refreshes = mem.stats().refreshes;
    mem.tick();
    ++run.ticks;
    if (skipped && mem.stats().refreshes > refreshes) ++run.woken_refreshes;
    mem.drain_completions_into(run.done);
    if (!skipping) continue;
    Cycle target = std::min(mem.next_event_cycle(), end);
    if (next < traffic.size()) target = std::min(target, std::max(traffic[next].at, mem.now()));
    skipped = target > mem.now();
    if (skipped) mem.skip(target - mem.now());
  }
  return run;
}

std::array<std::uint64_t, 12> counters(const ChannelStats& s) {
  return {s.reads_issued,  s.writes_issued, s.row_hits,
          s.row_misses,    s.row_conflicts, s.activates,
          s.precharges,    s.refreshes,     s.data_bus_busy_cycles,
          s.read_latency_sum, s.read_count, s.forwarded_reads};
}

/// FNV-1a over the completion stream and every channel's counters.
std::uint64_t digest(const DramSystem& mem, const std::vector<MemResponse>& done) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& r : done) {
    mix(r.id);
    mix(r.completion);
  }
  for (int c = 0; c < mem.config().geometry.channels; ++c) {
    for (const auto v : counters(mem.channel_stats(c))) mix(v);
  }
  return h;
}

struct SkipCase {
  const char* name;
  SchedulerKind scheduler;
  PagePolicy page;
  bool lpddr4;
  std::uint64_t digest;  ///< recorded results of the case
};

void PrintTo(const SkipCase& c, std::ostream* os) { *os << c.name; }

class ChannelEventSkip : public ::testing::TestWithParam<SkipCase> {};

TEST_P(ChannelEventSkip, SkippingMatchesTickingEveryCycle) {
  const auto& param = GetParam();
  DramConfig cfg;
  cfg.scheduler = param.scheduler;
  cfg.page_policy = param.page;
  if (param.lpddr4) cfg.timing = Ddr4Timing::lpddr4_1600();
  DramConfig ticked_cfg = cfg;
  ticked_cfg.event_skipping = false;

  const auto traffic = bursty_traffic(cfg, 91);
  const Cycle end = traffic.back().at + 4 * cfg.timing.trefi;
  DramSystem ticked{ticked_cfg};
  DramSystem skipping{cfg};
  const auto a = drive(ticked, traffic, end, false);
  const auto b = drive(skipping, traffic, end, true);

  ASSERT_EQ(a.done.size(), b.done.size());
  for (std::size_t i = 0; i < a.done.size(); ++i) {
    ASSERT_EQ(a.done[i].id, b.done[i].id) << "completion #" << i;
    ASSERT_EQ(a.done[i].completion, b.done[i].completion) << "completion #" << i;
  }
  for (int c = 0; c < cfg.geometry.channels; ++c) {
    EXPECT_EQ(counters(ticked.channel_stats(c)), counters(skipping.channel_stats(c)))
        << "channel " << c;
  }

  // The run is not vacuous: every read completed, both queues overflowed
  // (requests were held back), most cycles were skipped and refreshes
  // landed on cycles the bound woke for.
  std::uint64_t reads = 0;
  for (const auto& r : traffic) reads += r.is_write ? 0 : 1;
  EXPECT_EQ(b.done.size(), reads);
  EXPECT_EQ(a.ticks, end);
  EXPECT_LT(b.ticks * 4, end);
  EXPECT_GT(b.woken_refreshes, 0u);
  const auto& busy = skipping.channel_stats(0);
  EXPECT_GT(busy.row_misses, 0u);
  if (param.page == PagePolicy::kOpen) {
    EXPECT_GT(busy.row_hits, 0u);
    EXPECT_GT(busy.row_conflicts, 0u);
  }

  const auto got = digest(skipping, b.done);
  EXPECT_EQ(got, param.digest) << "recorded digest moved: now 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChannelEventSkip,
    ::testing::Values(
        SkipCase{"FrFcfsOpenDdr4", SchedulerKind::kFrFcfs, PagePolicy::kOpen, false,
                 0x1d90b617c535b714ull},
        SkipCase{"FrFcfsClosedDdr4", SchedulerKind::kFrFcfs, PagePolicy::kClosed, false,
                 0x93b7d38de91ea84cull},
        SkipCase{"FcfsOpenDdr4", SchedulerKind::kFcfs, PagePolicy::kOpen, false,
                 0x5e7d1680e138a9dfull},
        SkipCase{"FcfsClosedDdr4", SchedulerKind::kFcfs, PagePolicy::kClosed, false,
                 0x6d39069300d4cea7ull},
        SkipCase{"FrFcfsOpenLpddr4", SchedulerKind::kFrFcfs, PagePolicy::kOpen, true,
                 0x85a7012fed3a0d90ull},
        SkipCase{"FrFcfsClosedLpddr4", SchedulerKind::kFrFcfs, PagePolicy::kClosed, true,
                 0xdfd757dafa4754baull},
        SkipCase{"FcfsOpenLpddr4", SchedulerKind::kFcfs, PagePolicy::kOpen, true,
                 0x07557e754c69cfd2ull},
        SkipCase{"FcfsClosedLpddr4", SchedulerKind::kFcfs, PagePolicy::kClosed, true,
                 0x11b0872c94b9e7f9ull}),
    [](const auto& info) { return std::string{info.param.name}; });

// REF is gated like an ACT: tRP after the last PRE. Here a row conflict
// closes the rank's only open bank two cycles before its refresh falls
// due, so the REF (and the conflicting read behind it) must wait out tRP.
// The differential traffic rarely lands a refresh in that window.
TEST(Dram, RefreshWaitsTrpAfterRowConflictPrecharge) {
  for (const bool skipping : {false, true}) {
    DramConfig cfg;
    cfg.event_skipping = skipping;
    const auto& t = cfg.timing;
    const AddressMapper mapper{cfg.geometry, cfg.mapping};
    DramCoord c;  // channel 0, rank 0, bank 0
    const Addr row0 = mapper.encode(c);
    c.row = 1;
    const Addr row1 = mapper.encode(c);
    const Cycle conflict = t.trefi - 2;  // the PRE issues on the enqueue tick
    DramSystem mem{cfg};
    const auto run = drive(mem, {{0, 1, row0, false}, {conflict, 2, row1, false}},
                           t.trefi + 1000, skipping);
    ASSERT_EQ(run.done.size(), 2u);
    EXPECT_EQ(run.done[1].id, 2u);
    EXPECT_EQ(run.done[1].completion,
              conflict + t.trp + t.trfc + t.trcd + t.cl + t.burst_cycles())
        << "skipping=" << skipping;
  }
}

}  // namespace
}  // namespace ntserv::dram
