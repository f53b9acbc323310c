#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/rng.hpp"

namespace ntserv::cache {
namespace {

CacheArrayParams small_cache(ReplacementPolicy pol = ReplacementPolicy::kLru) {
  // 4 sets x 2 ways x 64B = 512B.
  return {512, 2, pol, 1, false};
}

Addr addr_of(std::size_t set, std::size_t tag_round) {
  // Same set, different tags per round (4 sets).
  return static_cast<Addr>((tag_round * 4 + set) * kCacheLineBytes);
}

TEST(CacheArray, MissThenHit) {
  CacheArray c{small_cache()};
  EXPECT_FALSE(c.probe(0x1000).has_value());
  c.insert(0x1000, false);
  EXPECT_TRUE(c.probe(0x1000).has_value());
  EXPECT_EQ(c.valid_count(), 1u);
}

TEST(CacheArray, SubLineAddressesAlias) {
  CacheArray c{small_cache()};
  c.insert(0x1000, false);
  EXPECT_TRUE(c.probe(0x1004).has_value());
  EXPECT_TRUE(c.probe(0x103F).has_value());
  EXPECT_FALSE(c.probe(0x1040).has_value());
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed) {
  CacheArray c{small_cache()};
  const Addr a = addr_of(0, 0), b = addr_of(0, 1), d = addr_of(0, 2);
  c.insert(a, false);
  c.insert(b, false);
  (void)c.probe(a);  // a becomes MRU
  const auto ev = c.insert(d, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, b);
  EXPECT_TRUE(c.probe(a).has_value());
  EXPECT_FALSE(c.probe(b).has_value());
}

TEST(CacheArray, EvictionReportsDirtyAndMeta) {
  CacheArray c{small_cache()};
  c.insert(addr_of(1, 0), true, 0xAB);
  c.insert(addr_of(1, 1), false);
  const auto ev = c.insert(addr_of(1, 2), false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, addr_of(1, 0));
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.meta, 0xABu);
}

TEST(CacheArray, InsertPrefersInvalidWays) {
  CacheArray c{small_cache()};
  c.insert(addr_of(2, 0), false);
  const auto ev = c.insert(addr_of(2, 1), false);
  EXPECT_FALSE(ev.valid);
}

TEST(CacheArray, DoubleInsertThrows) {
  CacheArray c{small_cache()};
  c.insert(0x2000, false);
  EXPECT_THROW(c.insert(0x2000, false), ModelError);
}

TEST(CacheArray, InvalidateReturnsState) {
  CacheArray c{small_cache()};
  c.insert(0x3000, true, 7);
  const auto inv = c.invalidate(0x3000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(inv->dirty);
  EXPECT_EQ(inv->meta, 7u);
  EXPECT_FALSE(c.probe(0x3000).has_value());
  EXPECT_FALSE(c.invalidate(0x3000).has_value());
  EXPECT_EQ(c.valid_count(), 0u);
}

TEST(CacheArray, DirtyAndMetaAccessors) {
  CacheArray c{small_cache()};
  c.insert(0x4000, false, 1);
  const auto ref = c.probe(0x4000);
  ASSERT_TRUE(ref.has_value());
  EXPECT_FALSE(c.is_dirty(*ref));
  c.set_dirty(*ref, true);
  EXPECT_TRUE(c.is_dirty(*ref));
  EXPECT_EQ(c.meta(*ref), 1u);
  c.set_meta(*ref, 0x55);
  EXPECT_EQ(c.meta(*ref), 0x55u);
  EXPECT_EQ(c.line_addr_of(*ref), 0x4000u);
}

TEST(CacheArray, ValidTracksEmptyWays) {
  CacheArray c{small_cache()};
  const CacheArray::WayRef empty{0, 0};
  EXPECT_FALSE(c.valid(empty));
  EXPECT_THROW((void)c.line_addr_of(empty), ModelError);
  c.insert(addr_of(0, 1), false);
  const auto ref = c.probe(addr_of(0, 1));
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(c.valid(*ref));
  // Line address 0 is an ordinary line, not an empty way.
  c.insert(0, false);
  const auto zero = c.probe(0);
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(c.valid(*zero));
  EXPECT_EQ(c.line_addr_of(*zero), 0u);
  ASSERT_TRUE(c.invalidate(addr_of(0, 1)).has_value());
  EXPECT_FALSE(c.valid(*ref));
  EXPECT_TRUE(c.valid(*zero));
}

TEST(CacheArray, ProtectedVictimSelectionSkipsSharedLines) {
  CacheArrayParams p = small_cache();
  p.protect_nonzero_meta = true;
  CacheArray c{p};
  c.insert(addr_of(0, 0), false, /*meta=*/1);  // "has L1 copy"
  c.insert(addr_of(0, 1), false, /*meta=*/0);
  (void)c.probe(addr_of(0, 1));  // meta-0 line is MRU
  const auto ev = c.insert(addr_of(0, 2), false);
  ASSERT_TRUE(ev.valid);
  // Without protection LRU would evict addr_of(0,0); protection picks the
  // meta-0 line even though it is MRU.
  EXPECT_EQ(ev.line_addr, addr_of(0, 1));
}

TEST(CacheArray, ProtectionFallsBackWhenAllShared) {
  CacheArrayParams p = small_cache();
  p.protect_nonzero_meta = true;
  CacheArray c{p};
  c.insert(addr_of(0, 0), false, 1);
  c.insert(addr_of(0, 1), false, 2);
  const auto ev = c.insert(addr_of(0, 2), false);
  EXPECT_TRUE(ev.valid);  // someone still got evicted
}

class ReplacementTest : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(ReplacementTest, WorkingSetWithinCapacityAlwaysHits) {
  CacheArray c{{8 * kKiB, 4, GetParam(), 9, false}};
  // 8KB / 64B = 128 lines: a 64-line working set fits.
  for (Addr l = 0; l < 64; ++l) {
    if (!c.probe(l * 64)) c.insert(l * 64, false);
  }
  int misses = 0;
  for (int round = 0; round < 10; ++round) {
    for (Addr l = 0; l < 64; ++l) {
      if (!c.probe(l * 64)) {
        ++misses;
        c.insert(l * 64, false);
      }
    }
  }
  EXPECT_EQ(misses, 0);
}

TEST_P(ReplacementTest, ThrashingSetEvicts) {
  CacheArray c{{512, 2, GetParam(), 11, false}};
  // 3 lines in a 2-way set cannot all stay resident.
  int misses = 0;
  for (int round = 0; round < 30; ++round) {
    for (int t = 0; t < 3; ++t) {
      const Addr a = addr_of(0, static_cast<std::size_t>(t));
      if (!c.probe(a)) {
        ++misses;
        c.insert(a, false);
      }
    }
  }
  EXPECT_GT(misses, 10);
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplacementTest,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kRandom,
                                           ReplacementPolicy::kSrrip),
                         [](const auto& info) {
                           switch (info.param) {
                             case ReplacementPolicy::kLru: return "Lru";
                             case ReplacementPolicy::kRandom: return "Random";
                             case ReplacementPolicy::kSrrip: return "Srrip";
                           }
                           return "unknown";
                         });

TEST(CacheArray, ValidatesGeometry) {
  EXPECT_THROW(CacheArray({0, 2, ReplacementPolicy::kLru, 1, false}), ModelError);
  EXPECT_THROW(CacheArray({1000, 3, ReplacementPolicy::kLru, 1, false}), ModelError);
  // Non-power-of-two set count: 3 * 64 * 1.
  EXPECT_THROW(CacheArray({192, 1, ReplacementPolicy::kLru, 1, false}), ModelError);
}

TEST(CacheArray, PaperTagStoresFitSixteenBytesPerLine) {
  // The fleet builds one 4MB 16-way LLC per cluster, so its bytes per line
  // set most of a fleet run's host memory: a new per-line field must not
  // slip in unnoticed.
  const CacheArray llc{{4 * kMiB, 16, ReplacementPolicy::kLru, 17, true}};
  const double llc_lines = static_cast<double>(4 * kMiB / kCacheLineBytes);
  EXPECT_LE(static_cast<double>(llc.footprint_bytes()) / llc_lines, 16.0);
  const CacheArray l1{{32 * kKiB, 2, ReplacementPolicy::kLru, 13, false}};
  const double l1_lines = static_cast<double>(32 * kKiB / kCacheLineBytes);
  EXPECT_LE(static_cast<double>(l1.footprint_bytes()) / l1_lines, 16.0);
}

TEST(CacheArray, PaperConfigurations) {
  // 32KB 2-way L1 and 4MB 16-way LLC construct with sane set counts.
  const CacheArray l1{{32 * kKiB, 2, ReplacementPolicy::kLru, 1, false}};
  EXPECT_EQ(l1.num_sets(), 256u);
  const CacheArray llc{{4 * kMiB, 16, ReplacementPolicy::kLru, 1, true}};
  EXPECT_EQ(llc.num_sets(), 4096u);
}


// ---------------------------------------------------------------------------
// Differential test against the array-of-structs tag store the compact
// layout replaced: padded per-line structs with a valid flag and a global
// 64-bit LRU clock. The reference lives only here, as an oracle.

class ReferenceTagStore {
 public:
  explicit ReferenceTagStore(CacheArrayParams params)
      : params_(params),
        ways_(static_cast<std::size_t>(params.associativity)),
        sets_(params.size_bytes / kCacheLineBytes / ways_),
        lines_(sets_ * ways_),
        stamps_issued_(sets_, 0),
        rng_(params.seed) {}

  std::optional<CacheArray::WayRef> probe(Addr line_addr, bool touch = true) {
    const Addr base = line_base(line_addr);
    const std::size_t set = set_index(base);
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& l = lines_[set * ways_ + w];
      if (l.valid && l.tag == base) {
        if (touch) {
          l.lru_stamp = ++tick_;
          ++stamps_issued_[set];
          l.rrpv = 0;
        }
        return CacheArray::WayRef{set, static_cast<int>(w)};
      }
    }
    return std::nullopt;
  }

  CacheArray::Eviction insert(Addr line_addr, bool dirty, std::uint32_t meta) {
    const Addr base = line_base(line_addr);
    const std::size_t set = set_index(base);
    Line& l = lines_[set * ways_ + static_cast<std::size_t>(pick_victim(set))];
    CacheArray::Eviction ev;
    if (l.valid) ev = {true, l.tag, l.dirty, l.meta};
    l = {true, dirty, base, ++tick_, 2, meta};
    ++stamps_issued_[set];
    return ev;
  }

  std::optional<CacheArray::Eviction> invalidate(Addr line_addr) {
    const auto ref = probe(line_addr, false);
    if (!ref) return std::nullopt;
    Line& l = line(*ref);
    const CacheArray::Eviction ev{true, l.tag, l.dirty, l.meta};
    l = Line{};
    return ev;
  }

  struct Line {
    bool valid = false;
    bool dirty = false;
    Addr tag = 0;
    std::uint64_t lru_stamp = 0;
    std::uint8_t rrpv = 3;
    std::uint32_t meta = 0;
  };
  Line& line(CacheArray::WayRef ref) {
    return lines_[ref.set * ways_ + static_cast<std::size_t>(ref.way)];
  }
  [[nodiscard]] std::size_t sets() const { return sets_; }
  [[nodiscard]] std::size_t ways() const { return ways_; }
  /// Fewest recency stamps handed out in any one set (touches + inserts).
  [[nodiscard]] std::uint64_t min_stamps_in_a_set() const {
    std::uint64_t m = ~std::uint64_t{0};
    for (const std::uint64_t n : stamps_issued_) m = std::min(m, n);
    return m;
  }

 private:
  std::size_t set_index(Addr base) const { return (base / kCacheLineBytes) & (sets_ - 1); }

  int pick_victim(std::size_t set) {
    Line* base = &lines_[set * ways_];
    const int ways = static_cast<int>(ways_);
    for (int w = 0; w < ways; ++w) {
      if (!base[w].valid) return w;
    }
    if (params_.protect_nonzero_meta) {
      int victim = -1;
      for (int w = 0; w < ways; ++w) {
        if (base[w].meta != 0) continue;
        if (victim < 0 || base[w].lru_stamp < base[victim].lru_stamp) victim = w;
      }
      if (victim >= 0) return victim;
    }
    switch (params_.replacement) {
      case ReplacementPolicy::kLru: {
        int victim = 0;
        for (int w = 1; w < ways; ++w) {
          if (base[w].lru_stamp < base[victim].lru_stamp) victim = w;
        }
        return victim;
      }
      case ReplacementPolicy::kRandom:
        return static_cast<int>(rng_.uniform_below(ways_));
      case ReplacementPolicy::kSrrip:
        for (;;) {
          for (int w = 0; w < ways; ++w) {
            if (base[w].rrpv >= 3) return w;
          }
          for (int w = 0; w < ways; ++w) ++base[w].rrpv;
        }
    }
    return 0;
  }

  CacheArrayParams params_;
  std::size_t ways_;
  std::size_t sets_;
  std::vector<Line> lines_;
  std::vector<std::uint64_t> stamps_issued_;
  std::uint64_t tick_ = 0;
  Xoshiro256StarStar rng_;
};

void expect_same_eviction(const CacheArray::Eviction& got, const CacheArray::Eviction& want,
                          int op) {
  ASSERT_EQ(got.valid, want.valid) << "op " << op;
  if (!want.valid) return;
  ASSERT_EQ(got.line_addr, want.line_addr) << "op " << op;
  ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
  ASSERT_EQ(got.meta, want.meta) << "op " << op;
}

void expect_same_state(const CacheArray& dut, ReferenceTagStore& ref, int op) {
  ASSERT_EQ(dut.valid_count(), [&] {
    std::size_t n = 0;
    for (std::size_t s = 0; s < ref.sets(); ++s) {
      for (std::size_t w = 0; w < ref.ways(); ++w) n += ref.line({s, static_cast<int>(w)}).valid;
    }
    return n;
  }()) << "op " << op;
  for (std::size_t s = 0; s < ref.sets(); ++s) {
    for (std::size_t w = 0; w < ref.ways(); ++w) {
      const CacheArray::WayRef way{s, static_cast<int>(w)};
      const auto& l = ref.line(way);
      ASSERT_EQ(dut.valid(way), l.valid) << "op " << op << " set " << s << " way " << w;
      if (!l.valid) continue;
      ASSERT_EQ(dut.line_addr_of(way), l.tag) << "op " << op;
      ASSERT_EQ(dut.is_dirty(way), l.dirty) << "op " << op;
      ASSERT_EQ(dut.meta(way), l.meta) << "op " << op;
    }
  }
}

/// Random probe/insert/invalidate/set_meta/set_dirty traffic over
/// `lines` distinct line addresses (sub-line offsets included), checked
/// op by op against the reference built with the same parameters.
void run_differential(CacheArray& dut, ReferenceTagStore& ref, int ops, std::size_t lines,
                      std::uint64_t seed) {
  Xoshiro256StarStar rng{seed};
  const auto draw_meta = [&]() -> std::uint32_t {
    // Mostly zero or one sharer, so the directory-aware pass sees both.
    switch (rng.uniform_below(4)) {
      case 0:
      case 1: return 0;
      case 2: return 1;
      default: return static_cast<std::uint32_t>(rng());
    }
  };
  for (int op = 0; op < ops; ++op) {
    const Addr a = rng.uniform_below(lines) * kCacheLineBytes + rng.uniform_below(kCacheLineBytes);
    const std::uint64_t kind = rng.uniform_below(10);
    if (kind < 6) {
      // An access: touch on hit, fill on miss.
      const auto got = dut.probe(a);
      const auto want = ref.probe(a);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (want) {
        ASSERT_EQ(got->set, want->set) << "op " << op;
        ASSERT_EQ(got->way, want->way) << "op " << op;
      } else {
        const bool dirty = rng.uniform_below(2) == 0;
        const std::uint32_t meta = draw_meta();
        expect_same_eviction(dut.insert(a, dirty, meta), ref.insert(a, dirty, meta), op);
      }
    } else if (kind == 6) {
      const auto got = dut.probe(a, false);
      const auto want = ref.probe(a, false);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (want) ASSERT_EQ(got->way, want->way) << "op " << op;
    } else if (kind == 7) {
      const auto got = dut.invalidate(a);
      const auto want = ref.invalidate(a);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (want) expect_same_eviction(*got, *want, op);
    } else {
      const auto got = dut.probe(a, false);
      const auto want = ref.probe(a, false);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (!want) continue;
      if (kind == 8) {
        const std::uint32_t meta = draw_meta();
        dut.set_meta(*got, meta);
        ref.line(*want).meta = meta;
      } else {
        const bool dirty = rng.uniform_below(2) == 0;
        dut.set_dirty(*got, dirty);
        ref.line(*want).dirty = dirty;
      }
    }
    if (op % 4096 == 0) expect_same_state(dut, ref, op);
  }
  expect_same_state(dut, ref, ops);
}

struct DifferentialCase {
  const char* name;
  ReplacementPolicy policy;
  bool protect_nonzero_meta;
  int ways;
};

class TagStoreDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(TagStoreDifferential, MatchesReferenceAcrossStampWraps) {
  const DifferentialCase& c = GetParam();
  // Two sets, so each takes over two wraps of its 16-bit stamp clock;
  // twice as many distinct lines as the cache holds, so hits, misses and
  // evictions all stay frequent.
  const std::size_t sets = 2;
  const CacheArrayParams params{sets * static_cast<std::size_t>(c.ways) * kCacheLineBytes,
                                c.ways, c.policy, 23, c.protect_nonzero_meta};
  CacheArray dut{params};
  ReferenceTagStore ref{params};
  run_differential(dut, ref, 600'000, 2 * sets * static_cast<std::size_t>(c.ways), 99);
  if (HasFatalFailure()) return;
  EXPECT_GT(ref.min_stamps_in_a_set(), 2u * 65'535u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TagStoreDifferential,
    ::testing::Values(DifferentialCase{"Lru2", ReplacementPolicy::kLru, false, 2},
                      DifferentialCase{"Lru16", ReplacementPolicy::kLru, false, 16},
                      DifferentialCase{"Random16", ReplacementPolicy::kRandom, false, 16},
                      DifferentialCase{"Srrip16", ReplacementPolicy::kSrrip, false, 16},
                      DifferentialCase{"ProtectedLru16", ReplacementPolicy::kLru, true, 16},
                      DifferentialCase{"ProtectedSrrip4", ReplacementPolicy::kSrrip, true, 4}),
    [](const auto& info) { return std::string{info.param.name}; });

}  // namespace
}  // namespace ntserv::cache
