#include "cache/cache_array.hpp"

#include <limits>

namespace ntserv::cache {

namespace {
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
constexpr std::uint16_t kMaxStamp = std::numeric_limits<std::uint16_t>::max();
}  // namespace

CacheArray::CacheArray(CacheArrayParams params)
    : params_(params),
      sets_(params.size_bytes / kCacheLineBytes / static_cast<std::uint64_t>(params.associativity)),
      ways_(static_cast<std::size_t>(params.associativity)),
      rng_(params.seed) {
  NTSERV_EXPECTS(params_.associativity > 0, "associativity must be positive");
  // Renumbering a set must leave stamp room above its valid ways.
  NTSERV_EXPECTS(params_.associativity < kMaxStamp / 2, "associativity too large");
  NTSERV_EXPECTS(params_.size_bytes % (kCacheLineBytes * static_cast<std::uint64_t>(
                                           params_.associativity)) == 0,
                 "capacity must be a whole number of sets");
  NTSERV_EXPECTS(sets_ > 0, "cache must have at least one set");
  NTSERV_EXPECTS(is_pow2(sets_), "set count must be a power of two");
  const std::size_t lines = sets_ * ways_;
  tags_.assign(lines, kInvalidTag);
  meta_.assign(lines, 0);
  stamps_.assign(lines, 0);
  state_.assign(lines, kEmptyState);
  clocks_.assign(sets_, 0);
}

std::size_t CacheArray::set_index(Addr line_addr) const {
  return static_cast<std::size_t>((line_addr / kCacheLineBytes) & (sets_ - 1));
}

std::uint16_t CacheArray::next_stamp(std::size_t set) {
  std::uint16_t& clock = clocks_[set];
  if (clock == kMaxStamp) {
    // Valid stamps in a set are distinct, so each valid way's rank is one
    // plus the number of valid ways stamped before it.
    const std::size_t base = set * ways_;
    std::vector<std::uint16_t> rank(ways_, 0);
    std::uint16_t valid = 0;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == kInvalidTag) continue;
      ++valid;
      rank[w] = 1;
      for (std::size_t o = 0; o < ways_; ++o) {
        if (tags_[base + o] != kInvalidTag && stamps_[base + o] < stamps_[base + w]) ++rank[w];
      }
    }
    for (std::size_t w = 0; w < ways_; ++w) stamps_[base + w] = rank[w];
    clock = valid;
  }
  return ++clock;
}

std::optional<CacheArray::WayRef> CacheArray::probe(Addr line_addr, bool touch) {
  const Addr base = line_base(line_addr);
  const std::size_t set = set_index(base);
  const Addr* tags = &tags_[set * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] != base) continue;
    const std::size_t i = set * ways_ + w;
    if (touch) {
      stamps_[i] = next_stamp(set);
      state_[i] &= kDirtyBit;  // rrpv 0
    }
    return WayRef{set, static_cast<int>(w)};
  }
  return std::nullopt;
}

int CacheArray::pick_victim(std::size_t set) {
  const std::size_t base = set * ways_;
  const Addr* tags = &tags_[base];
  const std::uint16_t* stamps = &stamps_[base];
  // Invalid way first, for every policy.
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] == kInvalidTag) return static_cast<int>(w);
  }
  // Directory-aware pass: LRU among lines without L1 copies.
  if (params_.protect_nonzero_meta) {
    const std::uint32_t* meta = &meta_[base];
    int victim = -1;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (meta[w] != 0) continue;
      if (victim < 0 || stamps[w] < stamps[victim]) victim = static_cast<int>(w);
    }
    if (victim >= 0) return victim;
  }
  switch (params_.replacement) {
    case ReplacementPolicy::kLru: {
      std::size_t victim = 0;
      for (std::size_t w = 1; w < ways_; ++w) {
        if (stamps[w] < stamps[victim]) victim = w;
      }
      return static_cast<int>(victim);
    }
    case ReplacementPolicy::kRandom:
      return static_cast<int>(rng_.uniform_below(static_cast<std::uint64_t>(ways_)));
    case ReplacementPolicy::kSrrip: {
      // Find an RRPV==3 line, aging the set until one appears. Aging only
      // runs while every rrpv is below 3, so it never carries into the
      // dirty bit.
      std::uint8_t* state = &state_[base];
      for (;;) {
        for (std::size_t w = 0; w < ways_; ++w) {
          if ((state[w] & kRrpvMask) >= 3) return static_cast<int>(w);
        }
        for (std::size_t w = 0; w < ways_; ++w) ++state[w];
      }
    }
  }
  return 0;
}

CacheArray::Eviction CacheArray::insert(Addr line_addr, bool dirty, std::uint32_t meta) {
  const Addr base_addr = line_base(line_addr);
  NTSERV_EXPECTS(!probe(base_addr, /*touch=*/false).has_value(),
                 "insert of a line that is already present");
  const std::size_t set = set_index(base_addr);
  const std::size_t i = set * ways_ + static_cast<std::size_t>(pick_victim(set));

  Eviction ev;
  if (tags_[i] != kInvalidTag) {
    ev.valid = true;
    ev.line_addr = tags_[i];
    ev.dirty = (state_[i] & kDirtyBit) != 0;
    ev.meta = meta_[i];
  }
  tags_[i] = base_addr;
  stamps_[i] = next_stamp(set);
  state_[i] = static_cast<std::uint8_t>(2 | (dirty ? kDirtyBit : 0));  // SRRIP long insertion
  meta_[i] = meta;
  return ev;
}

std::optional<CacheArray::Eviction> CacheArray::invalidate(Addr line_addr) {
  auto ref = probe(line_addr, /*touch=*/false);
  if (!ref) return std::nullopt;
  const std::size_t i = index(*ref);
  Eviction ev{true, tags_[i], (state_[i] & kDirtyBit) != 0, meta_[i]};
  tags_[i] = kInvalidTag;
  meta_[i] = 0;
  stamps_[i] = 0;
  state_[i] = kEmptyState;
  return ev;
}

bool CacheArray::is_dirty(WayRef ref) const { return (state_[index(ref)] & kDirtyBit) != 0; }

void CacheArray::set_dirty(WayRef ref, bool dirty) {
  std::uint8_t& s = state_[index(ref)];
  s = static_cast<std::uint8_t>(dirty ? (s | kDirtyBit) : (s & kRrpvMask));
}

std::uint32_t CacheArray::meta(WayRef ref) const { return meta_[index(ref)]; }

void CacheArray::set_meta(WayRef ref, std::uint32_t meta) { meta_[index(ref)] = meta; }

Addr CacheArray::line_addr_of(WayRef ref) const {
  NTSERV_EXPECTS(valid(ref), "line_addr_of an empty way");
  return tags_[index(ref)];
}

std::size_t CacheArray::valid_count() const {
  std::size_t n = 0;
  for (const Addr t : tags_) n += t != kInvalidTag ? 1 : 0;
  return n;
}

std::size_t CacheArray::footprint_bytes() const {
  return tags_.capacity() * sizeof(Addr) + meta_.capacity() * sizeof(std::uint32_t) +
         stamps_.capacity() * sizeof(std::uint16_t) + state_.capacity() * sizeof(std::uint8_t) +
         clocks_.capacity() * sizeof(std::uint16_t);
}

}  // namespace ntserv::cache
