// Set-associative tag store with pluggable replacement.
//
// Used for the 32KB 2-way L1I/L1D and the 4MB 16-way LLC (paper Sec. IV).
// The array tracks validity, dirtiness, replacement state and an opaque
// 32-bit `meta` word per line that the LLC uses for its MESI directory
// entry (sharer bitmask / owner / state).
//
// Layout: flat per-line arrays, so a probe reads only its set's tags
// (16 x 8 B = two host cache lines for the LLC). An empty way holds the
// kInvalidTag sentinel instead of a valid flag. Recency stamps are 16-bit
// and come from a per-set clock: victim choice only compares stamps within
// one set, so when a set's clock runs out its valid ways are renumbered
// 1..k in the same order and the clock restarts at k. 15 B per line plus
// 2 B per set (tests/test_cache_array.cpp pins the budget).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace ntserv::cache {

enum class ReplacementPolicy { kLru, kRandom, kSrrip };

struct CacheArrayParams {
  std::uint64_t size_bytes = 32 * kKiB;
  int associativity = 2;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  /// Seed for the random policy's tie-breaking stream.
  std::uint64_t seed = 1;
  /// Directory-aware victim selection (inclusive LLCs): prefer victims
  /// whose meta word is zero — i.e. lines with no L1 copies — to avoid
  /// back-invalidating hot L1-resident lines. Falls back to the base
  /// policy when every candidate has non-zero meta.
  bool protect_nonzero_meta = false;
};

/// Tag array of one cache (no data payload: ntserv is timing-directed).
class CacheArray {
 public:
  explicit CacheArray(CacheArrayParams params);

  [[nodiscard]] const CacheArrayParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }

  struct WayRef {
    std::size_t set;
    int way;
  };

  /// Look up a line; `touch` updates replacement state on hit.
  [[nodiscard]] std::optional<WayRef> probe(Addr line_addr, bool touch = true);

  struct Eviction {
    bool valid = false;      ///< an existing line was displaced
    Addr line_addr = 0;
    bool dirty = false;
    std::uint32_t meta = 0;
  };

  /// Install a line (must not already be present); returns the victim.
  Eviction insert(Addr line_addr, bool dirty, std::uint32_t meta = 0);

  /// Remove a line if present; returns its state for writeback decisions.
  std::optional<Eviction> invalidate(Addr line_addr);

  // Per-line state accessors (ref must come from a current probe/insert).
  [[nodiscard]] bool valid(WayRef ref) const { return tags_[index(ref)] != kInvalidTag; }
  [[nodiscard]] bool is_dirty(WayRef ref) const;
  void set_dirty(WayRef ref, bool dirty);
  [[nodiscard]] std::uint32_t meta(WayRef ref) const;
  void set_meta(WayRef ref, std::uint32_t meta);
  [[nodiscard]] Addr line_addr_of(WayRef ref) const;

  /// Number of valid lines (for inclusivity/occupancy checks in tests).
  [[nodiscard]] std::size_t valid_count() const;

  /// Host bytes held by the tag store's per-line and per-set arrays.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// Tag of an empty way: line bases are line-aligned, so never equal.
  static constexpr Addr kInvalidTag = ~Addr{0};
  /// state_ byte: SRRIP re-reference prediction value (0..3) in the low
  /// bits, the dirty flag above it.
  static constexpr std::uint8_t kRrpvMask = 0x3;
  static constexpr std::uint8_t kDirtyBit = 0x4;
  static constexpr std::uint8_t kEmptyState = 3;  ///< rrpv 3, clean

  [[nodiscard]] std::size_t set_index(Addr line_addr) const;
  [[nodiscard]] std::size_t index(WayRef ref) const {
    return ref.set * ways_ + static_cast<std::size_t>(ref.way);
  }
  /// Next recency stamp of `set`, renumbering the set first when its
  /// clock has run out.
  std::uint16_t next_stamp(std::size_t set);
  int pick_victim(std::size_t set);

  CacheArrayParams params_;
  std::size_t sets_;
  std::size_t ways_;
  // Per-line arrays, sets_ x ways_, row-major.
  std::vector<Addr> tags_;             ///< line base address or kInvalidTag
  std::vector<std::uint32_t> meta_;
  std::vector<std::uint16_t> stamps_;  ///< recency order within the set
  std::vector<std::uint8_t> state_;    ///< rrpv | dirty
  std::vector<std::uint16_t> clocks_;  ///< per-set stamp source
  Xoshiro256StarStar rng_;
};

}  // namespace ntserv::cache
