// Set-associative instruction/data cache timing model.
//
// Caches in this system only front the (runtime-immutable) program flash,
// exactly as on TriCore 1.3 where only segment 0x8 is cacheable. Data
// values are therefore always read from the backing store; the cache
// holds *tags only* and answers the single question that matters for the
// methodology: does this access pay the flash-path latency or not.
// This makes DMA/flash coherence a non-issue by construction.
#pragma once

#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/fields.hpp"
#include "common/types.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::cache {

enum class Replacement : u8 { kLru, kPlruTree, kRoundRobin };

struct CacheConfig {
  bool enabled = true;
  u32 size_bytes = 16 * 1024;
  unsigned ways = 2;
  unsigned line_bytes = 32;
  Replacement replacement = Replacement::kLru;

  bool operator==(const CacheConfig&) const = default;

  unsigned num_sets() const {
    return size_bytes / (ways * line_bytes);
  }
  bool valid() const {
    return !enabled ||
           (audo::is_pow2(size_bytes) && audo::is_pow2(line_bytes) &&
            ways >= 1 && size_bytes >= ways * line_bytes &&
            audo::is_pow2(num_sets()));
  }
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<CacheConfig> Self, typename V>
void visit_fields(Self& c, V& v) {
  v("enabled", c.enabled);
  v("size_bytes", c.size_bytes);
  v("ways", c.ways);
  v("line_bytes", c.line_bytes);
  v("replacement", c.replacement, Replacement::kRoundRobin);
}

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;

  bool operator==(const CacheStats&) const = default;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Look up `addr`; updates replacement state and stats. A disabled
  /// cache always misses (and allocates nothing).
  bool access(Addr addr);

  /// Probe without updating any state (for tests and the profiler).
  bool probe(Addr addr) const;

  /// What probe(addr) would answer after fill(filled), without filling:
  /// a hit when `addr` lies in `filled`'s line, or when probe(addr) hits
  /// and the fill would not evict that way. No state changes.
  bool probe_after_fill(Addr addr, Addr filled) const;

  /// Allocate the line containing `addr` (after the refill fetch
  /// completed). Returns true if a valid line was evicted.
  bool fill(Addr addr);

  void invalidate_all();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Register this cache's counters under `component` ("icache"/"dcache").
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const;

  /// Same geometry, tags, replacement state and statistics.
  bool operator==(const Cache&) const = default;

 private:
  struct Way {
    u32 tag = 0;
    bool valid = false;
    u64 lru_stamp = 0;  // LRU: higher = more recent

    bool operator==(const Way&) const = default;
  };

  u32 tag_of(Addr addr) const { return addr >> (offset_bits_ + index_bits_); }
  u32 set_of(Addr addr) const {
    return audo::bits(addr, offset_bits_, index_bits_ == 0 ? 1 : index_bits_) &
           (config_.num_sets() - 1);
  }
  /// Way holding `tag` in `set`, or -1.
  int way_of(u32 set, u32 tag) const;
  /// The way fill() replaces in `set`: an invalid way first, else the
  /// policy's choice. fill() alone advances the round-robin pointer.
  unsigned victim(u32 set) const;
  void touch(u32 set, unsigned way);

  CacheConfig config_;
  unsigned offset_bits_ = 0;
  unsigned index_bits_ = 0;
  std::vector<Way> ways_;           // [set * ways + way]
  std::vector<u8> plru_bits_;       // per-set PLRU tree state
  std::vector<unsigned> rr_next_;   // per-set round-robin pointer
  u64 stamp_ = 0;
  CacheStats stats_;
};

}  // namespace audo::cache
