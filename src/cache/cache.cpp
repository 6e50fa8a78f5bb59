#include "cache/cache.hpp"

#include <cassert>

#include "telemetry/metrics.hpp"

namespace audo::cache {

void Cache::register_metrics(telemetry::MetricsRegistry& registry,
                             std::string component) const {
  registry.counter(component, "accesses", &stats_.accesses);
  registry.counter(component, "hits", &stats_.hits);
  registry.counter(component, "misses", &stats_.misses);
  registry.counter(std::move(component), "evictions", &stats_.evictions);
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config.valid());
  if (!config_.enabled) return;
  offset_bits_ = log2_exact(config_.line_bytes);
  index_bits_ = config_.num_sets() > 1 ? log2_exact(config_.num_sets()) : 0;
  ways_.resize(static_cast<usize>(config_.num_sets()) * config_.ways);
  plru_bits_.assign(config_.num_sets(), 0);
  rr_next_.assign(config_.num_sets(), 0);
  if (config_.replacement == Replacement::kPlruTree) {
    assert(is_pow2(config_.ways) && config_.ways <= 8 &&
           "tree PLRU supports 1..8 power-of-two ways");
  }
}

bool Cache::access(Addr addr) {
  if (!config_.enabled) return false;
  ++stats_.accesses;
  const u32 set = set_of(addr);
  const u32 tag = tag_of(addr);
  for (unsigned w = 0; w < config_.ways; ++w) {
    Way& way = ways_[static_cast<usize>(set) * config_.ways + w];
    if (way.valid && way.tag == tag) {
      ++stats_.hits;
      touch(set, w);
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

int Cache::way_of(u32 set, u32 tag) const {
  for (unsigned w = 0; w < config_.ways; ++w) {
    const Way& way = ways_[static_cast<usize>(set) * config_.ways + w];
    if (way.valid && way.tag == tag) return static_cast<int>(w);
  }
  return -1;
}

bool Cache::probe(Addr addr) const {
  if (!config_.enabled) return false;
  return way_of(set_of(addr), tag_of(addr)) >= 0;
}

bool Cache::probe_after_fill(Addr addr, Addr filled) const {
  if (!config_.enabled) return false;
  const u32 set = set_of(addr);
  const u32 tag = tag_of(addr);
  if (set != set_of(filled)) return way_of(set, tag) >= 0;
  if (tag == tag_of(filled)) return true;
  const int way = way_of(set, tag);
  if (way < 0) return false;
  // fill() replaces a way only when `filled`'s line is absent.
  return way_of(set, tag_of(filled)) >= 0 ||
         victim(set) != static_cast<unsigned>(way);
}

bool Cache::fill(Addr addr) {
  if (!config_.enabled) return false;
  const u32 set = set_of(addr);
  const u32 tag = tag_of(addr);
  // Already present (e.g. two misses to the same line in flight).
  if (way_of(set, tag) >= 0) return false;
  const unsigned w = victim(set);
  Way& way = ways_[static_cast<usize>(set) * config_.ways + w];
  const bool evicted = way.valid;
  if (evicted) {
    ++stats_.evictions;
    // Round robin moves on past each way it replaced.
    if (config_.replacement == Replacement::kRoundRobin) {
      rr_next_[set] = (w + 1) % config_.ways;
    }
  }
  way.valid = true;
  way.tag = tag;
  touch(set, w);
  return evicted;
}

void Cache::invalidate_all() {
  for (Way& way : ways_) way = Way{};
  std::fill(plru_bits_.begin(), plru_bits_.end(), u8{0});
  std::fill(rr_next_.begin(), rr_next_.end(), 0u);
}

unsigned Cache::victim(u32 set) const {
  // Invalid ways first, regardless of policy.
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (!ways_[static_cast<usize>(set) * config_.ways + w].valid) return w;
  }
  switch (config_.replacement) {
    case Replacement::kLru: {
      unsigned lru = 0;
      u64 oldest = ~u64{0};
      for (unsigned w = 0; w < config_.ways; ++w) {
        const Way& way = ways_[static_cast<usize>(set) * config_.ways + w];
        if (way.lru_stamp < oldest) {
          oldest = way.lru_stamp;
          lru = w;
        }
      }
      return lru;
    }
    case Replacement::kPlruTree: {
      // Walk the tree following the *cold* direction.
      unsigned node = 0;  // root at index 0 of a (ways-1)-node heap
      unsigned w = 0;
      unsigned span = config_.ways;
      const u8 bitsv = plru_bits_[set];
      while (span > 1) {
        const bool right = (bitsv >> node) & 1;  // bit points to cold half
        span /= 2;
        if (right) w += span;
        node = 2 * node + (right ? 2 : 1);
      }
      return w;
    }
    case Replacement::kRoundRobin:
      return rr_next_[set];
  }
  return 0;
}

void Cache::touch(u32 set, unsigned way) {
  ways_[static_cast<usize>(set) * config_.ways + way].lru_stamp = ++stamp_;
  if (config_.replacement == Replacement::kPlruTree && config_.ways > 1) {
    // Flip tree bits along the path to point *away* from this way.
    unsigned node = 0;
    unsigned lo = 0;
    unsigned span = config_.ways;
    u8 bitsv = plru_bits_[set];
    while (span > 1) {
      span /= 2;
      const bool in_right = way >= lo + span;
      // Bit must point at the cold (other) half.
      if (in_right) {
        bitsv &= static_cast<u8>(~(1u << node));
        lo += span;
        node = 2 * node + 2;
      } else {
        bitsv |= static_cast<u8>(1u << node);
        node = 2 * node + 1;
      }
    }
    plru_bits_[set] = bitsv;
  }
}

}  // namespace audo::cache
