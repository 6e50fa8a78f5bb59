// Cache model tests: hit/miss behaviour, replacement policies, geometry
// sweeps (TEST_P) and the disabled-cache contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "common/prng.hpp"

namespace audo::cache {
namespace {

CacheConfig direct_mapped(u32 size = 1024, unsigned line = 32) {
  return CacheConfig{true, size, 1, line, Replacement::kLru};
}

TEST(Cache, MissThenHit) {
  Cache cache(direct_mapped());
  EXPECT_FALSE(cache.access(0x1000));
  cache.fill(0x1000);
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x101F));   // same 32-byte line
  EXPECT_FALSE(cache.access(0x1020));  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict) {
  Cache cache(direct_mapped(1024));
  cache.fill(0x0);
  EXPECT_TRUE(cache.access(0x0));
  // 0x400 maps to the same set (1 KiB direct mapped) -> evicts.
  EXPECT_TRUE(cache.fill(0x400));
  EXPECT_FALSE(cache.access(0x0));
  EXPECT_TRUE(cache.access(0x400));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, TwoWayAvoidsConflict) {
  Cache cache(CacheConfig{true, 1024, 2, 32, Replacement::kLru});
  cache.fill(0x0);
  cache.fill(0x400);  // same set, second way
  EXPECT_TRUE(cache.access(0x0));
  EXPECT_TRUE(cache.access(0x400));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, LruEvictsLeastRecent) {
  Cache cache(CacheConfig{true, 128, 2, 32, Replacement::kLru});
  // 2 sets of 2 ways. Set 0 lines: 0x0, 0x40, 0x80, ...
  cache.fill(0x0);
  cache.fill(0x80);
  EXPECT_TRUE(cache.access(0x0));   // 0x80 becomes LRU
  cache.fill(0x100);                // evicts 0x80
  EXPECT_TRUE(cache.probe(0x0));
  EXPECT_FALSE(cache.probe(0x80));
  EXPECT_TRUE(cache.probe(0x100));
}

TEST(Cache, PlruTreeBehavesSanely) {
  Cache cache(CacheConfig{true, 256, 4, 32, Replacement::kPlruTree});
  // 2 sets, 4 ways; set stride = 64 bytes.
  cache.fill(0x000);
  cache.fill(0x100);
  cache.fill(0x200);
  cache.fill(0x300);
  // Tree PLRU is an approximation of LRU: after touching way 0
  // (left/left) and way 2 (right/left), the root points at the left half
  // and its subtree bit at way 1 — the deterministic PLRU victim.
  EXPECT_TRUE(cache.access(0x000));
  EXPECT_TRUE(cache.access(0x200));
  cache.fill(0x400);
  EXPECT_FALSE(cache.probe(0x100));
  EXPECT_TRUE(cache.probe(0x000));
  EXPECT_TRUE(cache.probe(0x200));
  EXPECT_TRUE(cache.probe(0x300));
  EXPECT_TRUE(cache.probe(0x400));
}

TEST(Cache, RoundRobinCyclesWays) {
  Cache cache(CacheConfig{true, 128, 2, 32, Replacement::kRoundRobin});
  cache.fill(0x0);
  cache.fill(0x80);
  cache.fill(0x100);  // evicts way 0 (0x0)
  EXPECT_FALSE(cache.probe(0x0));
  EXPECT_TRUE(cache.probe(0x80));
  cache.fill(0x180);  // evicts way 1 (0x80)
  EXPECT_FALSE(cache.probe(0x80));
  EXPECT_TRUE(cache.probe(0x100));
}

TEST(Cache, DisabledCacheNeverHits) {
  Cache cache(CacheConfig{false, 1024, 2, 32, Replacement::kLru});
  EXPECT_FALSE(cache.access(0x1000));
  cache.fill(0x1000);
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_FALSE(cache.probe(0x1000));
}

TEST(Cache, InvalidateAllForgets) {
  Cache cache(direct_mapped());
  cache.fill(0x40);
  EXPECT_TRUE(cache.probe(0x40));
  cache.invalidate_all();
  EXPECT_FALSE(cache.probe(0x40));
}

TEST(Cache, FillIsIdempotentForPresentLines) {
  Cache cache(CacheConfig{true, 128, 2, 32, Replacement::kLru});
  cache.fill(0x0);
  EXPECT_FALSE(cache.fill(0x0));  // no eviction, no duplicate
  cache.fill(0x80);
  EXPECT_TRUE(cache.probe(0x0));
  EXPECT_TRUE(cache.probe(0x80));
}

TEST(Cache, ConfigValidity) {
  EXPECT_TRUE(direct_mapped().valid());
  CacheConfig bad = direct_mapped();
  bad.size_bytes = 1000;  // not pow2
  EXPECT_FALSE(bad.valid());
  CacheConfig disabled;
  disabled.enabled = false;
  disabled.size_bytes = 12345;
  EXPECT_TRUE(disabled.valid());  // geometry irrelevant when off
}

// probe_after_fill(a, f) answers what probe(a) answers once f's line is
// filled, without filling. Checked against a copy that really fills, over
// seeded random histories of accesses and fills, for every policy and
// associativity; the query must leave the cache itself untouched.
TEST(Cache, ProbeAfterFillMatchesProbeOnAFilledCopy) {
  constexpr unsigned kSets = 4;
  constexpr unsigned kLine = 32;
  for (const Replacement repl :
       {Replacement::kLru, Replacement::kPlruTree, Replacement::kRoundRobin}) {
    for (const unsigned ways : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("replacement " + std::to_string(static_cast<int>(repl)) +
                   ", " + std::to_string(ways) + " ways");
      Cache cache(CacheConfig{true, kSets * ways * kLine, ways, kLine, repl});
      // Four times as many lines as the cache holds map onto its sets.
      const u32 set_stride = kSets * kLine;
      const u32 span = 4 * kSets * ways * kLine;
      Prng prng(ways * 8 + static_cast<unsigned>(repl));
      const auto random_addr = [&] {
        return 0x80000000 + static_cast<Addr>(prng.next_below(span));
      };
      for (unsigned step = 0; step < 600; ++step) {
        // History: an access, a fill after most misses (so sets also keep
        // invalid ways for a while), and now and then a flush.
        const Addr a = random_addr();
        if (!cache.access(a) && prng.chance(0.8)) cache.fill(a);
        if (prng.chance(0.01)) cache.invalidate_all();

        const Addr filled = random_addr();
        Cache after = cache;
        after.fill(filled);
        const Cache before = cache;
        // Every line that maps onto the filled line's set...
        const Addr set_base =
            0x80000000 + (filled - 0x80000000) % set_stride / kLine * kLine;
        for (Addr line = set_base; line < 0x80000000 + span;
             line += set_stride) {
          const Addr probe_addr =
              line + static_cast<Addr>(prng.next_below(kLine));
          EXPECT_EQ(cache.probe_after_fill(probe_addr, filled),
                    after.probe(probe_addr))
              << std::hex << "probe 0x" << probe_addr << " after fill 0x"
              << filled;
        }
        // ...and random lines, most of them in other sets.
        for (unsigned k = 0; k < 4; ++k) {
          const Addr probe_addr = random_addr();
          EXPECT_EQ(cache.probe_after_fill(probe_addr, filled),
                    after.probe(probe_addr))
              << std::hex << "probe 0x" << probe_addr << " after fill 0x"
              << filled;
        }
        EXPECT_TRUE(cache == before) << "the query changed the cache";
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(Cache, ProbeAfterFillOnADisabledCacheMisses) {
  Cache cache(CacheConfig{false, 1024, 2, 32, Replacement::kLru});
  EXPECT_FALSE(cache.probe_after_fill(0x1000, 0x1000));
}

struct Geometry {
  u32 size;
  unsigned ways;
  unsigned line;
  Replacement repl;
};

// gtest lists each instance with its printed parameter, and ctest's test
// IDs take that text in place of the instance index. Printed field by
// field (e.g. s4096_w2_l32_lru), the IDs stay the same from build to
// build; the default byte dump included the struct's padding.
void PrintTo(const Geometry& g, std::ostream* os) {
  const char* repl = g.repl == Replacement::kLru        ? "lru"
                     : g.repl == Replacement::kPlruTree ? "plru"
                                                        : "rr";
  *os << "s" << g.size << "_w" << g.ways << "_l" << g.line << "_" << repl;
}

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  const Geometry g = GetParam();
  Cache cache(CacheConfig{true, g.size, g.ways, g.line, g.repl});
  // Sequential working set of half the cache size.
  const u32 span = g.size / 2;
  for (u32 a = 0; a < span; a += g.line) {
    if (!cache.access(0x80000000 + a)) cache.fill(0x80000000 + a);
  }
  cache.reset_stats();
  for (int pass = 0; pass < 4; ++pass) {
    for (u32 a = 0; a < span; a += g.line) {
      EXPECT_TRUE(cache.access(0x80000000 + a))
          << "size=" << g.size << " ways=" << g.ways << " line=" << g.line;
    }
  }
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST_P(CacheGeometry, WorkingSetTwiceTheCacheThrashesLru) {
  const Geometry g = GetParam();
  Cache cache(CacheConfig{true, g.size, g.ways, g.line, g.repl});
  const u32 span = g.size * 2;
  // Sequential sweep with LRU on a 2x working set misses every time.
  for (int pass = 0; pass < 3; ++pass) {
    for (u32 a = 0; a < span; a += g.line) {
      if (!cache.access(0x80000000 + a)) cache.fill(0x80000000 + a);
    }
  }
  if (g.repl == Replacement::kLru) {
    EXPECT_EQ(cache.stats().hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(Geometry{512, 1, 16, Replacement::kLru},
                      Geometry{1024, 2, 32, Replacement::kLru},
                      Geometry{4096, 2, 32, Replacement::kLru},
                      Geometry{4096, 4, 32, Replacement::kPlruTree},
                      Geometry{8192, 4, 64, Replacement::kLru},
                      Geometry{16384, 2, 32, Replacement::kRoundRobin},
                      Geometry{1024, 2, 32, Replacement::kPlruTree}));

}  // namespace
}  // namespace audo::cache
