// Superblock predecode for the fast execution tier (DESIGN.md,
// "Execution tiers").
//
// A superblock is a chunk of straight-line code predecoded into a dense
// array of operation records: for every word, the decoded instruction
// plus everything the per-cycle issue loop otherwise recomputes — pipe,
// result latency and the operand set behind the scoreboard checks. The
// fast tier in cpu::Cpu plans each cycle from these records and commits
// it through the same instruction semantics the accurate stepper uses.
//
// Every record stores the raw memory word it was decoded from, and the
// fast tier compares records against memory before consuming them: code
// modified at runtime mismatches and falls back to the accurate stepper
// (which re-reads memory and re-decodes). On top of that, the owning Soc
// routes every runtime code-write path (scratchpad stores, DMA, program
// reload) through one shared invalidation funnel that drops the affected
// chunks eagerly.
#pragma once

#include <memory>
#include <vector>

#include "isa/isa.hpp"

namespace audo::isa {

/// One predecoded word of a superblock.
struct SuperOp {
  /// Behaviour bits consulted by the fast issue loop.
  enum Flags : u8 {
    kLoad = 1u << 0,
    kStore = 1u << 1,
    kBranch = 1u << 2,  // any control transfer
    /// The fast tier cannot execute this op (SYS-pipe ops other than NOP,
    /// and undecodable words): the cycle that would issue it falls back
    /// to the accurate stepper untouched.
    kBail = 1u << 3,
  };

  u32 word = 0;   // raw memory word the decode was made from
  Instr instr{};  // kHalt for undecodable words, same as the fetch path

  u8 pipe = 0;     // isa::Pipe
  u8 latency = 1;  // OpInfo::result_latency
  u8 flags = 0;
  Operands regs;   // isa::operands(instr)
};

/// A contiguous predecoded chunk of one code region. Chunks are aligned
/// and fixed-size (kChunkBytes), so lookup is one shift and invalidation
/// drops exactly the chunks a write overlaps.
struct Superblock {
  Addr base = 0;
  bool pspr = false;  // code scratchpad (vs. cached program flash)
  std::vector<SuperOp> ops;

  bool contains(Addr pc) const {
    return pc - base < ops.size() * kInstrBytes;
  }
  u32 index_of(Addr pc) const { return (pc - base) / kInstrBytes; }
};

/// Per-Soc cache of superblocks over the executable regions (PSPR and
/// the cached flash alias). Chunks build lazily on first entry and die
/// on invalidation; memory content is read through a region-supplied
/// reader so the cache stays free of memory-model dependencies.
class SuperblockCache {
 public:
  static constexpr u32 kChunkBytes = 1024;
  static constexpr u32 kChunkOps = kChunkBytes / kInstrBytes;

  /// Reads the 32-bit word at byte `offset` into the region's backing
  /// store, with no observable side effects (counters, fault hooks).
  using WordReader = u32 (*)(const void* ctx, u32 offset);

  struct Stats {
    u64 builds = 0;        // chunks predecoded
    u64 invalidations = 0; // chunks dropped by the invalidation funnel
  };

  /// Register an executable region. Regions must not overlap.
  void add_region(Addr base, u32 bytes, bool pspr, WordReader reader,
                  const void* reader_ctx);

  /// The chunk containing `pc`, building it on first use. Null when `pc`
  /// lies outside every registered region.
  const Superblock* lookup(Addr pc);

  /// Drop every chunk overlapping [addr, addr + bytes) — the shared
  /// invalidation funnel for runtime code writes.
  void invalidate(Addr addr, u32 bytes);
  /// Drop everything (fault-injector attach and detach).
  void invalidate_all();

  const Stats& stats() const { return stats_; }

 private:
  struct Region {
    Addr base = 0;
    u32 bytes = 0;
    bool pspr = false;
    WordReader reader = nullptr;
    const void* reader_ctx = nullptr;
    std::vector<std::unique_ptr<Superblock>> chunks;

    bool contains(Addr addr) const { return addr - base < bytes; }
  };

  Superblock* build(Region& region, u32 chunk_index);

  std::vector<Region> regions_;
  Stats stats_;
};

/// Populate a SuperOp from a raw word (decode + metadata precompute).
/// The cache builds every chunk with it.
SuperOp predecode_word(u32 word);

}  // namespace audo::isa
