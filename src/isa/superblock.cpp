#include "isa/superblock.hpp"

#include <algorithm>
#include <cassert>

namespace audo::isa {

SuperOp predecode_word(u32 word) {
  SuperOp op;
  op.word = word;
  if (auto decoded = decode(word); decoded.is_ok()) {
    op.instr = decoded.value();
  } else {
    // Same containment as the fetch path: garbage executes as HALT.
    op.instr.opcode = Opcode::kHalt;
  }
  const OpInfo& info = op_info(op.instr.opcode);
  op.pipe = static_cast<u8>(info.pipe);
  op.latency = info.result_latency;
  if (info.is_load) op.flags |= SuperOp::kLoad;
  if (info.is_store) op.flags |= SuperOp::kStore;
  if (info.is_branch) op.flags |= SuperOp::kBranch;
  // The fast tier executes the three ordinary pipes plus NOP; every other
  // SYS op (HALT, WFI, EI/DI, RFE, MFCR/MTCR, DEBUG) changes state the
  // window model freezes, so the cycle that issues one is replayed by the
  // accurate stepper.
  if (info.pipe == Pipe::kSys && op.instr.opcode != Opcode::kNop) {
    op.flags |= SuperOp::kBail;
  }
  op.regs = operands(op.instr);
  return op;
}

void SuperblockCache::add_region(Addr base, u32 bytes, bool pspr,
                                 WordReader reader, const void* reader_ctx) {
  if (bytes == 0 || reader == nullptr) return;
  Region region;
  region.base = base;
  region.bytes = bytes;
  region.pspr = pspr;
  region.reader = reader;
  region.reader_ctx = reader_ctx;
  region.chunks.resize((bytes + kChunkBytes - 1) / kChunkBytes);
  regions_.push_back(std::move(region));
}

Superblock* SuperblockCache::build(Region& region, u32 chunk_index) {
  auto blk = std::make_unique<Superblock>();
  blk->base = region.base + chunk_index * kChunkBytes;
  blk->pspr = region.pspr;
  const u32 bytes =
      std::min(kChunkBytes, region.bytes - chunk_index * kChunkBytes);
  const u32 nops = bytes / kInstrBytes;
  blk->ops.reserve(nops);
  for (u32 i = 0; i < nops; ++i) {
    const u32 offset = chunk_index * kChunkBytes + i * kInstrBytes;
    blk->ops.push_back(
        predecode_word(region.reader(region.reader_ctx, offset)));
  }
  ++stats_.builds;
  region.chunks[chunk_index] = std::move(blk);
  return region.chunks[chunk_index].get();
}

const Superblock* SuperblockCache::lookup(Addr pc) {
  for (Region& region : regions_) {
    if (!region.contains(pc)) continue;
    const u32 ci = static_cast<u32>((pc - region.base) / kChunkBytes);
    Superblock* blk = region.chunks[ci].get();
    if (blk == nullptr) blk = build(region, ci);
    return blk->contains(pc) ? blk : nullptr;
  }
  return nullptr;
}

void SuperblockCache::invalidate(Addr addr, u32 bytes) {
  if (bytes == 0) return;
  for (Region& region : regions_) {
    // Clip [addr, addr+bytes) to the region, in offset space.
    if (addr + bytes <= region.base || addr >= region.base + region.bytes) {
      continue;
    }
    const Addr lo = std::max(addr, region.base) - region.base;
    const Addr hi = std::min<Addr>(addr + bytes, region.base + region.bytes) -
                    region.base;
    const u32 first = static_cast<u32>(lo / kChunkBytes);
    const u32 last = static_cast<u32>((hi - 1) / kChunkBytes);
    for (u32 ci = first; ci <= last && ci < region.chunks.size(); ++ci) {
      if (region.chunks[ci] != nullptr) {
        region.chunks[ci].reset();
        ++stats_.invalidations;
      }
    }
  }
}

void SuperblockCache::invalidate_all() {
  for (Region& region : regions_) {
    for (auto& chunk : region.chunks) {
      if (chunk != nullptr) {
        chunk.reset();
        ++stats_.invalidations;
      }
    }
  }
}

}  // namespace audo::isa
