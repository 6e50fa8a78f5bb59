// Superblock fast execution tier (DESIGN.md, "Execution tiers").
//
// Every fast cycle runs in two phases over a predecoded chunk:
//
//   phase A (plan)   — decide everything the cycle will do (finishing a
//                      completed data transaction, delivery of the
//                      in-flight fetch, the issue group, the data route,
//                      the next fetch) touching no state. Any condition
//                      the fast model cannot represent — unsupported op,
//                      I-cache miss, a bus route other than a flash or
//                      LMU load, stale code word — returns false with
//                      the machine untouched, and the caller replays the
//                      cycle with step().
//   phase B (commit) — apply the plan through the code the accurate
//                      stepper runs (finish_bus_data, execute for loads
//                      and stores, apply_op for everything else), so its
//                      mutations and observation strobes are the
//                      stepper's own, including counter bumps, cache
//                      LRU/stat updates and bus issues.
//
// The window model freezes everything step() consults outside the core:
// no bus traffic but the core's own data transaction, no peripheral
// activity, no interrupt or trap delivery, no read that hits a pending
// ECC fault record. The owning Soc guarantees the outside invariants
// before opening a window, bounds it by the next peripheral or
// fault-injector activity cycle, and steps the crossbar and flash for
// the transaction's grant and completion. The plan admits the TC's
// latency-only reads as bus routes: a load through the uncached flash
// alias, a cached-flash load that misses the D-cache (its refill), and
// an LMU load. Each issues only when the Soc found no error response
// armed on its slave (FastWindow::flash_loads, ::lmu_loads) and its
// bytes carry no ECC record, so its completion posts no alarm. While a
// transaction is in flight it holds the LS port (every non-scratchpad
// access waits, as kLsPortBusy) and, for a load, its destination at
// kFar, which the plan reads as the accurate stepper's load-use hazards.
// The cycle that finishes a refill fills its line before the issue
// group, as step() does, so the plan probes the D-cache as it will be
// after that fill.
#include <cassert>

#include "cpu/cpu.hpp"
#include "mem/memory_map.hpp"

namespace audo::cpu {

using isa::Pipe;
using isa::SuperOp;
using mcds::StallCause;

const char* to_string(FastBail bail) {
  switch (bail) {
    case FastBail::kNone: return "none";
    case FastBail::kNoSuperblocks: return "no_superblocks";
    case FastBail::kFrontendBusy: return "frontend_busy";
    case FastBail::kCoreState: return "core_state";
    case FastBail::kDataBusy: return "data_busy";
    case FastBail::kNoBlock: return "no_superblock";
    case FastBail::kCodeRoute: return "code_route";
    case FastBail::kStaleCode: return "stale_code";
    case FastBail::kChunkTail: return "chunk_tail";
    case FastBail::kFallOff: return "chunk_falloff";
    case FastBail::kUnsupportedOp: return "unsupported_op";
    case FastBail::kDataRoute: return "data_route";
    case FastBail::kIcacheMiss: return "icache_miss";
    case FastBail::kCount: break;
  }
  return "?";
}

// --------------------------------------------------------------------------
// Window entry / exit.

bool Cpu::needs_slow_step() const {
  if (halted_ || trap_pending_) return true;
  if (env_.irq != nullptr) {
    if (const auto prio = env_.irq->pending();
        prio.has_value() && irq_acceptable(*prio)) {
      return true;
    }
  }
  return false;
}

bool Cpu::fast_enter(FastWindow& fw) {
  if (env_.superblocks == nullptr) return bail(FastBail::kNoSuperblocks);
  // A fetch on the bus, or a flushed one whose result is still to be
  // dropped, is traffic the window cannot carry.
  if (fetch_state_ == FetchState::kBusWait || fetch_discard_) {
    return bail(FastBail::kFrontendBusy);
  }
  if (wfi_ || needs_slow_step()) return bail(FastBail::kCoreState);
  // A granted load or store may stay in flight, and a completed one is
  // finished by the first fast cycle. One still waiting for its grant
  // needs the stepper.
  if (!fetch_port_.idle() || data_port_.waiting_grant()) {
    return bail(FastBail::kDataBusy);
  }
  const isa::Superblock* blk = env_.superblocks->lookup(next_pc_);
  if (blk == nullptr || blk->ops.empty()) return bail(FastBail::kNoBlock);
  if (blk->pspr) {
    if (env_.code_spr == nullptr) return bail(FastBail::kCodeRoute);
  } else {
    // Flash-resident code is only representable through I-cache hits.
    if (env_.flash == nullptr || env_.icache == nullptr ||
        !env_.icache->config().enabled) {
      return bail(FastBail::kCodeRoute);
    }
  }

  // Adopt the live local front end. The queued instructions become the
  // virtual queue when they are consecutive ops of this chunk starting at
  // next_pc_ and equal to its predecode: a store may have rewritten a
  // queued word since it was fetched, and the core must still run the
  // stale copy it holds. An in-flight local fetch that continues them
  // stays in flight for fast_cycle to deliver.
  const u32 nops = static_cast<u32>(blk->ops.size());
  const u32 front = blk->index_of(next_pc_);
  const u32 count = static_cast<u32>(fetch_queue_.size());
  if (front + count > nops) return bail(FastBail::kFrontendBusy);
  for (u32 k = 0; k < count; ++k) {
    const Fetched& f = fetch_queue_[k];
    if (f.pc != next_pc_ + k * isa::kInstrBytes ||
        f.instr != blk->ops[front + k].instr) {
      return bail(FastBail::kFrontendBusy);
    }
  }
  Addr fetched_end = next_pc_ + count * isa::kInstrBytes;
  if (fetch_state_ == FetchState::kLocalWait) {
    if (fetch_addr_ != fetched_end) return bail(FastBail::kFrontendBusy);
    // Its delivery must stay inside the chunk (fast_cycle would bail on
    // the first cycle otherwise).
    if (front + count + fetch_words_ > nops) return bail(FastBail::kChunkTail);
    fetched_end += fetch_words_ * isa::kInstrBytes;
  }
  if (fetch_pc_ != fetched_end) return bail(FastBail::kFrontendBusy);

  fetch_queue_.clear();  // fast_exit() rebuilds it from the ops
  fw.blk = blk;
  fw.front = front;
  fw.count = count;
  fw.left_chunk = false;
  return true;
}

void Cpu::fast_exit(FastWindow& fw) {
  if (fw.blk == nullptr) return;
  const isa::Superblock& blk = *fw.blk;
  for (u32 k = 0; k < fw.count; ++k) {
    const u32 idx = fw.front + k;
    fetch_queue_.push_back(
        Fetched{blk.base + idx * isa::kInstrBytes, blk.ops[idx].instr});
  }
  fw.blk = nullptr;
  fw.front = 0;
  fw.count = 0;
}

u32 Cpu::peek_code_word(const isa::Superblock& blk, u32 idx) const {
  const Addr pc = blk.base + idx * isa::kInstrBytes;
  if (blk.pspr) {
    return env_.code_spr->array().peek(pc - env_.code_spr->base(), 4);
  }
  return env_.flash->peek(mem::pflash_offset(pc), 4);
}

// --------------------------------------------------------------------------
// One fast cycle.

bool Cpu::fast_cycle(FastWindow& fw, Cycle now, mcds::CoreObservation& obs) {
  const isa::Superblock& blk = *fw.blk;
  const u32 nops = static_cast<u32>(blk.ops.size());

  // ---- Phase A: plan. No state is touched before the commit marker. ----
  assert(fetch_state_ != FetchState::kBusWait);

  // A data transaction that completed last cycle is finished first, as
  // step() does: the LS port frees and a load's destination becomes
  // usable at now + 1. The plan reads that destination through the
  // scoreboard, so its entry is set here, the one write before the
  // commit, and put back on a bail. A load from the cached flash alias
  // was a D-cache refill, whose fill the D-cache probes below see.
  const bool finishing = data_port_.done();
  struct ScoreboardPatch {
    Cycle* slot = nullptr;
    Cycle saved = 0;
    ~ScoreboardPatch() {
      if (slot != nullptr) *slot = saved;
    }
  } patch;
  bool refilling = false;
  Addr refill = 0;
  if (finishing && load_pending_) {
    patch.slot = &ready_slot(pending_load_instr_);
    patch.saved = *patch.slot;
    *patch.slot = now + 1;
    refill = data_port_.request().addr;
    refilling = addr_in_cached_flash(refill);
  }
  const bool port_free = data_port_.idle() || finishing;

  // Virtual delivery of the in-flight local fetch (try_finish_fetch).
  // Words are validated against memory through the side-effect-free peek
  // path: a mismatch means code changed under the predecode (a write that
  // bypassed the invalidation funnel) and the cycle bails so the accurate
  // decoder re-reads it.
  u32 deliver_idx = 0;
  unsigned deliver_words = 0;
  if (fetch_state_ == FetchState::kLocalWait) {
    assert(now >= fetch_ready_at_);  // local fetches always take one cycle
    if (!blk.contains(fetch_addr_)) return bail(FastBail::kChunkTail);
    deliver_idx = blk.index_of(fetch_addr_);
    deliver_words = fetch_words_;
    if (deliver_idx + deliver_words > nops) {
      return bail(FastBail::kChunkTail);
    }
    for (unsigned w = 0; w < deliver_words; ++w) {
      if (peek_code_word(blk, deliver_idx + w) != blk.ops[deliver_idx + w].word) {
        return bail(FastBail::kStaleCode);
      }
    }
    // The accurate delivery reads each word through the ECC hook, and a
    // pending fault record there posts a safety alarm the window cannot
    // step: leave that read to step().
    const unsigned deliver_bytes = deliver_words * isa::kInstrBytes;
    if (blk.pspr ? env_.code_spr->array().fault_pending(
                       fetch_addr_ - env_.code_spr->base(), deliver_bytes)
                 : env_.flash->fault_pending(mem::pflash_offset(fetch_addr_),
                                             deliver_bytes)) {
      return bail(FastBail::kStaleCode);
    }
    assert(fw.count == 0 || deliver_idx == fw.front + fw.count);
  }
  const u32 q_front = fw.count == 0 ? deliver_idx : fw.front;
  const u32 q_count = fw.count + deliver_words;

  // Issue planning: the accurate issue loop's group rules and scoreboard
  // check (issue_hazard), with in-group hazards passed as written-register
  // masks — a register written earlier in the group has a future
  // scoreboard deadline in the accurate model, so a later candidate
  // sourcing it must not issue; conversely, every source an issuing op
  // reads is untouched by this group, so register values read during
  // planning (branch_taken) equal the commit-time values. A bus load's
  // destination goes to kFar at issue, which also stops a later op that
  // writes it (bus_dest).
  bool ip = false;
  bool ls = false;
  bool lp = false;
  unsigned plan = 0;
  bool redirected = false;
  StallCause stall = StallCause::kNone;
  u32 written_d = 0;
  u32 written_a = 0;
  bool bus_load = false;
  u8 bus_dest = 0;

  while (plan < config_.issue_width && plan < q_count) {
    const SuperOp& op = blk.ops[q_front + plan];
    if (op.flags & SuperOp::kBail) {
      // With nothing issued yet the unsupported op would execute this
      // cycle: bail. Otherwise it merely ends the group (SYS issues
      // alone) and stays queued for the accurate stepper.
      if (plan == 0) return bail(FastBail::kUnsupportedOp);
      break;
    }
    const auto pipe = static_cast<Pipe>(op.pipe);
    if (pipe == Pipe::kSys && plan > 0) break;  // NOP issues alone
    bool* slot = nullptr;
    switch (pipe) {
      case Pipe::kIp: slot = &ip; break;
      case Pipe::kLs: slot = &ls; break;
      case Pipe::kLp: slot = &lp; break;
      case Pipe::kSys: break;
    }
    if (slot != nullptr && *slot) break;  // pipe slot taken: group full

    if (const StallCause hazard =
            issue_hazard(op.regs, now, written_d, written_a);
        hazard != StallCause::kNone) {
      if (plan == 0) stall = hazard;
      break;
    }
    if (bus_load && op.regs.dest == bus_dest) break;

    if ((op.flags & (SuperOp::kLoad | SuperOp::kStore)) != 0) {
      if (env_.data_spr == nullptr) return bail(FastBail::kDataRoute);
      const Addr addr =
          a_[op.instr.ra] + static_cast<Addr>(op.instr.imm);
      const bool load = (op.flags & SuperOp::kLoad) != 0;
      const unsigned bytes = isa::access_bytes(op.instr.opcode);
      // A load over a pending ECC record posts an alarm, as a delivered
      // code word does, so it bails on every route. A store scrubs
      // records the same way in both tiers.
      bool ecc = false;
      if (env_.data_spr->contains(addr)) {
        ecc = load && env_.data_spr->array().fault_pending(
                          addr - env_.data_spr->base(), bytes);
      } else if (!port_free) {
        // Every other route waits for the LS port the in-flight
        // transaction holds: execute() fails structurally, a kLsPortBusy
        // stall, and later in a group the op just ends it.
        if (plan == 0) stall = StallCause::kLsPortBusy;
        break;
      } else if (!load) {
        return bail(FastBail::kDataRoute);  // a store over the bus
      } else if (env_.flash != nullptr &&
                 mem::is_pflash(addr, env_.flash_size)) {
        // A D-cache hit reads the array at issue. Any other flash load
        // reads it on the data port: an uncached load, or a D-cache miss
        // whose refill fills the line when it finishes. A read-buffer hit
        // completes in its grant cycle, so the checks that a completion
        // posts no alarm run here, for hits and misses alike.
        const bool hit =
            env_.dcache != nullptr && env_.dcache->config().enabled &&
            addr_in_cached_flash(addr) &&
            (refilling ? env_.dcache->probe_after_fill(addr, refill)
                       : env_.dcache->probe(addr));
        if (!hit) {
          if (!fw.flash_loads || env_.bus == nullptr) {
            return bail(FastBail::kDataRoute);
          }
          bus_load = true;
          bus_dest = op.regs.dest;
        }
        ecc = env_.flash->fault_pending(mem::pflash_offset(addr), bytes);
      } else if (fw.lmu_loads && env_.lmu != nullptr &&
                 addr - env_.lmu->base() < env_.lmu->array().size()) {
        // An LMU load has a fixed latency and, with no error armed on
        // the LMU slave, completes like an uncached flash load.
        bus_load = true;
        bus_dest = op.regs.dest;
        ecc = env_.lmu->array().fault_pending(addr - env_.lmu->base(), bytes);
      } else {
        // An SFR or DFlash read, or an LMU load with an error armed.
        return bail(FastBail::kDataRoute);
      }
      if (ecc) return bail(FastBail::kDataRoute);
    }

    if ((op.flags & SuperOp::kBranch) != 0 && branch_taken(op.instr)) {
      redirected = true;
    }

    if (const u8 dest = op.regs.dest; dest != isa::Operands::kNoReg) {
      if ((dest & isa::Operands::kAddrFile) != 0) {
        written_a |= 1u << (dest & 0xF);
      } else {
        written_d |= 1u << (dest & 0xF);
      }
    }
    if (slot != nullptr) *slot = true;
    ++plan;
    if (pipe == Pipe::kSys || redirected) break;
  }

  // Fetch-start planning (try_start_fetch, after the issue loop). A cycle
  // where the accurate stepper would start a fetch the window cannot
  // represent (off-chunk, I-cache miss, uncached code) must bail.
  const u32 q_after = q_count - plan;
  bool start_fetch = false;
  bool fetch_icache = false;
  unsigned fetch_words = 0;
  if (!redirected) {
    const bool fetch_idle =
        fetch_state_ == FetchState::kIdle || deliver_words != 0;
    if (fetch_idle &&
        q_after + config_.fetch_block_words <= config_.fetch_queue_depth) {
      const Addr pc = fetch_pc_;
      if (!blk.contains(pc)) return bail(FastBail::kFallOff);
      const u32 block_bytes = config_.fetch_block_words * isa::kInstrBytes;
      const Addr block_end = (pc & ~(block_bytes - 1)) + block_bytes;
      fetch_words = (block_end - pc) / isa::kInstrBytes;
      if (blk.index_of(pc) + fetch_words > nops) {
        return bail(FastBail::kChunkTail);
      }
      if (!blk.pspr) {
        // A probe miss means the accurate fetch would refill on the bus.
        if (!env_.icache->probe(pc)) return bail(FastBail::kIcacheMiss);
        fetch_icache = true;
      }
      start_fetch = true;
    }
  }

  // ---- Phase B: commit. The cycle is fully representable. --------------
  patch.slot = nullptr;  // finish_bus_data sets the same deadline
  ++cycles_;
  obs.present = true;
  if (finishing) finish_bus_data(now, obs);

  if (deliver_words != 0) {
    if (blk.pspr) {
      // The accurate delivery reads each word through the counted
      // scratchpad path; mirror its counter bumps (registered metrics).
      // Flash-backed delivery reads the backdoor array, which has no
      // observable side effects.
      for (unsigned w = 0; w < deliver_words; ++w) {
        (void)env_.code_spr->read(fetch_addr_ + w * isa::kInstrBytes, 4);
      }
    }
    if (fw.count == 0) fw.front = deliver_idx;
    fw.count += deliver_words;
    fetch_state_ = FetchState::kIdle;
  }

  for (unsigned k = 0; k < plan; ++k) {
    const u32 idx = q_front + k;
    const SuperOp& op = blk.ops[idx];
    const Addr pc = blk.base + idx * isa::kInstrBytes;
    next_pc_ = pc + isa::kInstrBytes;
    if ((op.flags & (SuperOp::kLoad | SuperOp::kStore)) != 0) {
      StallCause structural = StallCause::kNone;
      [[maybe_unused]] const bool issued =
          execute(Fetched{pc, op.instr}, now, obs, structural);
      assert(issued && "plan found the LS port free");
    } else {
      apply_op(op.instr, op.latency, pc, now, obs);
    }
    ++retired_;
    obs.retire_pc = pc;
  }
  obs.retired = static_cast<u8>(plan);
  fw.front = q_front + plan;
  fw.count = q_count - plan;

  if (obs.discontinuity) {
    // redirect() flushed the (empty) real queue; flush the virtual one.
    fw.count = 0;
    if (!blk.contains(next_pc_)) fw.left_chunk = true;
  }

  if (plan == 0) {
    obs.stall = q_count == 0 ? StallCause::kIFetch
                : stall == StallCause::kNone ? StallCause::kExecLatency
                                             : stall;
  }

  if (start_fetch) {
    if (fetch_icache) {
      obs.icache_access = true;
      obs.icache_hit = env_.icache->access(fetch_pc_);  // probe() said hit
    }
    fetch_addr_ = fetch_pc_;
    fetch_words_ = fetch_words;
    fetch_state_ = FetchState::kLocalWait;
    fetch_ready_at_ = now + 1;
    fetch_pc_ += fetch_words * isa::kInstrBytes;
  }
  return true;
}

}  // namespace audo::cpu
