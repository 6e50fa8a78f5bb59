// Superblock fast execution tier (DESIGN.md, "Execution tiers").
//
// Every fast cycle runs in two phases over a predecoded chunk:
//
//   phase A (plan)   — decide everything the cycle will do (delivery of
//                      the in-flight fetch, the issue group, the data
//                      route, the next fetch) touching no state. Any
//                      condition the fast model cannot represent —
//                      unsupported op, cache miss, bus route, stale code
//                      word — returns false with the machine untouched,
//                      and the caller replays the cycle with step().
//   phase B (commit) — apply the plan through a function-pointer
//                      dispatch table, reproducing the accurate
//                      stepper's mutations and observation strobes
//                      bit-for-bit (including counter bumps and cache
//                      LRU/stat updates).
//
// The window model freezes everything step() consults outside the core:
// no bus traffic but the core's own granted data transaction, no
// peripheral activity, no interrupt or trap delivery, no read that hits a
// pending ECC fault record. The owning Soc guarantees the outside
// invariants before opening a window and bounds it by the next peripheral
// or fault-injector activity cycle and by the cycle before that
// transaction completes; the plan phase bails on the records. While the
// transaction is in flight it holds the LS port (every non-scratchpad
// access bails) and, for a load, its destination at kFar, which the plan
// reads as the accurate stepper's load-use hazards.
#include <cassert>

#include "cpu/cpu.hpp"
#include "mem/memory_map.hpp"

namespace audo::cpu {

using isa::Opcode;
using isa::Pipe;
using isa::SuperOp;
using mcds::StallCause;

namespace {
// Mirror of the (file-local) helper in cpu.cpp.
u32 extend_loaded(Opcode op, u32 raw) {
  switch (op) {
    case Opcode::kLdB: return static_cast<u32>(static_cast<i32>(static_cast<i8>(raw)));
    case Opcode::kLdH: return static_cast<u32>(static_cast<i32>(static_cast<i16>(raw)));
    default: return raw;
  }
}
}  // namespace

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
// Per-opcode commit functors. Each mirrors the corresponding case of
// Cpu::execute() exactly (values, scoreboard deadlines, observation
// strobes, redirect behaviour).

struct FastExec {
  using Obs = mcds::CoreObservation;
  using Mem = Cpu::FastMemPlan;
  using Fn = void (*)(Cpu&, const SuperOp&, Addr, Cycle, Obs&, const Mem&);

  static void sd(Cpu& c, const SuperOp& op, u8 r, u32 v, Cycle now) {
    c.d_[r] = v;
    c.d_ready_[r] = now + op.latency;
  }
  static void sa(Cpu& c, const SuperOp& op, u8 r, u32 v, Cycle now) {
    c.a_[r] = v;
    c.a_ready_[r] = now + op.latency;
  }
  static Addr disp_target(const SuperOp& op, Addr pc) {
    return pc + isa::kInstrBytes + static_cast<Addr>(op.instr.imm * 4);
  }

  static void unreachable(Cpu&, const SuperOp&, Addr, Cycle, Obs&,
                          const Mem&) {
    assert(false && "bail-flagged op reached the fast dispatch table");
  }

  static void nop(Cpu&, const SuperOp&, Addr, Cycle, Obs&, const Mem&) {}

  // -- IP pipe ---------------------------------------------------------
  static void add(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] + c.d_[in.rb], now);
  }
  static void sub(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] - c.d_[in.rb], now);
  }
  static void and_(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] & c.d_[in.rb], now);
  }
  static void or_(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] | c.d_[in.rb], now);
  }
  static void xor_(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] ^ c.d_[in.rb], now);
  }
  static void shl(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] << (c.d_[in.rb] & 31), now);
  }
  static void shr(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] >> (c.d_[in.rb] & 31), now);
  }
  static void sar(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd,
       static_cast<u32>(static_cast<i32>(c.d_[in.ra]) >> (c.d_[in.rb] & 31)),
       now);
  }
  static void mul(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] * c.d_[in.rb], now);
  }
  static void mac(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.rd] + c.d_[in.ra] * c.d_[in.rb], now);
  }
  static void div(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    const i32 den = static_cast<i32>(c.d_[in.rb]);
    const i32 num = static_cast<i32>(c.d_[in.ra]);
    if (den == 0) {
      sd(c, op, in.rd, 0xFFFFFFFF, now);
    } else if (den == -1) {
      sd(c, op, in.rd, 0u - c.d_[in.ra], now);
    } else {
      sd(c, op, in.rd, static_cast<u32>(num / den), now);
    }
  }
  static void min(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd,
       static_cast<i32>(c.d_[in.ra]) < static_cast<i32>(c.d_[in.rb])
           ? c.d_[in.ra] : c.d_[in.rb],
       now);
  }
  static void max(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd,
       static_cast<i32>(c.d_[in.ra]) > static_cast<i32>(c.d_[in.rb])
           ? c.d_[in.ra] : c.d_[in.rb],
       now);
  }
  static void abs(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    const i32 v = static_cast<i32>(c.d_[in.ra]);
    sd(c, op, in.rd, static_cast<u32>(v < 0 ? -v : v), now);
  }
  static void addi(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] + static_cast<u32>(in.imm), now);
  }
  static void andi(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] & (static_cast<u32>(in.imm) & 0xFFFF), now);
  }
  static void ori(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] | (static_cast<u32>(in.imm) & 0xFFFF), now);
  }
  static void xori(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] ^ (static_cast<u32>(in.imm) & 0xFFFF), now);
  }
  static void shli(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] << (in.imm & 31), now);
  }
  static void shri(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd, c.d_[in.ra] >> (in.imm & 31), now);
  }
  static void sari(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sd(c, op, in.rd,
       static_cast<u32>(static_cast<i32>(c.d_[in.ra]) >> (in.imm & 31)), now);
  }
  static void movd(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    sd(c, op, op.instr.rd, static_cast<u32>(op.instr.imm), now);
  }
  static void movh(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    sd(c, op, op.instr.rd, (static_cast<u32>(op.instr.imm) & 0xFFFF) << 16,
       now);
  }
  static void mov_da(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    sd(c, op, op.instr.rd, c.a_[op.instr.ra], now);
  }

  // -- LS pipe: address-register ALU ------------------------------------
  static void mov_ad(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    sa(c, op, op.instr.rd, c.d_[op.instr.ra], now);
  }
  static void mov_a(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    sa(c, op, op.instr.rd, c.a_[op.instr.ra], now);
  }
  static void movha(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    sa(c, op, op.instr.rd, (static_cast<u32>(op.instr.imm) & 0xFFFF) << 16,
       now);
  }
  static void lea(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sa(c, op, in.rd, c.a_[in.ra] + static_cast<u32>(in.imm), now);
  }
  static void adda(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs&, const Mem&) {
    const auto& in = op.instr;
    sa(c, op, in.rd, c.a_[in.ra] + c.a_[in.rb], now);
  }

  // -- LS pipe: memory --------------------------------------------------
  static unsigned mem_bytes(Opcode op) {
    if (op == Opcode::kLdB || op == Opcode::kStB) return 1;
    if (op == Opcode::kLdH || op == Opcode::kStH) return 2;
    return 4;
  }
  static void load(Cpu& c, const SuperOp& op, Addr, Cycle now, Obs& obs,
                   const Mem& mem) {
    const auto& in = op.instr;
    const unsigned bytes = mem_bytes(in.opcode);
    u32 raw;
    if (mem.flash_hit) {
      obs.dcache_access = true;
      obs.dcache_hit = true;
      // probe() in phase A said hit; access() commits the LRU/stat update
      // the accurate path performs.
      c.env_.dcache->access(mem.addr);
      raw = c.env_.flash->read(mem::pflash_offset(mem.addr), bytes);
    } else {
      obs.dspr_access = true;
      raw = c.env_.data_spr->read(mem.addr, bytes);
    }
    const u32 value = extend_loaded(in.opcode, raw);
    if (in.opcode == Opcode::kLdA) {
      sa(c, op, in.rd, value, now);
    } else {
      sd(c, op, in.rd, value, now);
    }
    obs.data_access = true;
    obs.data_addr = mem.addr;
    obs.data_value = value;
    obs.data_bytes = static_cast<u8>(bytes);
  }
  static void store(Cpu& c, const SuperOp& op, Addr, Cycle, Obs& obs,
                    const Mem& mem) {
    const auto& in = op.instr;
    const unsigned bytes = mem_bytes(in.opcode);
    const u32 value = in.opcode == Opcode::kStA ? c.a_[in.rd] : c.d_[in.rd];
    obs.dspr_access = true;  // plan admits only the scratchpad route
    c.env_.data_spr->write(mem.addr, value, bytes);
    obs.data_access = true;
    obs.data_write = true;
    obs.data_addr = mem.addr;
    obs.data_value = value;
    obs.data_bytes = static_cast<u8>(bytes);
  }

  // -- LP pipe ----------------------------------------------------------
  static void j(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    c.redirect(disp_target(op, pc), obs);
  }
  static void ji(Cpu& c, const SuperOp& op, Addr, Cycle, Obs& obs, const Mem&) {
    c.redirect(c.a_[op.instr.ra], obs);
  }
  static void call(Cpu& c, const SuperOp& op, Addr pc, Cycle now, Obs& obs,
                   const Mem&) {
    sa(c, op, 11, pc + isa::kInstrBytes, now);
    c.redirect(disp_target(op, pc), obs);
  }
  static void calli(Cpu& c, const SuperOp& op, Addr pc, Cycle now, Obs& obs,
                    const Mem&) {
    sa(c, op, 11, pc + isa::kInstrBytes, now);
    c.redirect(c.a_[op.instr.ra], obs);
  }
  static void ret(Cpu& c, const SuperOp& op, Addr, Cycle, Obs& obs, const Mem&) {
    (void)op;
    c.redirect(c.a_[11], obs);
  }
  static void jeq(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    const auto& in = op.instr;
    if (c.d_[in.rd] == c.d_[in.ra]) c.redirect(disp_target(op, pc), obs);
  }
  static void jne(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    const auto& in = op.instr;
    if (c.d_[in.rd] != c.d_[in.ra]) c.redirect(disp_target(op, pc), obs);
  }
  static void jlt(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    const auto& in = op.instr;
    if (static_cast<i32>(c.d_[in.rd]) < static_cast<i32>(c.d_[in.ra])) {
      c.redirect(disp_target(op, pc), obs);
    }
  }
  static void jge(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    const auto& in = op.instr;
    if (static_cast<i32>(c.d_[in.rd]) >= static_cast<i32>(c.d_[in.ra])) {
      c.redirect(disp_target(op, pc), obs);
    }
  }
  static void jltu(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    const auto& in = op.instr;
    if (c.d_[in.rd] < c.d_[in.ra]) c.redirect(disp_target(op, pc), obs);
  }
  static void jgeu(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    const auto& in = op.instr;
    if (c.d_[in.rd] >= c.d_[in.ra]) c.redirect(disp_target(op, pc), obs);
  }
  static void jz(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    if (c.d_[op.instr.rd] == 0) c.redirect(disp_target(op, pc), obs);
  }
  static void jnz(Cpu& c, const SuperOp& op, Addr pc, Cycle, Obs& obs, const Mem&) {
    if (c.d_[op.instr.rd] != 0) c.redirect(disp_target(op, pc), obs);
  }
  static void loop(Cpu& c, const SuperOp& op, Addr pc, Cycle now, Obs& obs,
                   const Mem&) {
    const auto& in = op.instr;
    c.a_[in.rd] -= 1;
    c.a_ready_[in.rd] = now + 1;
    if (c.a_[in.rd] != 0) c.redirect(disp_target(op, pc), obs);
  }

  static std::array<Fn, isa::kNumOpcodes> make_table() {
    std::array<Fn, isa::kNumOpcodes> t{};
    t.fill(&unreachable);
    const auto set = [&t](Opcode op, Fn fn) {
      t[static_cast<usize>(op)] = fn;
    };
    set(Opcode::kNop, &nop);
    set(Opcode::kAdd, &add);
    set(Opcode::kSub, &sub);
    set(Opcode::kAnd, &and_);
    set(Opcode::kOr, &or_);
    set(Opcode::kXor, &xor_);
    set(Opcode::kShl, &shl);
    set(Opcode::kShr, &shr);
    set(Opcode::kSar, &sar);
    set(Opcode::kMul, &mul);
    set(Opcode::kMac, &mac);
    set(Opcode::kDiv, &div);
    set(Opcode::kMin, &min);
    set(Opcode::kMax, &max);
    set(Opcode::kAbs, &abs);
    set(Opcode::kAddi, &addi);
    set(Opcode::kAndi, &andi);
    set(Opcode::kOri, &ori);
    set(Opcode::kXori, &xori);
    set(Opcode::kShli, &shli);
    set(Opcode::kShri, &shri);
    set(Opcode::kSari, &sari);
    set(Opcode::kMovd, &movd);
    set(Opcode::kMovh, &movh);
    set(Opcode::kMovDA, &mov_da);
    set(Opcode::kMovAD, &mov_ad);
    set(Opcode::kMovA, &mov_a);
    set(Opcode::kMovha, &movha);
    set(Opcode::kLea, &lea);
    set(Opcode::kAdda, &adda);
    set(Opcode::kLdW, &load);
    set(Opcode::kLdH, &load);
    set(Opcode::kLdB, &load);
    set(Opcode::kLdA, &load);
    set(Opcode::kStW, &store);
    set(Opcode::kStH, &store);
    set(Opcode::kStB, &store);
    set(Opcode::kStA, &store);
    set(Opcode::kJ, &j);
    set(Opcode::kJi, &ji);
    set(Opcode::kCall, &call);
    set(Opcode::kCalli, &calli);
    set(Opcode::kRet, &ret);
    set(Opcode::kJeq, &jeq);
    set(Opcode::kJne, &jne);
    set(Opcode::kJlt, &jlt);
    set(Opcode::kJge, &jge);
    set(Opcode::kJltu, &jltu);
    set(Opcode::kJgeu, &jgeu);
    set(Opcode::kJz, &jz);
    set(Opcode::kJnz, &jnz);
    set(Opcode::kLoop, &loop);
    return t;
  }

  static const std::array<Fn, isa::kNumOpcodes> kTable;
};

const std::array<FastExec::Fn, isa::kNumOpcodes> FastExec::kTable =
    FastExec::make_table();

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
  // A granted load or store may stay in flight: the owning Soc ends the
  // window before it completes, so meanwhile it only occupies the LS port
  // and, for a load, holds its destination at kFar. One still waiting for
  // its grant, or completed and not yet consumed, needs the stepper.
  if (!fetch_port_.idle() || data_port_.waiting_grant() || data_port_.done()) {
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

  // Issue planning: mirrors the accurate issue loop. In-group hazards are
  // tracked as written-register masks — a register written earlier in the
  // group has a future scoreboard deadline in the accurate model, so a
  // later candidate sourcing it must not issue; conversely, every source
  // an issuing op reads is untouched by this group, so register values
  // read during planning equal the commit-time values.
  bool ip = false;
  bool ls = false;
  bool lp = false;
  unsigned plan = 0;
  bool redirected = false;
  StallCause stall = StallCause::kNone;
  u32 written_d = 0;
  u32 written_a = 0;
  FastMemPlan mem{};

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

    bool ready = true;
    bool load_use = false;
    for (const u8 enc : op.src) {
      if (enc == SuperOp::kNoReg) break;
      const u8 r = enc & 0xF;
      const bool addr_file = (enc & SuperOp::kAddrFile) != 0;
      const Cycle at = addr_file ? a_ready_[r] : d_ready_[r];
      const u32 written = addr_file ? written_a : written_d;
      if (at > now || ((written >> r) & 1) != 0) ready = false;
      if (at == kFar) load_use = true;
    }
    if (!ready) {
      // A source waiting on the in-flight bus load (its kFar deadline) is
      // a load-use stall; any other wait is execution latency.
      if (plan == 0) {
        stall = load_use ? StallCause::kLoadUse : StallCause::kExecLatency;
      }
      break;
    }
    // Nor may an op overwrite the in-flight load's destination before the
    // load completes (dest_blocked in the accurate issue loop).
    if (op.dest != SuperOp::kNoReg) {
      const u8 r = op.dest & 0xF;
      if (((op.dest & SuperOp::kAddrFile) != 0 ? a_ready_[r] : d_ready_[r]) ==
          kFar) {
        if (plan == 0) stall = StallCause::kLoadUse;
        break;
      }
    }

    if ((op.flags & (SuperOp::kLoad | SuperOp::kStore)) != 0) {
      if (env_.data_spr == nullptr) return bail(FastBail::kDataRoute);
      const Addr addr =
          a_[op.instr.ra] + static_cast<Addr>(op.instr.imm);
      const bool load = (op.flags & SuperOp::kLoad) != 0;
      const unsigned bytes = FastExec::mem_bytes(op.instr.opcode);
      if (env_.data_spr->contains(addr)) {
        mem = FastMemPlan{addr, false};
      } else if (!data_port_.idle()) {
        // Every other route, D-cache hits included, waits for the LS port
        // the in-flight transaction holds; the stepper reports that as
        // kLsPortBusy. Later in a group the op just ends it, as there.
        if (plan == 0) return bail(FastBail::kDataBusy);
        break;
      } else if (load && env_.dcache != nullptr &&
                 env_.dcache->config().enabled && addr_in_cached_flash(addr) &&
                 env_.dcache->probe(addr)) {
        mem = FastMemPlan{addr, true};
      } else {
        // Bus route or D-cache miss: accurate path only.
        return bail(FastBail::kDataRoute);
      }
      // A load over a pending ECC record posts an alarm, as a delivered
      // code word does. A store scrubs records the same way in both tiers.
      if (load &&
          (mem.flash_hit
               ? env_.flash->fault_pending(mem::pflash_offset(addr), bytes)
               : env_.data_spr->array().fault_pending(
                     addr - env_.data_spr->base(), bytes))) {
        return bail(FastBail::kDataRoute);
      }
    }

    if ((op.flags & SuperOp::kBranch) != 0) {
      bool taken = true;
      switch (op.instr.opcode) {
        case Opcode::kJeq: taken = d_[op.instr.rd] == d_[op.instr.ra]; break;
        case Opcode::kJne: taken = d_[op.instr.rd] != d_[op.instr.ra]; break;
        case Opcode::kJlt:
          taken = static_cast<i32>(d_[op.instr.rd]) <
                  static_cast<i32>(d_[op.instr.ra]);
          break;
        case Opcode::kJge:
          taken = static_cast<i32>(d_[op.instr.rd]) >=
                  static_cast<i32>(d_[op.instr.ra]);
          break;
        case Opcode::kJltu: taken = d_[op.instr.rd] < d_[op.instr.ra]; break;
        case Opcode::kJgeu: taken = d_[op.instr.rd] >= d_[op.instr.ra]; break;
        case Opcode::kJz: taken = d_[op.instr.rd] == 0; break;
        case Opcode::kJnz: taken = d_[op.instr.rd] != 0; break;
        case Opcode::kLoop: taken = a_[op.instr.rd] - 1 != 0; break;
        default: break;  // unconditional transfers
      }
      if (taken) redirected = true;
    }

    if (op.dest != SuperOp::kNoReg) {
      if ((op.dest & SuperOp::kAddrFile) != 0) {
        written_a |= 1u << (op.dest & 0xF);
      } else {
        written_d |= 1u << (op.dest & 0xF);
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
  ++cycles_;
  obs.present = true;

  if (deliver_words != 0) {
    if (blk.pspr) {
      // The accurate delivery reads each word through the counted
      // scratchpad path; mirror the counter bumps (registered metrics
      // and snapshot state). Flash-backed delivery reads the backdoor
      // array, which has no observable side effects.
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
    FastExec::kTable[static_cast<usize>(op.instr.opcode)](*this, op, pc, now,
                                                          obs, mem);
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
