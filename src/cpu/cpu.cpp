#include "cpu/cpu.hpp"

#include <algorithm>

#include "mem/memory_map.hpp"
#include "telemetry/metrics.hpp"

namespace audo::cpu {

void Cpu::register_metrics(telemetry::MetricsRegistry& registry,
                           std::string component) const {
  registry.counter(component, "retired", &retired_);
  registry.counter(component, "cycles", &cycles_);
  registry.counter(component, "bus_errors", &bus_errors_);
  registry.counter(std::move(component), "traps", &traps_);
}

using isa::Instr;
using isa::Opcode;
using isa::OpInfo;
using isa::Pipe;
using mcds::StallCause;

Cpu::Cpu(const CpuConfig& config, Env env) : config_(config), env_(env) {
  assert(config.issue_width >= 1 && config.issue_width <= 3);
  assert(config.fetch_block_words >= 1 &&
         config.fetch_block_words <= config.fetch_queue_depth);
}

void Cpu::reset(Addr entry, bool start_halted) {
  d_.fill(0);
  a_.fill(0);
  d_ready_.fill(0);
  a_ready_.fill(0);
  next_pc_ = entry;
  fetch_pc_ = entry;
  fetch_queue_.clear();
  fetch_state_ = FetchState::kIdle;
  fetch_discard_ = false;
  icr_ = 0;  // interrupts disabled out of reset (as on TriCore); EI enables
  biv_ = 0;
  btv_ = 0;
  irq_stack_.clear();
  halted_ = false;
  wfi_ = start_halted;
  trap_pending_ = false;
  trap_class_ = 0;
  load_pending_ = false;
  store_pending_ = false;
  retired_ = 0;
  cycles_ = 0;
  traps_ = 0;
  last_irq_prio_ = 0;
}

bool Cpu::addr_in_cached_flash(Addr addr) const {
  return env_.flash != nullptr &&
         mem::is_pflash_cached_alias(addr, env_.flash_size);
}

// --------------------------------------------------------------------------
// Fetch.

void Cpu::flush_fetch() {
  fetch_queue_.clear();
  if (fetch_state_ == FetchState::kBusWait) {
    fetch_discard_ = true;  // the bus transaction completes, result dropped
  } else {
    fetch_state_ = FetchState::kIdle;
  }
}

void Cpu::try_start_fetch(Cycle now, mcds::CoreObservation& obs) {
  if (fetch_state_ != FetchState::kIdle || fetch_discard_) return;
  if (halted_ || wfi_) return;
  if (fetch_queue_.size() + config_.fetch_block_words >
      config_.fetch_queue_depth) {
    return;
  }
  const Addr pc = fetch_pc_;
  const u32 block_bytes = config_.fetch_block_words * isa::kInstrBytes;
  const Addr block_end = (pc & ~(block_bytes - 1)) + block_bytes;
  const unsigned words = (block_end - pc) / isa::kInstrBytes;

  if (env_.code_spr != nullptr && env_.code_spr->contains(pc)) {
    fetch_addr_ = pc;
    fetch_words_ = words;
    fetch_state_ = FetchState::kLocalWait;
    fetch_ready_at_ = now + 1;
    fetch_pc_ = pc + words * isa::kInstrBytes;
    return;
  }
  if (addr_in_cached_flash(pc) && env_.icache != nullptr &&
      env_.icache->config().enabled) {
    obs.icache_access = true;
    if (env_.icache->access(pc)) {
      obs.icache_hit = true;
      fetch_addr_ = pc;
      fetch_words_ = words;
      fetch_state_ = FetchState::kLocalWait;
      fetch_ready_at_ = now + 1;
      fetch_pc_ = pc + words * isa::kInstrBytes;
      return;
    }
    obs.icache_miss = true;
    // Refill over the bus through the flash code port.
    if (env_.bus == nullptr) {
      halted_ = true;  // unrunnable configuration
      return;
    }
    bus::BusRequest req;
    req.master = config_.fetch_master;
    req.addr = pc;
    req.kind = bus::AccessKind::kRead;
    req.bytes = 4;
    req.fetch = true;
    if (!env_.bus->issue(fetch_port_, req, now)) {
      halted_ = true;
      return;
    }
    fetch_addr_ = pc;
    fetch_words_ = words;
    fetch_state_ = FetchState::kBusWait;
    fetch_pc_ = pc + words * isa::kInstrBytes;
    return;
  }
  // Non-cacheable code (uncached flash alias, LMU, ...): word-wise over
  // the bus — the realistic cost of running code out of uncached space.
  if (env_.bus == nullptr) {
    halted_ = true;
    return;
  }
  bus::BusRequest req;
  req.master = config_.fetch_master;
  req.addr = pc;
  req.kind = bus::AccessKind::kRead;
  req.bytes = 4;
  req.fetch = true;
  if (!env_.bus->issue(fetch_port_, req, now)) {
    halted_ = true;  // fetching from a hole in the address map
    return;
  }
  fetch_addr_ = pc;
  fetch_words_ = 1;
  fetch_state_ = FetchState::kBusWait;
  fetch_pc_ = pc + isa::kInstrBytes;
}

void Cpu::try_finish_fetch(Cycle now) {
  auto deliver = [&](unsigned words, auto&& read_word) {
    for (unsigned w = 0; w < words; ++w) {
      const Addr pc = fetch_addr_ + w * isa::kInstrBytes;
      auto decoded = isa::decode(read_word(pc));
      Instr instr;
      if (decoded.is_ok()) {
        instr = decoded.value();
      } else {
        instr.opcode = Opcode::kHalt;  // executing garbage stops the core
      }
      fetch_queue_.push_back(Fetched{pc, instr});
    }
    fetch_state_ = FetchState::kIdle;
  };

  if (fetch_state_ == FetchState::kLocalWait) {
    if (now < fetch_ready_at_) return;
    if (env_.code_spr != nullptr && env_.code_spr->contains(fetch_addr_)) {
      deliver(fetch_words_, [&](Addr pc) { return env_.code_spr->read(pc, 4); });
    } else {
      // I-cache hit: words come from the flash array backdoor.
      deliver(fetch_words_, [&](Addr pc) {
        return env_.flash->read32(mem::pflash_offset(pc));
      });
    }
    return;
  }
  if (fetch_state_ == FetchState::kBusWait && fetch_port_.done()) {
    const bool fetch_error = fetch_port_.error();
    const u32 rdata = fetch_port_.take_rdata();
    if (fetch_discard_) {
      fetch_discard_ = false;
      fetch_state_ = FetchState::kIdle;
      return;
    }
    if (fetch_error) {
      // An errored instruction fetch delivers garbage; executing it
      // stops the core, as with any undecodable word.
      ++bus_errors_;
      fetch_queue_.push_back(Fetched{fetch_addr_, Instr{.opcode = Opcode::kHalt}});
      fetch_state_ = FetchState::kIdle;
      return;
    }
    if (addr_in_cached_flash(fetch_addr_) && env_.icache != nullptr &&
        env_.icache->config().enabled) {
      env_.icache->fill(fetch_addr_);
      deliver(fetch_words_, [&](Addr pc) {
        return env_.flash->read32(mem::pflash_offset(pc));
      });
    } else {
      deliver(1, [&](Addr) { return rdata; });
    }
  }
}

// --------------------------------------------------------------------------
// Interrupts.

void Cpu::take_interrupt(u8 prio, Cycle now, mcds::CoreObservation& obs) {
  (void)now;
  irq_stack_.emplace_back(next_pc_, icr_);
  icr_ = (icr_ & ~isa::kIcrCcpnMask) |
         (static_cast<u32>(prio) << isa::kIcrCcpnShift);
  last_irq_prio_ = prio;
  wfi_ = false;
  env_.irq->acknowledge(prio);
  redirect(biv_ + prio * isa::kVectorEntryBytes, obs);
  obs.irq_entry = true;
  obs.irq_prio = prio;
}

void Cpu::request_trap(u8 trap_class) {
  if (halted_) return;
  trap_pending_ = true;
  trap_class_ = trap_class;
}

void Cpu::take_trap(mcds::CoreObservation& obs) {
  trap_pending_ = false;
  ++traps_;
  obs.trap_entry = true;
  obs.trap_class = trap_class_;
  wfi_ = false;
  if (btv_ == 0) {
    // No trap handler installed: contain the error by halting.
    halted_ = true;
    obs.stall = StallCause::kHalted;
    return;
  }
  irq_stack_.emplace_back(next_pc_, icr_);
  icr_ &= ~isa::kIcrIeBit;  // trap entry disables interrupts; RFE restores
  redirect(btv_ + trap_class_ * isa::kVectorEntryBytes, obs);
}

void Cpu::redirect(Addr target, mcds::CoreObservation& obs) {
  flush_fetch();
  next_pc_ = target;
  fetch_pc_ = target;
  obs.discontinuity = true;
  obs.discontinuity_target = target;
}

// --------------------------------------------------------------------------
// Data memory.

std::optional<Cpu::DataRoute> Cpu::start_data_access(
    const Instr& instr, Addr addr, Cycle now, mcds::CoreObservation& obs) {
  const OpInfo& info = isa::op_info(instr.opcode);
  const bool write = info.is_store;

  if (env_.data_spr != nullptr && env_.data_spr->contains(addr)) {
    obs.dspr_access = true;
    return DataRoute::kSpr;
  }
  // One LS unit: any non-scratchpad access waits for the outstanding bus
  // transaction, cached or not. Checked before the cache lookup so a
  // stalled access does not touch cache state/stats on every retry cycle.
  if (env_.bus != nullptr &&
      (!data_port_.idle() || load_pending_ || store_pending_)) {
    return std::nullopt;
  }
  if (!write && env_.dcache != nullptr && env_.dcache->config().enabled &&
      addr_in_cached_flash(addr)) {
    obs.dcache_access = true;
    if (env_.dcache->access(addr)) {
      obs.dcache_hit = true;
      return DataRoute::kCachedFlashHit;
    }
    obs.dcache_miss = true;
    // fall through to the bus (refill through the flash data port)
  }
  if (env_.bus == nullptr) return DataRoute::kSpr;  // bare test CPU
  bus::BusRequest req;
  req.master = config_.data_master;
  req.addr = addr;
  req.kind = write ? bus::AccessKind::kWrite : bus::AccessKind::kRead;
  req.bytes = static_cast<u8>(isa::access_bytes(instr.opcode));
  if (write) {
    req.wdata = instr.opcode == Opcode::kStA ? a_[instr.rd] : d_[instr.rd];
  }
  // Classify the target for the event strobes.
  if (env_.flash != nullptr && mem::is_pflash(addr, env_.flash_size)) {
    obs.flash_data_access = true;
  } else if (addr >= mem::kPeriphBase) {
    obs.periph_data_access = true;
  } else {
    obs.sram_data_access = true;
  }
  if (!env_.bus->issue(data_port_, req, now)) {
    ++bus_errors_;
    return DataRoute::kSpr;  // unmapped: reads-as-zero, writes dropped
  }
  if (write) {
    store_pending_ = true;
  } else {
    load_pending_ = true;
    pending_load_instr_ = instr;
  }
  return DataRoute::kBus;
}

void Cpu::finish_bus_data(Cycle now, mcds::CoreObservation& obs) {
  if (!data_port_.done()) return;
  const bus::BusRequest req = data_port_.request();
  const bool bus_error = data_port_.error();
  const u32 raw = data_port_.take_rdata();
  if (bus_error) ++bus_errors_;
  if (store_pending_) {
    store_pending_ = false;
    return;
  }
  assert(load_pending_);
  load_pending_ = false;
  // An errored load completes read-as-zero; detection is the safety
  // monitor's job (it sees the fabric's error-response strobe). The load's
  // data-trace record is emitted at completion (when the value exists);
  // local/cached accesses record at issue.
  write_back_load(pending_load_instr_, req.addr, bus_error ? 0 : raw, now + 1,
                  obs);
  // Tag-only D-cache: allocate the line now that the refill completed.
  if (env_.dcache != nullptr && env_.dcache->config().enabled &&
      addr_in_cached_flash(req.addr)) {
    env_.dcache->fill(req.addr);
  }
}

void Cpu::write_back_load(const Instr& in, Addr addr, u32 raw, Cycle ready,
                          mcds::CoreObservation& obs) {
  const u32 value = isa::extend_loaded(in.opcode, raw);
  if (in.opcode == Opcode::kLdA) {
    a_[in.rd] = value;
    a_ready_[in.rd] = ready;
  } else {
    d_[in.rd] = value;
    d_ready_[in.rd] = ready;
  }
  obs.data_access = true;
  obs.data_addr = addr;
  obs.data_value = value;
  obs.data_bytes = static_cast<u8>(isa::access_bytes(in.opcode));
}

void Cpu::commit_store(const Instr& in, Addr addr, bool local,
                       mcds::CoreObservation& obs) {
  const unsigned bytes = isa::access_bytes(in.opcode);
  const u32 value = in.opcode == Opcode::kStA ? a_[in.rd] : d_[in.rd];
  if (local && env_.data_spr != nullptr && env_.data_spr->contains(addr)) {
    env_.data_spr->write(addr, value, bytes);
  }
  obs.data_access = true;
  obs.data_write = true;
  obs.data_addr = addr;
  obs.data_value = value;
  obs.data_bytes = static_cast<u8>(bytes);
}

// --------------------------------------------------------------------------
// Core special-function registers.

u32 Cpu::read_cr(u16 cr) const {
  using isa::CoreReg;
  switch (static_cast<CoreReg>(cr)) {
    case CoreReg::kCoreId: return config_.is_pcp ? 1 : 0;
    case CoreReg::kIcr: return icr_;
    case CoreReg::kBiv: return biv_;
    case CoreReg::kCcntLo: return static_cast<u32>(cycles_);
    case CoreReg::kCcntHi: return static_cast<u32>(cycles_ >> 32);
    case CoreReg::kIcnt: return static_cast<u32>(retired_);
    case CoreReg::kIrqn: return last_irq_prio_;
    case CoreReg::kBtv: return btv_;
    case CoreReg::kScratch0: return scratch_cr_[0];
    case CoreReg::kScratch1: return scratch_cr_[1];
  }
  return 0;
}

void Cpu::write_cr(u16 cr, u32 value) {
  using isa::CoreReg;
  switch (static_cast<CoreReg>(cr)) {
    case CoreReg::kIcr:
      icr_ = value & (isa::kIcrIeBit | isa::kIcrCcpnMask);
      break;
    case CoreReg::kBiv:
      biv_ = value;
      break;
    case CoreReg::kBtv:
      btv_ = value;
      break;
    case CoreReg::kScratch0:
      scratch_cr_[0] = value;
      break;
    case CoreReg::kScratch1:
      scratch_cr_[1] = value;
      break;
    default:
      break;  // read-only or unknown: ignored
  }
}

// --------------------------------------------------------------------------
// Execute one instruction at issue.

bool Cpu::execute(const Fetched& f, Cycle now, mcds::CoreObservation& obs,
                  StallCause& stall) {
  const Instr& in = f.instr;
  const OpInfo& info = isa::op_info(in.opcode);
  using enum Opcode;

  next_pc_ = f.pc + isa::kInstrBytes;

  // Memory operations may fail structurally; resolve them first.
  if (info.is_load || info.is_store) {
    const Addr addr = a_[in.ra] + static_cast<Addr>(in.imm);
    const auto route = start_data_access(in, addr, now, obs);
    if (!route) {
      stall = StallCause::kLsPortBusy;
      return false;
    }
    if (info.is_store) {
      // kBus: the write is in flight; kSpr fallback for unmapped: dropped.
      commit_store(in, addr, *route == DataRoute::kSpr, obs);
      return true;
    }
    const unsigned bytes = isa::access_bytes(in.opcode);
    const Cycle ready = now + info.result_latency;
    switch (*route) {
      case DataRoute::kSpr: {
        u32 raw = 0;
        if (env_.data_spr != nullptr && env_.data_spr->contains(addr)) {
          raw = env_.data_spr->read(addr, bytes);
        }
        write_back_load(in, addr, raw, ready, obs);
        break;
      }
      case DataRoute::kCachedFlashHit:
        write_back_load(in, addr,
                        env_.flash->read(mem::pflash_offset(addr), bytes),
                        ready, obs);
        break;
      case DataRoute::kBus:
        ready_slot(in) = kFar;
        break;
    }
    return true;
  }

  switch (in.opcode) {
    case kHalt:
      // Drain outstanding memory traffic so architectural state is final
      // when the core reports halted.
      if (load_pending_ || store_pending_ || !data_port_.idle()) {
        stall = StallCause::kLsPortBusy;
        return false;
      }
      halted_ = true;
      break;
    case kWfi: wfi_ = true; break;
    case kEi: icr_ |= isa::kIcrIeBit; break;
    case kDi: icr_ &= ~isa::kIcrIeBit; break;
    case kDebug: obs.debug_marker = true; break;
    case kRfe: {
      if (irq_stack_.empty()) {
        halted_ = true;  // RFE outside an interrupt context
        break;
      }
      const auto [ret_pc, saved_icr] = irq_stack_.back();
      irq_stack_.pop_back();
      icr_ = saved_icr;
      obs.irq_exit = true;
      redirect(ret_pc, obs);
      break;
    }
    case kMfcr:
      d_[in.rd] = read_cr(static_cast<u16>(in.imm));
      d_ready_[in.rd] = now + info.result_latency;
      break;
    case kMtcr: write_cr(static_cast<u16>(in.imm), d_[in.ra]); break;
    default: apply_op(in, info.result_latency, f.pc, now, obs); break;
  }
  return true;
}

void Cpu::apply_op(const Instr& in, unsigned latency, Addr pc, Cycle now,
                   mcds::CoreObservation& obs) {
  using enum Opcode;
  const auto set_d = [&](u8 r, u32 v) {
    d_[r] = v;
    d_ready_[r] = now + latency;
  };
  const auto set_a = [&](u8 r, u32 v) {
    a_[r] = v;
    a_ready_[r] = now + latency;
  };
  const Addr next = pc + isa::kInstrBytes;
  const Addr target = next + static_cast<Addr>(in.imm * 4);

  switch (in.opcode) {
    case kNop: break;

    case kAdd: set_d(in.rd, d_[in.ra] + d_[in.rb]); break;
    case kSub: set_d(in.rd, d_[in.ra] - d_[in.rb]); break;
    case kAnd: set_d(in.rd, d_[in.ra] & d_[in.rb]); break;
    case kOr:  set_d(in.rd, d_[in.ra] | d_[in.rb]); break;
    case kXor: set_d(in.rd, d_[in.ra] ^ d_[in.rb]); break;
    case kShl: set_d(in.rd, d_[in.ra] << (d_[in.rb] & 31)); break;
    case kShr: set_d(in.rd, d_[in.ra] >> (d_[in.rb] & 31)); break;
    case kSar:
      set_d(in.rd, static_cast<u32>(static_cast<i32>(d_[in.ra]) >>
                                    (d_[in.rb] & 31)));
      break;
    case kMul: set_d(in.rd, d_[in.ra] * d_[in.rb]); break;
    case kMac: set_d(in.rd, d_[in.rd] + d_[in.ra] * d_[in.rb]); break;
    case kDiv: {
      const i32 den = static_cast<i32>(d_[in.rb]);
      const i32 num = static_cast<i32>(d_[in.ra]);
      // Hardware-defined corner cases: /0 -> all ones; INT_MIN/-1 wraps.
      if (den == 0) {
        set_d(in.rd, 0xFFFFFFFF);
      } else if (den == -1) {
        set_d(in.rd, 0u - d_[in.ra]);
      } else {
        set_d(in.rd, static_cast<u32>(num / den));
      }
      break;
    }
    case kMin:
      set_d(in.rd, static_cast<i32>(d_[in.ra]) < static_cast<i32>(d_[in.rb])
                       ? d_[in.ra] : d_[in.rb]);
      break;
    case kMax:
      set_d(in.rd, static_cast<i32>(d_[in.ra]) > static_cast<i32>(d_[in.rb])
                       ? d_[in.ra] : d_[in.rb]);
      break;
    case kAbs: {
      const i32 v = static_cast<i32>(d_[in.ra]);
      set_d(in.rd, static_cast<u32>(v < 0 ? -v : v));
      break;
    }
    case kAddi: set_d(in.rd, d_[in.ra] + static_cast<u32>(in.imm)); break;
    case kAndi: set_d(in.rd, d_[in.ra] & (static_cast<u32>(in.imm) & 0xFFFF)); break;
    case kOri:  set_d(in.rd, d_[in.ra] | (static_cast<u32>(in.imm) & 0xFFFF)); break;
    case kXori: set_d(in.rd, d_[in.ra] ^ (static_cast<u32>(in.imm) & 0xFFFF)); break;
    case kShli: set_d(in.rd, d_[in.ra] << (in.imm & 31)); break;
    case kShri: set_d(in.rd, d_[in.ra] >> (in.imm & 31)); break;
    case kSari:
      set_d(in.rd, static_cast<u32>(static_cast<i32>(d_[in.ra]) >> (in.imm & 31)));
      break;
    case kMovd: set_d(in.rd, static_cast<u32>(in.imm)); break;
    case kMovh: set_d(in.rd, (static_cast<u32>(in.imm) & 0xFFFF) << 16); break;
    case kMovDA: set_d(in.rd, a_[in.ra]); break;

    case kMovAD: set_a(in.rd, d_[in.ra]); break;
    case kMovA: set_a(in.rd, a_[in.ra]); break;
    case kAdda: set_a(in.rd, a_[in.ra] + a_[in.rb]); break;
    case kMovha: set_a(in.rd, (static_cast<u32>(in.imm) & 0xFFFF) << 16); break;
    case kLea: set_a(in.rd, a_[in.ra] + static_cast<u32>(in.imm)); break;

    case kJ: redirect(target, obs); break;
    case kJi: redirect(a_[in.ra], obs); break;
    case kCall:
      set_a(11, next);
      redirect(target, obs);
      break;
    case kCalli:
      set_a(11, next);
      redirect(a_[in.ra], obs);
      break;
    case kRet: redirect(a_[11], obs); break;
    case kJeq: case kJne: case kJlt: case kJge:
    case kJltu: case kJgeu: case kJz: case kJnz:
      if (branch_taken(in)) redirect(target, obs);
      break;
    case kLoop: {
      const bool taken = branch_taken(in);
      set_a(in.rd, a_[in.rd] - 1);
      if (taken) redirect(target, obs);
      break;
    }

    default:
      // Loads, stores and the SYS ops other than NOP never get here:
      // execute() and the fast commit handle them.
      assert(false && "apply_op: memory or SYS op");
      break;
  }
}

// --------------------------------------------------------------------------
// Quiescence (idle fast-forward support).

bool Cpu::irq_acceptable(u8 prio) const {
  const u8 ccpn =
      static_cast<u8>((icr_ & isa::kIcrCcpnMask) >> isa::kIcrCcpnShift);
  return (icr_ & isa::kIcrIeBit) != 0 && prio > ccpn;
}

bool Cpu::quiescent() const {
  if (!halted_ && !wfi_) return false;
  // Drained front end and data side: nothing in flight that a step()
  // could complete or retire.
  if (fetch_state_ != FetchState::kIdle || fetch_discard_) return false;
  if (load_pending_ || store_pending_) return false;
  if (!fetch_port_.idle() || !data_port_.idle()) return false;
  if (halted_) return true;  // halted cores ignore traps and interrupts
  if (trap_pending_) return false;
  if (env_.irq != nullptr) {
    if (const auto prio = env_.irq->pending();
        prio.has_value() && irq_acceptable(*prio)) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------------------
// One clock cycle.

void Cpu::step(Cycle now, mcds::CoreObservation& obs) {
  ++cycles_;
  obs.present = true;

  // Results of bus transactions that completed last cycle.
  finish_bus_data(now, obs);
  try_finish_fetch(now);

  if (halted_) {
    obs.stall = StallCause::kHalted;
    return;
  }

  // Trap entry wins over interrupt acceptance (uncorrectable errors are
  // not maskable); entry consumes the cycle.
  if (trap_pending_) {
    take_trap(obs);
    return;
  }

  // Interrupt acceptance (also wakes WFI).
  if (env_.irq != nullptr) {
    if (const auto prio = env_.irq->pending()) {
      const u8 ccpn =
          static_cast<u8>((icr_ & isa::kIcrCcpnMask) >> isa::kIcrCcpnShift);
      if ((icr_ & isa::kIcrIeBit) != 0 && *prio > ccpn) {
        take_interrupt(*prio, now, obs);
        obs.stall = StallCause::kNone;
        // Entry consumes the cycle; fetch of the handler starts next cycle.
        return;
      }
    }
  }
  if (wfi_) {
    obs.stall = StallCause::kWfi;
    return;
  }

  // Issue.
  bool ip_used = false;
  bool ls_used = false;
  bool lp_used = false;
  bool redirected = false;
  unsigned issued = 0;
  StallCause stall = StallCause::kNone;

  while (issued < config_.issue_width && !fetch_queue_.empty()) {
    const Fetched f = fetch_queue_.front();
    const OpInfo& info = isa::op_info(f.instr.opcode);

    if (info.pipe == Pipe::kSys && issued > 0) break;  // SYS issues alone
    bool* slot = nullptr;
    switch (info.pipe) {
      case Pipe::kIp: slot = &ip_used; break;
      case Pipe::kLs: slot = &ls_used; break;
      case Pipe::kLp: slot = &lp_used; break;
      case Pipe::kSys: break;
    }
    if (slot != nullptr && *slot) break;  // pipe slot taken: group full

    if (const StallCause hazard = issue_hazard(isa::operands(f.instr), now);
        hazard != StallCause::kNone) {
      if (issued == 0) stall = hazard;
      break;
    }
    // Pop before executing: control transfers flush the queue inside
    // execute(); a structural failure re-queues the instruction and points
    // next_pc_ back at it, so an interrupt or trap entered before it
    // retries returns to it rather than past it.
    fetch_queue_.pop_front();
    StallCause structural = StallCause::kNone;
    if (!execute(f, now, obs, structural)) {
      fetch_queue_.push_front(f);
      next_pc_ = f.pc;
      if (issued == 0) stall = structural;
      break;
    }
    if (slot != nullptr) *slot = true;
    ++issued;
    ++retired_;
    obs.retire_pc = f.pc;
    redirected = obs.discontinuity;
    if (info.pipe == Pipe::kSys || redirected || halted_ || wfi_) break;
  }

  obs.retired = static_cast<u8>(issued);
  // Stall-symptom precedence (deterministic; asserted by the
  // StallAttribution.SymptomPrecedence test): when several causes
  // coincide in one zero-issue cycle, exactly one symptom is reported:
  //   kHalted > trap entry > irq entry > kWfi   (early returns above),
  // then for an ordinary issue stall:
  //   1. kIFetch only when the fetch queue is EMPTY. With instructions
  //      queued, a concurrent fetch miss is *not* the stall — the oldest
  //      queued instruction's back-end hazard is, so a coinciding
  //      kIFetch + kLoadUse cycle reports kLoadUse.
  //   2. For that oldest instruction, kLoadUse (a source or destination
  //      register waiting on an in-flight bus load — the kFar scoreboard
  //      sentinel) outranks kExecLatency (finite-latency producer).
  //   3. kLsPortBusy when its execution could not start structurally.
  //   4. kExecLatency as the defensive default for any other zero-issue
  //      cycle with a non-empty queue.
  if (issued == 0) {
    obs.stall = fetch_queue_.empty() ? StallCause::kIFetch : stall;
    if (!fetch_queue_.empty() && stall == StallCause::kNone) {
      obs.stall = StallCause::kExecLatency;
    }
  }

  // Start the next fetch. A control transfer this cycle delays the first
  // fetch of the new stream to the next cycle (redirect penalty).
  if (!redirected) {
    try_start_fetch(now, obs);
  }
}

// --------------------------------------------------------------------------
// Snapshot support.

void Cpu::save_state(snapshot::Writer& w) const {
  for (u32 v : d_) w.put_u32(v);
  for (u32 v : a_) w.put_u32(v);
  w.put_u32(next_pc_);
  w.put_u32(icr_);
  w.put_u32(biv_);
  w.put_u32(btv_);
  w.put_u8(last_irq_prio_);
  w.put_u32(scratch_cr_[0]);
  w.put_u32(scratch_cr_[1]);
  w.put_u32(static_cast<u32>(irq_stack_.size()));
  for (const auto& [ret_pc, saved_icr] : irq_stack_) {
    w.put_u32(ret_pc);
    w.put_u32(saved_icr);
  }
  for (Cycle c : d_ready_) w.put_u64(c);
  for (Cycle c : a_ready_) w.put_u64(c);
  w.put_bool(halted_);
  w.put_bool(wfi_);
  w.put_bool(trap_pending_);
  w.put_u8(trap_class_);
  w.put_u64(retired_);
  w.put_u64(cycles_);
  w.put_u64(bus_errors_);
  w.put_u64(traps_);
}

void Cpu::restore_state(snapshot::Reader& r) {
  for (u32& v : d_) v = r.get_u32();
  for (u32& v : a_) v = r.get_u32();
  next_pc_ = r.get_u32();
  icr_ = r.get_u32();
  biv_ = r.get_u32();
  btv_ = r.get_u32();
  last_irq_prio_ = r.get_u8();
  scratch_cr_[0] = r.get_u32();
  scratch_cr_[1] = r.get_u32();
  irq_stack_.clear();
  const u32 frames = r.get_u32();
  for (u32 i = 0; i < frames && r.ok(); ++i) {
    const u32 ret_pc = r.get_u32();
    const u32 saved_icr = r.get_u32();
    irq_stack_.emplace_back(ret_pc, saved_icr);
  }
  for (Cycle& c : d_ready_) c = r.get_u64();
  for (Cycle& c : a_ready_) c = r.get_u64();
  halted_ = r.get_bool();
  wfi_ = r.get_bool();
  trap_pending_ = r.get_bool();
  trap_class_ = r.get_u8();
  retired_ = r.get_u64();
  cycles_ = r.get_u64();
  bus_errors_ = r.get_u64();
  traps_ = r.get_u64();

  // Park the front end and data side at idle — the quiescent capture
  // point guarantees nothing was in flight, and any residual fetch-queue
  // contents are unreachable (wake paths redirect and flush).
  fetch_queue_.clear();
  fetch_state_ = FetchState::kIdle;
  fetch_discard_ = false;
  fetch_ready_at_ = 0;
  fetch_addr_ = 0;
  fetch_words_ = 0;
  fetch_pc_ = next_pc_;
  load_pending_ = false;
  store_pending_ = false;
  pending_load_instr_ = isa::Instr{};
}

}  // namespace audo::cpu
