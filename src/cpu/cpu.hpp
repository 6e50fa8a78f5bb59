// The TC core — a TriCore-flavoured in-order multi-issue CPU model — and,
// with a narrower configuration, the PCP coprocessor.
//
// Timing model (see DESIGN.md):
//  * fetch: naturally-aligned blocks from the program scratchpad (1 cycle),
//    the I-cache (1 cycle on hit, bus refill on miss) or, word-wise, over
//    the bus for non-cacheable code;
//  * issue: up to `issue_width` instructions per cycle, in order, at most
//    one per pipe (IP integer, LS load/store, LP loop/branch); SYS
//    instructions issue alone. This reproduces TriCore's "up to 3
//    instructions within a clock cycle" (§5);
//  * hazards: a register scoreboard delays consumers by the producer's
//    result latency; bus loads block consumers until the data returns;
//  * interrupts: priority-driven entry through a vector table (BIV), with
//    preemption of lower-priority handlers, as in the TriCore ICU model.
//
// Architectural state is updated at issue (except bus loads), so the model
// is deterministic and directly checkable by tests.
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "bus/crossbar.hpp"
#include "cache/cache.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "isa/core_regs.hpp"
#include "isa/isa.hpp"
#include "isa/superblock.hpp"
#include "mcds/observation.hpp"
#include "mem/mem_array.hpp"
#include "mem/sram.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::cpu {

struct CpuConfig {
  bool is_pcp = false;
  unsigned issue_width = 3;       // 1 for the PCP
  unsigned fetch_block_words = 4; // instructions per fetch access
  unsigned fetch_queue_depth = 8;
  bus::MasterId fetch_master = bus::MasterId::kTcFetch;
  bus::MasterId data_master = bus::MasterId::kTcData;
};

/// Why fast_enter()/fast_cycle() declined the fast tier and handed the
/// cycle back to the accurate stepper. Exported per-reason as the
/// `exec/bail.*` metrics and summarized in the RunReport exec_tier block
/// so the superblock tier's coverage is explainable, not just correct.
enum class FastBail : u8 {
  kNone = 0,
  kNoSuperblocks,  // superblock cache not wired (tier disabled)
  kFrontendBusy,   // fetch on the bus, flushed fetch, or a queue that
                   // does not continue the superblock
  kCoreState,      // wfi, halted, pending trap or acceptable interrupt
  kDataBusy,       // data transaction waiting for its grant, sharing
                   // the fabric, or completing next cycle where a window
                   // may not complete it; or fetch port busy
  kNoBlock,        // no superblock covers next_pc (or it is empty)
  kCodeRoute,      // pspr without scratchpad / flash without I-cache
  kStaleCode,      // code word changed under the predecode (SMC) or
                   // has a pending ECC fault record
  kChunkTail,      // fetch or delivery would run past the chunk end
  kFallOff,        // sequential execution left the chunk
  kUnsupportedOp,  // SYS op other than NOP, which only step() executes
  kDataRoute,      // data access needs the bus other than a load from
                   // the flash (uncached, or a D-cache miss) or the LMU:
                   // a store, an SFR or DFlash read; a flash or LMU load
                   // with an error response armed on its slave; or a
                   // load over a pending ECC fault record
  kIcacheMiss,     // code fetch would refill over the bus
  kCount,
};
inline constexpr unsigned kNumFastBails =
    static_cast<unsigned>(FastBail::kCount);
const char* to_string(FastBail bail);

/// Interface to the interrupt router: the highest-priority pending
/// service request targeting this core.
class IrqSource {
 public:
  virtual ~IrqSource() = default;
  virtual std::optional<u8> pending() const = 0;
  virtual void acknowledge(u8 prio) = 0;
};

class Cpu {
 public:
  /// Wiring to the rest of the SoC. Null members disable the feature
  /// (e.g. the PCP has no caches; a bare test CPU may have no bus).
  struct Env {
    bus::Crossbar* bus = nullptr;
    mem::Scratchpad* code_spr = nullptr;  // PSPR (TC) / PRAM (PCP)
    mem::Scratchpad* data_spr = nullptr;  // DSPR (TC) / PCP data RAM
    cache::Cache* icache = nullptr;
    cache::Cache* dcache = nullptr;
    /// Backing flash array for cache-hit reads (tag-only caches).
    mem::MemArray* flash = nullptr;
    u32 flash_size = 0;
    /// The LMU (TC only): its range and array let a fast window issue
    /// loads from it.
    const mem::SramSlave* lmu = nullptr;
    IrqSource* irq = nullptr;
    /// Superblock cache for the fast execution tier (see
    /// isa/superblock.hpp). Null disables fast_enter().
    isa::SuperblockCache* superblocks = nullptr;
  };

  Cpu(const CpuConfig& config, Env env);

  /// Reset the core to start execution at `entry`. If `start_halted` the
  /// core sits in WFI until the first interrupt (PCP channel model).
  void reset(Addr entry, bool start_halted = false);

  /// Advance one clock cycle; fills the core's observation record.
  void step(Cycle now, mcds::CoreObservation& obs);

  // -- fast execution tier (DESIGN.md, "Execution tiers") ---------------
  //
  // The superblock fast path executes straight-line code out of a
  // predecoded chunk with the fetch queue virtualised as an index range
  // into it. Every fast cycle is planned side-effect-free first (phase A)
  // and only committed when the whole cycle is representable (phase B);
  // a bail leaves the machine untouched, so the caller replays the same
  // cycle with step() and gets the identical observable outcome.

  /// Fast-tier cursor over one superblock. `front`/`count` are the
  /// virtualised fetch queue (indices into blk->ops): on entry it holds
  /// whatever the real queue held, and fetch_queue_ stays empty until
  /// fast_exit(). The real fetch machinery fields (fetch_pc_,
  /// fetch_state_, ...) stay live, including a local fetch in flight.
  struct FastWindow {
    const isa::Superblock* blk = nullptr;
    u32 front = 0;
    u32 count = 0;
    /// A taken control transfer left the chunk: the window exited with a
    /// consumed cycle, a clean front end, and next_pc_ at the target —
    /// the caller may immediately re-enter on the target's chunk.
    bool left_chunk = false;
    /// Set by the caller, which steps the fabric for the window: loads
    /// that read the flash data port (uncached loads and D-cache
    /// refills) may issue, because that port has no error response
    /// armed. Off, they bail.
    bool flash_loads = false;
    /// Likewise for loads from the LMU, on the LMU slave.
    bool lmu_loads = false;
  };

  /// Try to open a fast window at the current PC. The core needs no fetch
  /// on the bus and nothing pending. A load or store may be in flight
  /// once its port is granted, or done: the window finishes it as step()
  /// does, a D-cache refill's fill included. The caller runs the fabric
  /// around the window's cycles (Soc::run_fast_window steps the crossbar
  /// for grants and completions and ends the window before any
  /// completion it may not run). One waiting for its grant declines. The
  /// local front end may be live: the queued instructions are adopted as
  /// the virtual queue when they are consecutive ops of the superblock at
  /// next_pc() and equal its predecoded Instrs, and a local fetch that
  /// continues them stays in flight. Returns false when any condition
  /// fails or no superblock covers next_pc().
  bool fast_enter(FastWindow& fw);

  /// Execute one cycle inside the window. Returns false (machine
  /// untouched) when the cycle is not representable — the caller must
  /// fast_exit() and replay the cycle with step().
  bool fast_cycle(FastWindow& fw, Cycle now, mcds::CoreObservation& obs);

  /// Close the window: rematerialise the virtualised fetch queue into
  /// fetch_queue_ so step() continues exactly where the window stopped.
  void fast_exit(FastWindow& fw);

  /// True when the next cycle needs the accurate stepper regardless of
  /// code (halt, pending trap, or an acceptable interrupt). The fast
  /// window polls this after frame hooks that may react on the core
  /// (safety monitor).
  bool needs_slow_step() const;

  /// Why the most recent fast_enter()/fast_cycle() returned false.
  /// Meaningful only immediately after a failed call.
  FastBail last_fast_bail() const { return last_fast_bail_; }

  bool halted() const { return halted_; }
  bool waiting() const { return wfi_; }

  /// True when the next step() would only count time: the core is parked
  /// (WFI or halted) with the fetch and data paths drained and — for a
  /// WFI core — no pending trap and no acceptable interrupt. While this
  /// holds the core can be bulk-advanced with skip() instead of stepping.
  bool quiescent() const;

  /// Bulk-advance a quiescent core by `n` idle cycles. Only the cycle
  /// counter moves; quiescent() guarantees a per-cycle step() would have
  /// mutated nothing else.
  void skip(u64 n) { cycles_ += n; }

  /// Would a service request of `prio` be accepted right now (interrupts
  /// enabled and prio above the current CCPN)? Used by the SoC's
  /// idle-deadlock scan over enabled SRC nodes.
  bool irq_acceptable(u8 prio) const;

  u32 d(unsigned i) const { return d_.at(i); }
  u32 a(unsigned i) const { return a_.at(i); }
  void set_d(unsigned i, u32 v) { d_.at(i) = v; }
  void set_a(unsigned i, u32 v) { a_.at(i) = v; }
  Addr next_pc() const { return next_pc_; }

  u64 retired() const { return retired_; }
  u64 cycles() const { return cycles_; }
  /// Accesses that decoded to no bus region (read-as-zero / dropped) or
  /// completed with an injected error response.
  u64 bus_errors() const { return bus_errors_; }
  /// Trap-vector entries taken (see request_trap).
  u64 traps() const { return traps_; }

  /// Request asynchronous trap entry (safety-monitor reaction to an
  /// uncorrectable error). Taken at the start of the next step, before
  /// interrupt acceptance: the core pushes (return PC, ICR), disables
  /// interrupts and vectors to BTV + class * kVectorEntryBytes. With
  /// BTV = 0 (the reset value) the core halts instead — the safe default
  /// when no trap handler is installed.
  void request_trap(u8 trap_class);
  /// Immediately stop the core (safety-monitor kHaltCore reaction).
  void force_halt() { halted_ = true; }

  /// Register the core's counters under `component` ("tc"/"pcp").
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const;

  /// Snapshot support. Only valid while quiescent(): the fetch and data
  /// paths are drained then, so the durable state is architectural
  /// registers, the scoreboard (absolute-cycle deadlines), interrupt
  /// context and counters. restore_state() parks the fetch machinery at
  /// idle — any queued instructions at a quiescent point are dead, since
  /// every wake path (interrupt, trap) redirects and flushes the queue.
  void save_state(snapshot::Writer& w) const;
  void restore_state(snapshot::Reader& r);

  u32 icr() const { return icr_; }
  Addr biv() const { return biv_; }

  const CpuConfig& config() const { return config_; }

  // Read-only views of the bus ports for the SoC stall-attribution walk
  // (DESIGN.md, "Stall attribution & interference matrix"): given the
  // symptom in CoreObservation::stall, the walk inspects the matching
  // port to find which slave the stalled transaction targets and whether
  // it is still waiting for a grant or being served.
  const bus::MasterPort& fetch_port() const { return fetch_port_; }
  const bus::MasterPort& data_port() const { return data_port_; }
  /// True when the in-flight instruction fetch goes over the bus
  /// (I-cache refill or uncached code) rather than a local scratchpad /
  /// cache-hit path.
  bool fetch_on_bus() const { return fetch_state_ == FetchState::kBusWait; }

 private:
  struct Fetched {
    Addr pc;
    isa::Instr instr;
  };

  u32 peek_code_word(const isa::Superblock& blk, u32 idx) const;

  /// Record the fast-tier bail reason; always returns false so bail
  /// sites read `return bail(FastBail::kX);`.
  bool bail(FastBail reason) {
    last_fast_bail_ = reason;
    return false;
  }

  enum class FetchState : u8 { kIdle, kLocalWait, kBusWait };

  static constexpr Cycle kFar = ~Cycle{0};

  // -- fetch machinery -------------------------------------------------
  void try_start_fetch(Cycle now, mcds::CoreObservation& obs);
  void try_finish_fetch(Cycle now);
  void flush_fetch();
  bool addr_in_cached_flash(Addr addr) const;

  // -- issue machinery -------------------------------------------------
  void take_interrupt(u8 prio, Cycle now, mcds::CoreObservation& obs);
  void take_trap(mcds::CoreObservation& obs);
  /// Scoreboard verdict on issuing an op with operands `regs` at `now`:
  /// kNone when it may issue; kLoadUse when a source or the destination
  /// waits on an in-flight bus load; kExecLatency for any other source
  /// not ready yet. `written_d`/`written_a` mark registers written earlier
  /// in the same issue group that the scoreboard does not show yet (the
  /// fast tier commits its group after planning it).
  mcds::StallCause issue_hazard(const isa::Operands& regs, Cycle now,
                                u32 written_d = 0, u32 written_a = 0) const;
  /// Execute one instruction; returns false if it could not start
  /// (structural hazard) and sets `stall`.
  bool execute(const Fetched& f, Cycle now, mcds::CoreObservation& obs,
               mcds::StallCause& stall);
  /// The semantics of every op but the loads, stores and SYS ops other
  /// than NOP, for both tiers: the IP-pipe ALU, the address-register ALU
  /// and the LP-pipe control transfers. `pc` is the op's own address; its
  /// result is usable `latency` cycles after `now`.
  void apply_op(const isa::Instr& in, unsigned latency, Addr pc, Cycle now,
                mcds::CoreObservation& obs);
  /// Whether control transfer `in` is taken with the current registers;
  /// unconditional transfers always are. `loop` tests the counter it is
  /// about to decrement.
  bool branch_taken(const isa::Instr& in) const;
  void redirect(Addr target, mcds::CoreObservation& obs);
  u32 read_cr(u16 cr) const;
  void write_cr(u16 cr, u32 value);

  // -- data-side memory ------------------------------------------------
  enum class DataRoute : u8 { kSpr, kCachedFlashHit, kBus };
  /// Start a data access; returns the route taken or nullopt on a
  /// structural hazard (bus port busy).
  std::optional<DataRoute> start_data_access(const isa::Instr& instr,
                                             Addr addr, Cycle now,
                                             mcds::CoreObservation& obs);
  void finish_bus_data(Cycle now, mcds::CoreObservation& obs);
  /// Write back load `in`, which read `raw` at `addr`: the extended value
  /// goes to the destination, usable at `ready`, and into the data-trace
  /// strobes.
  void write_back_load(const isa::Instr& in, Addr addr, u32 raw, Cycle ready,
                       mcds::CoreObservation& obs);
  /// Store `in`'s value register at `addr`: into the data scratchpad when
  /// `local` and the scratchpad holds `addr` (other routes write over the
  /// bus or drop the write), and into the data-trace strobes.
  void commit_store(const isa::Instr& in, Addr addr, bool local,
                    mcds::CoreObservation& obs);
  /// Scoreboard entry of load `in`'s destination register.
  Cycle& ready_slot(const isa::Instr& in) {
    return in.opcode == isa::Opcode::kLdA ? a_ready_[in.rd] : d_ready_[in.rd];
  }

  CpuConfig config_;
  Env env_;

  // Architectural state.
  std::array<u32, 16> d_{};
  std::array<u32, 16> a_{};
  Addr next_pc_ = 0;  // PC of the next instruction in program order
  u32 icr_ = 0;
  Addr biv_ = 0;
  Addr btv_ = 0;
  u8 last_irq_prio_ = 0;
  u32 scratch_cr_[2] = {0, 0};
  std::vector<std::pair<Addr, u32>> irq_stack_;  // (return PC, saved ICR)

  // Scoreboard: cycle at which a register value becomes usable.
  std::array<Cycle, 16> d_ready_{};
  std::array<Cycle, 16> a_ready_{};

  // Fetch.
  std::deque<Fetched> fetch_queue_;
  Addr fetch_pc_ = 0;
  FetchState fetch_state_ = FetchState::kIdle;
  Cycle fetch_ready_at_ = 0;
  Addr fetch_addr_ = 0;        // address of the in-flight fetch
  unsigned fetch_words_ = 0;   // words the in-flight fetch will deliver
  bool fetch_discard_ = false; // in-flight fetch was flushed
  bus::MasterPort fetch_port_;

  // Data side.
  bus::MasterPort data_port_;
  bool load_pending_ = false;
  isa::Instr pending_load_instr_{};
  bool store_pending_ = false;  // write in flight (port busy, no waiters)

  // Status.
  bool halted_ = false;
  bool wfi_ = false;
  bool trap_pending_ = false;
  u8 trap_class_ = 0;
  u64 retired_ = 0;
  u64 cycles_ = 0;
  u64 bus_errors_ = 0;
  u64 traps_ = 0;

  FastBail last_fast_bail_ = FastBail::kNone;
};

// Both issue loops run these once per candidate op, so they are inline.

inline mcds::StallCause Cpu::issue_hazard(const isa::Operands& regs,
                                          Cycle now, u32 written_d,
                                          u32 written_a) const {
  using isa::Operands;
  const auto ready_at = [&](u8 reg) {
    return (reg & Operands::kAddrFile) != 0 ? a_ready_[reg & 0xF]
                                            : d_ready_[reg & 0xF];
  };
  bool ready = true;
  bool load_use = false;
  for (const u8 reg : regs.src) {
    if (reg == Operands::kNoReg) break;
    const Cycle at = ready_at(reg);
    const u32 written =
        (reg & Operands::kAddrFile) != 0 ? written_a : written_d;
    if (at > now || ((written >> (reg & 0xF)) & 1) != 0) ready = false;
    if (at == kFar) load_use = true;
  }
  // A source waiting on an in-flight bus load (its kFar deadline) is a
  // load-use stall; any other wait is execution latency.
  if (!ready) {
    return load_use ? mcds::StallCause::kLoadUse
                    : mcds::StallCause::kExecLatency;
  }
  // Nor may an op overwrite an in-flight load's destination before the
  // load completes.
  if (regs.dest != Operands::kNoReg && ready_at(regs.dest) == kFar) {
    return mcds::StallCause::kLoadUse;
  }
  return mcds::StallCause::kNone;
}

inline bool Cpu::branch_taken(const isa::Instr& in) const {
  using enum isa::Opcode;
  switch (in.opcode) {
    case kJeq: return d_[in.rd] == d_[in.ra];
    case kJne: return d_[in.rd] != d_[in.ra];
    case kJlt: return static_cast<i32>(d_[in.rd]) < static_cast<i32>(d_[in.ra]);
    case kJge: return static_cast<i32>(d_[in.rd]) >= static_cast<i32>(d_[in.ra]);
    case kJltu: return d_[in.rd] < d_[in.ra];
    case kJgeu: return d_[in.rd] >= d_[in.ra];
    case kJz: return d_[in.rd] == 0;
    case kJnz: return d_[in.rd] != 0;
    case kLoop: return a_[in.rd] - 1 != 0;
    default: return true;  // unconditional transfers
  }
}

}  // namespace audo::cpu
