// The product-chip part: composition of cores, memories, bus fabric and
// peripherals into one cycle-steppable SoC (Figure 2/4 of the paper,
// product-chip side). The Emulation Device (src/ed) wraps this class and
// adds the EEC without touching it — mirroring how the real ED contains
// the unchanged product chip.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "bus/crossbar.hpp"
#include "cache/cache.hpp"
#include "common/status.hpp"
#include "cpu/cpu.hpp"
#include "fault/safety_monitor.hpp"
#include "isa/program.hpp"
#include "isa/superblock.hpp"
#include "mcds/observation.hpp"
#include "mem/dflash.hpp"
#include "mem/pflash.hpp"
#include "mem/sram.hpp"
#include "periph/dma.hpp"
#include "periph/irq_router.hpp"
#include "periph/peripherals.hpp"
#include "periph/sfr_bridge.hpp"
#include "soc/soc_config.hpp"

namespace audo::telemetry {
class MetricsRegistry;
class PhaseProbe;
struct RunReport;
}

namespace audo::fault {
class FaultInjector;
}

namespace audo::soc {

class SocTracer;

/// Per-cycle frame consumer attached to the Soc: the timeline tracer, the
/// CPI-stack and DAG builders, frame digests. Every stepped and windowed
/// cycle reaches observers through one list, and each fast-forwarded idle
/// window arrives as one bulk notification, so their aggregates stay
/// bit-identical to stepping every cycle.
class FrameObserver {
 public:
  virtual ~FrameObserver() = default;
  /// One stepped cycle; `frame` is the fully published observation.
  virtual void observe(const mcds::ObservationFrame& frame) = 0;
  /// `n` skipped idle cycles, each equivalent to observing `idle`.
  virtual void skip_idle(const mcds::ObservationFrame& idle, u64 n) = 0;
};

/// The consumer a run() drives, with veto power: the Emulation Device's
/// EEC. It sees every cycle of the run — stepped, run in a fast window or
/// skipped idle — after the Soc's own observers. Plain observers can't
/// stop a run, which is why this is a separate interface.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// One stepped or windowed cycle, already fully published. Returning
  /// false (a trigger fired) ends the run after this cycle.
  virtual bool on_frame(const mcds::ObservationFrame& frame) = 0;
  /// How many repetitions of `idle` (the cycle already seen carries
  /// `idle.cycle`) the sink can absorb through skip_idle(). 0, the
  /// default, has every idle cycle stepped.
  virtual u64 idle_skip_limit(const mcds::ObservationFrame& idle) {
    (void)idle;
    return 0;
  }
  /// `n` skipped idle cycles, each equivalent to seeing `idle`; `n` is
  /// within idle_skip_limit().
  virtual void skip_idle(const mcds::ObservationFrame& idle, u64 n) {
    (void)idle;
    (void)n;
  }
};

/// Cumulative per-core stall-attribution buckets (one counter per
/// mcds::StallRootCause, kNone = cycles with issue). The buckets
/// partition the core's cycles: their sum equals cpu::Cpu::cycles().
struct StallTotals {
  std::array<u64, mcds::kNumStallRootCauses> cycles{};
  u64 total() const {
    u64 sum = 0;
    for (const u64 c : cycles) sum += c;
    return sum;
  }
  u64 operator[](mcds::StallRootCause root) const {
    return cycles[static_cast<unsigned>(root)];
  }
};

/// What ended an idle fast-forward window: the component whose scheduled
/// activity bounded the skip, or the run budget expiring first.
enum class WakeSource : u8 {
  kStm,
  kWatchdog,
  kCrank,
  kAdc,
  kCan,
  kFault,
  kMcds,    // EEC bounded the window (periodic sync / counter sample)
  kBudget,  // the run budget expired before the next activity
  kCount,
};
inline constexpr unsigned kNumWakeSources =
    static_cast<unsigned>(WakeSource::kCount);
const char* to_string(WakeSource source);

/// Cumulative idle fast-forward accounting (see SocConfig::fast_forward).
struct FastForwardStats {
  u64 skipped_cycles = 0;  // cycles jumped over instead of stepped
  u64 wakeups = 0;         // skip windows taken
  std::array<u64, kNumWakeSources> wake_counts{};
};

/// Why run_fast_window() declined to open a superblock window at the SoC
/// level, before the core's own fast_enter() got a say. Together with
/// cpu::FastBail these are the `exec/gate.*` / `exec/bail.*` metrics.
enum class FastGate : u8 {
  kInstrumented,  // phase probe attached
  kFabricBusy,    // DMA in flight or crossbar not idle
  kIrqPending,    // service-request raises awaiting delivery
  kPcpBusy,       // PCP running or about to act
  kMonitorBusy,   // safety monitor has pending reactions
  kActivityNear,  // next scheduled activity within one cycle
  kCount,
};
inline constexpr unsigned kNumFastGates =
    static_cast<unsigned>(FastGate::kCount);
const char* to_string(FastGate gate);

/// Cumulative superblock-tier coverage accounting: how much of the run
/// executed through fast windows and, when it didn't, why. Counters are
/// host-side observability only — they never feed back into timing — and
/// are excluded from cross-tier identity comparisons (they obviously
/// differ between tiers).
struct ExecTierStats {
  u64 windows = 0;      // fast windows opened (incl. chunk-chain re-entries)
  u64 fast_cycles = 0;  // cycles executed inside fast windows
  std::array<u64, kNumFastGates> gates{};       // SoC-level declines
  std::array<u64, cpu::kNumFastBails> bails{};  // core-level declines
};

/// Service-request node ids wired at construction.
struct SrcIds {
  unsigned stm0 = 0;
  unsigned stm1 = 0;
  unsigned crank_tooth = 0;
  unsigned crank_sync = 0;
  unsigned adc_done = 0;
  unsigned can_rx = 0;
  unsigned can_tx = 0;
  unsigned wdt_timeout = 0;
  unsigned smu_alarm = 0;
  std::vector<unsigned> dma_done;
};

class Soc {
 public:
  explicit Soc(const SocConfig& config);
  ~Soc();

  Soc(const Soc&) = delete;
  Soc& operator=(const Soc&) = delete;

  /// Load a program image: each section is placed by physical address
  /// (flash, scratchpads, LMU, PCP RAMs, DFlash).
  Status load(const isa::Program& program);

  /// Reset cores. The TC starts at `tc_entry`; the PCP (if present)
  /// starts parked in WFI at `pcp_entry` and runs channel programs on
  /// interrupts.
  void reset(Addr tc_entry, Addr pcp_entry = 0);

  /// Advance one clock cycle and publish the observation frame.
  void step();

  /// Hard ceiling on run(): even a caller asking for "unbounded"
  /// execution terminates — fault campaigns rely on this to turn
  /// livelocked runs into a reportable outcome rather than a hang.
  static constexpr u64 kDefaultRunBudget = 200'000'000;

  /// Run until the TC halts or `max_cycles` elapse; returns cycles run.
  /// `max_cycles` = 0 selects kDefaultRunBudget. With
  /// SocConfig::fast_forward (the default) idle stretches are jumped in
  /// O(1) — bit-identical to stepping them — and a WFI park with no
  /// enabled wake source returns immediately with idle_deadlock() set
  /// (in both modes) instead of burning the budget. This is the one run
  /// loop: `sink`, if given, sees every cycle after the observers, ends
  /// the run by vetoing a frame, and bounds each idle skip by its
  /// idle_skip_limit() (WakeSource::kMcds when that binds).
  u64 run(u64 max_cycles = 0, FrameSink* sink = nullptr);

  // ---- superblock fast tier (DESIGN.md, "Execution tiers") -----------

  /// Execute up to `max_cycles` cycles through the superblock fast tier,
  /// publishing a bit-identical ObservationFrame for every cycle (the
  /// observers and `sink` see each one). Returns the cycles run —
  /// 0 whenever the machine state doesn't admit a window (wrong tier,
  /// phase probe attached, bus traffic other than the TC's own granted
  /// or done data transaction, no superblock at the PC, ...), in which
  /// case the caller just step()s. The window carries the TC's
  /// latency-only reads whole — uncached flash loads, D-cache refills
  /// and LMU loads: the core issues and consumes them, and the window
  /// steps the flash and the crossbar for each grant and completion and
  /// counts the service cycles between. It lets the core issue them only
  /// while no error response is armed on their slave. A granted store,
  /// SFR or DFlash read stays in flight until the cycle before it
  /// completes, where the window ends. `sink` may end the
  /// window early by returning false. run() calls this at the top of its
  /// loop with its own sink, and ends the run when that sink ended the
  /// window.
  u64 run_fast_window(u64 max_cycles, FrameSink* sink = nullptr);

  /// Invalidate predecoded superblocks overlapping [addr, addr+bytes).
  /// Flash aliases are normalised, so a write through either the cached
  /// or uncached window drops the (single) cached-alias region. This is
  /// the one funnel every code-modification path flows through: program
  /// load, runtime PSPR writes (core stores, DMA — via the scratchpad
  /// write listener) and fault-injector attach.
  void invalidate_code(Addr addr, u32 bytes);

  const isa::SuperblockCache& superblocks() const { return superblocks_; }

  // ---- quiescence & idle fast-forward --------------------------------

  /// True when the next step() would only pass time: both cores parked
  /// (WFI/halted) with drained pipelines, no DMA unit in flight or ready,
  /// and an empty bus fabric. Peripheral timers keep counting; their next
  /// event bounds the skippable window.
  bool quiescent() const;

  /// Earliest future cycle at which any time-driven component does
  /// something (peripheral compare/deadline, crank tooth, scheduled
  /// fault). `source`, if non-null, receives the component that owns the
  /// minimum.
  Cycle next_activity_cycle(WakeSource* source = nullptr) const;

  /// Bulk-advance a quiescent SoC by `n` cycles in O(1): every relative
  /// counter and deadline moves exactly as `n` idle step() calls would
  /// have moved it. The observers, then `sink`, get the skip as `n`
  /// repetitions of make_idle_frame(). Callers must keep `n` below the
  /// distance to next_activity_cycle(), and within the sink's
  /// idle_skip_limit(). `source` labels what bounded the window in
  /// ff_stats().
  void skip_idle(u64 n, WakeSource source = WakeSource::kBudget,
                 FrameSink* sink = nullptr);

  /// The last run() ended because the SoC went quiescent with no enabled
  /// wake source left (WFI park forever): no pending fault events, no
  /// armed watchdog, and no enabled interrupt a core or the DMA would
  /// accept. Detected in both fast-forward modes.
  bool idle_deadlock() const { return idle_deadlock_; }

  const FastForwardStats& ff_stats() const { return ff_stats_; }

  /// Superblock-tier coverage counters (windows, fast cycles, per-reason
  /// gate/bail counts). All zero under ExecTier::kAccurate.
  const ExecTierStats& exec_stats() const { return exec_stats_; }

  /// Fill `report.exec_tier` from exec_stats(): tier name, window/cycle
  /// coverage split, and the nonzero gate/bail decline reasons sorted
  /// descending. Shared by every RunReport producer (audo-profile,
  /// audo-faultcamp, benches) so the block always means the same thing.
  void fill_exec_tier_report(telemetry::RunReport& report) const;

  Cycle cycle() const { return cycle_; }
  const mcds::ObservationFrame& frame() const { return frame_; }
  const SocConfig& config() const { return config_; }
  const SrcIds& srcs() const { return srcs_; }

  cpu::Cpu& tc() { return *tc_; }
  const cpu::Cpu& tc() const { return *tc_; }
  cpu::Cpu* pcp() { return pcp_.get(); }
  const cpu::Cpu* pcp() const { return pcp_.get(); }

  bus::Crossbar& sri() { return sri_; }
  const bus::Crossbar& sri() const { return sri_; }
  mem::PFlash& pflash() { return pflash_; }
  mem::DFlashSlave& dflash() { return dflash_; }
  mem::Scratchpad& dspr() { return dspr_; }
  mem::Scratchpad& pspr() { return pspr_; }
  mem::Scratchpad* pcp_dram() { return pcp_dram_.get(); }
  mem::SramSlave& lmu() { return lmu_; }
  cache::Cache& icache() { return icache_; }
  cache::Cache& dcache() { return dcache_; }

  periph::IrqRouter& irq_router() { return irq_router_; }
  periph::DmaController& dma() { return dma_; }
  periph::Stm& stm() { return stm_; }
  periph::CrankWheel& crank() { return crank_; }
  periph::Adc& adc() { return adc_; }
  periph::CanLite& can() { return can_; }
  periph::Watchdog& watchdog() { return watchdog_; }
  periph::PeriphBridge& bridge() { return bridge_; }
  fault::SafetyMonitor& safety() { return monitor_; }
  const fault::SafetyMonitor& safety() const { return monitor_; }

  /// Attach a fault injector: binds it to the memories, fabric, bridge
  /// and monitor, and steps it at the top of every cycle. The injector
  /// must outlive the SoC or be detached with nullptr first (detaching
  /// also unhooks its ECC domains from the memory arrays).
  void set_fault_injector(fault::FaultInjector* injector);
  fault::FaultInjector* fault_injector() { return injector_; }

  // ---- host telemetry (all optional, null by default) ----------------
  //
  // Attaching any of these cannot change architectural behaviour: the
  // tracer consumes the published frame read-only, the probe only reads
  // the host clock, and the registry stores pointers into statistics the
  // components maintain anyway.

  /// Attach the timeline tracer as the first frame observer, replacing any
  /// tracer attached before, and bind the crossbar's slave names for
  /// bus-span labels. Pass nullptr to detach. The Emulation Device's sink
  /// also feeds the tracer's EEC track through tracer().
  void set_tracer(SocTracer* tracer);
  SocTracer* tracer() { return tracer_; }

  /// Attach a frame observer (CPI-stack builder, DAG builder). It receives
  /// the published frame of every stepped and windowed cycle and a bulk
  /// notification for each fast-forwarded idle window. Replaces every
  /// observer but the tracer (nullptr detaches them); use
  /// add_frame_observer to stack several.
  void set_frame_observer(FrameObserver* observer) {
    observers_.resize(tracer_ != nullptr ? 1 : 0);  // the tracer is first
    add_frame_observer(observer);
  }
  /// Append an observer; notification order is attachment order.
  void add_frame_observer(FrameObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  // ---- stall attribution (DESIGN.md, "Stall attribution & interference
  // matrix") ----------------------------------------------------------

  /// Cumulative root-cause buckets per core. The kNone bucket counts
  /// cycles with issue, kWfi/kHalted the parked cycles (fast-forwarded
  /// idle windows land there in bulk), so the buckets always sum to the
  /// core's cycle count.
  const StallTotals& tc_stall_totals() const { return tc_stall_totals_; }
  const StallTotals& pcp_stall_totals() const { return pcp_stall_totals_; }

  /// The observation frame a skipped idle cycle is equivalent to: cores
  /// parked (kWfi/kHalted, attributed likewise), empty fabric, no
  /// strobes. skip_idle() hands it to the observers and the sink, and
  /// run() asks the sink's idle_skip_limit() with it, so idle windows feed
  /// triggers/counters bit-identically.
  mcds::ObservationFrame make_idle_frame() const;

  /// Attach a host phase profiler timing each step() phase.
  void set_phase_probe(telemetry::PhaseProbe* probe) { probe_ = probe; }
  telemetry::PhaseProbe* phase_probe() { return probe_; }

  /// Register every component's counters ("tc", "icache", "pflash",
  /// "sri", ...). Call once, after construction; samples reflect live
  /// state at each collect().
  void register_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  SocConfig config_;

  bus::Crossbar sri_;
  mem::PFlash pflash_;
  mem::DFlashSlave dflash_;
  mem::SramSlave lmu_;
  mem::Scratchpad dspr_;
  mem::Scratchpad pspr_;
  mem::ScratchpadSlave dspr_slave_;
  mem::ScratchpadSlave pspr_slave_;
  std::unique_ptr<mem::Scratchpad> pcp_pram_;
  std::unique_ptr<mem::Scratchpad> pcp_dram_;
  std::unique_ptr<mem::ScratchpadSlave> pcp_dram_slave_;

  cache::Cache icache_;
  cache::Cache dcache_;

  periph::IrqRouter irq_router_;
  periph::PeriphBridge bridge_;
  SrcIds srcs_;  // registered before the peripherals that post to them
  periph::Stm stm_;
  periph::Watchdog watchdog_;
  periph::CrankWheel crank_;
  periph::Adc adc_;
  periph::CanLite can_;
  periph::DmaController dma_;

  std::unique_ptr<cpu::Cpu> tc_;
  std::unique_ptr<cpu::Cpu> pcp_;

  fault::SafetyMonitor monitor_;
  fault::FaultInjector* injector_ = nullptr;

  isa::SuperblockCache superblocks_;
  /// Scratchpad write listener on the PSPR: routes runtime writes over
  /// code into invalidate_code() (the funnel above).
  struct CodeWriteInvalidator final : mem::ScratchpadWriteListener {
    Soc* soc = nullptr;
    void on_scratchpad_write(Addr addr, unsigned bytes) override;
  };
  CodeWriteInvalidator pspr_invalidator_;

  /// Provably no wake source can ever fire again (idle-deadlock scan);
  /// call only while quiescent() holds.
  bool wake_impossible() const;

  /// Bulk-advance by `n` cycles what idle skips and fast windows both
  /// leave unstepped: the STM, watchdog, crank, ADC, CAN, the flash and
  /// the parked PCP.
  void skip_timed(u64 n);

  /// Phase-4 attribution walk: refine the core's stall symptom into a
  /// root cause by inspecting the responsible port, the flash service
  /// class and the crossbar's per-cycle blocking record, then bump the
  /// core's totals bucket.
  void attribute_core_stall(const cpu::Cpu& cpu, mcds::CoreObservation& obs,
                            StallTotals& totals);

  /// Whether a fast window may run the completion of the transaction on
  /// `port`: a read on the flash data port or the LMU with no error
  /// response armed there and no pending ECC record on the bytes it
  /// reads, so that the completion posts no alarm for the hoisted monitor
  /// step to miss.
  bool window_may_complete(const bus::MasterPort& port) const;

  Cycle cycle_ = 0;
  mcds::ObservationFrame frame_;

  // Flash slave indices on the SRI (the walk refines stalls on these two
  // via PFlash::access_class; windows complete reads on the data port),
  // and the LMU's (windows complete reads there too).
  unsigned s_fcode_ = 0;
  unsigned s_fdata_ = 0;
  unsigned s_lmu_ = 0;

  StallTotals tc_stall_totals_;
  StallTotals pcp_stall_totals_;

  FastForwardStats ff_stats_;
  ExecTierStats exec_stats_;
  bool idle_deadlock_ = false;
  bool sink_stopped_ = false;  // a window's sink vetoed; run() clears it

  SocTracer* tracer_ = nullptr;
  std::vector<FrameObserver*> observers_;
  telemetry::PhaseProbe* probe_ = nullptr;
};

}  // namespace audo::soc
