#include "soc/soc.hpp"

#include <algorithm>

#include "fault/fault_injector.hpp"
#include "mem/memory_map.hpp"
#include "soc/tracer.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"

namespace audo::soc {

const char* to_string(WakeSource source) {
  switch (source) {
    case WakeSource::kStm: return "stm";
    case WakeSource::kWatchdog: return "wdt";
    case WakeSource::kCrank: return "crank";
    case WakeSource::kAdc: return "adc";
    case WakeSource::kCan: return "can";
    case WakeSource::kFault: return "fault";
    case WakeSource::kMcds: return "mcds";
    case WakeSource::kBudget: return "budget";
    case WakeSource::kCount: break;
  }
  return "?";
}

const char* to_string(FastGate gate) {
  switch (gate) {
    case FastGate::kInstrumented: return "instrumented";
    case FastGate::kFabricBusy: return "fabric_busy";
    case FastGate::kIrqPending: return "irq_pending";
    case FastGate::kPcpBusy: return "pcp_busy";
    case FastGate::kMonitorBusy: return "monitor_busy";
    case FastGate::kActivityNear: return "activity_near";
    case FastGate::kCount: break;
  }
  return "?";
}

namespace {

SrcIds make_srcs(periph::IrqRouter& router, unsigned dma_channels) {
  SrcIds s;
  s.stm0 = router.add_source("stm.cmp0");
  s.stm1 = router.add_source("stm.cmp1");
  s.crank_tooth = router.add_source("crank.tooth");
  s.crank_sync = router.add_source("crank.sync");
  s.adc_done = router.add_source("adc.done");
  s.can_rx = router.add_source("can.rx");
  s.can_tx = router.add_source("can.tx");
  s.wdt_timeout = router.add_source("wdt.timeout");
  s.smu_alarm = router.add_source("smu.alarm");
  for (unsigned i = 0; i < dma_channels; ++i) {
    s.dma_done.push_back(router.add_source("dma.done." + std::to_string(i)));
  }
  return s;
}

// Side-effect-free word reader the superblock cache uses to (re)validate
// predecoded code against backing memory (no counters, no fault hooks).
u32 read_mem_word(const void* ctx, u32 offset) {
  return static_cast<const mem::MemArray*>(ctx)->peek(offset, 4);
}

// The observation a core parked in WFI or halted publishes every cycle,
// attributed as the walk attributes it.
mcds::CoreObservation parked(const cpu::Cpu& cpu) {
  mcds::CoreObservation obs;
  obs.present = true;
  obs.stall = cpu.halted() ? mcds::StallCause::kHalted : mcds::StallCause::kWfi;
  obs.attr.symptom = obs.stall;
  obs.attr.root = cpu.halted() ? mcds::StallRootCause::kHalted
                               : mcds::StallRootCause::kWfi;
  return obs;
}

}  // namespace

Soc::Soc(const SocConfig& config)
    : config_(config),
      sri_(config.arbitration),
      pflash_(config.pflash),
      dflash_(mem::kDFlashBase, config.dflash),
      lmu_("LMU", mem::kLmuBase, config.lmu_bytes, config.lmu_latency),
      dspr_(mem::kDsprBase, config.dspr_bytes),
      pspr_(mem::kPsprBase, config.pspr_bytes),
      dspr_slave_("DSPR.sri", &dspr_, config.spr_slave_latency),
      pspr_slave_("PSPR.sri", &pspr_, config.spr_slave_latency),
      icache_(config.icache),
      dcache_(config.dcache),
      srcs_(make_srcs(irq_router_, config.dma_channels)),
      stm_(&irq_router_, srcs_.stm0, srcs_.stm1),
      watchdog_(&irq_router_, srcs_.wdt_timeout),
      crank_(periph::CrankWheel::Config{.clock_hz = config.clock_hz},
             &irq_router_, srcs_.crank_tooth, srcs_.crank_sync),
      adc_(periph::Adc::Config{}, &irq_router_, srcs_.adc_done),
      can_(periph::CanLite::Config{}, &irq_router_, srcs_.can_rx, srcs_.can_tx),
      dma_(config.dma_channels, &sri_, &irq_router_),
      monitor_(config.safety) {
  assert(config.valid());

  // --- bus fabric ----------------------------------------------------
  const unsigned s_fcode = s_fcode_ = sri_.add_slave(&pflash_.code_port());
  const unsigned s_fdata = s_fdata_ = sri_.add_slave(&pflash_.data_port());
  const unsigned s_dflash = sri_.add_slave(&dflash_);
  const unsigned s_lmu = s_lmu_ = sri_.add_slave(&lmu_);
  const unsigned s_bridge = sri_.add_slave(&bridge_);
  const unsigned s_dspr = sri_.add_slave(&dspr_slave_);
  const unsigned s_pspr = sri_.add_slave(&pspr_slave_);

  using bus::PortFilter;
  const u32 fsize = config.pflash.size;
  (void)sri_.map_region(mem::kPFlashCachedBase, fsize, s_fcode,
                        PortFilter::kFetchOnly);
  (void)sri_.map_region(mem::kPFlashUncachedBase, fsize, s_fcode,
                        PortFilter::kFetchOnly);
  (void)sri_.map_region(mem::kPFlashCachedBase, fsize, s_fdata,
                        PortFilter::kDataOnly);
  (void)sri_.map_region(mem::kPFlashUncachedBase, fsize, s_fdata,
                        PortFilter::kDataOnly);
  (void)sri_.map_region(mem::kDFlashBase, config.dflash.size, s_dflash);
  (void)sri_.map_region(mem::kLmuBase, config.lmu_bytes, s_lmu);
  (void)sri_.map_region(mem::kPeriphBase, mem::kPeriphSize, s_bridge);
  (void)sri_.map_region(mem::kDsprBase, config.dspr_bytes, s_dspr);
  (void)sri_.map_region(mem::kPsprBase, config.pspr_bytes, s_pspr);

  // --- SFR windows ----------------------------------------------------
  using namespace periph::sfr;
  bridge_.add_device(kStm, kWindow, &stm_);
  bridge_.add_device(kWatchdog, kWindow, &watchdog_);
  bridge_.add_device(kCrank, kWindow, &crank_);
  bridge_.add_device(kAdc, kWindow, &adc_);
  bridge_.add_device(kCan, kWindow, &can_);
  bridge_.add_device(kDma, 0x20u * config.dma_channels, &dma_);

  for (unsigned i = 0; i < config.dma_channels; ++i) {
    dma_.set_done_src(i, srcs_.dma_done[i]);
  }

  // --- cores ----------------------------------------------------------
  cpu::CpuConfig tc_cfg;
  tc_cfg.issue_width = config.tc_issue_width;
  cpu::Cpu::Env tc_env;
  tc_env.bus = &sri_;
  tc_env.code_spr = &pspr_;
  tc_env.data_spr = &dspr_;
  tc_env.icache = &icache_;
  tc_env.dcache = &dcache_;
  tc_env.flash = &pflash_.array();
  tc_env.flash_size = config.pflash.size;
  tc_env.lmu = &lmu_;
  tc_env.irq = &irq_router_.tc_view();
  // Fast-tier superblock regions: the code scratchpad and the cached
  // flash alias (uncached flash execution never enters a fast window).
  superblocks_.add_region(mem::kPsprBase, config.pspr_bytes, /*pspr=*/true,
                          &read_mem_word, &pspr_.array());
  superblocks_.add_region(mem::kPFlashCachedBase, config.pflash.size,
                          /*pspr=*/false, &read_mem_word, &pflash_.array());
  tc_env.superblocks = &superblocks_;
  // Runtime writes over PSPR code (core stores via the bus slave, DMA
  // deposits) drop the overlapping superblocks through one funnel.
  pspr_invalidator_.soc = this;
  pspr_.set_write_listener(&pspr_invalidator_);
  tc_ = std::make_unique<cpu::Cpu>(tc_cfg, tc_env);

  if (config.has_pcp) {
    pcp_pram_ = std::make_unique<mem::Scratchpad>(mem::kPcpPramBase,
                                                  config.pcp_pram_bytes);
    pcp_dram_ = std::make_unique<mem::Scratchpad>(mem::kPcpDramBase,
                                                  config.pcp_dram_bytes);
    pcp_dram_slave_ = std::make_unique<mem::ScratchpadSlave>(
        "PCP.DRAM.sri", pcp_dram_.get(), config.spr_slave_latency);
    const unsigned s_pcp_dram = sri_.add_slave(pcp_dram_slave_.get());
    (void)sri_.map_region(mem::kPcpDramBase, config.pcp_dram_bytes, s_pcp_dram);

    cpu::CpuConfig pcp_cfg;
    pcp_cfg.is_pcp = true;
    pcp_cfg.issue_width = 1;
    pcp_cfg.fetch_block_words = 2;
    pcp_cfg.fetch_master = bus::MasterId::kPcpData;  // PCP has one port
    pcp_cfg.data_master = bus::MasterId::kPcpData;
    cpu::Cpu::Env pcp_env;
    pcp_env.bus = &sri_;
    pcp_env.code_spr = pcp_pram_.get();
    pcp_env.data_spr = pcp_dram_.get();
    pcp_env.irq = &irq_router_.pcp_view();
    pcp_ = std::make_unique<cpu::Cpu>(pcp_cfg, pcp_env);
  }

  monitor_.bind(&irq_router_, srcs_.smu_alarm, tc_.get(), &watchdog_);
}

Soc::~Soc() { set_fault_injector(nullptr); }

void Soc::set_fault_injector(fault::FaultInjector* injector) {
  if (injector_ != nullptr) injector_->unbind();
  injector_ = injector;
  // Injectors poke memory arrays directly (ECC bit flips) below every
  // write listener: drop all predecoded superblocks on attach and detach
  // so no predecode built around a poke survives. While attached, windows
  // stay open: the injector's events bound them (next_activity_cycle), a
  // poke that lands later is caught as stale code, and a read that would
  // hit a pending ECC record bails to step().
  superblocks_.invalidate_all();
  if (injector_ == nullptr) return;
  fault::FaultInjector::Targets t;
  t.pflash = &pflash_.array();
  t.dspr = &dspr_.array();
  t.pspr = &pspr_.array();
  t.lmu = &lmu_.array();
  t.bus = &sri_;
  t.bridge = &bridge_;
  t.irq = &irq_router_;
  t.monitor = &monitor_;
  t.safety = config_.safety;
  injector_->bind(t);
}

Status Soc::load(const isa::Program& program) {
  for (const isa::Section& sec : program.sections()) {
    const Addr base = sec.base;
    // The memory that holds the section's base, and the base's offset
    // into it. The section must also end inside that memory: sections
    // come from user-assembled sources.
    mem::MemArray* array = nullptr;
    usize offset = 0;
    if (mem::is_pflash(base, config_.pflash.size)) {
      array = &pflash_.array();
      offset = mem::pflash_offset(base);
    } else if (dspr_.contains(base)) {
      array = &dspr_.array();
      offset = base - dspr_.base();
    } else if (pspr_.contains(base)) {
      array = &pspr_.array();
      offset = base - pspr_.base();
    } else if (pcp_pram_ != nullptr && pcp_pram_->contains(base)) {
      array = &pcp_pram_->array();
      offset = base - pcp_pram_->base();
    } else if (pcp_dram_ != nullptr && pcp_dram_->contains(base)) {
      array = &pcp_dram_->array();
      offset = base - pcp_dram_->base();
    } else if (base >= mem::kLmuBase &&
               base - mem::kLmuBase < config_.lmu_bytes) {
      array = &lmu_.array();
      offset = base - mem::kLmuBase;
    } else if (base >= mem::kDFlashBase &&
               base - mem::kDFlashBase < config_.dflash.size) {
      array = &dflash_.array();
      offset = base - mem::kDFlashBase;
    } else {
      return error(StatusCode::kOutOfRange,
                   "section '" + sec.name + "' at unmapped address");
    }
    if (sec.bytes.size() > array->size() - offset) {
      return error(StatusCode::kOutOfRange,
                   "section '" + sec.name + "' runs past the end of its memory");
    }
    // The array load below bypasses the scratchpad write listener, so
    // drop superblocks over the loaded range here.
    invalidate_code(base, static_cast<u32>(sec.bytes.size()));
    array->load(offset, sec.bytes);
  }
  return Status::ok();
}

void Soc::reset(Addr tc_entry, Addr pcp_entry) {
  cycle_ = 0;
  frame_ = mcds::ObservationFrame{};
  ff_stats_ = FastForwardStats{};
  tc_stall_totals_ = StallTotals{};
  pcp_stall_totals_ = StallTotals{};
  idle_deadlock_ = false;
  tc_->reset(tc_entry);
  if (pcp_ != nullptr) {
    // With no PCP program (entry 0) the PCP parks in WFI; with one, its
    // init code runs (sets BIV, base registers) and parks itself.
    pcp_->reset(pcp_entry, /*start_halted=*/pcp_entry == 0);
  }
  icache_.invalidate_all();
  dcache_.invalidate_all();
  pflash_.invalidate_buffers();
}

void Soc::invalidate_code(Addr addr, u32 bytes) {
  if (mem::is_pflash(addr, config_.pflash.size)) {
    // Superblocks only exist over the cached alias; normalise so a write
    // through either flash window drops them.
    superblocks_.invalidate(mem::kPFlashCachedBase + mem::pflash_offset(addr),
                            bytes);
  } else {
    superblocks_.invalidate(addr, bytes);
  }
}

void Soc::CodeWriteInvalidator::on_scratchpad_write(Addr addr,
                                                    unsigned bytes) {
  soc->invalidate_code(addr, bytes);
}

void Soc::step() {
  ++cycle_;
  const Cycle now = cycle_;
  // Hot path: only the core observations need clearing here. sri/flash/
  // dma are assigned wholesale in phase 4 from structs their components
  // re-initialize every cycle, so re-zeroing the whole frame (including
  // the per-master completed-transaction array) each cycle is pure waste.
  frame_.cycle = now;
  frame_.tc.reset();
  frame_.pcp.reset();
  frame_.safety.reset();

  using telemetry::StepPhase;
  if (probe_ != nullptr) probe_->begin_cycle();

  // Phase 0: scheduled faults land before anything samples state, so an
  // event "at cycle N" is visible to every component during cycle N.
  if (injector_ != nullptr) injector_->step(now);

  // Phase 1: peripherals (may post interrupts visible to cores this cycle).
  if (probe_ != nullptr) probe_->begin(StepPhase::kPeripherals);
  stm_.step(now);
  watchdog_.step(now);
  crank_.step(now);
  adc_.step(now);
  can_.step(now);
  if (probe_ != nullptr) probe_->end(StepPhase::kPeripherals);

  // Phase 2: DMA (bus master) and cores issue their bus requests.
  if (probe_ != nullptr) probe_->begin(StepPhase::kDma);
  dma_.step(now);
  if (probe_ != nullptr) {
    probe_->end(StepPhase::kDma);
    probe_->begin(StepPhase::kCores);
  }
  tc_->step(now, frame_.tc);
  if (pcp_ != nullptr) {
    pcp_->step(now, frame_.pcp);
  }
  if (probe_ != nullptr) probe_->end(StepPhase::kCores);

  // Phase 3: memories sample time, fabric arbitrates and completes.
  if (probe_ != nullptr) probe_->begin(StepPhase::kMemories);
  pflash_.tick(now);
  if (probe_ != nullptr) {
    probe_->end(StepPhase::kMemories);
    probe_->begin(StepPhase::kBus);
  }
  sri_.step(now);
  if (probe_ != nullptr) probe_->end(StepPhase::kBus);

  // Phase 4: publish the observation frame. The attribution walk runs
  // after sri_.step so port states and the crossbar's per-cycle blocking
  // record reflect this cycle's post-arbitration truth.
  if (probe_ != nullptr) probe_->begin(StepPhase::kObserve);
  frame_.sri = sri_.observation();
  frame_.flash = pflash_.strobes();
  frame_.dma = dma_.observation();
  attribute_core_stall(*tc_, frame_.tc, tc_stall_totals_);
  if (pcp_ != nullptr) {
    attribute_core_stall(*pcp_, frame_.pcp, pcp_stall_totals_);
  }
  if (monitor_.enabled()) frame_.safety = monitor_.step_cycle(now, frame_);
  // Service-request raises since the last publish (phases 1-4: peripheral
  // posts, DMA-done, SFR-written posts, safety alarms) become this
  // cycle's strobe record. take_raises clears the router's latch, so a
  // raise is attributed to exactly one frame.
  frame_.irq.reset();
  if (irq_router_.raises_pending()) {
    periph::IrqRouter::Raise raised[periph::IrqRouter::kMaxRaisesPerCycle];
    const unsigned n = irq_router_.take_raises(raised);
    for (unsigned i = 0; i < n && i < mcds::IrqObservation::kMaxRaises; ++i) {
      frame_.irq.raised[frame_.irq.count++] = mcds::IrqObservation::Raise{
          raised[i].priority, static_cast<u8>(raised[i].target)};
    }
  }
  for (FrameObserver* obs : observers_) obs->observe(frame_);
  if (probe_ != nullptr) probe_->end(StepPhase::kObserve);
}

void Soc::attribute_core_stall(const cpu::Cpu& cpu, mcds::CoreObservation& obs,
                               StallTotals& totals) {
  using mcds::StallCause;
  using mcds::StallRootCause;
  mcds::StallAttribution& attr = obs.attr;
  attr.symptom = obs.stall;
  attr.blocking_master = bus::MasterId::kCount;
  attr.blocking_slave = mcds::StallAttribution::kNoSlave;

  // Walk the responsible outstanding transaction: port waiting for a
  // grant -> lost arbitration (and the crossbar recorded to whom); port
  // being served -> the slave's service is the cost, refined for the two
  // flash ports into buffer-hit / array-read / port-conflict via the
  // flash's per-port access class. A stall with no bus transaction is a
  // core-local bubble (`fallback`).
  const auto walk_port = [&](const bus::MasterPort& port, bool on_bus,
                             StallRootCause fallback) {
    if (!on_bus || (!port.busy() && !port.done())) return fallback;
    const unsigned s = port.slave();
    attr.blocking_slave = static_cast<u8>(s);
    if (port.waiting_grant()) {
      attr.blocking_master = sri_.blocked_by(port.request().master);
      return StallRootCause::kBusArbitration;
    }
    if (s == s_fcode_ || s == s_fdata_) {
      switch (pflash_.access_class(s == s_fcode_)) {
        case mem::PFlash::AccessClass::kConflict:
          return StallRootCause::kFlashPortConflict;
        case mem::PFlash::AccessClass::kBufferHit:
          return StallRootCause::kFlashBuffer;
        default:
          return StallRootCause::kFlashRead;
      }
    }
    return StallRootCause::kBusSlaveBusy;
  };

  StallRootCause root = StallRootCause::kNone;
  if (obs.retired == 0) {
    switch (obs.stall) {
      case StallCause::kHalted:
        root = StallRootCause::kHalted;
        break;
      case StallCause::kWfi:
        root = StallRootCause::kWfi;
        break;
      case StallCause::kNone:
        // Zero-issue cycle without a symptom: irq/trap entry consumed it.
        root = StallRootCause::kFrontend;
        break;
      case StallCause::kExecLatency:
        root = StallRootCause::kExec;
        break;
      case StallCause::kIFetch:
        root = walk_port(cpu.fetch_port(), cpu.fetch_on_bus(),
                         StallRootCause::kFrontend);
        break;
      case StallCause::kLoadUse:
      case StallCause::kLsPortBusy:
        root = walk_port(cpu.data_port(), /*on_bus=*/true,
                         StallRootCause::kExec);
        break;
    }
  }
  attr.root = root;
  totals.cycles[static_cast<unsigned>(root)]++;
}

mcds::ObservationFrame Soc::make_idle_frame() const {
  mcds::ObservationFrame idle;
  idle.cycle = cycle_;
  idle.tc = parked(*tc_);
  if (pcp_ != nullptr) idle.pcp = parked(*pcp_);
  return idle;
}

void Soc::set_tracer(SocTracer* tracer) {
  std::erase(observers_, tracer_);
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  observers_.insert(observers_.begin(), tracer_);
  std::vector<std::string> names;
  names.reserve(sri_.slave_count());
  for (unsigned s = 0; s < sri_.slave_count(); ++s) {
    names.emplace_back(sri_.slave_name(s));
  }
  tracer_->set_slave_names(std::move(names));
}

void Soc::register_metrics(telemetry::MetricsRegistry& registry) const {
  const auto stall_metrics = [&registry](const char* component,
                                         const StallTotals& totals) {
    for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
      registry.counter(component,
                       std::string("stall.") +
                           mcds::to_string(static_cast<mcds::StallRootCause>(r)),
                       &totals.cycles[r]);
    }
  };
  tc_->register_metrics(registry, "tc");
  stall_metrics("tc", tc_stall_totals_);
  if (pcp_ != nullptr) {
    pcp_->register_metrics(registry, "pcp");
    stall_metrics("pcp", pcp_stall_totals_);
  }
  icache_.register_metrics(registry, "icache");
  dcache_.register_metrics(registry, "dcache");
  pflash_.register_metrics(registry, "pflash");
  dflash_.register_metrics(registry, "dflash");
  dspr_.register_metrics(registry, "dspr");
  pspr_.register_metrics(registry, "pspr");
  sri_.register_metrics(registry, "sri");
  irq_router_.register_metrics(registry, "irq");
  dma_.register_metrics(registry, "dma");
  monitor_.register_metrics(registry, "safety");
  if (injector_ != nullptr) injector_->register_metrics(registry, "fault");
  registry.counter("sim", "ff.skipped_cycles", &ff_stats_.skipped_cycles);
  registry.counter("sim", "ff.wakeups", &ff_stats_.wakeups);
  for (unsigned s = 0; s < kNumWakeSources; ++s) {
    registry.counter("sim",
                     std::string("ff.wake.") +
                         to_string(static_cast<WakeSource>(s)),
                     &ff_stats_.wake_counts[s]);
  }
  // Superblock-tier coverage. Host-side observability: values depend on
  // the exec tier, fast-forward mode and run chunking, so identity tests
  // strip the whole "exec" component (like "sim" host counters).
  registry.counter("exec", "fast_windows", &exec_stats_.windows);
  registry.counter("exec", "fast_cycles", &exec_stats_.fast_cycles);
  for (unsigned g = 0; g < kNumFastGates; ++g) {
    registry.counter("exec",
                     std::string("gate.") +
                         to_string(static_cast<FastGate>(g)),
                     &exec_stats_.gates[g]);
  }
  for (unsigned b = 1; b < cpu::kNumFastBails; ++b) {
    registry.counter("exec",
                     std::string("bail.") +
                         cpu::to_string(static_cast<cpu::FastBail>(b)),
                     &exec_stats_.bails[b]);
  }
}

void Soc::fill_exec_tier_report(telemetry::RunReport& report) const {
  telemetry::RunReport::ExecTierBlock& block = report.exec_tier;
  block.tier = config_.exec_tier == SocConfig::ExecTier::kSuperblock
                   ? "superblock"
                   : "accurate";
  block.windows = exec_stats_.windows;
  block.fast_cycles = exec_stats_.fast_cycles;
  const u64 accounted = exec_stats_.fast_cycles + ff_stats_.skipped_cycles;
  block.stepped_cycles = cycle_ > accounted ? cycle_ - accounted : 0;
  block.declines.clear();
  for (unsigned g = 0; g < kNumFastGates; ++g) {
    if (exec_stats_.gates[g] == 0) continue;
    block.declines.emplace_back(
        std::string("gate.") + to_string(static_cast<FastGate>(g)),
        exec_stats_.gates[g]);
  }
  for (unsigned b = 1; b < cpu::kNumFastBails; ++b) {
    if (exec_stats_.bails[b] == 0) continue;
    block.declines.emplace_back(
        std::string("bail.") + cpu::to_string(static_cast<cpu::FastBail>(b)),
        exec_stats_.bails[b]);
  }
  std::stable_sort(block.declines.begin(), block.declines.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
}

bool Soc::quiescent() const {
  if (!tc_->quiescent()) return false;
  if (pcp_ != nullptr && !pcp_->quiescent()) return false;
  if (!dma_.quiescent()) return false;
  return sri_.idle();
}

Cycle Soc::next_activity_cycle(WakeSource* source) const {
  Cycle best = periph::kNoActivity;
  WakeSource who = WakeSource::kBudget;
  const auto consider = [&](Cycle at, WakeSource src) {
    if (at < best) {
      best = at;
      who = src;
    }
  };
  consider(stm_.next_activity_cycle(cycle_), WakeSource::kStm);
  consider(watchdog_.next_activity_cycle(cycle_), WakeSource::kWatchdog);
  consider(crank_.next_activity_cycle(cycle_), WakeSource::kCrank);
  consider(adc_.next_activity_cycle(cycle_), WakeSource::kAdc);
  consider(can_.next_activity_cycle(cycle_), WakeSource::kCan);
  // PFlash is time-passive (next_activity_cycle is the sentinel) and the
  // crossbar/DMA are empty by the quiescent() precondition, so neither
  // contributes a candidate.
  if (injector_ != nullptr) {
    consider(injector_->next_activity_cycle(cycle_), WakeSource::kFault);
  }
  if (source != nullptr) *source = who;
  return best;
}

void Soc::skip_timed(u64 n) {
  stm_.skip(n);
  watchdog_.skip(n);
  crank_.skip(n);
  adc_.skip(n);
  can_.skip(n);
  pflash_.skip(n);
  if (pcp_ != nullptr) pcp_->skip(n);
}

void Soc::skip_idle(u64 n, WakeSource source, FrameSink* sink) {
  skip_timed(n);
  tc_->skip(n);
  // Attribution: each skipped cycle is exactly a parked-core cycle, so
  // the totals advance as n idle step()s would have advanced them.
  const mcds::ObservationFrame idle = make_idle_frame();
  tc_stall_totals_.cycles[static_cast<unsigned>(idle.tc.attr.root)] += n;
  if (pcp_ != nullptr) {
    pcp_stall_totals_.cycles[static_cast<unsigned>(idle.pcp.attr.root)] += n;
  }
  for (FrameObserver* obs : observers_) obs->skip_idle(idle, n);
  if (sink != nullptr) sink->skip_idle(idle, n);
  cycle_ += n;
  ff_stats_.skipped_cycles += n;
  ff_stats_.wakeups += 1;
  ff_stats_.wake_counts[static_cast<unsigned>(source)] += 1;
}

bool Soc::wake_impossible() const {
  if (injector_ != nullptr && !injector_->exhausted()) return false;
  if (watchdog_.enabled()) return false;
  // A wake needs an enabled service-request node whose delivery would do
  // something: trigger a DMA channel, or interrupt a core whose ICR
  // accepts the priority. CCPN/IE only change under executed instructions,
  // so for parked cores this scan is stable until an actual wake.
  for (unsigned s = 0; s < irq_router_.source_count(); ++s) {
    const periph::IrqRouter::SrcNode& node = irq_router_.node(s);
    if (!node.enabled || node.priority == 0) continue;
    switch (node.target) {
      case periph::IrqTarget::kDma:
        return false;  // a trigger re-arms a DMA channel
      case periph::IrqTarget::kTc:
        if (tc_->irq_acceptable(node.priority)) return false;
        break;
      case periph::IrqTarget::kPcp:
        if (pcp_ != nullptr && !pcp_->halted() &&
            pcp_->irq_acceptable(node.priority)) {
          return false;
        }
        break;
    }
  }
  return true;
}

bool Soc::window_may_complete(const bus::MasterPort& port) const {
  const bus::BusRequest& req = port.request();
  const unsigned s = port.slave();
  if (req.kind != bus::AccessKind::kRead || sri_.pending_slave_errors(s) != 0) {
    return false;
  }
  if (s == s_fdata_) {
    return !pflash_.array().fault_pending(mem::pflash_offset(req.addr),
                                          req.bytes);
  }
  return s == s_lmu_ &&
         !lmu_.array().fault_pending(req.addr - lmu_.base(), req.bytes);
}

u64 Soc::run_fast_window(u64 max_cycles, FrameSink* sink) {
  if (config_.exec_tier != SocConfig::ExecTier::kSuperblock) return 0;
  if (max_cycles == 0) return 0;
  const auto gate = [this](FastGate reason) -> u64 {
    ++exec_stats_.gates[static_cast<unsigned>(reason)];
    return 0;
  };
  const auto bail = [this](cpu::FastBail reason) -> u64 {
    ++exec_stats_.bails[static_cast<unsigned>(reason)];
    return 0;
  };
  // Window invariants (see cpu_fast.cpp): nothing outside the TC may act
  // during the window, and the only bus traffic is the TC's own data
  // transaction. The phase probe times step() phases that don't exist in
  // a window. A fault injector acts only at its event cycles, which bound
  // the window below; its stuck SFRs act on bridge reads, which no window
  // makes, and its bus errors and ECC records on completions, which a
  // window runs only where they post no alarm (window_may_complete).
  if (probe_ != nullptr) return gate(FastGate::kInstrumented);
  // The TC's own bus traffic is the common blocker on flash-bound code (a
  // load on the flash data port). A granted transaction alone on the
  // fabric stays in flight, and a done one is finished by the core's
  // first fast cycle. A completion the window may not run ends it the
  // cycle before, so that completion and the cycle consuming it are
  // stepped. Anything else declines here in O(1), before any scan.
  const bus::MasterPort& data = tc_->data_port();
  unsigned left = 0;  // service cycles left on `data`, completion included
  bool completes = true;
  if (data.busy()) {
    left = sri_.sole_service_left(data);
    completes = window_may_complete(data);
    if (left == 0 || (!completes && left < 2)) {
      return bail(cpu::FastBail::kDataBusy);
    }
  }
  if (tc_->fetch_on_bus()) return bail(cpu::FastBail::kFrontendBusy);
  if (!dma_.quiescent() || (left == 0 && !sri_.idle())) {
    return gate(FastGate::kFabricBusy);
  }
  if (irq_router_.raises_pending()) return gate(FastGate::kIrqPending);
  if (pcp_ != nullptr &&
      (!pcp_->quiescent() || (!pcp_->halted() && pcp_->needs_slow_step()))) {
    return gate(FastGate::kPcpBusy);
  }
  // With no error response on the fabric, the PCP parked, and trap
  // entries and reads of words with pending ECC records bailing, no alarm
  // source can fire inside the window, and the bound below keeps the
  // watchdog short of its deadline. A quiescent monitor therefore stays
  // an observable no-op for the whole window: per-cycle step_cycle() —
  // and with it the only in-window writers of raise/trap/halt state —
  // hoists out of the loop entirely. A non-quiescent monitor needs the
  // accurate stepper.
  if (monitor_.enabled() && !monitor_.quiescent()) {
    return gate(FastGate::kMonitorBusy);
  }

  // Bound the window strictly before the next scheduled activity: the
  // wake cycle itself (peripheral compare, crank tooth) is stepped
  // normally so its event replays exactly as in cycle-by-cycle mode.
  u64 bound = max_cycles;
  const Cycle next = next_activity_cycle();
  if (next != periph::kNoActivity) {
    if (next <= cycle_ + 1) return gate(FastGate::kActivityNear);
    bound = std::min<u64>(bound, next - cycle_ - 1);
  }
  if (!completes) bound = std::min<u64>(bound, left - 1);

  cpu::Cpu::FastWindow fw;
  // The core issues flash data-port and LMU loads only while their
  // completions post no error response.
  fw.flash_loads = sri_.pending_slave_errors(s_fdata_) == 0;
  fw.lmu_loads = sri_.pending_slave_errors(s_lmu_) == 0;
  if (!tc_->fast_enter(fw)) return bail(tc_->last_fast_bail());
  ++exec_stats_.windows;

  // Frame parts that are invariant across the window, apart from the
  // fabric and flash sections of a cycle with a grant or a completion,
  // which the bus phase below publishes from the crossbar's own step.
  // With no waiting master on the fabric, no DMA, and flash strobes that
  // only a grant sets, every other cycle's publish of these sections
  // equals what an accurate step() publishes (the same equivalence
  // skip_idle() is built on).
  frame_.sri = bus::FabricObservation{};
  frame_.flash = mem::PFlash::Strobes{};
  frame_.dma = mcds::DmaObservation{};
  unsigned pcp_root = 0;
  if (pcp_ != nullptr) {
    frame_.pcp = parked(*pcp_);
    pcp_root = static_cast<unsigned>(frame_.pcp.attr.root);
  } else {
    frame_.pcp.reset();
  }
  frame_.safety.reset();
  frame_.irq.reset();

  const bool in_flight = left != 0;  // a transaction entered with the core
  u64 ran = 0;
  u64 served = 0;          // service-only cycles not yet given to the crossbar
  Cycle bus_step = 0;      // cycle of the window's last crossbar step
  bool published = false;  // frame_.sri/.flash hold that step's sections
  bool open = true;
  bool stop = false;
  while (ran < bound && !stop) {
    const Cycle now = cycle_ + 1;
    frame_.cycle = now;
    frame_.tc.reset();
    // A bail leaves the machine (and cycle_) untouched; the dirtied frame
    // is rewritten by the step() that replays this cycle.
    if (!tc_->fast_cycle(fw, now, frame_.tc)) {
      bail(tc_->last_fast_bail());
      break;
    }
    cycle_ = now;
    ++ran;
    // Bus phase, after the core as in step()'s phases 2-3. A cycle with a
    // grant (the core issued) or a completion runs the flash's and the
    // crossbar's own step; a service-only cycle is counted and handed to
    // skip_service before the next step or after the window.
    if (published) {
      frame_.sri = bus::FabricObservation{};
      frame_.flash = mem::PFlash::Strobes{};
      published = false;
    }
    if (!data.idle()) {
      if (data.waiting_grant() || left == 1) {
        if (served != 0) {
          sri_.skip_service(served);
          served = 0;
        }
        pflash_.tick(now);
        sri_.step(now);
        assert(!data.waiting_grant() && "a window's grant is immediate");
        frame_.sri = sri_.observation();
        frame_.flash = pflash_.strobes();
        published = true;
        bus_step = now;
        left = data.done() ? 0 : sri_.sole_service_left(data);
      } else {
        --left;
        ++served;
      }
    }
    attribute_core_stall(*tc_, frame_.tc, tc_stall_totals_);
    if (pcp_ != nullptr) {
      pcp_stall_totals_.cycles[pcp_root] += 1;
    }
    for (FrameObserver* obs : observers_) obs->observe(frame_);
    if (sink != nullptr && !sink->on_frame(frame_)) {
      stop = true;
      sink_stopped_ = true;
    }
    if (fw.left_chunk) {
      // A taken control transfer left the chunk with a clean front end:
      // re-open on the target's chunk and keep going.
      tc_->fast_exit(fw);
      open = false;
      if (!stop) {
        if (tc_->fast_enter(fw)) {
          open = true;
          ++exec_stats_.windows;
        } else {
          bail(tc_->last_fast_bail());
          break;
        }
      }
    }
  }
  if (open) tc_->fast_exit(fw);
  // Bulk-advance everything that didn't run in the window, exactly as
  // skip_idle() does for idle stretches: the window bound guarantees no
  // peripheral had an activity cycle inside it, so skipping moves every
  // counter and deadline as `ran` stepped cycles would have. A crossbar
  // that carried the TC's transaction gets the service cycles since its
  // last step, which also clears that step's observation as the next
  // stepped cycle would; a fabric the window never touched has nothing
  // to advance.
  if (ran != 0) {
    skip_timed(ran);
    if ((in_flight || bus_step != 0) && bus_step != cycle_) {
      sri_.skip_service(served);
    }
  }
  exec_stats_.fast_cycles += ran;
  return ran;
}

u64 Soc::run(u64 max_cycles, FrameSink* sink) {
  const u64 budget =
      max_cycles == 0 ? kDefaultRunBudget : std::min(max_cycles, kDefaultRunBudget);
  idle_deadlock_ = false;
  sink_stopped_ = false;
  u64 steps = 0;
  while (steps < budget && !tc_->halted()) {
    // Superblock fast tier: burn through straight-line execution before
    // falling back to the accurate stepper for the next cycle.
    steps += run_fast_window(budget - steps, sink);
    if (steps >= budget || tc_->halted() || sink_stopped_) break;
    step();
    ++steps;
    // The sink sees the stepped cycle before any idle handling, so a veto
    // on the cycle the TC parks ends the run on that cycle.
    if (sink != nullptr && !sink->on_frame(frame_)) break;
    // Idle handling. The waiting() check keeps the dense-execution path to
    // one predicted branch; quiescent() then confirms that every pipeline,
    // port and DMA unit has actually drained.
    if (!tc_->waiting() || !quiescent()) continue;
    if (wake_impossible()) {
      // WFI park with nothing left that could ever wake the SoC: stepping
      // on would only burn the budget. Checked in both fast-forward modes
      // so the reported cycle count never depends on the mode.
      idle_deadlock_ = true;
      break;
    }
    if (!config_.fast_forward || steps >= budget) continue;
    WakeSource source = WakeSource::kBudget;
    const Cycle next = next_activity_cycle(&source);
    // next_activity_cycle() returns > cycle_; skip up to (not including)
    // the wake cycle, which is then stepped normally so the wake event
    // replays exactly as in cycle-by-cycle mode.
    u64 idle = next == periph::kNoActivity ? budget - steps : next - cycle_ - 1;
    if (idle >= budget - steps) {
      idle = budget - steps;
      source = WakeSource::kBudget;
    }
    // The sink's own schedule (periodic syncs, counter samples) lands in
    // stepped cycles too.
    if (sink != nullptr && idle != 0) {
      if (const u64 limit = sink->idle_skip_limit(make_idle_frame());
          limit < idle) {
        idle = limit;
        source = WakeSource::kMcds;
      }
    }
    if (idle == 0) continue;
    skip_idle(idle, source, sink);
    steps += idle;
  }
  return steps;
}

}  // namespace audo::soc
