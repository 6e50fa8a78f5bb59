#include "mcds/events.hpp"

namespace audo::mcds {

const char* to_string(StallCause cause) {
  switch (cause) {
    case StallCause::kNone: return "none";
    case StallCause::kIFetch: return "ifetch";
    case StallCause::kLoadUse: return "load-use";
    case StallCause::kLsPortBusy: return "ls-port-busy";
    case StallCause::kExecLatency: return "exec-latency";
    case StallCause::kWfi: return "wfi";
    case StallCause::kHalted: return "halted";
  }
  return "?";
}

const char* to_string(StallRootCause cause) {
  switch (cause) {
    case StallRootCause::kNone: return "issue";
    case StallRootCause::kFrontend: return "frontend";
    case StallRootCause::kExec: return "exec";
    case StallRootCause::kFlashBuffer: return "flash-buffer";
    case StallRootCause::kFlashRead: return "flash-read";
    case StallRootCause::kFlashPortConflict: return "flash-conflict";
    case StallRootCause::kBusArbitration: return "bus-arb";
    case StallRootCause::kBusSlaveBusy: return "bus-busy";
    case StallRootCause::kWfi: return "wfi";
    case StallRootCause::kHalted: return "halted";
    case StallRootCause::kCount: break;
  }
  return "?";
}

namespace {

constexpr unsigned idx(EventId id) { return static_cast<unsigned>(id); }

// Stall strobes follow their cause's order: the symptoms from kIFetch to
// kLoadUse, the root causes from kFrontend to kWfi.
static_assert(idx(EventId::kTcStallLoadUse) - idx(EventId::kTcStallIFetch) ==
              static_cast<unsigned>(StallCause::kLoadUse) -
                  static_cast<unsigned>(StallCause::kIFetch));
static_assert(idx(EventId::kTcStallRootWfi) - idx(EventId::kTcStallRootFrontend) ==
              static_cast<unsigned>(StallRootCause::kWfi) -
                  static_cast<unsigned>(StallRootCause::kFrontend));

bool parked(const CoreObservation& c) {
  return c.present &&
         (c.stall == StallCause::kWfi || c.stall == StallCause::kHalted);
}

}  // namespace

void accumulate_events(EventTotals& totals, const ObservationFrame& f, u32 n) {
  // A new EventId needs its line below; this count is the reminder.
  static_assert(kNumEvents == 52, "accumulate the new event here");
  u32* const t = totals.data();
  const CoreObservation& tc = f.tc;
  const CoreObservation& pcp = f.pcp;

  // Every cycle: the clock and the TC's retire, stall and fetch strobes,
  // added branch-free, and the parked cores.
  t[idx(EventId::kCycles)] += n;
  t[idx(EventId::kTcRetired)] += n * tc.retired;
  t[idx(EventId::kTcStalled)] +=
      n * (tc.present && tc.retired == 0 && tc.stall != StallCause::kHalted);
  t[idx(EventId::kTcICacheAccess)] += n * tc.icache_access;
  t[idx(EventId::kTcICacheHit)] += n * tc.icache_hit;
  t[idx(EventId::kTcICacheMiss)] += n * tc.icache_miss;
  t[idx(EventId::kTcDiscontinuity)] += n * tc.discontinuity;
  t[idx(EventId::kDagIdle)] += n * (parked(tc) + parked(pcp));

  // One strobe each: the TC's stall symptom and its root cause.
  if (tc.stall == StallCause::kIFetch || tc.stall == StallCause::kLoadUse) {
    t[idx(EventId::kTcStallIFetch) + static_cast<unsigned>(tc.stall) -
      static_cast<unsigned>(StallCause::kIFetch)] += n;
  }
  const StallRootCause root = tc.attr.root;
  if (tc.present && root >= StallRootCause::kFrontend &&
      root <= StallRootCause::kWfi) {
    t[idx(EventId::kTcStallRootFrontend) + static_cast<unsigned>(root) -
      static_cast<unsigned>(StallRootCause::kFrontend)] += n;
  }

  // Sections an uneventful cycle leaves empty: the PCP's activity, the
  // TC's data side, ...
  const bool pcp_stalled = pcp.present && pcp.retired == 0 &&
                           pcp.stall != StallCause::kHalted &&
                           pcp.stall != StallCause::kWfi;
  if ((pcp.retired != 0) | pcp.data_access | pcp_stalled) {
    t[idx(EventId::kPcpRetired)] += n * pcp.retired;
    t[idx(EventId::kPcpStalled)] += n * pcp_stalled;
    t[idx(EventId::kPcpDataAccess)] += n * pcp.data_access;
  }
  if (tc.dcache_access | tc.dcache_hit | tc.dcache_miss | tc.data_access |
      tc.dspr_access | tc.flash_data_access | tc.sram_data_access |
      tc.periph_data_access) {
    t[idx(EventId::kTcDCacheAccess)] += n * tc.dcache_access;
    t[idx(EventId::kTcDCacheHit)] += n * tc.dcache_hit;
    t[idx(EventId::kTcDCacheMiss)] += n * tc.dcache_miss;
    t[idx(EventId::kTcDataAccess)] += n * tc.data_access;
    t[idx(EventId::kTcDataWrite)] += n * (tc.data_access && tc.data_write);
    t[idx(EventId::kTcDsprAccess)] += n * tc.dspr_access;
    t[idx(EventId::kTcFlashDataAccess)] += n * tc.flash_data_access;
    t[idx(EventId::kTcSramDataAccess)] += n * tc.sram_data_access;
    t[idx(EventId::kTcPeriphDataAccess)] += n * tc.periph_data_access;
  }
  // ... the flash and fabric strobes, DMA, safety alarms, handler entry
  // and exit, and service-request raises.
  const mem::PFlash::Strobes& flash = f.flash;
  if (flash.code_access | flash.code_buffer_hit | flash.data_access |
      flash.data_buffer_hit | flash.array_conflict) {
    t[idx(EventId::kFlashCodeAccess)] += n * flash.code_access;
    t[idx(EventId::kFlashCodeBufferHit)] += n * flash.code_buffer_hit;
    t[idx(EventId::kFlashDataPortAccess)] += n * flash.data_access;
    t[idx(EventId::kFlashDataBufferHit)] += n * flash.data_buffer_hit;
    t[idx(EventId::kFlashPortConflict)] += n * flash.array_conflict;
  }
  const bus::FabricObservation& sri = f.sri;
  if (sri.any_grant | sri.contention | (sri.waiting_masters != 0)) {
    t[idx(EventId::kBusGrant)] += n * sri.any_grant;
    t[idx(EventId::kBusContention)] += n * sri.contention;
    t[idx(EventId::kBusWaitingMasters)] += n * sri.waiting_masters;
  }
  if (f.dma.transfer) t[idx(EventId::kDmaTransfer)] += n;
  const SafetyObservation& safety = f.safety;
  if ((safety.ecc_corrected | safety.ecc_uncorrectable) != 0 ||
      (safety.bus_error | safety.wdt_timeout | safety.cpu_trap |
       safety.alarm_irq)) {
    t[idx(EventId::kSafetyEccCorrected)] += n * safety.ecc_corrected;
    t[idx(EventId::kSafetyEccUncorrectable)] += n * safety.ecc_uncorrectable;
    t[idx(EventId::kSafetyBusError)] += n * safety.bus_error;
    t[idx(EventId::kSafetyWdtTimeout)] += n * safety.wdt_timeout;
    t[idx(EventId::kSafetyTrap)] += n * safety.cpu_trap;
    t[idx(EventId::kSafetyAlarmIrq)] += n * safety.alarm_irq;
  }
  if (tc.irq_entry | tc.trap_entry | tc.irq_exit | pcp.irq_entry |
      pcp.trap_entry | pcp.irq_exit) {
    t[idx(EventId::kTcIrqEntry)] += n * tc.irq_entry;
    t[idx(EventId::kTcIrqExit)] += n * tc.irq_exit;
    t[idx(EventId::kPcpIrqEntry)] += n * pcp.irq_entry;
    t[idx(EventId::kDagIsrEnter)] +=
        n * ((tc.irq_entry || tc.trap_entry) + (pcp.irq_entry || pcp.trap_entry));
    t[idx(EventId::kDagIsrExit)] += n * (tc.irq_exit + pcp.irq_exit);
  }
  if (f.irq.count != 0) t[idx(EventId::kDagIrqRaise)] += n * f.irq.count;
}

EventValues::EventValues(const ObservationFrame& frame) {
  accumulate_events(values_, frame, 1);
}

u32 event_value(const ObservationFrame& f, EventId id) {
  if (idx(id) >= kNumEvents) return 0;
  return EventValues(f)[id];
}

std::string_view event_name(EventId id) {
  switch (id) {
    case EventId::kNone: return "none";
    case EventId::kCycles: return "cycles";
    case EventId::kTcRetired: return "tc.retired";
    case EventId::kTcStalled: return "tc.stalled";
    case EventId::kTcStallIFetch: return "tc.stall.ifetch";
    case EventId::kTcStallLoadUse: return "tc.stall.load_use";
    case EventId::kTcICacheAccess: return "tc.icache.access";
    case EventId::kTcICacheHit: return "tc.icache.hit";
    case EventId::kTcICacheMiss: return "tc.icache.miss";
    case EventId::kTcDCacheAccess: return "tc.dcache.access";
    case EventId::kTcDCacheHit: return "tc.dcache.hit";
    case EventId::kTcDCacheMiss: return "tc.dcache.miss";
    case EventId::kTcDataAccess: return "tc.data.access";
    case EventId::kTcDataWrite: return "tc.data.write";
    case EventId::kTcDsprAccess: return "tc.dspr.access";
    case EventId::kTcFlashDataAccess: return "tc.flash.data_access";
    case EventId::kTcSramDataAccess: return "tc.sram.data_access";
    case EventId::kTcPeriphDataAccess: return "tc.periph.data_access";
    case EventId::kTcIrqEntry: return "tc.irq.entry";
    case EventId::kTcIrqExit: return "tc.irq.exit";
    case EventId::kTcDiscontinuity: return "tc.discontinuity";
    case EventId::kTcStallRootFrontend: return "tc.stall.root.frontend";
    case EventId::kTcStallRootExec: return "tc.stall.root.exec";
    case EventId::kTcStallRootFlashBuffer: return "tc.stall.root.flash_buffer";
    case EventId::kTcStallRootFlashRead: return "tc.stall.root.flash_read";
    case EventId::kTcStallRootFlashConflict:
      return "tc.stall.root.flash_conflict";
    case EventId::kTcStallRootBusArb: return "tc.stall.root.bus_arb";
    case EventId::kTcStallRootBusBusy: return "tc.stall.root.bus_busy";
    case EventId::kTcStallRootWfi: return "tc.stall.root.wfi";
    case EventId::kPcpRetired: return "pcp.retired";
    case EventId::kPcpStalled: return "pcp.stalled";
    case EventId::kPcpIrqEntry: return "pcp.irq.entry";
    case EventId::kPcpDataAccess: return "pcp.data.access";
    case EventId::kFlashCodeAccess: return "flash.code.access";
    case EventId::kFlashCodeBufferHit: return "flash.code.buffer_hit";
    case EventId::kFlashDataPortAccess: return "flash.data.access";
    case EventId::kFlashDataBufferHit: return "flash.data.buffer_hit";
    case EventId::kFlashPortConflict: return "flash.port.conflict";
    case EventId::kBusGrant: return "bus.grant";
    case EventId::kBusContention: return "bus.contention";
    case EventId::kBusWaitingMasters: return "bus.waiting_masters";
    case EventId::kDmaTransfer: return "dma.transfer";
    case EventId::kSafetyEccCorrected: return "safety.ecc.corrected";
    case EventId::kSafetyEccUncorrectable: return "safety.ecc.uncorrectable";
    case EventId::kSafetyBusError: return "safety.bus_error";
    case EventId::kSafetyWdtTimeout: return "safety.wdt_timeout";
    case EventId::kSafetyTrap: return "safety.trap";
    case EventId::kSafetyAlarmIrq: return "safety.alarm_irq";
    case EventId::kDagIrqRaise: return "dag.irq_raise";
    case EventId::kDagIsrEnter: return "dag.isr_enter";
    case EventId::kDagIsrExit: return "dag.isr_exit";
    case EventId::kDagIdle: return "dag.idle";
    case EventId::kEventCount: break;
  }
  return "?";
}

}  // namespace audo::mcds
