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

EventValues::EventValues(const ObservationFrame& f) {
  // The slots are assigned one by one rather than zeroed first: the
  // table is rebuilt every observed cycle. A new EventId needs its line
  // below; this count is the reminder.
  static_assert(kNumEvents == 52, "assign the new event in EventValues");
  const CoreObservation& tc = f.tc;
  const CoreObservation& pcp = f.pcp;
  const auto set = [this](EventId id, u32 value) {
    values_[static_cast<unsigned>(id)] = value;
  };
  const auto tc_root = [&](StallRootCause root) -> u32 {
    return (tc.present && tc.attr.root == root) ? 1 : 0;
  };
  const auto parked = [](const CoreObservation& c) -> u32 {
    return (c.present && (c.stall == StallCause::kWfi ||
                          c.stall == StallCause::kHalted)) ? 1 : 0;
  };
  set(EventId::kNone, 0);
  set(EventId::kCycles, 1);
  set(EventId::kTcRetired, tc.retired);
  set(EventId::kTcStalled, (tc.present && tc.retired == 0 &&
                            tc.stall != StallCause::kHalted) ? 1 : 0);
  set(EventId::kTcStallIFetch, tc.stall == StallCause::kIFetch ? 1 : 0);
  set(EventId::kTcStallLoadUse, tc.stall == StallCause::kLoadUse ? 1 : 0);
  set(EventId::kTcICacheAccess, tc.icache_access);
  set(EventId::kTcICacheHit, tc.icache_hit);
  set(EventId::kTcICacheMiss, tc.icache_miss);
  set(EventId::kTcDCacheAccess, tc.dcache_access);
  set(EventId::kTcDCacheHit, tc.dcache_hit);
  set(EventId::kTcDCacheMiss, tc.dcache_miss);
  set(EventId::kTcDataAccess, tc.data_access);
  set(EventId::kTcDataWrite, tc.data_access && tc.data_write);
  set(EventId::kTcDsprAccess, tc.dspr_access);
  set(EventId::kTcFlashDataAccess, tc.flash_data_access);
  set(EventId::kTcSramDataAccess, tc.sram_data_access);
  set(EventId::kTcPeriphDataAccess, tc.periph_data_access);
  set(EventId::kTcIrqEntry, tc.irq_entry);
  set(EventId::kTcIrqExit, tc.irq_exit);
  set(EventId::kTcDiscontinuity, tc.discontinuity);
  set(EventId::kTcStallRootFrontend, tc_root(StallRootCause::kFrontend));
  set(EventId::kTcStallRootExec, tc_root(StallRootCause::kExec));
  set(EventId::kTcStallRootFlashBuffer, tc_root(StallRootCause::kFlashBuffer));
  set(EventId::kTcStallRootFlashRead, tc_root(StallRootCause::kFlashRead));
  set(EventId::kTcStallRootFlashConflict,
      tc_root(StallRootCause::kFlashPortConflict));
  set(EventId::kTcStallRootBusArb, tc_root(StallRootCause::kBusArbitration));
  set(EventId::kTcStallRootBusBusy, tc_root(StallRootCause::kBusSlaveBusy));
  set(EventId::kTcStallRootWfi, tc_root(StallRootCause::kWfi));
  set(EventId::kPcpRetired, pcp.retired);
  set(EventId::kPcpStalled, (pcp.present && pcp.retired == 0 &&
                             pcp.stall != StallCause::kHalted &&
                             pcp.stall != StallCause::kWfi) ? 1 : 0);
  set(EventId::kPcpIrqEntry, pcp.irq_entry);
  set(EventId::kPcpDataAccess, pcp.data_access);
  set(EventId::kFlashCodeAccess, f.flash.code_access);
  set(EventId::kFlashCodeBufferHit, f.flash.code_buffer_hit);
  set(EventId::kFlashDataPortAccess, f.flash.data_access);
  set(EventId::kFlashDataBufferHit, f.flash.data_buffer_hit);
  set(EventId::kFlashPortConflict, f.flash.array_conflict);
  set(EventId::kBusGrant, f.sri.any_grant);
  set(EventId::kBusContention, f.sri.contention);
  set(EventId::kBusWaitingMasters, f.sri.waiting_masters);
  set(EventId::kDmaTransfer, f.dma.transfer);
  set(EventId::kSafetyEccCorrected, f.safety.ecc_corrected);
  set(EventId::kSafetyEccUncorrectable, f.safety.ecc_uncorrectable);
  set(EventId::kSafetyBusError, f.safety.bus_error);
  set(EventId::kSafetyWdtTimeout, f.safety.wdt_timeout);
  set(EventId::kSafetyTrap, f.safety.cpu_trap);
  set(EventId::kSafetyAlarmIrq, f.safety.alarm_irq);
  set(EventId::kDagIrqRaise, f.irq.count);
  set(EventId::kDagIsrEnter, ((tc.irq_entry || tc.trap_entry) ? 1u : 0u) +
                                 ((pcp.irq_entry || pcp.trap_entry) ? 1u : 0u));
  set(EventId::kDagIsrExit, (tc.irq_exit ? 1u : 0u) + (pcp.irq_exit ? 1u : 0u));
  set(EventId::kDagIdle, parked(tc) + parked(pcp));
}

u32 event_value(const ObservationFrame& f, EventId id) {
  if (static_cast<unsigned>(id) >= kNumEvents) return 0;
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
