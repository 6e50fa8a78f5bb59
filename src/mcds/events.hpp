// The MCDS event-source mux: named performance events selectable as
// counter inputs and trigger terms (§3: cache hits/misses, bus
// contentions, etc.; §5: the "essential parameters for CPU system
// performance").
//
// An event's per-cycle value is a small count: 0/1 for strobes, 0..3 for
// retired instructions. Counters accumulate these values.
#pragma once

#include <array>
#include <cassert>
#include <string_view>

#include "mcds/observation.hpp"

namespace audo::mcds {

enum class EventId : u8 {
  kNone = 0,
  kCycles,          // constant 1 — the clock-based resolution basis
  // TriCore-like core.
  kTcRetired,       // 0..3 — basis for instruction-relative rates & IPC
  kTcStalled,       // 1 when the core retired nothing and is not halted
  kTcStallIFetch,
  kTcStallLoadUse,
  kTcICacheAccess,
  kTcICacheHit,
  kTcICacheMiss,
  kTcDCacheAccess,
  kTcDCacheHit,
  kTcDCacheMiss,
  kTcDataAccess,        // any data-side load/store
  kTcDataWrite,
  kTcDsprAccess,        // data scratchpad
  kTcFlashDataAccess,   // data-side access routed to the program flash
  kTcSramDataAccess,    // data-side access routed to the LMU
  kTcPeriphDataAccess,
  kTcIrqEntry,
  kTcIrqExit,
  kTcDiscontinuity,     // taken branches + irq entries
  // Stall root causes (cross-layer attribution walk; one strobe per
  // StallRootCause bucket of the TC's per-cycle StallAttribution).
  kTcStallRootFrontend,
  kTcStallRootExec,
  kTcStallRootFlashBuffer,
  kTcStallRootFlashRead,
  kTcStallRootFlashConflict,
  kTcStallRootBusArb,
  kTcStallRootBusBusy,
  kTcStallRootWfi,
  // PCP.
  kPcpRetired,
  kPcpStalled,
  kPcpIrqEntry,
  kPcpDataAccess,
  // Flash macro (chip-level: all masters).
  kFlashCodeAccess,
  kFlashCodeBufferHit,
  kFlashDataPortAccess,
  kFlashDataBufferHit,
  kFlashPortConflict,
  // Bus fabric.
  kBusGrant,
  kBusContention,
  kBusWaitingMasters,   // 0..N
  // DMA.
  kDmaTransfer,
  // Safety monitor (SMU-like alarm aggregation; see src/fault/).
  kSafetyEccCorrected,      // 0..N corrected ECC reads this cycle
  kSafetyEccUncorrectable,  // 0..N uncorrectable ECC reads this cycle
  kSafetyBusError,
  kSafetyWdtTimeout,
  kSafetyTrap,
  kSafetyAlarmIrq,          // monitor raised its alarm interrupt
  // Execution-DAG activation boundaries (src/profiling/dag.hpp). These
  // are derived strobes over the same frame the DAG builder consumes, so
  // MCDS triggers/counters can key on activation structure without the
  // builder attached.
  kDagIrqRaise,     // 0..N service requests raised this cycle
  kDagIsrEnter,     // cores entering an ISR/trap handler (activation open)
  kDagIsrExit,      // cores whose RFE retired (activation close)
  kDagIdle,         // cores parked in WFI/halt this cycle
  kEventCount,
};

inline constexpr unsigned kNumEvents = static_cast<unsigned>(EventId::kEventCount);

/// Per-event sums, in u32 like the hardware counters (exact modulo 2^32).
using EventTotals = std::array<u32, kNumEvents>;

/// Add `n` repetitions of `frame`'s event values into `totals`. This is
/// the event mux's only definition; EventValues, the counter bank and
/// event_value() all read it. The sections an uneventful cycle leaves
/// empty (the TC's data side, flash and fabric strobes, DMA, safety
/// alarms, handler entry and exit) cost one test each.
void accumulate_events(EventTotals& totals, const ObservationFrame& frame,
                       u32 n);

/// Every event's value in one frame: accumulate_events() over zeros. The
/// trigger network's event terms and the counter bank's idle-skip bound
/// read it.
class EventValues {
 public:
  explicit EventValues(const ObservationFrame& frame);

  u32 operator[](EventId id) const {
    assert(static_cast<unsigned>(id) < kNumEvents);
    return values_[static_cast<unsigned>(id)];
  }
  const EventTotals& all() const { return values_; }

 private:
  EventTotals values_{};
};

/// The value of event `id` in frame `frame` (0 when the event did not
/// occur this cycle): a one-event view of EventValues.
u32 event_value(const ObservationFrame& frame, EventId id);

std::string_view event_name(EventId id);

}  // namespace audo::mcds
