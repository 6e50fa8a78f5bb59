// Safety-mechanism configuration: alarm taxonomy and reactions.
//
// Models the SMU-style alarm plumbing of safety-oriented AURIX parts on
// top of the TC1797-like platform: every hardware-detectable error
// condition maps to an AlarmKind, and the SafetyConfig decides per kind
// whether the SafetyMonitor merely records it, raises an NMI-style
// interrupt, redirects the core through its trap vector, or halts the
// core outright. Lives in its own header so SocConfig can embed it
// without pulling in the monitor machinery.
#pragma once

#include "common/fields.hpp"
#include "common/types.hpp"

namespace audo::fault {

enum class AlarmKind : u8 {
  kEccCorrected = 0,    // single-bit memory error, corrected in-line
  kEccUncorrectable,    // double-bit memory error, data is corrupt
  kBusError,            // crossbar slave signalled an error response
  kWatchdogTimeout,     // window watchdog expired (or bad service)
  kCpuTrap,             // a core entered its trap vector
  kCount,
};
inline constexpr unsigned kNumAlarmKinds =
    static_cast<unsigned>(AlarmKind::kCount);

const char* to_string(AlarmKind kind);

/// What the SafetyMonitor does when an alarm of a given kind fires.
enum class Reaction : u8 {
  kRecord = 0,  // count it; fully passive
  kIrq,         // post the NMI-style "smu.alarm" service request
  kTrap,        // redirect the TC through its trap vector (BTV)
  kHaltCore,    // stop the TC — the strongest containment
};

const char* to_string(Reaction kind);

struct SafetyConfig {
  /// Master switch. Off = the monitor never steps and the platform is
  /// bit-identical (in behaviour and cost) to the pre-fault simulator.
  bool monitor_enabled = true;

  /// SEC-DED ECC per memory domain. On: single-bit flips are corrected
  /// on read (raising kEccCorrected), double-bit flips raise
  /// kEccUncorrectable and return corrupt data. Off: any flip silently
  /// corrupts data.
  bool ecc_pflash = true;
  bool ecc_sram = true;  // DSPR / PSPR / LMU

  Reaction reactions[kNumAlarmKinds] = {
      Reaction::kRecord,  // kEccCorrected — corrected errors are benign
      Reaction::kTrap,    // kEccUncorrectable
      Reaction::kRecord,  // kBusError
      Reaction::kRecord,  // kWatchdogTimeout
      Reaction::kRecord,  // kCpuTrap
  };

  Reaction reaction(AlarmKind kind) const {
    return reactions[static_cast<unsigned>(kind)];
  }
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<SafetyConfig> Self, typename V>
void visit_fields(Self& c, V& v) {
  v("monitor_enabled", c.monitor_enabled);
  v("ecc_pflash", c.ecc_pflash);
  v("ecc_sram", c.ecc_sram);
  v("reactions", c.reactions, Reaction::kHaltCore);
}

}  // namespace audo::fault
