// The SMU-like safety monitor: aggregates alarms from the whole platform
// and applies the configured reaction per alarm kind.
//
// Alarm sources:
//  * ECC domains (fault_injector.hpp) post() corrected/uncorrectable
//    alarms synchronously from the memory read path;
//  * bus error responses are picked up from the published
//    FabricObservation strobe, so the bus layer stays unaware of the
//    fault layer;
//  * watchdog timeouts are detected as a delta on the watchdog's
//    lifetime timeout counter;
//  * CPU trap entries come from the core observation strobe.
//
// The monitor steps once per cycle after the SoC assembled its
// observation frame and fills the frame's SafetyObservation, so MCDS
// triggers and the tracer see alarms with cycle accuracy. Reactions act
// on the *next* cycle (IRQ post / trap request) or immediately (halt),
// which mirrors how a real alarm matrix is a cycle behind the error.
#pragma once

#include <array>
#include <string_view>

#include "common/types.hpp"
#include "fault/safety.hpp"
#include "mcds/observation.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::cpu {
class Cpu;
}

namespace audo::periph {
class IrqRouter;
class Watchdog;
}

namespace audo::fault {

class SafetyMonitor {
 public:
  explicit SafetyMonitor(const SafetyConfig& config) : config_(config) {}

  /// Wire the reaction paths. `alarm_src` is the router node the kIrq
  /// reaction posts to ("smu.alarm"); it still needs router configuration
  /// (priority/enable) to actually reach a core.
  void bind(periph::IrqRouter* router, unsigned alarm_src, cpu::Cpu* tc,
            const periph::Watchdog* watchdog);

  bool enabled() const { return config_.monitor_enabled; }
  const SafetyConfig& config() const { return config_; }

  /// Report an alarm detected during the current cycle (ECC domains call
  /// this from inside memory reads). Collected and reacted upon at the
  /// end-of-cycle step_cycle().
  void post(AlarmKind kind) {
    pending_[static_cast<unsigned>(kind)] += 1;
  }

  /// End-of-cycle: fold in frame strobes, count alarms, apply reactions,
  /// and return the cycle's safety observation.
  mcds::SafetyObservation step_cycle(Cycle now,
                                     const mcds::ObservationFrame& frame);

  /// No posted-but-unstepped alarms and no unseen watchdog timeouts: a
  /// step_cycle() over frames with clear strobes would be an observable
  /// no-op. The superblock fast tier (soc.cpp) uses this to hoist the
  /// per-cycle monitor call out of a window whose invariants keep every
  /// alarm source silent.
  bool quiescent() const;

  u64 total(AlarmKind kind) const {
    return totals_[static_cast<unsigned>(kind)];
  }
  u64 reactions_fired() const { return reactions_fired_; }

  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string_view component) const;

 private:
  void react(AlarmKind kind, Cycle now);

  SafetyConfig config_;
  periph::IrqRouter* router_ = nullptr;
  unsigned alarm_src_ = 0;
  cpu::Cpu* tc_ = nullptr;
  const periph::Watchdog* watchdog_ = nullptr;

  std::array<u32, kNumAlarmKinds> pending_{};  // posted this cycle
  std::array<u64, kNumAlarmKinds> totals_{};
  u64 last_wdt_timeouts_ = 0;
  u64 reactions_fired_ = 0;  // non-kRecord reactions applied
  mcds::SafetyObservation obs_;  // observation being assembled
};

}  // namespace audo::fault
