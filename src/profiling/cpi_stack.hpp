// Per-function CPI stacks from the per-cycle stall attribution.
//
// The SoC's attribution walk (DESIGN.md, "Stall attribution &
// interference matrix") labels every TC cycle with exactly one
// StallRootCause. This builder rides on the Soc frame-observer hook and
// charges each cycle to the function the core is executing, giving an
// *exact* per-function decomposition: for every function,
//
//   cycles == issue_cycles + sum over root causes of stall_cycles[root]
//
// holds by construction (no proportional smearing like the trace-based
// SystemProfiler). Fast-forwarded idle windows arrive through the
// skip_idle() bulk notification and land in the current function's
// kWfi/kHalted bucket, so results are bit-identical with fast-forward on
// or off.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "mcds/observation.hpp"
#include "soc/soc.hpp"

namespace audo::profiling {

/// One function's cycle decomposition.
struct CpiStackEntry {
  std::string name;
  u64 instructions = 0;
  u64 cycles = 0;       // all cycles charged to this function
  u64 issue_cycles = 0; // cycles with retired > 0 (the kNone bucket)
  /// Stall cycles per mcds::StallRootCause (index kNone stays 0; the
  /// issue cycles live in issue_cycles).
  std::array<u64, mcds::kNumStallRootCauses> stall{};

  double cpi() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(instructions);
  }
  u64 stall_cycles() const { return cycles - issue_cycles; }
};

class CpiStackBuilder : public soc::FrameObserver {
 public:
  explicit CpiStackBuilder(isa::SymbolMap symbols);
  // current_ and entry_ point into this object's own members.
  CpiStackBuilder(const CpiStackBuilder&) = delete;
  CpiStackBuilder& operator=(const CpiStackBuilder&) = delete;

  void observe(const mcds::ObservationFrame& frame) override;
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;

  /// Per-function stacks, sorted by cycles descending.
  std::vector<CpiStackEntry> stacks() const;

  /// Sum over all functions (name = "*total*"); equals the TC stall
  /// totals over the observed window.
  CpiStackEntry total() const;

  u64 observed_cycles() const { return observed_cycles_; }

  /// Fixed-width table: one row per function, one column per root cause.
  std::string format(usize top_n = 20) const;

  /// Machine-readable export, one row per function plus the total row:
  /// `function,instructions,cycles,issue,<root cause columns...>`.
  std::string to_csv() const;

 private:
  void charge(const mcds::CoreObservation& obs, u64 n);

  isa::SymbolMap symbols_;
  std::map<std::string, CpiStackEntry> functions_;
  const std::string* current_ = nullptr;  // function charged for stalls
  CpiStackEntry* entry_ = nullptr;        // functions_[*current_]
  u64 observed_cycles_ = 0;
};

}  // namespace audo::profiling
