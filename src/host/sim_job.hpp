// One self-contained simulation job for the SimPool.
//
// A SimJob carries everything needed to run one workload on one SoC
// configuration to completion. The Soc is constructed *inside* run(), on
// whichever worker claimed the job, and destroyed with it — one live Soc
// per worker, never shared, never reused across jobs. That, plus the rule
// that any randomness (common/prng.hpp) is seeded per job, is what makes
// a parallel sweep bit-identical to the serial one.
#pragma once

#include <functional>

#include "isa/program.hpp"
#include "soc/soc.hpp"

namespace audo::host {

struct SimJobResult {
  u64 cycles = 0;
  u64 instructions = 0;
  bool halted = false;
  bool loaded = false;  // program image placed successfully
  /// The run stopped because its cycle budget (max_cycles, or the SoC's
  /// hard kDefaultRunBudget) ran out before the TC halted. Reported, not
  /// thrown: a hung workload is a result, not an error.
  bool budget_exceeded = false;
  /// The run stopped because the SoC went quiescent (TC parked in WFI)
  /// with no enabled wake source left — detected immediately instead of
  /// burning the whole cycle budget (see soc::Soc::idle_deadlock()).
  bool idle_deadlock = false;
};

struct SimJob {
  soc::SocConfig config;
  /// Program image; must outlive run(). Shared read-only across jobs.
  const isa::Program* program = nullptr;
  Addr tc_entry = 0;
  Addr pcp_entry = 0;
  /// Extra SoC setup after load. Runs on the worker thread: it must only
  /// touch the Soc it is handed (and per-job state it owns).
  std::function<void(soc::Soc&)> configure;
  /// Cycle budget; 0 selects soc::Soc::kDefaultRunBudget so even a
  /// livelocked workload terminates with budget_exceeded set.
  u64 max_cycles = 0;

  SimJobResult run() const {
    SimJobResult result;
    soc::Soc soc(config);
    if (program != nullptr) {
      if (Status s = soc.load(*program); !s.is_ok()) {
        return result;
      }
    }
    result.loaded = true;
    if (configure) configure(soc);
    soc.reset(tc_entry, pcp_entry);
    soc.run(max_cycles);
    result.cycles = soc.cycle();
    result.instructions = soc.tc().retired();
    result.halted = soc.tc().halted();
    result.idle_deadlock = soc.idle_deadlock();
    result.budget_exceeded = !result.halted && !result.idle_deadlock;
    return result;
  }
};

}  // namespace audo::host
