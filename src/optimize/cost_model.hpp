// Area/cost model for architecture options.
//
// The paper's decision rule (§6) is a performance-gain / cost ratio; any
// consistent cost model exercises it. Costs are in abstract "area units"
// (au), calibrated loosely to a 130 nm automotive process: 1 KiB of SRAM
// ~ 25 au, embedded flash ~ 6 au/KiB, a small RISC core ~ 800 au.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "soc/soc_config.hpp"

namespace audo::profiling {
struct DagAnalysis;
}

namespace audo::optimize {

/// Measured per-task optimization headroom, harvested from an execution
/// DAG's per-task slack (profiling::ExecutionDag). Slack bounds how many
/// cycles a task could *grow* before it joins the critical path; its
/// dual bounds what shrinking a task can buy: speeding up work that is
/// not on the critical path moves the end-to-end finish time by nothing,
/// so only critical-path cycles count toward the §6 gain numerator.
struct MeasuredSlack {
  u64 run_cycles = 0;
  u64 critical_path_cycles = 0;
  /// Task name -> (cycles, slack). Only non-idle tasks appear.
  struct TaskSlack {
    std::string task;
    u64 cycles = 0;
    u64 slack = 0;
  };
  std::vector<TaskSlack> tasks;

  const TaskSlack* find(std::string_view task) const {
    for (const TaskSlack& t : tasks) {
      if (t.task == task) return &t;
    }
    return nullptr;
  }
};

/// Harvest per-task slack from a finished execution-DAG analysis
/// (idle windows are skipped — they are headroom, not work).
MeasuredSlack measured_slack_from_dag(const profiling::DagAnalysis& dag);

struct CostModel {
  double sram_au_per_kib = 25.0;
  double cache_tag_au_per_kib = 30.0;  // tag/status arrays (denser ports)
  double cache_control_au = 10.0;      // per cache, plus per-way adders
  double cache_way_au = 4.0;
  double flash_au_per_kib = 6.0;
  double flash_buffer_au = 3.0;        // per 256-bit line buffer
  /// Removing one flash wait state (faster sense amps / more banks).
  double flash_waitstate_au = 40.0;
  double pcp_core_au = 800.0;
  double dma_channel_au = 15.0;
  double bus_rr_arbiter_au = 5.0;      // round-robin fairness logic
  double lmu_fast_au = 60.0;           // 1-cycle LMU timing closure cost

  /// Reference wait-state count that the flash macro gives "for free".
  unsigned flash_reference_waitstates = 5;

  double cache_area(const cache::CacheConfig& cache) const;
  double soc_area(const soc::SocConfig& config) const;

  /// Amdahl bound on the end-to-end speedup from accelerating `task`
  /// alone, honouring its DAG slack: only the task's critical-path
  /// share (cycles beyond its slack) shortens the run, so a task with
  /// slack >= cycles bounds at exactly 1.0 — the optimizer must not
  /// chase off-critical-path work.
  double task_speedup_bound(const MeasuredSlack& m,
                            std::string_view task) const;
};

}  // namespace audo::optimize
