// Architecture-option evaluator: replay a workload suite over SoC
// configuration variants, quantify each option's speedup, and rank by
// performance-gain / area-cost ratio — §6: "a quantitative comparison of
// optimization options ... choose the ones with the best ratio between
// performance gain on the one side and development effort and area
// increase on the other side."
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "isa/program.hpp"
#include "optimize/cost_model.hpp"
#include "optimize/options.hpp"
#include "soc/soc.hpp"

namespace audo::optimize {

/// One workload in the evaluation suite.
struct WorkloadCase {
  std::string name;
  isa::Program program;
  Addr tc_entry = 0;
  Addr pcp_entry = 0;
  /// Extra SoC setup after load (interrupt routing, crank speed, ...).
  std::function<void(soc::Soc&)> configure;
  /// Safety bound; the workload itself must HALT to define "done".
  u64 max_cycles = 20'000'000;
  double weight = 1.0;
};

struct CaseRun {
  std::string workload;
  u64 cycles = 0;
  u64 instructions = 0;
  bool halted = false;
};

struct OptionResult {
  std::string option;
  std::string description;
  std::vector<CaseRun> runs;
  /// Weighted geometric-mean speedup vs the baseline configuration.
  double speedup = 1.0;
  double area_delta_au = 0.0;
  /// The ranking metric: percent speedup per 100 au of added area.
  /// Options that *save* area with a speedup get +infinity-like scores,
  /// capped for printability.
  double gain_per_cost = 0.0;
};

class ArchitectureEvaluator {
 public:
  ArchitectureEvaluator(soc::SocConfig baseline, CostModel cost_model = {})
      : baseline_(std::move(baseline)), cost_(cost_model) {}

  void add_case(WorkloadCase workload) {
    cases_.push_back(std::move(workload));
  }

  /// Host workers for the sweep methods below. Every (config, case) pair
  /// is one self-contained SimJob on the host::SimPool, and results are
  /// collected in submission order, so any jobs value — including the
  /// default serial 1 — produces bit-identical CaseRun vectors and
  /// ranking order. 0 = hardware concurrency.
  void set_jobs(unsigned jobs) { jobs_ = jobs; }
  unsigned jobs() const { return jobs_; }

  /// No-op, kept for perfbench/workloads.cpp, which still calls it.
  void set_warm_fork(bool) {}

  struct BootCacheStats {
    u64 hits = 0;
    u64 misses = 0;
  };
  /// Always {0, 0}, kept for perfbench/workloads.cpp, which reports it.
  BootCacheStats boot_cache_stats() const { return {}; }

  /// Run one configuration over all cases.
  std::vector<CaseRun> run_config(const soc::SocConfig& config) const;

  /// Run several configurations over all cases (one parallel batch).
  /// result[i] corresponds to configs[i], in order.
  std::vector<std::vector<CaseRun>> run_configs(
      const std::vector<soc::SocConfig>& configs) const;

  /// Evaluate the catalogue: baseline first, then each option applied to
  /// the baseline in isolation. Results sorted by gain_per_cost.
  std::vector<OptionResult> evaluate(
      const std::vector<ArchOption>& catalogue) const;

  /// Pairwise interaction measurement: the greedy F-model step assumes
  /// option speedups compose multiplicatively; this quantifies where that
  /// holds. synergy > 1 = super-additive (e.g. bigger cache + faster
  /// flash), < 1 = overlapping (two fixes for the same bottleneck).
  struct InteractionResult {
    std::string option_a;
    std::string option_b;
    double speedup_a = 1.0;
    double speedup_b = 1.0;
    double speedup_both = 1.0;
    double expected = 1.0;  // speedup_a * speedup_b
    double synergy = 1.0;   // speedup_both / expected
  };

  /// Evaluate all pairs among `options` (apply a then b to the baseline).
  std::vector<InteractionResult> evaluate_interactions(
      const std::vector<ArchOption>& options) const;

  static std::string format_interactions(
      const std::vector<InteractionResult>& results);

  /// Greedy generation step (F-model, E9): apply the best-ratio options
  /// whose summed area delta stays within `area_budget_au`; returns the
  /// next-generation configuration and the names applied.
  soc::SocConfig next_generation(const std::vector<ArchOption>& catalogue,
                                 double area_budget_au,
                                 std::vector<std::string>* applied) const;

  const soc::SocConfig& baseline() const { return baseline_; }
  const CostModel& cost_model() const { return cost_; }

  static std::string format_ranking(const std::vector<OptionResult>& results);

 private:
  double speedup_of(const std::vector<CaseRun>& base,
                    const std::vector<CaseRun>& variant) const;

  soc::SocConfig baseline_;
  CostModel cost_;
  std::vector<WorkloadCase> cases_;
  unsigned jobs_ = 1;
};

}  // namespace audo::optimize
