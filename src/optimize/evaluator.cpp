#include "optimize/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "host/sim_job.hpp"
#include "host/sim_pool.hpp"

namespace audo::optimize {

std::vector<CaseRun> ArchitectureEvaluator::run_config(
    const soc::SocConfig& config) const {
  return run_configs({config}).front();
}

std::vector<std::vector<CaseRun>> ArchitectureEvaluator::run_configs(
    const std::vector<soc::SocConfig>& configs) const {
  // Flatten every (config, case) pair into one self-contained SimJob so a
  // sweep saturates the pool even when |configs| < jobs. map() collects by
  // submission index, so grouping back is order-preserving and the result
  // is bit-identical to the serial loop for any jobs value.
  std::vector<host::SimJob> batch;
  batch.reserve(configs.size() * cases_.size());
  for (const soc::SocConfig& config : configs) {
    for (const WorkloadCase& wc : cases_) {
      host::SimJob job;
      job.config = config;
      job.program = &wc.program;
      job.tc_entry = wc.tc_entry;
      job.pcp_entry = wc.pcp_entry;
      job.configure = wc.configure;
      job.max_cycles = wc.max_cycles;
      batch.push_back(std::move(job));
    }
  }

  host::SimPool pool(jobs_);
  const std::vector<host::SimJobResult> raw =
      pool.map<host::SimJobResult>(batch.size(),
                                   [&](usize i) { return batch[i].run(); });

  std::vector<std::vector<CaseRun>> grouped;
  grouped.reserve(configs.size());
  usize flat = 0;
  for (usize c = 0; c < configs.size(); ++c) {
    std::vector<CaseRun> runs;
    runs.reserve(cases_.size());
    for (const WorkloadCase& wc : cases_) {
      const host::SimJobResult& r = raw[flat++];
      CaseRun run;
      run.workload = wc.name;
      if (r.loaded) {
        run.cycles = r.cycles;
        run.instructions = r.instructions;
        run.halted = r.halted;
      }
      runs.push_back(std::move(run));
    }
    grouped.push_back(std::move(runs));
  }
  return grouped;
}

double ArchitectureEvaluator::speedup_of(
    const std::vector<CaseRun>& base, const std::vector<CaseRun>& variant) const {
  double log_sum = 0.0;
  double weight_sum = 0.0;
  for (usize i = 0; i < base.size() && i < variant.size(); ++i) {
    if (base[i].cycles == 0 || variant[i].cycles == 0) continue;
    const double s = static_cast<double>(base[i].cycles) /
                     static_cast<double>(variant[i].cycles);
    log_sum += cases_[i].weight * std::log(s);
    weight_sum += cases_[i].weight;
  }
  return weight_sum == 0.0 ? 1.0 : std::exp(log_sum / weight_sum);
}

std::vector<OptionResult> ArchitectureEvaluator::evaluate(
    const std::vector<ArchOption>& catalogue) const {
  // One batch: baseline plus every variant, simulated in parallel.
  std::vector<soc::SocConfig> configs;
  configs.reserve(1 + catalogue.size());
  configs.push_back(baseline_);
  for (const ArchOption& option : catalogue) {
    configs.push_back(option.apply(baseline_));
  }
  std::vector<std::vector<CaseRun>> all_runs = run_configs(configs);
  const std::vector<CaseRun>& base_runs = all_runs.front();
  const double base_area = cost_.soc_area(baseline_);

  std::vector<OptionResult> results;
  results.reserve(catalogue.size());
  for (usize k = 0; k < catalogue.size(); ++k) {
    const ArchOption& option = catalogue[k];
    const soc::SocConfig& variant = configs[1 + k];
    OptionResult result;
    result.option = option.name;
    result.description = option.description;
    result.runs = std::move(all_runs[1 + k]);
    result.speedup = speedup_of(base_runs, result.runs);
    result.area_delta_au = cost_.soc_area(variant) - base_area;
    const double gain_percent = (result.speedup - 1.0) * 100.0;
    if (result.area_delta_au > 0.0) {
      result.gain_per_cost = gain_percent / (result.area_delta_au / 100.0);
    } else {
      // Free or area-saving options: rank by gain with a large multiplier,
      // capped so the table stays readable.
      result.gain_per_cost = gain_percent >= 0.0 ? gain_percent * 1000.0
                                                 : gain_percent;
    }
    results.push_back(std::move(result));
  }
  std::sort(results.begin(), results.end(),
            [](const OptionResult& a, const OptionResult& b) {
              return a.gain_per_cost > b.gain_per_cost;
            });
  return results;
}

std::vector<ArchitectureEvaluator::InteractionResult>
ArchitectureEvaluator::evaluate_interactions(
    const std::vector<ArchOption>& options) const {
  // One batch: baseline, every single option, every ordered pair (i<j).
  std::vector<soc::SocConfig> configs;
  configs.reserve(1 + options.size() +
                  options.size() * (options.size() + 1) / 2);
  configs.push_back(baseline_);
  for (const ArchOption& option : options) {
    configs.push_back(option.apply(baseline_));
  }
  for (usize i = 0; i < options.size(); ++i) {
    for (usize j = i + 1; j < options.size(); ++j) {
      configs.push_back(options[j].apply(options[i].apply(baseline_)));
    }
  }
  const std::vector<std::vector<CaseRun>> all_runs = run_configs(configs);
  const std::vector<CaseRun>& base_runs = all_runs.front();

  std::vector<double> single(options.size(), 1.0);
  for (usize i = 0; i < options.size(); ++i) {
    single[i] = speedup_of(base_runs, all_runs[1 + i]);
  }
  std::vector<InteractionResult> results;
  usize pair_index = 1 + options.size();
  for (usize i = 0; i < options.size(); ++i) {
    for (usize j = i + 1; j < options.size(); ++j) {
      InteractionResult r;
      r.option_a = options[i].name;
      r.option_b = options[j].name;
      r.speedup_a = single[i];
      r.speedup_b = single[j];
      r.speedup_both = speedup_of(base_runs, all_runs[pair_index++]);
      r.expected = r.speedup_a * r.speedup_b;
      r.synergy = r.expected == 0.0 ? 1.0 : r.speedup_both / r.expected;
      results.push_back(std::move(r));
    }
  }
  return results;
}

std::string ArchitectureEvaluator::format_interactions(
    const std::vector<InteractionResult>& results) {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "%-18s %-18s %8s %8s %9s %9s %8s\n",
                "option a", "option b", "a", "b", "a+b", "a*b", "synergy");
  out += line;
  for (const InteractionResult& r : results) {
    std::snprintf(line, sizeof line,
                  "%-18s %-18s %7.3fx %7.3fx %8.3fx %8.3fx %8.3f\n",
                  r.option_a.c_str(), r.option_b.c_str(), r.speedup_a,
                  r.speedup_b, r.speedup_both, r.expected, r.synergy);
    out += line;
  }
  return out;
}

soc::SocConfig ArchitectureEvaluator::next_generation(
    const std::vector<ArchOption>& catalogue, double area_budget_au,
    std::vector<std::string>* applied) const {
  // Greedy by measured ratio, re-measuring nothing (first-order additivity
  // assumption — the evolutionary, low-risk step §4 argues for).
  const std::vector<OptionResult> ranked = evaluate(catalogue);
  soc::SocConfig next = baseline_;
  double budget = area_budget_au;
  double base_area = cost_.soc_area(baseline_);
  for (const OptionResult& result : ranked) {
    if (result.speedup <= 1.001) continue;  // no measurable gain
    const ArchOption* option = find_option(catalogue, result.option);
    if (option == nullptr) continue;
    const soc::SocConfig candidate = option->apply(next);
    const double delta = cost_.soc_area(candidate) - cost_.soc_area(next);
    if (delta > budget) continue;
    if (!candidate.valid()) continue;
    next = candidate;
    budget -= delta;
    if (applied != nullptr) applied->push_back(result.option);
  }
  (void)base_area;
  return next;
}

std::string ArchitectureEvaluator::format_ranking(
    const std::vector<OptionResult>& results) {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "%-18s %9s %10s %14s  %s\n", "option",
                "speedup", "d-area/au", "gain%/100au", "description");
  out += line;
  for (const OptionResult& r : results) {
    std::snprintf(line, sizeof line, "%-18s %8.3fx %10.1f %14.2f  %s\n",
                  r.option.c_str(), r.speedup, r.area_delta_au,
                  r.gain_per_cost, r.description.c_str());
    out += line;
  }
  return out;
}

}  // namespace audo::optimize
