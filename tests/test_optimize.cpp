// Architecture-optimization methodology tests: the cost model, the
// option catalogue, the evaluator's speedup measurements and the
// F-model generation step.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "optimize/cost_model.hpp"
#include "optimize/evaluator.hpp"
#include "optimize/options.hpp"
#include "soc/presets.hpp"
#include "workload/kernels.hpp"

namespace audo::optimize {
namespace {

ArchitectureEvaluator make_evaluator(soc::SocConfig base) {
  ArchitectureEvaluator eval(std::move(base));
  for (const char* name : {"lookup", "fir", "checksum", "sort"}) {
    for (const auto& spec : workload::standard_suite()) {
      if (std::string_view(spec.name) != name) continue;
      auto program = spec.build();
      EXPECT_TRUE(program.is_ok());
      WorkloadCase wc;
      wc.name = name;
      wc.program = std::move(program).value();
      wc.tc_entry = wc.program.entry();
      eval.add_case(std::move(wc));
    }
  }
  return eval;
}

TEST(CostModel, MonotoneInMemorySizes) {
  CostModel cost;
  soc::SocConfig base = test::small_config();
  const double base_area = cost.soc_area(base);
  EXPECT_GT(base_area, 0.0);

  soc::SocConfig bigger_cache = base;
  bigger_cache.icache.size_bytes *= 2;
  EXPECT_GT(cost.soc_area(bigger_cache), base_area);

  soc::SocConfig more_buffers = base;
  more_buffers.pflash.code_buffers += 2;
  EXPECT_GT(cost.soc_area(more_buffers), base_area);

  soc::SocConfig faster_flash = base;
  faster_flash.pflash.wait_states = base.pflash.wait_states - 2;
  EXPECT_GT(cost.soc_area(faster_flash), base_area);

  soc::SocConfig no_pcp = base;
  no_pcp.has_pcp = false;
  EXPECT_LT(cost.soc_area(no_pcp), base_area);
}

TEST(CostModel, CacheAreaAccountsForTagsAndWays) {
  CostModel cost;
  cache::CacheConfig c{true, 16 * 1024, 2, 32, cache::Replacement::kLru};
  const double two_way = cost.cache_area(c);
  c.ways = 4;
  const double four_way = cost.cache_area(c);
  EXPECT_GT(four_way, two_way);
  c.enabled = false;
  EXPECT_EQ(cost.cache_area(c), 0.0);
}

TEST(Options, CatalogueAppliesCleanly) {
  const auto catalogue = standard_catalogue();
  EXPECT_GE(catalogue.size(), 10u);
  const soc::SocConfig base = test::small_config();
  for (const ArchOption& option : catalogue) {
    const soc::SocConfig variant = option.apply(base);
    EXPECT_TRUE(variant.valid()) << option.name;
    EXPECT_FALSE(option.description.empty());
  }
  EXPECT_NE(find_option(catalogue, "flash_ws_4"), nullptr);
  EXPECT_EQ(find_option(catalogue, "warp_drive"), nullptr);
}

TEST(Evaluator, MeasuresDirectionallyCorrectSpeedups) {
  auto eval = make_evaluator(test::small_config());
  // Evaluate a focused sub-catalogue to keep the test fast.
  const auto catalogue = standard_catalogue();
  std::vector<ArchOption> subset;
  for (const char* name : {"flash_ws_3", "dcache_16k", "bus_round_robin"}) {
    const ArchOption* o = find_option(catalogue, name);
    ASSERT_NE(o, nullptr);
    subset.push_back(*o);
  }
  const auto results = eval.evaluate(subset);
  ASSERT_EQ(results.size(), 3u);

  for (const OptionResult& r : results) {
    for (const CaseRun& run : r.runs) {
      EXPECT_TRUE(run.halted) << r.option << "/" << run.workload;
    }
    // No option may slow the suite down appreciably (the §4 "no negative
    // side effects" requirement).
    EXPECT_GT(r.speedup, 0.97) << r.option;
  }
  // Faster flash must give a measurable speedup on this flash-heavy suite.
  for (const OptionResult& r : results) {
    if (r.option == "flash_ws_3") {
      EXPECT_GT(r.speedup, 1.01);
      EXPECT_GT(r.area_delta_au, 0.0);
    }
  }
}

TEST(Evaluator, RankingIsSortedByGainPerCost) {
  auto eval = make_evaluator(test::small_config());
  const auto catalogue = standard_catalogue();
  std::vector<ArchOption> subset = {catalogue[0], catalogue[2], catalogue[7]};
  const auto results = eval.evaluate(subset);
  for (usize i = 0; i + 1 < results.size(); ++i) {
    EXPECT_GE(results[i].gain_per_cost, results[i + 1].gain_per_cost);
  }
  const std::string table = ArchitectureEvaluator::format_ranking(results);
  EXPECT_NE(table.find("option"), std::string::npos);
}

TEST(Evaluator, NextGenerationRespectsAreaBudget) {
  auto eval = make_evaluator(test::small_config());
  const auto catalogue = standard_catalogue();
  const CostModel& cost = eval.cost_model();
  const double base_area = cost.soc_area(eval.baseline());

  std::vector<std::string> applied;
  const soc::SocConfig next =
      eval.next_generation(catalogue, /*budget=*/120.0, &applied);
  EXPECT_TRUE(next.valid());
  const double next_area = cost.soc_area(next);
  EXPECT_LE(next_area - base_area, 120.0 + 1e-9);

  // The next generation must be at least as fast as the baseline.
  const auto base_runs = eval.run_config(eval.baseline());
  const auto next_runs = eval.run_config(next);
  u64 base_total = 0, next_total = 0;
  for (const CaseRun& r : base_runs) base_total += r.cycles;
  for (const CaseRun& r : next_runs) next_total += r.cycles;
  EXPECT_LE(next_total, base_total);
  if (!applied.empty()) {
    EXPECT_LT(next_total, base_total);
  }
}

TEST(Evaluator, ZeroBudgetAppliesOnlyFreeOptions) {
  auto eval = make_evaluator(test::small_config());
  std::vector<std::string> applied;
  const soc::SocConfig next =
      eval.next_generation(standard_catalogue(), 0.0, &applied);
  const CostModel& cost = eval.cost_model();
  EXPECT_LE(cost.soc_area(next), cost.soc_area(eval.baseline()) + 1e-9);
}


TEST(Evaluator, InteractionSynergyIsSane) {
  auto eval = make_evaluator(test::small_config());
  const auto catalogue = standard_catalogue();
  std::vector<ArchOption> subset;
  for (const char* name : {"flash_ws_3", "dcache_16k"}) {
    const ArchOption* o = find_option(catalogue, name);
    ASSERT_NE(o, nullptr);
    subset.push_back(*o);
  }
  const auto interactions = eval.evaluate_interactions(subset);
  ASSERT_EQ(interactions.size(), 1u);
  const auto& r = interactions[0];
  EXPECT_GT(r.speedup_both, 0.99);
  // Both fix the flash data path partially: the combination is within a
  // sane band around independence (no wild super/sub-additivity).
  EXPECT_GT(r.synergy, 0.8);
  EXPECT_LT(r.synergy, 1.2);
  const std::string table =
      ArchitectureEvaluator::format_interactions(interactions);
  EXPECT_NE(table.find("synergy"), std::string::npos);
}

TEST(Evaluator, StandardSweepMatchesRecordedResult) {
  // The §6 sweep as perfbench's e6_sweep runs it: the standard catalogue
  // over the whole kernel suite on the default chip, two pool workers.
  // The figures were recorded once and pin the sweep's result across
  // commits; a host-only change must leave all three untouched.
  ArchitectureEvaluator eval{soc::SocConfig{}};
  eval.set_jobs(2);
  for (const workload::KernelSpec& spec : workload::standard_suite()) {
    auto program = spec.build();
    ASSERT_TRUE(program.is_ok()) << spec.name;
    WorkloadCase wc;
    wc.name = spec.name;
    wc.program = std::move(program).value();
    wc.tc_entry = wc.program.entry();
    eval.add_case(std::move(wc));
  }
  const auto results = eval.evaluate(standard_catalogue());

  // perfbench's sweep checksum: option names in rank order, then each
  // case's cycles, instructions and halted flag.
  u64 checksum = kFnvOffset;
  u64 option_cycles = 0;
  std::string ranking;
  for (const OptionResult& r : results) {
    checksum = fnv1a(checksum, r.option);
    ranking += (ranking.empty() ? "" : " ") + r.option;
    for (const CaseRun& run : r.runs) {
      checksum = fnv1a(checksum, run.cycles);
      checksum = fnv1a(checksum, run.instructions);
      checksum = fnv1a(checksum, run.halted ? 1 : 0);
      option_cycles += run.cycles;
    }
  }
  EXPECT_EQ(checksum, 18'050'110'972'171'445'790ull);
  EXPECT_EQ(ranking,
            "cache_line_64 lmu_fast flash_ws_3 flash_ws_4 dcache_16k "
            "dcache_8k icache_32k icache_4way prefetch_4 read_buffers_2 "
            "read_buffers_4 bus_round_robin");
  EXPECT_EQ(option_cycles, 2'787'941u);
}

TEST(Presets, FamilyMembersAreOrderedByCapability) {
  const auto p97 = soc::tc1797_like();
  const auto p67 = soc::tc1767_like();
  const auto p96 = soc::tc1796_like();
  EXPECT_TRUE(p97.valid());
  EXPECT_TRUE(p67.valid());
  EXPECT_TRUE(p96.valid());
  // The flagship is strictly better equipped.
  EXPECT_GT(p97.pflash.size, p67.pflash.size - 1);
  EXPECT_GT(p97.icache.size_bytes, p67.icache.size_bytes);
  EXPECT_TRUE(p97.dcache.enabled);
  EXPECT_FALSE(p96.dcache.enabled);
  // And the same workload runs fastest on it (per-cycle terms).
  auto program = workload::build_lookup_stress(2048, 1024);
  ASSERT_TRUE(program.is_ok());
  auto cycles_on = [&](const soc::SocConfig& cfg) {
    soc::Soc soc(cfg);
    EXPECT_TRUE(soc.load(program.value()).is_ok());
    soc.reset(program.value().entry());
    soc.run(20'000'000);
    EXPECT_TRUE(soc.tc().halted());
    return soc.cycle();
  };
  const u64 c97 = cycles_on(p97);
  const u64 c96 = cycles_on(p96);
  EXPECT_LT(c97, c96);
}

}  // namespace
}  // namespace audo::optimize
