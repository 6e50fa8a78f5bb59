// Enhanced System Profiling tests: the §5 measurement specs, parallel
// rate series, rate correctness against ground truth, cascaded counters,
// the function-level profiler, the session harness and the pinned
// outputs of the full §5 session.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "helpers.hpp"
#include "profiling/export.hpp"
#include "profiling/function_profile.hpp"
#include "profiling/session.hpp"
#include "profiling/spec.hpp"
#include "profiling/timeseries.hpp"
#include "replay/replay.hpp"
#include "workload/engine.hpp"
#include "workload/kernels.hpp"
#include "workload/transmission.hpp"

namespace audo::profiling {
namespace {

workload::EngineWorkload engine() {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok());
  return std::move(w).value();
}

TEST(ProfilingSpec, StandardGroupsCoverTheSection5Parameters) {
  const auto groups = standard_groups(1000);
  ASSERT_EQ(groups.size(), 5u);
  // IPC on a clock basis; event rates on an instruction basis.
  EXPECT_EQ(groups[0].basis, mcds::EventId::kCycles);
  EXPECT_EQ(groups[1].basis, mcds::EventId::kTcRetired);
  EXPECT_EQ(groups[2].basis, mcds::EventId::kTcRetired);
  usize counters = 0;
  for (const auto& g : groups) counters += g.counters.size();
  EXPECT_GE(counters, 15u);  // the "essential parameters" list
  EXPECT_EQ(series_name(groups[0], 0), "ipc/tc.retired");
}

TEST(ProfilingSession, ParallelSeriesFromEngineRun) {
  auto w = engine();
  SessionOptions opts;
  opts.resolution = 500;
  ProfilingSession session(test::small_config(), opts);
  ASSERT_TRUE(session.load(w.program).is_ok());
  workload::configure_engine(session.device().soc(), w.options);
  session.reset(w.tc_entry, w.pcp_entry);
  SessionResult result = session.run(400'000);

  EXPECT_EQ(result.cycles, 400'000u);
  EXPECT_GT(result.ipc, 0.1);
  EXPECT_LT(result.ipc, 3.0);

  // All parallel series exist and are time-aligned.
  const RateSeries* ipc = result.find_series("ipc/tc.retired");
  const RateSeries* icm = result.find_series("cache/tc.icache.miss");
  const RateSeries* flash = result.find_series("access/tc.flash.data_access");
  const RateSeries* irqs = result.find_series("system/tc.irq.entry");
  ASSERT_NE(ipc, nullptr);
  ASSERT_NE(icm, nullptr);
  ASSERT_NE(flash, nullptr);
  ASSERT_NE(irqs, nullptr);
  EXPECT_GT(ipc->points.size(), 100u);
  EXPECT_GT(icm->points.size(), 10u);

  // The aggregated IPC from the series matches the architectural truth.
  EXPECT_NEAR(ipc->mean_rate(), result.ipc, 0.02);
  // The engine sees interrupts and flash data traffic.
  EXPECT_GT(irqs->total_count(), 10u);
  EXPECT_GT(flash->total_count(), 10u);
}

TEST(ProfilingSession, RatesMatchGroundTruthCounters) {
  // Run the lookup kernel; icache/dcache rates reconstructed from the
  // trace must match the cache model's own statistics.
  auto program = workload::build_lookup_stress(2048, 1024);
  ASSERT_TRUE(program.is_ok());
  SessionOptions opts;
  opts.resolution = 200;
  ProfilingSession session(test::small_config(), opts);
  ASSERT_TRUE(session.load(program.value()).is_ok());
  session.reset(program.value().entry());
  SessionResult result = session.run(10'000'000);
  ASSERT_TRUE(session.device().soc().tc().halted());

  const auto& dstats = session.device().soc().dcache().stats();
  const RateSeries* dca = result.find_series("cache/tc.dcache.access");
  const RateSeries* dcm = result.find_series("cache/tc.dcache.miss");
  ASSERT_NE(dca, nullptr);
  ASSERT_NE(dcm, nullptr);
  // Series totals undercount only by the partial last window.
  EXPECT_LE(dca->total_count(), dstats.accesses);
  EXPECT_GT(dca->total_count(), dstats.accesses * 9 / 10);
  EXPECT_LE(dcm->total_count(), dstats.misses);
  EXPECT_GT(dcm->total_count(), dstats.misses * 9 / 10);
}

TEST(ProfilingSession, CascadedCountersActivateOnLowIpc) {
  // Build a program with a fast phase (scratchpad loop) and a slow phase
  // (uncached flash execution); the high-res group must sample only
  // (mostly) during the slow phase.
  auto program = isa::assemble(R"(
    .text 0xC8000000
main:
    movd d0, 800
    mov.ad a2, d0
fast:
    addi d1, d1, 1
    addi d2, d2, 1
    loop a2, fast
    movh d3, hi(slow_code)
    ori  d3, d3, lo(slow_code)
    mov.ad a4, d3
    ji   a4
    .text 0xA0000000
slow_code:
    movd d0, 300
    mov.ad a2, d0
    movh d5, 0xA001
    mov.ad a5, d5
slow:
    lea  a5, [a5+32]     ; stride past the read buffer: array access each time
    ld.w d4, [a5+0]      ; uncached flash data read every iteration
    xor  d1, d1, d4
    loop a2, slow
    halt
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  SessionOptions opts;
  opts.standard_rates = false;
  opts.extra_groups = cascaded_ipc_groups(
      /*low=*/200, /*high=*/20, /*threshold %=*/60,
      /*base_index=*/0, /*flag_index=*/0, opts.actions);
  ProfilingSession session(test::small_config(), opts);
  ASSERT_TRUE(session.load(program.value()).is_ok());
  session.reset(program.value().entry());
  SessionResult result = session.run(1'000'000);
  ASSERT_TRUE(session.device().soc().tc().halted());

  const RateSeries* guard = result.find_series("ipc_guard/tc.retired");
  const RateSeries* detail = result.find_series("ipc_detail/tc.retired");
  ASSERT_NE(guard, nullptr);
  ASSERT_NE(detail, nullptr);
  EXPECT_GT(guard->points.size(), 4u);
  ASSERT_GT(detail->points.size(), 0u);
  // The detail group armed only in the low-IPC (late) part of the run.
  const Cycle first_detail = detail->points.front().cycle;
  const Cycle fast_phase_end = result.cycles / 3;
  EXPECT_GT(first_detail, fast_phase_end);
  // And detail samples show genuinely low IPC.
  EXPECT_LT(detail->mean_rate(), 0.6);
}

TEST(ProfilingSession, BandwidthDropsWithCoarserResolution) {
  auto w = engine();
  auto run_with_resolution = [&](u32 resolution) {
    SessionOptions opts;
    opts.resolution = resolution;
    ProfilingSession session(test::small_config(), opts);
    EXPECT_TRUE(session.load(w.program).is_ok());
    workload::configure_engine(session.device().soc(), w.options);
    session.reset(w.tc_entry, w.pcp_entry);
    return session.run(200'000).trace_bytes;
  };
  const u64 fine = run_with_resolution(100);
  const u64 coarse = run_with_resolution(4000);
  EXPECT_GT(fine, coarse * 10);
}

TEST(FunctionProfiler, FindsTheHotFunction) {
  // A program where `hot` burns ~90% of the work.
  auto program = isa::assemble(R"(
    .text 0x80000000
main:
    movd d0, 40
    mov.ad a4, d0
outer:
    call hot
    call cold
    loop a4, outer
    halt
hot:
    movd d1, 60
    mov.ad a2, d1
_hot_loop:
    addi d2, d2, 1
    mul  d3, d2, d2
    loop a2, _hot_loop
    ret
cold:
    addi d4, d4, 1
    ret
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  SessionOptions opts;
  opts.standard_rates = false;
  opts.program_trace = true;
  opts.sync_interval_cycles = 1024;
  ProfilingSession session(test::small_config(), opts);
  ASSERT_TRUE(session.load(program.value()).is_ok());
  session.reset(program.value().entry());
  SessionResult result = session.run(10'000'000);
  ASSERT_TRUE(session.device().soc().tc().halted());

  SystemProfiler profiler{isa::SymbolMap(program.value())};
  profiler.consume(result.messages);
  const auto profile = profiler.function_profile();
  ASSERT_GE(profile.size(), 2u);
  EXPECT_EQ(profile[0].name, "hot");
  EXPECT_GT(profile[0].cycles_percent, 60.0);
  EXPECT_EQ(profile[0].entries, 40u);
  // Formatting does not crash and mentions the hot function.
  EXPECT_NE(profiler.format_function_profile().find("hot"),
            std::string::npos);
}

TEST(FunctionProfiler, DataProfileFindsHotTable) {
  auto w = engine();
  SessionOptions opts;
  opts.standard_rates = false;
  opts.program_trace = true;
  opts.data_trace = true;
  ProfilingSession session(test::small_config(), opts);
  ASSERT_TRUE(session.load(w.program).is_ok());
  workload::configure_engine(session.device().soc(), w.options);
  session.reset(w.tc_entry, w.pcp_entry);
  SessionResult result = session.run(300'000);

  SystemProfiler profiler{isa::SymbolMap(w.program)};
  profiler.consume(result.messages);
  const auto data = profiler.data_profile();
  ASSERT_FALSE(data.empty());
  // The ignition table is among the hottest read-only objects — the §5
  // scratchpad-mapping candidate.
  bool found = false;
  for (usize i = 0; i < data.size() && i < 6; ++i) {
    if (data[i].name == "ign_table") {
      found = true;
      EXPECT_GT(data[i].reads, 10u);
      EXPECT_EQ(data[i].writes, 0u);
    }
  }
  EXPECT_TRUE(found) << profiler.format_data_profile();
}

TEST(Timeseries, SummaryAndSparklineFormatting) {
  RateSeries s;
  s.name = "test/series";
  for (int i = 0; i < 100; ++i) {
    s.points.push_back(SeriesPoint{static_cast<Cycle>(i * 10),
                                   static_cast<u32>(i % 7), 10});
  }
  const std::string summary = format_series_summary({s});
  EXPECT_NE(summary.find("test/series"), std::string::npos);
  const std::string line = sparkline(s, 20);
  EXPECT_GE(line.size(), 10u);
}

// ---- the §5 session's outputs, pinned -----------------------------------
//
// The transmission app for 300,000 cycles under the session perfbench's
// tcu_profile runs: standard rate groups, program-flow and IRQ trace, CPI
// stacks (with their stall counter group) and the execution DAG. Each
// output is pinned by the FNV-1a of its CSV or, for the MCDS stream, of
// its decoded messages, on both execution tiers. The armed variant adds a
// trigger network: comparators, a comparator-qualified counter group, a
// trigger FSM and action equations, among them the cascaded IPC pair.

struct SessionDigests {
  usize messages = 0;
  u64 messages_hash = 0;
  u64 series_hash = 0;
  u64 cpi_hash = 0;
  u64 dag_hash = 0;
  u64 watchpoints = 0;
  u64 trigger_out_pulses = 0;
  usize detail_samples = 0;  // the cascade's high-resolution group
};

SessionOptions tcu_session() {
  SessionOptions o;
  o.program_trace = true;
  o.irq_trace = true;
  o.cpi_stacks = true;
  o.dag = true;
  return o;
}

SessionOptions armed_tcu_session() {
  SessionOptions o = tcu_session();
  using mcds::CompareField;
  using mcds::CoreSel;
  using mcds::EventId;
  o.comparators = {
      // TC handler entries at the STM, pulse and sync priorities.
      mcds::Comparator{CoreSel::kTc, CompareField::kIrqPrio, 20, 40, -1},
      // The turbine-pulse handler's entries only.
      mcds::Comparator{CoreSel::kTc, CompareField::kIrqPrio, 35, 35, -1},
      // TC data writes to the scratchpad.
      mcds::Comparator{CoreSel::kTc, CompareField::kDataAddr, 0xC0000000u,
                       0xC00FFFFFu, 1},
  };
  // The groups ahead of the extra ones, and the threshold flags they own.
  // The app's IPC is close to 0.98, so the cascade's 99% guard arms and
  // disarms its detail group many times.
  std::vector<mcds::CounterGroupConfig> ahead = standard_groups(o.resolution);
  ahead.push_back(stall_root_group(o.resolution));
  unsigned flags = 0;
  for (const mcds::CounterGroupConfig& g : ahead) {
    for (const mcds::RateCounterConfig& c : g.counters) {
      if (c.threshold.has_value()) ++flags;
    }
  }
  const unsigned base = static_cast<unsigned>(ahead.size());
  o.extra_groups = cascaded_ipc_groups(/*low=*/2000, /*high=*/200,
                                       /*threshold %=*/99, base, flags,
                                       o.actions);
  mcds::CounterGroupConfig qualified;
  qualified.name = "qualified";
  qualified.basis = EventId::kCycles;
  qualified.resolution = 5000;
  qualified.counters = {
      mcds::RateCounterConfig{EventId::kTcIrqEntry, {}, 0u},
      mcds::RateCounterConfig{EventId::kTcIrqEntry, {}, 1u},
      mcds::RateCounterConfig{EventId::kTcDataWrite, {}, 2u},
      mcds::RateCounterConfig{EventId::kTcRetired, {}, {}},
  };
  o.extra_groups.push_back(qualified);
  const unsigned qualified_group = base + 2;
  // State 1 from a pulse-handler entry until the next handler exit.
  o.fsm.transitions = {
      mcds::Transition{0, 1, mcds::Equation::comparator(1)},
      mcds::Transition{1, 0, mcds::Equation::event(EventId::kTcIrqExit)},
  };
  o.actions.push_back(mcds::ActionBinding{
      mcds::Equation::comparator(0), mcds::TriggerAction::kTriggerOut, 0});
  mcds::Equation in_pulse_writing;
  in_pulse_writing.products = {{
      mcds::Term{mcds::Term::Kind::kState, 1, EventId::kNone, false},
      mcds::Term{mcds::Term::Kind::kComparator, 2, EventId::kNone, false},
  }};
  o.actions.push_back(mcds::ActionBinding{
      in_pulse_writing, mcds::TriggerAction::kEmitWatchpoint, 7});
  o.actions.push_back(mcds::ActionBinding{
      mcds::Equation::event(EventId::kTcIrqExit),
      mcds::TriggerAction::kSampleGroup, qualified_group});
  return o;
}

SessionDigests run_tcu_session(const SessionOptions& options,
                               soc::SocConfig::ExecTier tier) {
  auto built = workload::build_transmission_workload({});
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  const workload::TransmissionWorkload w = std::move(built).value();
  soc::SocConfig config;
  config.exec_tier = tier;
  ProfilingSession session(config, options);
  EXPECT_TRUE(session.load(w.program).is_ok());
  workload::configure_transmission(session.device().soc(), w.options);
  session.reset(w.tc_entry);
  const SessionResult result = session.run(300'000);
  EXPECT_EQ(result.cycles, 300'000u);

  SessionDigests d;
  d.messages = result.messages.size();
  d.messages_hash = replay::hash_messages(result.messages);
  d.series_hash = fnv1a(kFnvOffset, series_to_csv(result.series));
  d.cpi_hash = fnv1a(kFnvOffset, session.cpi_builder()->to_csv());
  d.dag_hash = fnv1a(kFnvOffset, session.dag()->to_csv());
  const mcds::Mcds& mcds = session.device().mcds();
  d.watchpoints = mcds.messages_of(mcds::MsgKind::kWatchpoint);
  d.trigger_out_pulses = mcds.trigger_out_pulses();
  if (const RateSeries* detail = result.find_series("ipc_detail/tc.retired")) {
    d.detail_samples = detail->points.size();
  }
  return d;
}

void expect_digests(const SessionOptions& options, const SessionDigests& want) {
  for (const auto tier : {soc::SocConfig::ExecTier::kSuperblock,
                          soc::SocConfig::ExecTier::kAccurate}) {
    SCOPED_TRACE(tier == soc::SocConfig::ExecTier::kSuperblock ? "superblock"
                                                               : "accurate");
    const SessionDigests got = run_tcu_session(options, tier);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.messages_hash, want.messages_hash);
    EXPECT_EQ(got.series_hash, want.series_hash);
    EXPECT_EQ(got.cpi_hash, want.cpi_hash);
    EXPECT_EQ(got.dag_hash, want.dag_hash);
    EXPECT_EQ(got.watchpoints, want.watchpoints);
    EXPECT_EQ(got.trigger_out_pulses, want.trigger_out_pulses);
    EXPECT_EQ(got.detail_samples, want.detail_samples);
  }
}

TEST(SessionPin, TcuProfileSessionOutputsOnBothTiers) {
  SessionDigests want;
  want.messages = 46402;
  want.messages_hash = 0x4c4daffab23278e4ull;
  want.series_hash = 0xca8eb9a7a0b4ee3dull;
  want.cpi_hash = 0x2b460b81c4e4000dull;
  want.dag_hash = 0x5abc12ef8380182cull;
  expect_digests(tcu_session(), want);
}

TEST(SessionPin, ArmedTriggerNetworkSessionOutputsOnBothTiers) {
  SessionDigests want;
  want.messages = 48841;
  want.messages_hash = 0x94cd9e80fe182c92ull;
  want.series_hash = 0xc52648ee1cc7065ull;
  // The trigger network observes only: CPI stacks and DAG are unchanged.
  want.cpi_hash = 0x2b460b81c4e4000dull;
  want.dag_hash = 0x5abc12ef8380182cull;
  want.watchpoints = 646;
  want.trigger_out_pulses = 342;
  want.detail_samples = 1160;
  expect_digests(armed_tcu_session(), want);
}

}  // namespace
}  // namespace audo::profiling
