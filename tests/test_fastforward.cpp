// Fast-forward bit-identity suite (see DESIGN.md, "Quiescence model &
// fast-forward"): running any workload with SocConfig::fast_forward on
// must be indistinguishable — cycle counts, architectural state, MCDS
// counters and message streams, telemetry metrics, campaign outcomes —
// from stepping every idle cycle. The only permitted difference is the
// sim/ff.* accounting (and host wall-clock).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hpp"
#include "host/sim_job.hpp"
#include "optimize/fault_campaign.hpp"
#include "profiling/cpi_stack.hpp"
#include "profiling/export.hpp"
#include "profiling/session.hpp"
#include "telemetry/metrics.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

bool is_ff_metric(const telemetry::MetricSample& s) {
  // exec/ coverage counters vary with run chunking and fast-forward mode
  // (they count how cycles were *executed*, not what they did), so they
  // are host-side observability like sim/ff.* and excluded here.
  if (s.component == "exec") return true;
  return s.component == "sim" && s.name.rfind("ff.", 0) == 0;
}

/// Everything we require to be identical between the two modes.
struct Observed {
  u64 steps = 0;
  u64 cycles = 0;
  u64 retired = 0;
  bool halted = false;
  bool idle_deadlock = false;
  std::vector<std::string> metrics;  // "component/name=value", sans sim/ff.*
  // Stall-attribution aggregates: per-function CPI stacks and the
  // master x slave interference matrix must also be bit-identical (the
  // stall.* registry counters above cover the per-core bucket totals).
  std::string cpi_csv;
  std::string interference_csv;
};

template <typename Workload, typename Install>
Observed run_soc(const Workload& w, Install install, bool fast_forward,
                 u64 max_cycles, soc::FastForwardStats* ff_out = nullptr) {
  soc::SocConfig config = test::small_config();
  config.fast_forward = fast_forward;
  soc::Soc soc(config);
  profiling::CpiStackBuilder cpi{isa::SymbolMap(w.program)};
  soc.set_frame_observer(&cpi);
  telemetry::MetricsRegistry registry;
  soc.register_metrics(registry);
  EXPECT_TRUE(install(soc, w).is_ok());
  Observed o;
  o.steps = soc.run(max_cycles);
  o.cycles = soc.cycle();
  o.retired = soc.tc().retired();
  o.halted = soc.tc().halted();
  o.idle_deadlock = soc.idle_deadlock();
  for (const telemetry::MetricSample& s :
       registry.collect(soc.cycle()).samples) {
    if (is_ff_metric(s)) continue;
    o.metrics.push_back(s.component + "/" + s.name + "=" +
                        std::to_string(s.value));
  }
  o.cpi_csv = cpi.to_csv();
  o.interference_csv = profiling::interference_to_csv(soc.sri());
  if (ff_out != nullptr) *ff_out = soc.ff_stats();
  return o;
}

void expect_identical(const Observed& on, const Observed& off) {
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.retired, off.retired);
  EXPECT_EQ(on.halted, off.halted);
  EXPECT_EQ(on.idle_deadlock, off.idle_deadlock);
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.cpi_csv, off.cpi_csv);
  EXPECT_EQ(on.interference_csv, off.interference_csv);
}

workload::EngineWorkload idle_engine(u32 halt_after_revs) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = halt_after_revs;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok()) << w.status().to_string();
  return std::move(w).value();
}

const auto kInstallEngine = [](soc::Soc& soc,
                               const workload::EngineWorkload& w) {
  return workload::install_engine(soc, w);
};
const auto kInstallTransmission = [](soc::Soc& soc,
                                     const workload::TransmissionWorkload& w) {
  return workload::install_transmission(soc, w);
};

// ---- SoC-level bit identity -----------------------------------------

TEST(FastForward, IdleEngineBitIdentical) {
  const auto w = idle_engine(4);
  soc::FastForwardStats ff;
  const Observed on = run_soc(w, kInstallEngine, true, 5'000'000, &ff);
  const Observed off = run_soc(w, kInstallEngine, false, 5'000'000);
  EXPECT_TRUE(on.halted);
  expect_identical(on, off);
  // The workload is genuinely idle-heavy: most of the run is skipped.
  EXPECT_GT(ff.skipped_cycles, on.cycles / 2);
  EXPECT_GT(ff.wakeups, 0u);
}

TEST(FastForward, BusyEngineBitIdentical) {
  // The stock background loop never parks, so there is nothing to skip —
  // but the run must still be identical (and the skip path must not
  // misfire on short stalls).
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.halt_after_bg = 40;
  auto built = workload::build_engine_workload(opt);
  ASSERT_TRUE(built.is_ok());
  const auto& w = built.value();
  soc::FastForwardStats ff;
  const Observed on = run_soc(w, kInstallEngine, true, 5'000'000, &ff);
  const Observed off = run_soc(w, kInstallEngine, false, 5'000'000);
  EXPECT_TRUE(on.halted);
  expect_identical(on, off);
}

TEST(FastForward, TransmissionBitIdentical) {
  workload::TransmissionOptions opt;
  opt.halt_after_tasks = 6;
  auto built = workload::build_transmission_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const auto& w = built.value();
  const Observed on = run_soc(w, kInstallTransmission, true, 5'000'000);
  const Observed off = run_soc(w, kInstallTransmission, false, 5'000'000);
  EXPECT_TRUE(on.halted);
  expect_identical(on, off);
}

TEST(FastForward, BudgetTruncationBitIdentical) {
  // A budget boundary that lands inside an idle stretch must stop at
  // exactly the same cycle as stepping there, and be attributed to the
  // budget wake source.
  const auto w = idle_engine(0);  // free-running
  for (const u64 budget : {10'000ull, 33'333ull, 100'000ull}) {
    soc::FastForwardStats ff;
    const Observed on = run_soc(w, kInstallEngine, true, budget, &ff);
    const Observed off = run_soc(w, kInstallEngine, false, budget);
    EXPECT_FALSE(on.halted);
    EXPECT_EQ(on.steps, budget);
    expect_identical(on, off);
  }
}

// ---- MCDS / profiling bit identity ----------------------------------

profiling::SessionResult profile_idle_engine(
    bool fast_forward, bool program_trace,
    soc::FastForwardStats* ff_out = nullptr) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok());

  soc::SocConfig chip = test::small_config();
  chip.fast_forward = fast_forward;
  profiling::SessionOptions options;
  options.resolution = 500;
  options.program_trace = program_trace;
  options.irq_trace = program_trace;
  profiling::ProfilingSession session(chip, options);
  EXPECT_TRUE(session.load(w.value().program).is_ok());
  workload::configure_engine(session.device().soc(), w.value().options);
  session.reset(w.value().tc_entry, w.value().pcp_entry);
  profiling::SessionResult result = session.run(3'000'000);
  if (ff_out != nullptr) *ff_out = session.device().soc().ff_stats();
  return result;
}

void expect_sessions_identical(const profiling::SessionResult& on,
                               const profiling::SessionResult& off) {
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.tc_retired, off.tc_retired);
  EXPECT_EQ(on.trace_bytes, off.trace_bytes);
  EXPECT_EQ(on.trace_messages, off.trace_messages);
  EXPECT_EQ(on.dropped_messages, off.dropped_messages);
  // The decoded message stream — every kind, timestamp, pc, count and
  // rate-sample payload — must match message for message.
  ASSERT_EQ(on.messages.size(), off.messages.size());
  for (usize i = 0; i < on.messages.size(); ++i) {
    EXPECT_EQ(on.messages[i], off.messages[i]) << "message " << i;
  }
}

TEST(FastForward, McdsCountersBitIdentical) {
  soc::FastForwardStats ff;
  const auto on = profile_idle_engine(true, false, &ff);
  const auto off = profile_idle_engine(false, false);
  EXPECT_GT(on.trace_messages, 0u);
  expect_sessions_identical(on, off);
  // Counter samples bound skips: those wakeups belong to the EEC.
  EXPECT_GT(ff.wake_counts[static_cast<unsigned>(soc::WakeSource::kMcds)],
            0u);
}

TEST(FastForward, McdsFlowTraceBitIdentical) {
  const auto on = profile_idle_engine(true, true);
  const auto off = profile_idle_engine(false, true);
  EXPECT_GT(on.trace_messages, 0u);
  expect_sessions_identical(on, off);
}

// ---- fault campaign determinism -------------------------------------

u64 campaign_hash(bool fast_forward, unsigned jobs) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto engine = workload::build_engine_workload(opt);
  EXPECT_TRUE(engine.is_ok());

  soc::SocConfig chip = test::small_config();
  chip.fast_forward = fast_forward;

  optimize::WorkloadCase wc;
  wc.name = "engine-idle";
  wc.program = engine.value().program;
  wc.tc_entry = engine.value().tc_entry;
  wc.pcp_entry = engine.value().pcp_entry;
  wc.configure = [options = engine.value().options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = 400'000;

  optimize::FaultCampaign campaign(chip, std::move(wc));
  campaign.set_jobs(jobs);
  const auto plan = campaign.make_scenarios(7, 8);
  return campaign.run(plan).classification_hash();
}

TEST(FastForward, FaultCampaignHashIdenticalAcrossModesAndJobs) {
  const u64 reference = campaign_hash(false, 1);
  for (const unsigned jobs : {1u, 2u, 8u}) {
    EXPECT_EQ(campaign_hash(true, jobs), reference) << "jobs=" << jobs;
  }
}

// ---- idle-deadlock detection ----------------------------------------

constexpr std::string_view kParkForever = R"(
    .text 0xC8000000
main:
    di
    wfi
    halt
)";

TEST(FastForward, IdleDeadlockDetectedImmediately) {
  // WFI with every interrupt source disabled: no wake can ever arrive.
  // Both modes must report idle_deadlock at the same (early) cycle
  // instead of burning the 200M-cycle default budget.
  u64 cycles[2];
  for (const bool ff : {true, false}) {
    soc::SocConfig config = test::small_config();
    config.fast_forward = ff;
    auto program = isa::assemble(kParkForever);
    ASSERT_TRUE(program.is_ok());
    soc::Soc soc(config);
    ASSERT_TRUE(soc.load(program.value()).is_ok());
    soc.reset(program.value().entry());
    const u64 steps = soc.run(0);  // 0 = the hard default budget
    EXPECT_TRUE(soc.idle_deadlock());
    EXPECT_FALSE(soc.tc().halted());
    EXPECT_LT(steps, 1'000u);  // detected at the park, not at the budget
    cycles[ff ? 0 : 1] = soc.cycle();
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(FastForward, SimJobReportsIdleDeadlock) {
  auto program = isa::assemble(kParkForever);
  ASSERT_TRUE(program.is_ok());
  host::SimJob job;
  job.config = test::small_config();
  job.program = &program.value();
  job.tc_entry = program.value().entry();
  const host::SimJobResult result = job.run();
  EXPECT_TRUE(result.loaded);
  EXPECT_FALSE(result.halted);
  EXPECT_TRUE(result.idle_deadlock);
  EXPECT_FALSE(result.budget_exceeded);
  EXPECT_LT(result.cycles, 1'000u);
}

TEST(FastForward, LiveWakeSourceIsNotADeadlock) {
  // The same park with the crank wheel routed and enabled is *not* a
  // deadlock: teeth keep arriving, so the run spends its whole budget.
  const auto w = idle_engine(0);
  const Observed on = run_soc(w, kInstallEngine, true, 50'000);
  EXPECT_FALSE(on.idle_deadlock);
  EXPECT_EQ(on.steps, 50'000u);
}

}  // namespace
}  // namespace audo
