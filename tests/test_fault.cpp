// Fault-injection and safety-mechanism tests: the SEC-DED ECC model,
// crossbar error responses, stuck SFR reads, the SMU-like safety monitor
// and its reactions, and the parallel fault-campaign classifier.
#include <gtest/gtest.h>

#include <set>

#include "common/bits.hpp"
#include "fault/fault_injector.hpp"
#include "fault/safety_monitor.hpp"
#include "helpers.hpp"
#include "mcds/observation.hpp"
#include "mem/mem_array.hpp"
#include "mem/memory_map.hpp"
#include "optimize/fault_campaign.hpp"
#include "periph/irq_router.hpp"
#include "periph/peripherals.hpp"
#include "periph/sfr_bridge.hpp"
#include "profiling/dag.hpp"
#include "telemetry/run_report.hpp"
#include "workload/engine.hpp"

namespace audo {
namespace {

using fault::AlarmKind;
using fault::EccDomain;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::MemDomain;
using fault::SafetyMonitor;

// ---- ECC model -------------------------------------------------------

TEST(EccDomain, SingleBitFlipIsCorrectedOnRead) {
  mem::MemArray arr(256);
  arr.poke(0x10, 0xDEADBEEF, 4);
  SafetyMonitor mon(fault::SafetyConfig{});
  EccDomain dom;
  dom.attach(&arr, &mon, /*ecc_enabled=*/true);

  FaultEvent ev;
  ev.offset = 0x10;
  ev.bits = 1;
  dom.inject(ev);
  // SEC: the stored word stays intact (every read corrects it) and the
  // pending record raises the alarm on first consumption.
  EXPECT_EQ(arr.peek(0x10, 4), 0xDEADBEEFu);
  EXPECT_EQ(dom.pending_records(), 1u);
  EXPECT_EQ(arr.read(0x10, 4), 0xDEADBEEFu);
  EXPECT_EQ(dom.pending_records(), 0u);

  const mcds::ObservationFrame frame;
  const mcds::SafetyObservation obs = mon.step_cycle(1, frame);
  EXPECT_EQ(obs.ecc_corrected, 1u);
  EXPECT_EQ(mon.total(AlarmKind::kEccCorrected), 1u);
  EXPECT_EQ(mon.total(AlarmKind::kEccUncorrectable), 0u);

  // Alarm raised once, not on every later read.
  arr.read(0x10, 4);
  mon.step_cycle(2, frame);
  EXPECT_EQ(mon.total(AlarmKind::kEccCorrected), 1u);
}

TEST(EccDomain, DoubleBitFlipCorruptsAndRaisesUncorrectable) {
  mem::MemArray arr(256);
  arr.poke(0x20, 0x0F0F0F0F, 4);
  SafetyMonitor mon(fault::SafetyConfig{});
  EccDomain dom;
  dom.attach(&arr, &mon, /*ecc_enabled=*/true);

  FaultEvent ev;
  ev.offset = 0x20;
  ev.bits = 2;
  ev.bit0 = 0;
  ev.bit1 = 5;
  dom.inject(ev);
  // DED: the data really is corrupt and the read returns it that way.
  const u32 corrupt = 0x0F0F0F0F ^ 0x1u ^ 0x20u;
  EXPECT_EQ(arr.peek(0x20, 4), corrupt);
  EXPECT_EQ(arr.read(0x20, 4), corrupt);

  const mcds::ObservationFrame frame;
  const mcds::SafetyObservation obs = mon.step_cycle(1, frame);
  EXPECT_EQ(obs.ecc_uncorrectable, 1u);
  EXPECT_EQ(mon.total(AlarmKind::kEccUncorrectable), 1u);
  EXPECT_EQ(mon.total(AlarmKind::kEccCorrected), 0u);
}

TEST(EccDomain, OverwriteScrubsThePendingRecord) {
  mem::MemArray arr(256);
  arr.poke(0x30, 0x11111111, 4);
  SafetyMonitor mon(fault::SafetyConfig{});
  EccDomain dom;
  dom.attach(&arr, &mon, /*ecc_enabled=*/true);

  FaultEvent ev;
  ev.offset = 0x30;
  ev.bits = 1;
  dom.inject(ev);
  EXPECT_EQ(dom.pending_records(), 1u);
  // The write re-encodes the word: fault masked, no alarm ever.
  arr.write(0x30, 0x22222222, 4);
  EXPECT_EQ(dom.pending_records(), 0u);
  EXPECT_EQ(arr.read(0x30, 4), 0x22222222u);

  const mcds::ObservationFrame frame;
  mon.step_cycle(1, frame);
  EXPECT_EQ(mon.total(AlarmKind::kEccCorrected), 0u);
  EXPECT_EQ(mon.total(AlarmKind::kEccUncorrectable), 0u);
}

TEST(EccDomain, WithoutEccAnyFlipCorruptsSilently) {
  mem::MemArray arr(256);
  arr.poke(0x40, 0xCAFE0000, 4);
  SafetyMonitor mon(fault::SafetyConfig{});
  EccDomain dom;
  dom.attach(&arr, &mon, /*ecc_enabled=*/false);

  FaultEvent ev;
  ev.offset = 0x40;
  ev.bits = 1;
  ev.bit0 = 3;
  dom.inject(ev);
  EXPECT_EQ(arr.peek(0x40, 4), 0xCAFE0000u ^ 0x8u);
  EXPECT_EQ(arr.read(0x40, 4), 0xCAFE0000u ^ 0x8u);
  EXPECT_EQ(dom.pending_records(), 0u);

  const mcds::ObservationFrame frame;
  mon.step_cycle(1, frame);
  for (unsigned k = 0; k < fault::kNumAlarmKinds; ++k) {
    EXPECT_EQ(mon.total(static_cast<AlarmKind>(k)), 0u);
  }
}

// ---- SafetyMonitor reactions -----------------------------------------

TEST(SafetyMonitor, IrqReactionPostsTheAlarmSource) {
  periph::IrqRouter router;
  const unsigned src = router.add_source("smu.alarm");
  router.configure(src, 15, periph::IrqTarget::kTc);

  fault::SafetyConfig cfg;
  cfg.reactions[static_cast<unsigned>(AlarmKind::kBusError)] =
      fault::Reaction::kIrq;
  SafetyMonitor mon(cfg);
  mon.bind(&router, src, /*tc=*/nullptr, /*watchdog=*/nullptr);

  mon.post(AlarmKind::kBusError);
  const mcds::ObservationFrame frame;
  const mcds::SafetyObservation obs = mon.step_cycle(1, frame);
  EXPECT_TRUE(obs.bus_error);
  EXPECT_TRUE(obs.alarm_irq);
  EXPECT_EQ(mon.total(AlarmKind::kBusError), 1u);
  EXPECT_EQ(mon.reactions_fired(), 1u);
  ASSERT_TRUE(router.tc_view().pending().has_value());
  EXPECT_EQ(router.tc_view().pending(), 15);
}

TEST(SafetyMonitor, WatchdogTimeoutsSurfaceAsAlarms) {
  periph::IrqRouter router;
  const unsigned wdt_src = router.add_source("wdt");
  router.configure(wdt_src, 1, periph::IrqTarget::kTc);
  periph::Watchdog wdt(&router, wdt_src);

  SafetyMonitor mon(fault::SafetyConfig{});
  mon.bind(nullptr, 0, nullptr, &wdt);

  wdt.write_sfr(0x04, 25);
  for (Cycle now = 1; now <= 25; ++now) wdt.step(now);
  ASSERT_EQ(wdt.timeouts(), 1u);

  const mcds::ObservationFrame frame;
  const mcds::SafetyObservation obs = mon.step_cycle(26, frame);
  EXPECT_TRUE(obs.wdt_timeout);
  EXPECT_EQ(mon.total(AlarmKind::kWatchdogTimeout), 1u);
  // The delta was consumed: stepping again raises nothing new.
  mon.step_cycle(27, frame);
  EXPECT_EQ(mon.total(AlarmKind::kWatchdogTimeout), 1u);
}

// ---- plan generation -------------------------------------------------

TEST(FaultPlan, GenerationIsDeterministicSortedAndInSpec) {
  fault::PlanSpec spec;
  spec.flash_bytes = 64 * 1024;
  spec.flash_image_bytes = 4 * 1024;
  spec.dspr_bytes = 16 * 1024;
  spec.pspr_bytes = 8 * 1024;
  spec.lmu_bytes = 8 * 1024;
  spec.slave_count = 5;
  spec.sfr_offsets = {0x0000, 0x1000, 0x2000};
  spec.irq_srcs = {3, 4};
  spec.window_begin = 100;
  spec.window_end = 10'000;
  spec.events_min = 1;
  spec.events_max = 4;

  for (const u64 seed : {u64{1}, u64{42}, u64{0xFEED}}) {
    const FaultPlan a = fault::generate_plan(seed, spec);
    const FaultPlan b = fault::generate_plan(seed, spec);
    ASSERT_EQ(a.events.size(), b.events.size());
    ASSERT_GE(a.events.size(), spec.events_min);
    ASSERT_LE(a.events.size(), spec.events_max);
    for (usize i = 0; i < a.events.size(); ++i) {
      const FaultEvent& ea = a.events[i];
      const FaultEvent& eb = b.events[i];
      EXPECT_EQ(ea.at, eb.at);
      EXPECT_EQ(ea.kind, eb.kind);
      EXPECT_EQ(ea.domain, eb.domain);
      EXPECT_EQ(ea.offset, eb.offset);
      EXPECT_EQ(ea.bits, eb.bits);
      EXPECT_EQ(ea.count, eb.count);
      EXPECT_EQ(ea.slave, eb.slave);
      EXPECT_EQ(ea.sfr_offset, eb.sfr_offset);
      EXPECT_EQ(ea.sfr_value, eb.sfr_value);
      EXPECT_EQ(ea.irq_src, eb.irq_src);
      EXPECT_EQ(ea.duration, eb.duration);
      EXPECT_GE(ea.at, spec.window_begin);
      EXPECT_LT(ea.at, spec.window_end);
      if (i > 0) {
        EXPECT_GE(ea.at, a.events[i - 1].at);
      }
    }
  }
}

// ---- SoC integration -------------------------------------------------

/// Build a plan with one event and run `source` under it.
test::RunResult run_with_plan(std::string_view source, FaultPlan plan,
                              u64 max_cycles = 1'000'000) {
  test::RunResult result;
  auto program = isa::assemble(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  if (!program.is_ok()) return result;
  result.program = std::move(program).value();
  FaultInjector injector(std::move(plan));
  result.soc = std::make_unique<soc::Soc>(test::small_config());
  const Status loaded = result.soc->load(result.program);
  EXPECT_TRUE(loaded.is_ok()) << loaded.to_string();
  result.soc->set_fault_injector(&injector);
  result.soc->reset(result.program.entry());
  result.cycles = result.soc->run(max_cycles);
  // Detach before the local injector dies; alarm totals stay in the
  // monitor, injection counters are checked via soc->fault_injector()
  // only while attached.
  result.soc->set_fault_injector(nullptr);
  return result;
}

constexpr std::string_view kFlashReadLoop = R"(
    .text 0xC8000000
main:
    movh d1, hi(tbl)
    ori  d1, d1, lo(tbl)
    mov.ad a2, d1
    movd d5, 0
    movd d6, 400
loop:
    ld.w d2, [a2+0]
    addi d5, d5, 1
    jlt  d5, d6, loop
    halt
    .data 0x80010000
tbl:
    .word 0xAAAA5555
)";

TEST(SocFault, FlashSingleBitFlipIsCorrectedMidRun) {
  auto program = isa::assemble(kFlashReadLoop);
  ASSERT_TRUE(program.is_ok());
  const u32 tbl = mem::pflash_offset(program.value().symbol_addr("tbl").value());

  FaultPlan plan;
  FaultEvent ev;
  ev.at = 500;  // mid-loop, long after the d-cache holds the line
  ev.kind = FaultKind::kMemFlip;
  ev.domain = MemDomain::kPFlash;
  ev.offset = tbl;
  ev.bits = 1;
  plan.events.push_back(ev);

  auto r = run_with_plan(kFlashReadLoop, std::move(plan));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(2), 0xAAAA5555u);  // the consumer never saw a wrong bit
  EXPECT_EQ(r.soc->safety().total(AlarmKind::kEccCorrected), 1u);
  EXPECT_EQ(r.soc->safety().total(AlarmKind::kEccUncorrectable), 0u);
}

TEST(SocFault, FlashDoubleBitFlipTrapsAndContainsTheRun) {
  auto program = isa::assemble(kFlashReadLoop);
  ASSERT_TRUE(program.is_ok());
  const u32 tbl = mem::pflash_offset(program.value().symbol_addr("tbl").value());

  FaultPlan plan;
  FaultEvent ev;
  ev.at = 500;
  ev.kind = FaultKind::kMemFlip;
  ev.domain = MemDomain::kPFlash;
  ev.offset = tbl;
  ev.bits = 2;
  plan.events.push_back(ev);

  auto r = run_with_plan(kFlashReadLoop, std::move(plan));
  // Default reaction to uncorrectable ECC is kTrap; with BTV unset the
  // core halts instead of executing random memory — run is contained.
  EXPECT_GE(r.soc->safety().total(AlarmKind::kEccUncorrectable), 1u);
  ASSERT_TRUE(r.halted());
  EXPECT_LT(r.cycles, 10'000u);  // stopped right after the bad read
}

TEST(SocFault, BusErrorResponseIsObservedAndAlarmed) {
  constexpr std::string_view kLmuReadLoop = R"(
    .text 0xC8000000
main:
    movh d1, 0x9000
    mov.ad a2, d1
    movd d3, 0
    movd d5, 0
    movd d6, 50
loop:
    ld.w d2, [a2+0]
    add  d3, d3, d2
    addi d5, d5, 1
    jlt  d5, d6, loop
    halt
    .data 0x90000000
lval:
    .word 5
)";
  soc::Soc probe(test::small_config());
  unsigned lmu_slave = ~0u;
  for (unsigned s = 0; s < probe.sri().slave_count(); ++s) {
    if (probe.sri().slave_name(s) == "LMU") lmu_slave = s;
  }
  ASSERT_NE(lmu_slave, ~0u);

  FaultPlan plan;
  FaultEvent ev;
  ev.at = 100;
  ev.kind = FaultKind::kBusError;
  ev.slave = lmu_slave;
  ev.count = 1;
  plan.events.push_back(ev);

  auto r = run_with_plan(kLmuReadLoop, std::move(plan));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.soc->tc().bus_errors(), 1u);
  EXPECT_EQ(r.soc->safety().total(AlarmKind::kBusError), 1u);
  // Exactly one of the 50 reads returned 0 instead of 5.
  EXPECT_EQ(r.d(3), 50u * 5u - 5u);
}

TEST(SocFault, StuckSfrReadsReturnTheStuckValue) {
  constexpr std::string_view kStmReads = R"(
    .text 0xC8000000
main:
    movha a14, 0xF000
    ld.w d2, [a14+0]
    ld.w d3, [a14+0]
    ld.w d4, [a14+0]
    halt
)";
  FaultPlan plan;
  FaultEvent ev;
  ev.at = 1;
  ev.kind = FaultKind::kSfrStuck;
  ev.sfr_offset = periph::sfr::kStm + 0x00;  // STM TIM0
  ev.sfr_value = 0xDEAD0001;
  ev.count = 2;
  plan.events.push_back(ev);

  auto r = run_with_plan(kStmReads, std::move(plan));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(2), 0xDEAD0001u);
  EXPECT_EQ(r.d(3), 0xDEAD0001u);
  EXPECT_NE(r.d(4), 0xDEAD0001u);  // fault exhausted after two reads
  EXPECT_EQ(r.soc->bridge().faulted_reads(), 2u);
}

// ---- fault campaign --------------------------------------------------

struct EngineSetup {
  workload::EngineWorkload workload;
  optimize::FaultCampaign::DemoTargets targets;
  soc::SocConfig chip;
};

EngineSetup make_engine_setup() {
  EngineSetup setup;
  workload::EngineOptions opt;
  opt.halt_after_bg = 60;
  auto built = workload::build_engine_workload(opt);
  EXPECT_TRUE(built.is_ok());
  setup.workload = std::move(built).value();

  const Addr bg = setup.workload.program.symbol_addr("_bg_loop").value();
  setup.targets.hot_flash_offset = mem::pflash_offset(bg);
  setup.targets.dead_flash_offset = setup.chip.pflash.size - 0x100;
  setup.targets.live_dspr_offset = setup.chip.dspr_bytes - 0x40;
  soc::Soc probe(setup.chip);
  setup.targets.storm_src = probe.srcs().adc_done;
  return setup;
}

optimize::FaultCampaign make_campaign(const EngineSetup& setup) {
  optimize::WorkloadCase wc;
  wc.name = "engine";
  wc.program = setup.workload.program;
  wc.tc_entry = setup.workload.tc_entry;
  wc.pcp_entry = setup.workload.pcp_entry;
  wc.configure = [options = setup.workload.options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = 200'000;
  return optimize::FaultCampaign(setup.chip, std::move(wc));
}

TEST(FaultCampaign, DemoScenariosReachAllFiveOutcomeClasses) {
  const EngineSetup setup = make_engine_setup();
  optimize::FaultCampaign campaign = make_campaign(setup);
  campaign.set_jobs(2);

  const auto scenarios = campaign.make_demo_scenarios(setup.targets);
  const optimize::CampaignSummary summary = campaign.run(scenarios);

  ASSERT_EQ(summary.runs.size(), 5u);
  EXPECT_TRUE(summary.golden.halted);
  // One of each of the five *simulation* outcome classes; kFailed is a
  // host-side quarantine outcome and never appears in a healthy run.
  for (unsigned o = 0; o < optimize::kNumFaultOutcomes; ++o) {
    const auto outcome = static_cast<optimize::FaultOutcome>(o);
    const u64 want = outcome == optimize::FaultOutcome::kFailed ? 0u : 1u;
    EXPECT_EQ(summary.outcome_counts[o], want) << to_string(outcome);
  }
  // Scenario order matches taxonomy order by construction.
  EXPECT_EQ(summary.runs[0].outcome, optimize::FaultOutcome::kMasked);
  EXPECT_EQ(summary.runs[1].outcome, optimize::FaultOutcome::kCorrected);
  EXPECT_EQ(summary.runs[2].outcome, optimize::FaultOutcome::kDetected);
  EXPECT_EQ(summary.runs[3].outcome,
            optimize::FaultOutcome::kSilentDataCorruption);
  EXPECT_EQ(summary.runs[4].outcome, optimize::FaultOutcome::kHang);

  // The outcome classes land in the RunReport's fault/alarm sections.
  telemetry::RunReport report;
  summary.fill_report(report);
  const auto fault_value = [&](std::string_view name) -> u64 {
    for (const auto& [key, value] : report.faults) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing fault entry " << name;
    return 0;
  };
  EXPECT_EQ(fault_value("scenarios"), 5u);
  EXPECT_EQ(fault_value("outcome.masked"), 1u);
  EXPECT_EQ(fault_value("outcome.corrected"), 1u);
  EXPECT_EQ(fault_value("outcome.detected"), 1u);
  EXPECT_EQ(fault_value("outcome.sdc"), 1u);
  EXPECT_EQ(fault_value("outcome.hang"), 1u);
  EXPECT_FALSE(report.alarms.empty());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"alarms\""), std::string::npos);
}

TEST(FaultCampaign, ClassificationIsIdenticalForAnyJobCount) {
  const EngineSetup setup = make_engine_setup();
  optimize::FaultCampaign campaign = make_campaign(setup);

  std::vector<optimize::FaultScenario> scenarios =
      campaign.make_demo_scenarios(setup.targets);
  const auto random = campaign.make_scenarios(/*seed=*/7, /*count=*/4);
  scenarios.insert(scenarios.end(), random.begin(), random.end());

  u64 reference = 0;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    campaign.set_jobs(jobs);
    const optimize::CampaignSummary summary = campaign.run(scenarios);
    const u64 hash = summary.classification_hash();
    if (reference == 0) {
      reference = hash;
    } else {
      EXPECT_EQ(hash, reference) << "jobs=" << jobs;
    }
  }
  EXPECT_NE(reference, 0u);
}

// One scenario run the way the campaign attributes and signs it by
// definition: a cold boot, the DAG attached for the whole run, and the
// DSPR hashed word by word through peek().
optimize::ScenarioResult whole_run_reference(
    const optimize::FaultCampaign& campaign,
    const optimize::FaultScenario& sc) {
  const optimize::WorkloadCase& wc = campaign.workload();
  soc::SocConfig cfg = campaign.config();
  cfg.safety = sc.safety;
  FaultInjector injector(sc.plan);
  soc::Soc soc(cfg);
  EXPECT_TRUE(soc.load(wc.program).is_ok());
  wc.configure(soc);
  profiling::ExecutionDag dag{isa::SymbolMap(wc.program)};
  soc.add_frame_observer(&dag);
  soc.set_fault_injector(&injector);
  soc.reset(wc.tc_entry, wc.pcp_entry);
  soc.run(campaign.budget_cycles());

  optimize::ScenarioResult r;
  r.cycles = soc.cycle();
  Cycle first = ~Cycle{0};
  for (const FaultEvent& ev : sc.plan.events) first = std::min(first, ev.at);
  r.task = dag.task_at(profiling::kDagCoreTc, first);
  u64 h = kFnvOffset;
  for (unsigned i = 0; i < 16; ++i) {
    h = fnv1a(h, u64{soc.tc().d(i)});
    h = fnv1a(h, u64{soc.tc().a(i)});
  }
  const mem::MemArray& dspr = soc.dspr().array();
  for (usize off = 0; off + 4 <= dspr.size(); off += 4) {
    h = fnv1a(h, u64{dspr.peek(off, 4)});
  }
  r.signature = h;
  return r;
}

// The campaign feeds its DAG only until the task at the first event is
// settled and folds the DSPR's zero runs at once; neither may change an
// answer. On the WFI engine, whose scenarios park, fast-forward and land
// in idle and ISR nodes, every scenario's task, signature and cycles must
// equal the whole-run reference, with the warm fork on and off, at jobs 1
// and 2, and through the timeout path's chunked run.
TEST(FaultCampaign, AttributionAndSignatureEqualAWholeRunReference) {
  workload::EngineOptions opt;
  opt.idle_background = true;
  opt.halt_after_revs = 2;
  auto built = workload::build_engine_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const soc::SocConfig chip;
  optimize::WorkloadCase wc;
  wc.name = "engine";
  wc.program = built.value().program;
  wc.tc_entry = built.value().tc_entry;
  wc.pcp_entry = built.value().pcp_entry;
  wc.configure = [options = built.value().options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = 400'000;
  optimize::FaultCampaign campaign(chip, std::move(wc));

  optimize::FaultCampaign::DemoTargets targets;
  const Addr bg = built.value().program.symbol_addr("_bg_loop").value();
  targets.hot_flash_offset = mem::pflash_offset(bg);
  targets.dead_flash_offset = chip.pflash.size - 0x100;
  targets.live_dspr_offset = chip.dspr_bytes - 0x40;
  targets.storm_src = soc::Soc(chip).srcs().adc_done;
  std::vector<optimize::FaultScenario> scenarios =
      campaign.make_demo_scenarios(targets);
  const auto random = campaign.make_scenarios(/*seed=*/1, /*count=*/48);
  scenarios.insert(scenarios.end(), random.begin(), random.end());

  std::vector<optimize::ScenarioResult> want;
  std::set<std::string> tasks;
  for (const optimize::FaultScenario& sc : scenarios) {
    want.push_back(whole_run_reference(campaign, sc));
    tasks.insert(want.back().task);
  }
  EXPECT_GE(tasks.size(), 3u);
  EXPECT_TRUE(tasks.count("idle") != 0);

  struct Mode {
    bool warm;
    unsigned jobs;
    u64 timeout_ms;
  };
  for (const Mode m : {Mode{false, 1, 0}, Mode{false, 2, 0}, Mode{true, 1, 0},
                       Mode{true, 2, 0}, Mode{true, 2, 600'000}}) {
    SCOPED_TRACE("warm " + std::to_string(m.warm) + ", jobs " +
                 std::to_string(m.jobs) + ", timeout " +
                 std::to_string(m.timeout_ms));
    if (m.warm) {
      EXPECT_NE(campaign.prepare_warm_fork(scenarios), 0u);
    } else {
      campaign.clear_warm_fork();
    }
    campaign.set_jobs(m.jobs);
    campaign.set_timeout_ms(m.timeout_ms);
    const optimize::CampaignSummary summary = campaign.run(scenarios);
    ASSERT_EQ(summary.runs.size(), want.size());
    for (usize i = 0; i < want.size(); ++i) {
      const optimize::ScenarioResult& got = summary.runs[i];
      EXPECT_EQ(got.task, want[i].task) << got.name;
      EXPECT_EQ(got.signature, want[i].signature) << got.name;
      EXPECT_EQ(got.cycles, want[i].cycles) << got.name;
    }
  }
}

TEST(FaultCampaign, SameSeedSamePlansDifferentSeedsDiffer) {
  const EngineSetup setup = make_engine_setup();
  const optimize::FaultCampaign campaign = make_campaign(setup);

  const auto a = campaign.make_scenarios(11, 8);
  const auto b = campaign.make_scenarios(11, 8);
  const auto c = campaign.make_scenarios(12, 8);
  ASSERT_EQ(a.size(), 8u);
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    ASSERT_EQ(a[i].plan.events.size(), b[i].plan.events.size());
  }
  bool any_difference = false;
  for (usize i = 0; i < a.size(); ++i) {
    if (a[i].seed != c[i].seed) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace audo
