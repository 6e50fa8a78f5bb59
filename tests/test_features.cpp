// Tests for methodology features added on top of the base system:
// comparator-qualified counters, per-core data-trace qualifiers, the
// compute-bound engine halt criterion, the LMU-resident CAN ring, map
// interpolation, and uncached/strided diagnostics.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "optimize/options.hpp"
#include "mem/memory_map.hpp"
#include "workload/engine.hpp"
#include "isa/assembler.hpp"
#include "ed/emulation_device.hpp"

namespace audo {
namespace {

TEST(QualifiedCounters, CountOnlyMatchingEvents) {
  // Two counters on the same event (TC irq entry): one unqualified, one
  // qualified to priority 40.
  mcds::McdsConfig cfg;
  cfg.comparators = {mcds::Comparator{
      mcds::CoreSel::kTc, mcds::CompareField::kIrqPrio, 40, 40, -1}};
  mcds::CounterGroupConfig g;
  g.name = "irqs";
  g.basis = mcds::EventId::kCycles;
  g.resolution = 100;
  mcds::RateCounterConfig all;
  all.event = mcds::EventId::kTcIrqEntry;
  mcds::RateCounterConfig only40;
  only40.event = mcds::EventId::kTcIrqEntry;
  only40.qualifier = 0;
  g.counters = {all, only40};
  cfg.counter_groups = {g};

  mcds::Mcds mcds(cfg);
  mcds::VectorSink sink;
  mcds.set_sink(&sink);
  for (Cycle c = 1; c <= 100; ++c) {
    mcds::ObservationFrame f;
    f.cycle = c;
    f.tc.present = true;
    if (c % 10 == 0) {
      f.tc.irq_entry = true;
      f.tc.irq_prio = (c % 20 == 0) ? 40 : 30;
    }
    mcds.observe(f);
  }
  auto decoded = mcds::TraceDecoder::decode(sink.units());
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_FALSE(decoded.value().empty());
  const auto& sample = decoded.value().front();
  EXPECT_EQ(sample.counts[0], 10u);  // all irq entries
  EXPECT_EQ(sample.counts[1], 5u);   // only priority 40
}

TEST(QualifiedCounters, MissingComparatorTableMeansZero) {
  mcds::CounterBank bank;
  mcds::CounterGroupConfig g;
  g.basis = mcds::EventId::kCycles;
  g.resolution = 10;
  mcds::RateCounterConfig c;
  c.event = mcds::EventId::kCycles;
  c.qualifier = 3;  // out of range
  g.counters = {c};
  bank.add_group(g);
  std::vector<bool> hits;  // empty
  for (Cycle cyc = 1; cyc <= 10; ++cyc) {
    mcds::ObservationFrame f;
    f.cycle = cyc;
    bank.step(f, &hits);
  }
  ASSERT_EQ(bank.samples().size(), 1u);
  EXPECT_EQ(bank.samples()[0].counts[0], 0u);
}

TEST(DataQualifier, PerCoreSelection) {
  mcds::McdsConfig cfg;
  cfg.data_trace = true;
  cfg.trace_pcp = true;
  cfg.sync_interval_cycles = 1'000'000;  // no periodic syncs in the way
  cfg.comparators = {
      mcds::Comparator{mcds::CoreSel::kTc, mcds::CompareField::kDataAddr,
                       0x100, 0x1FF, -1},
      mcds::Comparator{mcds::CoreSel::kPcp, mcds::CompareField::kDataAddr,
                       0x200, 0x2FF, -1}};
  cfg.data_qualifier = 0;
  cfg.data_qualifier_pcp = 1;
  mcds::Mcds mcds(cfg);
  mcds::VectorSink sink;
  mcds.set_sink(&sink);

  mcds::ObservationFrame f;
  f.cycle = 1;
  f.tc.present = true;
  f.pcp.present = true;
  f.tc.data_access = true;
  f.tc.data_addr = 0x180;   // TC qualifier matches
  f.tc.data_bytes = 4;
  f.pcp.data_access = true;
  f.pcp.data_addr = 0x180;  // PCP qualifier does NOT match
  f.pcp.data_bytes = 4;
  mcds.observe(f);

  f.cycle = 2;
  f.tc.data_addr = 0x280;   // TC no, PCP yes
  f.pcp.data_addr = 0x280;
  mcds.observe(f);

  auto decoded = mcds::TraceDecoder::decode(sink.units());
  ASSERT_TRUE(decoded.is_ok());
  unsigned tc_msgs = 0, pcp_msgs = 0;
  for (const auto& m : decoded.value()) {
    if (m.kind != mcds::MsgKind::kData) continue;
    if (m.source == mcds::MsgSource::kTcCore) {
      ++tc_msgs;
      EXPECT_EQ(m.addr, 0x180u);
    } else {
      ++pcp_msgs;
      EXPECT_EQ(m.addr, 0x280u);
    }
  }
  EXPECT_EQ(tc_msgs, 1u);
  EXPECT_EQ(pcp_msgs, 1u);
}

TEST(EngineOptionsFeature, HaltAfterBgIsComputeBound) {
  // Unlike halt_after_revs (crank-bound), cycles to N background
  // iterations must respond to CPU-side slowdowns.
  auto run_with_ws = [](unsigned ws) {
    workload::EngineOptions opt;
    opt.crank_time_scale = 100;
    opt.halt_after_bg = 60;
    opt.diag_uncached = true;
    opt.diag_stride_bytes = 36;
    opt.diag_words = 128;
    auto w = workload::build_engine_workload(opt);
    EXPECT_TRUE(w.is_ok());
    auto cfg = test::small_config();
    cfg.pflash.wait_states = ws;
    soc::Soc soc(cfg);
    EXPECT_TRUE(workload::install_engine(soc, w.value()).is_ok());
    soc.run(20'000'000);
    EXPECT_TRUE(soc.tc().halted());
    return soc.cycle();
  };
  const u64 fast = run_with_ws(2);
  const u64 slow = run_with_ws(8);
  EXPECT_GT(slow, fast + fast / 10);
}

TEST(EngineOptionsFeature, CanRingInLmuIsUsed) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.can_rx_period = 3'000;
  opt.can_ring_in_lmu = true;
  auto w = workload::build_engine_workload(opt);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(workload::install_engine(soc, w.value()).is_ok());
  soc.run(300'000);
  // The ring was allocated in the LMU and filled by the CAN ISR.
  const Addr ring = w.value().program.symbol_addr("can_ring").value();
  EXPECT_GE(ring, mem::kLmuBase);
  EXPECT_LT(ring, mem::kLmuBase + 0x1000);
  bool nonzero = false;
  for (u32 i = 0; i < 32; ++i) {
    if (soc.lmu().array().read32(ring - mem::kLmuBase + i * 4) != 0) {
      nonzero = true;
    }
  }
  EXPECT_TRUE(nonzero);
  EXPECT_GT(soc.sri().slave_stats(3).writes, 0u);  // LMU slave saw writes
}

TEST(EngineOptionsFeature, InterpolationIncreasesMapTraffic) {
  // 8 map reads per tooth instead of 2: the flash data traffic delta must
  // scale with the tooth count (diagnostics traffic is common-mode).
  auto run_variant = [](bool interpolate) {
    workload::EngineOptions opt;
    opt.crank_time_scale = 100;
    opt.interpolate = interpolate;
    opt.halt_after_bg = 200;  // fixed diagnostic work: common-mode traffic
    auto w = workload::build_engine_workload(opt);
    EXPECT_TRUE(w.is_ok());
    auto cfg = test::small_config();
    cfg.dcache.enabled = false;  // every map read reaches the flash
    soc::Soc soc(cfg);
    EXPECT_TRUE(workload::install_engine(soc, w.value()).is_ok());
    soc.run(20'000'000);
    EXPECT_TRUE(soc.tc().halted());
    const u32 teeth =
        soc.dspr().read(w.value().program.symbol_addr("tooth_count").value(), 4);
    return std::pair<u64, u32>{soc.pflash().stats().data_accesses, teeth};
  };
  const auto [point_reads, point_teeth] = run_variant(false);
  const auto [interp_reads, interp_teeth] = run_variant(true);
  ASSERT_GT(point_teeth, 100u);
  // Similar tooth counts; the read delta ~ 6 extra reads per tooth.
  const u64 delta = interp_reads > point_reads ? interp_reads - point_reads : 0;
  EXPECT_GT(delta, static_cast<u64>(interp_teeth) * 4);
}

TEST(EngineOptionsFeature, UncachedDiagnosticsBypassTheDcache) {
  auto dcache_accesses = [](bool uncached) {
    workload::EngineOptions opt;
    opt.crank_time_scale = 100;
    opt.diag_uncached = uncached;
    opt.diag_words = 128;
    auto w = workload::build_engine_workload(opt);
    EXPECT_TRUE(w.is_ok());
    soc::Soc soc(test::small_config());
    EXPECT_TRUE(workload::install_engine(soc, w.value()).is_ok());
    soc.run(200'000);
    return soc.dcache().stats().accesses;
  };
  EXPECT_LT(dcache_accesses(true), dcache_accesses(false) / 2);
}

TEST(CrankFeature, TimeScaleCompressesToothPeriod) {
  periph::IrqRouter router;
  const unsigned tooth = router.add_source("tooth");
  const unsigned sync = router.add_source("sync");
  router.configure(tooth, 1, periph::IrqTarget::kTc);
  periph::CrankWheel::Config cfg;
  cfg.clock_hz = 1'000'000;
  cfg.initial_rpm = 600;
  periph::CrankWheel crank(cfg, &router, tooth, sync);
  for (Cycle now = 1; now <= 50'000; ++now) crank.step(now);
  const u64 unscaled = router.node(tooth).posted;
  crank.set_time_scale(10);
  for (Cycle now = 50'001; now <= 100'000; ++now) crank.step(now);
  const u64 scaled = router.node(tooth).posted - unscaled;
  EXPECT_GT(scaled, unscaled * 5);
}

TEST(OptionMonotonicity, ApplyingTwiceOrOutOfOrderNeverRegresses) {
  const auto catalogue = optimize::standard_catalogue();
  soc::SocConfig cfg = test::small_config();
  const optimize::ArchOption* ws3 = optimize::find_option(catalogue, "flash_ws_3");
  const optimize::ArchOption* ws4 = optimize::find_option(catalogue, "flash_ws_4");
  ASSERT_NE(ws3, nullptr);
  ASSERT_NE(ws4, nullptr);
  cfg = ws3->apply(cfg);
  EXPECT_EQ(cfg.pflash.wait_states, 3u);
  cfg = ws4->apply(cfg);  // must not regress to 4
  EXPECT_EQ(cfg.pflash.wait_states, 3u);

  const optimize::ArchOption* dc16 = optimize::find_option(catalogue, "dcache_16k");
  const optimize::ArchOption* dc8 = optimize::find_option(catalogue, "dcache_8k");
  ASSERT_NE(dc16, nullptr);
  ASSERT_NE(dc8, nullptr);
  cfg = dc16->apply(cfg);
  cfg = dc8->apply(cfg);  // must not shrink back
  EXPECT_EQ(cfg.dcache.size_bytes, 16u * 1024);
}


TEST(EngineOptionsFeature, ToothIsrLatencyIsMeasured) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  auto w = workload::build_engine_workload(opt);
  ASSERT_TRUE(w.is_ok());
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(workload::install_engine(soc, w.value()).is_ok());
  soc.run(400'000);
  const auto& prog = w.value().program;
  const u32 lat_max = soc.dspr().read(prog.symbol_addr("lat_max").value(), 4);
  const u32 lat_sum = soc.dspr().read(prog.symbol_addr("lat_sum").value(), 4);
  const u32 teeth =
      soc.dspr().read(prog.symbol_addr("tooth_count").value(), 4);
  ASSERT_GT(teeth, 50u);
  // Entry latency includes irq dispatch + vector jump + register saves +
  // the SFR read itself: plausible range, never zero.
  EXPECT_GT(lat_max, 10u);
  EXPECT_LT(lat_max, 2'000u);
  const double avg = static_cast<double>(lat_sum) / teeth;
  EXPECT_GT(avg, 5.0);
  EXPECT_LE(avg, lat_max);
}

TEST(MliBridge, MonitorSeesEecStatusAndStreamsTrace) {
  // The monitor path: TC software reads EEC state through the MLI SFR
  // window while the MCDS records its own execution.
  auto program = isa::assemble(R"(
    .text 0x80000000
main:
    movha a15, 0xC000
    movha a14, 0xF000
    movd  d0, 200
    mov.ad a2, d0
_work:
    addi  d1, d1, 1
    loop  a2, _work
    ; monitor: read EEC status + EMEM fill + first trace byte
    ld.w  d2, [a14+0x5000]   ; STATUS
    ld.w  d3, [a14+0x5004]   ; EMEM_FILL
    ld.w  d4, [a14+0x5014]   ; POP_BYTE
    halt
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  mcds::McdsConfig cfg;
  cfg.program_trace = true;
  ed::EmulationDevice ed(test::small_config(), cfg, ed::EdConfig{});
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(100'000);
  ASSERT_TRUE(ed.soc().tc().halted());
  EXPECT_EQ(ed.soc().tc().d(2) & 0x4u, 0x4u);  // trace enabled bit
  EXPECT_GT(ed.soc().tc().d(3), 0u);           // EMEM holds trace bytes
  EXPECT_NE(ed.soc().tc().d(4), 0xFFFFFFFFu);  // a real byte was popped
  EXPECT_EQ(ed.mli().bytes_popped(), 1u);
}

TEST(MliBridge, OverlayAccessAndBreakClear) {
  ed::EmulationDevice ed(test::small_config(), mcds::McdsConfig{},
                         ed::EdConfig{});
  auto& mli = ed.mli();
  mli.write_sfr(0x1C, 5);        // OVERLAY_IDX = word 5
  mli.write_sfr(0x20, 0xFEED);   // OVERLAY_DATA
  EXPECT_EQ(ed.emem().overlay().read32(20), 0xFEEDu);
  EXPECT_EQ(mli.read_sfr(0x20), 0xFEEDu);
  // Break clearing through the monitor window.
  mli.write_sfr(0x18, 1);
  EXPECT_FALSE(ed.mcds().break_requested());
}

}  // namespace
}  // namespace audo
