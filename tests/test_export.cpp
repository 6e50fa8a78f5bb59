// Tests for tool-side exports (CSV) and the MCDS break (debug halt).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "profiling/export.hpp"
#include "profiling/listing.hpp"
#include "profiling/session.hpp"
#include "workload/kernels.hpp"

namespace audo {
namespace {

TEST(Export, SeriesCsvShapeAndForwardFill) {
  profiling::RateSeries a;
  a.name = "ipc";
  a.points = {{100, 50, 100}, {200, 80, 100}};
  profiling::RateSeries b;
  b.name = "miss";
  b.points = {{150, 3, 50}};
  const std::string csv = profiling::series_to_csv({a, b});

  std::vector<std::string> lines;
  usize pos = 0;
  while (pos < csv.size()) {
    const usize nl = csv.find('\n', pos);
    lines.push_back(csv.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "cycle,ipc,miss");
  EXPECT_EQ(lines[1].substr(0, 4), "100,");       // first ipc sample
  EXPECT_NE(lines[1].find("0.5"), std::string::npos);
  EXPECT_EQ(lines[1].back(), ',');                // miss has no sample yet
  EXPECT_EQ(lines[2].substr(0, 4), "150,");
  EXPECT_NE(lines[2].find("0.06"), std::string::npos);
  // Forward fill: line 3 (cycle 200) keeps the last miss value.
  EXPECT_NE(lines[3].find("0.06"), std::string::npos);
  EXPECT_NE(lines[3].find("0.8"), std::string::npos);
}

TEST(Export, SeriesCsvDisjointCadencesForwardFill) {
  // Three series whose sample cycles never coincide (co-prime cadences
  // plus a one-shot): every union row must carry one cell per series,
  // holding the last value at-or-before that cycle and staying empty
  // until the series' first sample.
  profiling::RateSeries a;
  a.name = "a";
  a.points = {{100, 10, 100}, {200, 20, 100}, {300, 30, 100}};
  profiling::RateSeries b;
  b.name = "b";
  b.points = {{70, 7, 100}, {140, 14, 100}, {210, 21, 100}, {280, 28, 100}};
  profiling::RateSeries c;
  c.name = "c";
  c.points = {{250, 50, 100}};
  const std::string csv = profiling::series_to_csv({a, b, c});

  std::vector<std::string> lines;
  usize pos = 0;
  while (pos < csv.size()) {
    const usize nl = csv.find('\n', pos);
    lines.push_back(csv.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 9u);  // header + union of 8 distinct cycles
  EXPECT_EQ(lines[0], "cycle,a,b,c");
  for (usize i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), 3)
        << "row " << i;
  }
  EXPECT_EQ(lines[1], "70,,0.070000,");           // a and c not yet sampled
  EXPECT_EQ(lines[2], "100,0.100000,0.070000,");  // b forward-fills
  EXPECT_EQ(lines[3], "140,0.100000,0.140000,");
  EXPECT_EQ(lines[4], "200,0.200000,0.140000,");
  EXPECT_EQ(lines[5], "210,0.200000,0.210000,");
  EXPECT_EQ(lines[6], "250,0.200000,0.210000,0.500000");
  EXPECT_EQ(lines[7], "280,0.200000,0.280000,0.500000");
  EXPECT_EQ(lines[8], "300,0.300000,0.280000,0.500000");
}

TEST(Export, MessageCsvCoversAllKinds) {
  std::vector<mcds::TraceMessage> messages;
  mcds::TraceMessage m;
  m.kind = mcds::MsgKind::kData;
  m.source = mcds::MsgSource::kTcCore;
  m.cycle = 42;
  m.addr = 0xC0000010;
  m.value = 0x1234;
  m.write = true;
  m.bytes = 4;
  messages.push_back(m);
  m = {};
  m.kind = mcds::MsgKind::kRate;
  m.source = mcds::MsgSource::kChip;
  m.cycle = 50;
  m.group = 2;
  m.basis = 100;
  m.counts = {1, 2, 3};
  messages.push_back(m);
  const std::string csv = profiling::messages_to_csv(messages);
  EXPECT_NE(csv.find("42,tc,data,write addr=0xC0000010"), std::string::npos);
  EXPECT_NE(csv.find("50,chip,rate,group=2 basis=100 counts=1|2|3"),
            std::string::npos);
}

TEST(Export, EndToEndFromSession) {
  auto program = workload::build_sort(24);
  ASSERT_TRUE(program.is_ok());
  profiling::SessionOptions opts;
  opts.resolution = 200;
  opts.program_trace = true;
  profiling::ProfilingSession session(test::small_config(), opts);
  ASSERT_TRUE(session.load(program.value()).is_ok());
  session.reset(program.value().entry());
  const auto result = session.run(10'000'000);

  const std::string series_csv = profiling::series_to_csv(result.series);
  EXPECT_NE(series_csv.find("ipc/tc.retired"), std::string::npos);
  EXPECT_GT(std::count(series_csv.begin(), series_csv.end(), '\n'), 10);

  const std::string msg_csv = profiling::messages_to_csv(result.messages);
  EXPECT_NE(msg_csv.find(",tc,flow,"), std::string::npos);
  EXPECT_NE(msg_csv.find(",chip,rate,"), std::string::npos);
}

TEST(McdsBreak, BreakpointPausesTheDevice) {
  auto program = workload::build_sort(32);
  ASSERT_TRUE(program.is_ok());
  // Break when the sort's summation phase first writes `result`.
  const Addr result_addr = program.value().symbol_addr("result").value();
  mcds::McdsConfig cfg;
  cfg.comparators = {mcds::Comparator{
      mcds::CoreSel::kTc, mcds::CompareField::kDataAddr, result_addr,
      result_addr + 3, /*write_filter=*/1}};
  cfg.actions = {mcds::ActionBinding{mcds::Equation::comparator(0),
                                     mcds::TriggerAction::kBreak, 0}};
  ed::EmulationDevice ed(test::small_config(), cfg, ed::EdConfig{});
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000'000);

  ASSERT_TRUE(ed.mcds().break_requested());
  EXPECT_FALSE(ed.soc().tc().halted());  // paused, not finished
  const Cycle paused_at = ed.soc().cycle();
  EXPECT_EQ(ed.mcds().break_cycle(), paused_at);
  // Tool inspects state at the breakpoint...
  EXPECT_EQ(ed.tool_read32(result_addr), ed.soc().dspr().read(result_addr, 4));
  // ...then resumes to completion.
  ed.mcds().clear_break();
  ed.run(10'000'000);
  EXPECT_TRUE(ed.soc().tc().halted());
  EXPECT_NE(ed.soc().dspr().read(result_addr, 4), 0u);
}

TEST(McdsBreak, NoBreakWithoutTrigger) {
  auto program = workload::build_fir(8, 32);
  ASSERT_TRUE(program.is_ok());
  mcds::McdsConfig cfg;  // no actions
  ed::EmulationDevice ed(test::small_config(), cfg, ed::EdConfig{});
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000'000);
  EXPECT_FALSE(ed.mcds().break_requested());
  EXPECT_TRUE(ed.soc().tc().halted());
}

TEST(McdsBreak, BreakOnParkingCyclePausesThere) {
  // The break fires on the cycle the TC parks in WFI, which is also the
  // first cycle an idle skip could follow: the device must pause there on
  // both tiers and in both fast-forward modes.
  auto program = isa::assemble(R"(
    .text 0xC8000000
main:
    di
    nop
    nop
park:
    wfi
    halt
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  const Addr park = program.value().symbol_addr("park").value();
  mcds::McdsConfig cfg;
  cfg.comparators = {mcds::Comparator{mcds::CoreSel::kTc,
                                      mcds::CompareField::kRetirePc, park,
                                      park, -1}};
  cfg.actions = {mcds::ActionBinding{mcds::Equation::comparator(0),
                                     mcds::TriggerAction::kBreak, 0}};
  for (const auto tier : {soc::SocConfig::ExecTier::kAccurate,
                          soc::SocConfig::ExecTier::kSuperblock}) {
    for (const bool fast_forward : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << (tier == soc::SocConfig::ExecTier::kAccurate
                           ? "accurate"
                           : "superblock")
                   << (fast_forward ? ", ff on" : ", ff off"));
      soc::SocConfig chip = test::small_config();
      chip.exec_tier = tier;
      chip.fast_forward = fast_forward;
      ed::EmulationDevice ed(chip, cfg, ed::EdConfig{});
      ASSERT_TRUE(ed.load(program.value()).is_ok());
      ed.reset(program.value().entry());
      // A live watchdog keeps a wake source, so the park is no deadlock.
      ed.soc().watchdog().write_sfr(0x04, 1'000'000);
      ed.run(10'000);
      ASSERT_TRUE(ed.mcds().break_requested());
      EXPECT_EQ(ed.soc().cycle(), ed.mcds().break_cycle());
      EXPECT_FALSE(ed.soc().idle_deadlock());
    }
  }
}


TEST(Listing, ReconstructsExecutedInstructions) {
  auto program = isa::assemble(R"(
    .text 0x80000000
main:
    movd d0, 3
    mov.ad a2, d0
_top:
    addi d1, d1, 1
    loop a2, _top
    halt
)");
  ASSERT_TRUE(program.is_ok());
  mcds::McdsConfig cfg;
  cfg.program_trace = true;
  cfg.sync_interval_cycles = 4096;
  ed::EmulationDevice ed(test::small_config(), cfg, ed::EdConfig{});
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000);
  auto decoded = ed.download_trace();
  ASSERT_TRUE(decoded.is_ok());
  const std::string listing =
      profiling::execution_listing(program.value(), decoded.value());
  // The loop body appears with its address, mnemonic and function.
  EXPECT_NE(listing.find("0x80000008  addi d1, d1, 1"), std::string::npos)
      << listing;
  EXPECT_NE(listing.find("; in main"), std::string::npos);
  EXPECT_NE(listing.find("branch/irq -> 0x80000008"), std::string::npos);
  // Three loop iterations -> the addi shows up three times.
  usize count = 0;
  for (usize pos = 0; (pos = listing.find("addi d1", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(Listing, RespectsLineCapAndGapMarkers) {
  std::vector<mcds::TraceMessage> messages;
  mcds::TraceMessage sync;
  sync.kind = mcds::MsgKind::kSync;
  sync.source = mcds::MsgSource::kTcCore;
  sync.cycle = 1;
  sync.pc = 0x80000000;
  messages.push_back(sync);
  mcds::TraceMessage ovf;
  ovf.kind = mcds::MsgKind::kOverflow;
  ovf.source = mcds::MsgSource::kChip;  // ignored: wrong core
  ovf.cycle = 2;
  messages.push_back(ovf);
  isa::Program empty;
  profiling::ListingOptions lo;
  lo.max_lines = 1;
  lo.core = mcds::MsgSource::kChip;
  const std::string text =
      profiling::execution_listing(empty, messages, lo);
  EXPECT_NE(text.find("trace gap"), std::string::npos);
}


TEST(CycleAccurateMode, TickCountsSumToRetiredInstructions) {
  auto program = workload::build_fir(8, 64);
  ASSERT_TRUE(program.is_ok());
  mcds::McdsConfig cfg;
  cfg.cycle_accurate = true;
  cfg.program_trace = true;
  ed::EdConfig ed_cfg;
  ed_cfg.emem.size_bytes = 8 * 1024 * 1024;
  ed_cfg.emem.overlay_bytes = 0;
  ed::EmulationDevice ed(test::small_config(), cfg, ed_cfg);
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000'000);
  ASSERT_TRUE(ed.soc().tc().halted());
  auto decoded = ed.download_trace();
  ASSERT_TRUE(decoded.is_ok());
  u64 ticked = 0;
  Cycle last = 0;
  for (const auto& m : decoded.value()) {
    ASSERT_GE(m.cycle, last) << "timestamps must be monotonic";
    last = m.cycle;
    if (m.source != mcds::MsgSource::kTcCore) continue;
    if (m.kind == mcds::MsgKind::kTick || m.kind == mcds::MsgKind::kSync) {
      ticked += m.instr_count;
      EXPECT_LE(m.instr_count, 3u);  // issue width bound (syncs flushed each tick)
    }
  }
  // Cycle-accurate mode accounts for every retired instruction.
  EXPECT_EQ(ticked, ed.soc().tc().retired());
}

}  // namespace
}  // namespace audo
