// Emulation Device tests: structural non-intrusiveness (E10), tool
// access over Cerberus, end-of-run trace download, the stream-drain DAP
// model and the run loop the device shares with the product chip.
#include <gtest/gtest.h>

#include "ed/emulation_device.hpp"
#include "helpers.hpp"
#include "mem/memory_map.hpp"
#include "profiling/session.hpp"
#include "workload/engine.hpp"
#include "workload/kernels.hpp"

namespace audo {
namespace {

ed::EdConfig default_ed() {
  ed::EdConfig cfg;
  cfg.emem.size_bytes = 512 * 1024;
  cfg.emem.overlay_bytes = 128 * 1024;
  return cfg;
}

mcds::McdsConfig full_trace_config() {
  mcds::McdsConfig cfg;
  cfg.program_trace = true;
  cfg.data_trace = true;
  cfg.irq_trace = true;
  cfg.sync_interval_cycles = 512;
  return cfg;
}

TEST(EmulationDevice, TracingIsNonIntrusive) {
  // The central E10 property: a run with the full EEC observing is
  // cycle-identical and state-identical to a bare product-chip run.
  auto program = workload::build_fir(8, 64);
  ASSERT_TRUE(program.is_ok());

  soc::Soc bare(test::small_config());
  ASSERT_TRUE(bare.load(program.value()).is_ok());
  bare.reset(program.value().entry());
  const u64 bare_cycles = bare.run(10'000'000);

  ed::EmulationDevice ed(test::small_config(), full_trace_config(),
                         default_ed());
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  const u64 ed_cycles = ed.run(10'000'000);

  EXPECT_EQ(bare_cycles, ed_cycles);
  EXPECT_EQ(bare.tc().retired(), ed.soc().tc().retired());
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(bare.tc().d(i), ed.soc().tc().d(i)) << "d" << i;
    EXPECT_EQ(bare.tc().a(i), ed.soc().tc().a(i)) << "a" << i;
  }
  EXPECT_EQ(bare.dspr().array(), ed.soc().dspr().array());
  // And the ED did actually record something.
  EXPECT_GT(ed.emem().total_pushed_messages(), 10u);
}

TEST(EmulationDevice, DownloadedFlowTraceMatchesExecution) {
  auto program = workload::build_sort(24);
  ASSERT_TRUE(program.is_ok());
  ed::EmulationDevice ed(test::small_config(), full_trace_config(),
                         default_ed());
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000'000);
  ASSERT_TRUE(ed.soc().tc().halted());

  auto decoded = ed.download_trace();
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  // Sum of instr_count over flow/sync/tick messages equals retired
  // instructions (minus the tail after the last message).
  u64 traced = 0;
  u64 flows = 0;
  for (const mcds::TraceMessage& m : decoded.value()) {
    if (m.source != mcds::MsgSource::kTcCore) continue;
    if (m.kind == mcds::MsgKind::kFlow || m.kind == mcds::MsgKind::kSync) {
      traced += m.instr_count;
      if (m.kind == mcds::MsgKind::kFlow) ++flows;
    }
  }
  EXPECT_GT(flows, 100u);  // the sort is branchy
  EXPECT_LE(traced, ed.soc().tc().retired());
  EXPECT_GT(traced, ed.soc().tc().retired() * 9 / 10);
}

TEST(EmulationDevice, ToolReadAndWriteThroughCerberus) {
  auto program = workload::build_memcpy(16, 1);
  ASSERT_TRUE(program.is_ok());
  ed::EmulationDevice ed(test::small_config(), mcds::McdsConfig{},
                         default_ed());
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(1'000'000);

  // Read the kernel's result via the tool access path.
  const Addr result = program.value().symbol_addr("result").value();
  EXPECT_EQ(ed.tool_read32(result), ed.soc().dspr().read(result, 4));

  // Write LMU through the tool and read it back both ways.
  ed.tool_write32(mem::kLmuBase + 0x80, 0x5EC0FFEE);
  EXPECT_EQ(ed.tool_read32(mem::kLmuBase + 0x80), 0x5EC0FFEEu);
  EXPECT_EQ(ed.soc().lmu().array().read32(0x80), 0x5EC0FFEEu);
}

TEST(EmulationDevice, StreamDrainMovesBytesDuringRun) {
  auto program = workload::build_sort(48);
  ASSERT_TRUE(program.is_ok());
  ed::EdConfig cfg = default_ed();
  cfg.stream_drain = true;
  cfg.dap_bits_per_second = 40'000'000;
  ed::EmulationDevice ed(test::small_config(), full_trace_config(), cfg);
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000'000);
  EXPECT_GT(ed.dap_bytes_drained(), 0u);
  // Everything that was pushed and drained is decodable.
  auto decoded = ed.download_trace();
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_GT(decoded.value().size(), 10u);
}

TEST(EmulationDevice, StreamDrainIdenticalAcrossHostModes) {
  // Stream drain accrues a fractional DAP budget on every cycle, so idle
  // cycles are stepped under it: the bytes drained, like the cycles and
  // the trace, must not depend on the tier or on fast-forward.
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto w = workload::build_engine_workload(opt);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();

  struct Observed {
    u64 cycles = 0;
    u64 drained = 0;
    u64 messages = 0;
  };
  const auto run = [&](soc::SocConfig::ExecTier tier, bool fast_forward) {
    soc::SocConfig chip = test::small_config();
    chip.exec_tier = tier;
    chip.fast_forward = fast_forward;
    profiling::SessionOptions options;
    options.resolution = 500;
    options.program_trace = true;
    options.irq_trace = true;
    options.ed.stream_drain = true;
    profiling::ProfilingSession session(chip, options);
    EXPECT_TRUE(session.load(w.value().program).is_ok());
    workload::configure_engine(session.device().soc(), w.value().options);
    session.reset(w.value().tc_entry, w.value().pcp_entry);
    const profiling::SessionResult result = session.run(3'000'000);
    EXPECT_TRUE(session.device().soc().tc().halted());
    return Observed{result.cycles, session.device().dap_bytes_drained(),
                    result.trace_messages};
  };

  const Observed reference = run(soc::SocConfig::ExecTier::kAccurate, false);
  EXPECT_GT(reference.drained, 0u);
  for (const auto tier : {soc::SocConfig::ExecTier::kAccurate,
                          soc::SocConfig::ExecTier::kSuperblock}) {
    for (const bool fast_forward : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << (tier == soc::SocConfig::ExecTier::kAccurate
                           ? "accurate"
                           : "superblock")
                   << (fast_forward ? ", ff on" : ", ff off"));
      const Observed o = run(tier, fast_forward);
      EXPECT_EQ(o.cycles, reference.cycles);
      EXPECT_EQ(o.drained, reference.drained);
      EXPECT_EQ(o.messages, reference.messages);
    }
  }
}

TEST(EmulationDevice, ReportsIdleDeadlock) {
  // A WFI park with every wake source off: the device stops where the
  // product chip alone stops, instead of burning its budget.
  auto program = isa::assemble(R"(
    .text 0xC8000000
main:
    di
    nop
    nop
    wfi
    halt
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc bare(test::small_config());
  ASSERT_TRUE(bare.load(program.value()).is_ok());
  bare.reset(program.value().entry());
  const u64 bare_cycles = bare.run(10'000'000);
  ASSERT_TRUE(bare.idle_deadlock());

  ed::EmulationDevice ed(test::small_config(), mcds::McdsConfig{},
                         default_ed());
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  EXPECT_EQ(ed.run(10'000'000), bare_cycles);
  EXPECT_TRUE(ed.soc().idle_deadlock());
  EXPECT_FALSE(ed.soc().tc().halted());
}

TEST(EmulationDevice, TinyEmemOverflowsButRunContinues) {
  auto program = workload::build_sort(64);
  ASSERT_TRUE(program.is_ok());
  ed::EdConfig cfg = default_ed();
  cfg.emem.size_bytes = 2 * 1024;  // minuscule trace memory
  cfg.emem.overlay_bytes = 1024;
  cfg.emem.mode = emem::TraceMode::kFill;
  ed::EmulationDevice ed(test::small_config(), full_trace_config(), cfg);
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  const u64 cycles = ed.run(10'000'000);
  EXPECT_TRUE(ed.soc().tc().halted());
  EXPECT_GT(ed.mcds().dropped_messages(), 0u);

  // Overflow must not perturb the target either.
  soc::Soc bare(test::small_config());
  ASSERT_TRUE(bare.load(program.value()).is_ok());
  bare.reset(program.value().entry());
  EXPECT_EQ(bare.run(10'000'000), cycles);
}

TEST(EmulationDevice, RingModeKeepsTheTail) {
  auto program = workload::build_sort(64);
  ASSERT_TRUE(program.is_ok());
  ed::EdConfig cfg = default_ed();
  cfg.emem.size_bytes = 4 * 1024;
  cfg.emem.overlay_bytes = 2 * 1024;
  cfg.emem.mode = emem::TraceMode::kRing;
  ed::EmulationDevice ed(test::small_config(), full_trace_config(), cfg);
  ASSERT_TRUE(ed.load(program.value()).is_ok());
  ed.reset(program.value().entry());
  ed.run(10'000'000);
  EXPECT_GT(ed.emem().overwritten_messages(), 0u);
  auto decoded = ed.download_trace();
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_FALSE(decoded.value().empty());
  // The retained window ends near the end of the run.
  const Cycle last = decoded.value().back().cycle;
  EXPECT_GT(last, ed.soc().cycle() * 9 / 10);
}

TEST(EmulationDevice, CalibrationOverlayHoldsData) {
  ed::EmulationDevice ed(test::small_config(), mcds::McdsConfig{},
                         default_ed());
  ed.emem().overlay().write32(0x100, 0xCA11B8A7);
  EXPECT_EQ(ed.emem().overlay().read32(0x100), 0xCA11B8A7u);
}

}  // namespace
}  // namespace audo
