// Execution-tier bit-identity suite (see DESIGN.md, "Execution tiers"):
// the superblock fast tier is a host-side speed optimization and must be
// *observably identical* to the accurate stepper — per-cycle observation
// frames, MCDS counter/message streams, stall attribution, execution-DAG
// hashes and fault-campaign classifications all match bit for bit. The
// only permitted difference is host wall-clock.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/safety_monitor.hpp"
#include "helpers.hpp"
#include "mem/memory_map.hpp"
#include "optimize/fault_campaign.hpp"
#include "profiling/cpi_stack.hpp"
#include "profiling/dag.hpp"
#include "profiling/export.hpp"
#include "profiling/session.hpp"
#include "soc/frame_digest.hpp"
#include "telemetry/metrics.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

using ExecTier = soc::SocConfig::ExecTier;

// Per-cycle frame fingerprinting comes from soc/frame_digest.hpp — the
// same enumeration the replay goldens hash, so this suite and the replay
// lab can never disagree about what "the frame stream" covers.
using FrameHasher = soc::FrameStreamHasher;

// ---- whole-run observation ------------------------------------------

/// Everything we require to be identical between the two tiers, plus the
/// tier's own coverage counters (`exec`, which by definition differ).
struct Observed {
  u64 steps = 0;
  u64 cycles = 0;
  u64 retired = 0;
  bool halted = false;
  u64 frames = 0;
  u64 frame_hash = 0;
  std::array<u32, 16> d{};
  std::vector<std::string> metrics;  // "component/name=value"
  std::string cpi_csv;
  std::string interference_csv;
  soc::ExecTierStats exec;
};

template <typename Workload, typename Install>
Observed run_tier(const Workload& w, Install install, ExecTier tier,
                  u64 max_cycles, bool fast_forward = true,
                  soc::SocConfig config = test::small_config()) {
  config.exec_tier = tier;
  config.fast_forward = fast_forward;
  soc::Soc soc(config);
  profiling::CpiStackBuilder cpi{isa::SymbolMap(w.program)};
  FrameHasher hasher;
  soc.set_frame_observer(&cpi);
  soc.add_frame_observer(&hasher);
  telemetry::MetricsRegistry registry;
  soc.register_metrics(registry);
  EXPECT_TRUE(install(soc, w).is_ok());
  Observed o;
  o.steps = soc.run(max_cycles);
  o.cycles = soc.cycle();
  o.retired = soc.tc().retired();
  o.halted = soc.tc().halted();
  o.frames = hasher.frames;
  o.frame_hash = hasher.hash;
  for (unsigned r = 0; r < 16; ++r) o.d[r] = soc.tc().d(r);
  o.exec = soc.exec_stats();
  for (const telemetry::MetricSample& s :
       registry.collect(soc.cycle()).samples) {
    // The exec/ coverage counters are host-side observability that by
    // definition differs between tiers (that's what they measure).
    if (s.component == "exec") continue;
    o.metrics.push_back(s.component + "/" + s.name + "=" +
                        std::to_string(s.value));
  }
  o.cpi_csv = cpi.to_csv();
  o.interference_csv = profiling::interference_to_csv(soc.sri());
  return o;
}

void expect_identical(const Observed& fast, const Observed& accurate) {
  EXPECT_EQ(fast.steps, accurate.steps);
  EXPECT_EQ(fast.cycles, accurate.cycles);
  EXPECT_EQ(fast.retired, accurate.retired);
  EXPECT_EQ(fast.halted, accurate.halted);
  EXPECT_EQ(fast.frames, accurate.frames);
  EXPECT_EQ(fast.frame_hash, accurate.frame_hash);
  EXPECT_EQ(fast.d, accurate.d);
  EXPECT_EQ(fast.metrics, accurate.metrics);
  EXPECT_EQ(fast.cpi_csv, accurate.cpi_csv);
  EXPECT_EQ(fast.interference_csv, accurate.interference_csv);
}

const auto kInstallEngine = [](soc::Soc& soc,
                               const workload::EngineWorkload& w) {
  return workload::install_engine(soc, w);
};
const auto kInstallTransmission = [](soc::Soc& soc,
                                     const workload::TransmissionWorkload& w) {
  return workload::install_transmission(soc, w);
};

workload::EngineWorkload busy_engine() {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.halt_after_bg = 40;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok()) << w.status().to_string();
  return std::move(w).value();
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

// ---- SoC-level bit identity -----------------------------------------

TEST(ExecTier, BusyEngineBitIdentical) {
  const auto w = busy_engine();
  const Observed fast =
      run_tier(w, kInstallEngine, ExecTier::kSuperblock, 5'000'000);
  const Observed accurate =
      run_tier(w, kInstallEngine, ExecTier::kAccurate, 5'000'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
}

TEST(ExecTier, TransmissionBitIdentical) {
  workload::TransmissionOptions opt;
  opt.halt_after_tasks = 6;
  auto built = workload::build_transmission_workload(opt);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const auto& w = built.value();
  const Observed fast =
      run_tier(w, kInstallTransmission, ExecTier::kSuperblock, 5'000'000);
  const Observed accurate =
      run_tier(w, kInstallTransmission, ExecTier::kAccurate, 5'000'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
}

TEST(ExecTier, FastForwardTierGridBitIdentical) {
  // All four fast_forward x exec_tier combinations agree: superblock
  // windows and idle skips compose without perturbing each other.
  // Within one fast-forward setting the comparison is total (frame-hash
  // stream included). Across settings the sim/ff.* accounting and the
  // frame *delivery shape* are the two permitted differences: a skip
  // folds n identical idle frames into one skip_idle() call, so the raw
  // observer stream hashes differently by design — the fast-forward
  // suite proves that equivalence through its own channels.
  const auto strip_ff = [](Observed o) {
    std::erase_if(o.metrics, [](const std::string& m) {
      return m.rfind("sim/ff.", 0) == 0;
    });
    return o;
  };
  const auto w = idle_engine(4);
  const Observed acc_off = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kAccurate, 5'000'000, false));
  const Observed sb_off = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kSuperblock, 5'000'000, false));
  const Observed acc_on = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kAccurate, 5'000'000, true));
  const Observed sb_on = strip_ff(
      run_tier(w, kInstallEngine, ExecTier::kSuperblock, 5'000'000, true));
  EXPECT_TRUE(acc_off.halted);
  expect_identical(sb_off, acc_off);
  expect_identical(sb_on, acc_on);
  EXPECT_EQ(acc_on.steps, acc_off.steps);
  EXPECT_EQ(acc_on.cycles, acc_off.cycles);
  EXPECT_EQ(acc_on.retired, acc_off.retired);
  EXPECT_EQ(acc_on.frames, acc_off.frames);
  EXPECT_EQ(acc_on.metrics, acc_off.metrics);
  EXPECT_EQ(acc_on.cpi_csv, acc_off.cpi_csv);
  EXPECT_EQ(acc_on.interference_csv, acc_off.interference_csv);
}

TEST(ExecTier, BudgetTruncationBitIdentical) {
  // A budget boundary landing inside a superblock window must stop at
  // exactly the budgeted cycle, like the stepper does.
  const auto w = busy_engine();  // runs ~21k cycles to halt
  for (const u64 budget : {3'000ull, 10'000ull, 20'000ull}) {
    const Observed fast =
        run_tier(w, kInstallEngine, ExecTier::kSuperblock, budget);
    const Observed accurate =
        run_tier(w, kInstallEngine, ExecTier::kAccurate, budget);
    EXPECT_EQ(fast.steps, budget);
    expect_identical(fast, accurate);
  }
}

// ---- MCDS / profiling bit identity ----------------------------------

profiling::SessionResult profile_engine(ExecTier tier, bool program_trace) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok());

  soc::SocConfig chip = test::small_config();
  chip.exec_tier = tier;
  profiling::SessionOptions options;
  options.resolution = 500;
  options.program_trace = program_trace;
  options.irq_trace = program_trace;
  profiling::ProfilingSession session(chip, options);
  EXPECT_TRUE(session.load(w.value().program).is_ok());
  workload::configure_engine(session.device().soc(), w.value().options);
  session.reset(w.value().tc_entry, w.value().pcp_entry);
  return session.run(3'000'000);
}

void expect_sessions_identical(const profiling::SessionResult& fast,
                               const profiling::SessionResult& accurate) {
  EXPECT_EQ(fast.cycles, accurate.cycles);
  EXPECT_EQ(fast.tc_retired, accurate.tc_retired);
  EXPECT_EQ(fast.trace_bytes, accurate.trace_bytes);
  EXPECT_EQ(fast.trace_messages, accurate.trace_messages);
  EXPECT_EQ(fast.dropped_messages, accurate.dropped_messages);
  ASSERT_EQ(fast.messages.size(), accurate.messages.size());
  for (usize i = 0; i < fast.messages.size(); ++i) {
    EXPECT_EQ(fast.messages[i], accurate.messages[i]) << "message " << i;
  }
}

TEST(ExecTier, McdsCountersBitIdentical) {
  const auto fast = profile_engine(ExecTier::kSuperblock, false);
  const auto accurate = profile_engine(ExecTier::kAccurate, false);
  EXPECT_GT(fast.trace_messages, 0u);
  expect_sessions_identical(fast, accurate);
}

TEST(ExecTier, McdsFlowTraceBitIdentical) {
  const auto fast = profile_engine(ExecTier::kSuperblock, true);
  const auto accurate = profile_engine(ExecTier::kAccurate, true);
  EXPECT_GT(fast.trace_messages, 0u);
  expect_sessions_identical(fast, accurate);
}

// ---- execution-DAG bit identity -------------------------------------

TEST(ExecTier, DagHashBitIdentical) {
  const auto w = idle_engine(4);
  u64 hashes[2];
  std::string csv[2];
  for (const ExecTier tier : {ExecTier::kSuperblock, ExecTier::kAccurate}) {
    soc::SocConfig config = test::small_config();
    config.exec_tier = tier;
    soc::Soc soc(config);
    profiling::ExecutionDag dag{isa::SymbolMap(w.program)};
    soc.set_frame_observer(&dag);
    ASSERT_TRUE(workload::install_engine(soc, w).is_ok());
    soc.run(5'000'000);
    EXPECT_TRUE(soc.tc().halted());
    const unsigned i = tier == ExecTier::kSuperblock ? 0 : 1;
    hashes[i] = dag.analysis().hash;
    csv[i] = dag.to_csv();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(csv[0], csv[1]);
}

// ---- fault-campaign determinism -------------------------------------

u64 campaign_hash(ExecTier tier, unsigned jobs) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  opt.rpm = 3000;
  opt.idle_background = true;
  opt.halt_after_revs = 3;
  auto engine = workload::build_engine_workload(opt);
  EXPECT_TRUE(engine.is_ok());

  soc::SocConfig chip = test::small_config();
  chip.exec_tier = tier;

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

TEST(ExecTier, FaultCampaignHashIdenticalAcrossTiersAndJobs) {
  const u64 reference = campaign_hash(ExecTier::kAccurate, 1);
  for (const unsigned jobs : {1u, 2u, 8u}) {
    EXPECT_EQ(campaign_hash(ExecTier::kSuperblock, jobs), reference)
        << "jobs=" << jobs;
  }
}

// A fault injector leaves the tier open: its one event bounds the
// windows around it, and the idle engine's ISRs run fast before and after.
TEST(ExecTier, WindowsOpenUnderFaultInjector) {
  const auto w = idle_engine(3);
  fault::FaultPlan plan;
  fault::FaultEvent ev;
  ev.at = 20'000;
  ev.kind = fault::FaultKind::kBusError;
  ev.slave = 0;
  plan.events.push_back(ev);
  Observed runs[2];
  for (const ExecTier tier : {ExecTier::kSuperblock, ExecTier::kAccurate}) {
    fault::FaultInjector injector(plan);  // outlives run_tier's Soc
    const auto install = [&injector](soc::Soc& soc,
                                     const workload::EngineWorkload& wl) {
      soc.set_fault_injector(&injector);
      return workload::install_engine(soc, wl);
    };
    runs[tier == ExecTier::kSuperblock ? 0 : 1] =
        run_tier(w, install, tier, 5'000'000);
    EXPECT_EQ(injector.total_injected(), 1u);
  }
  const Observed& fast = runs[0];
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, runs[1]);
  EXPECT_GT(fast.exec.fast_cycles, 0u);
  EXPECT_EQ(fast.exec.gates[static_cast<unsigned>(soc::FastGate::kInstrumented)],
            0u);
}

// ---- ECC records on words a window touches ----------------------------
//
// A flip under ECC leaves a record that the next read of its word turns
// into a safety alarm. The loop below reads each target word (the code
// at `touch`, the data at `word`) once per ~56-cycle iteration, so a flip
// lands while its word is idle and the first read after it falls where a
// window would run. That read must go to the accurate stepper, whose
// monitor reports the alarm in the cycle of the read. Through the
// uncached flash alias the read is a bus load: `word` is the only flash
// word the loop reads, so after the first iteration every read hits the
// data port's read buffer and completes in its grant cycle. From the LMU
// it is a bus load too, which these runs keep in service for five cycles.

std::string ecc_loop(std::string_view code, std::string_view touch,
                     std::string_view data, bool other_line = false) {
  // With `other_line`, touch also reads a word on the next flash line but
  // one, so through the uncached alias every read of `word` misses the one
  // read buffer and fetches the array: it stays in service for several
  // cycles, and a fault can land between its grant and its completion.
  const std::string other_read =
      other_line ? "    ld.w   d5, [a2+64]\n    add    d6, d6, d5\n" : "";
  const std::string other_word =
      other_line ? "    .space 60\n    .word  0x9ABCDEF0\n" : "";
  return "    .text " + std::string(code) + R"(
main:
    movh   d1, hi(word)
    ori    d1, d1, lo(word)
    mov.ad a2, d1
    movd   d0, 0
    movd   d1, 1
    movd   d2, 40
loop:
    call   touch
    movd   d7, 16
spin:
    addi   d7, d7, -1
    jnz    d7, spin
    add    d0, d0, d1
    jne    d0, d2, loop
    halt
    .text )" + std::string(touch) + R"(
touch:
    ld.w   d3, [a2+0]
    add    d4, d4, d3
)" + other_read + R"(    ret
    .data )" + std::string(data) + R"(
word:
    .word  0x12345678
)" + other_word;
}

struct EccRoute {
  const char* name;
  std::string source;
  fault::MemDomain domain;
  const char* target;  // symbol of the flipped word
  /// The flip lands while a read of the target is in service, not
  /// between two reads.
  bool in_service = false;
};

std::vector<EccRoute> ecc_routes() {
  using fault::MemDomain;
  return {
      {"dspr_load", ecc_loop("0xC8000000", "0xC8000200", "0xC0000100"),
       MemDomain::kDspr, "word"},
      {"dcache_flash_load", ecc_loop("0xC8000000", "0xC8000200", "0x80010000"),
       MemDomain::kPFlash, "word"},
      {"uncached_flash_buffer_hit",
       ecc_loop("0xC8000000", "0xC8000200", "0xA0010000"), MemDomain::kPFlash,
       "word"},
      {"uncached_flash_in_service",
       ecc_loop("0xC8000000", "0xC8000200", "0xA0010000", true),
       MemDomain::kPFlash, "word", true},
      {"lmu_load", ecc_loop("0xC8000000", "0xC8000200", "0x90000100"),
       MemDomain::kLmu, "word"},
      {"lmu_in_service", ecc_loop("0xC8000000", "0xC8000200", "0x90000100"),
       MemDomain::kLmu, "word", true},
      {"pspr_code", ecc_loop("0xC8000000", "0xC8000200", "0xC0000100"),
       MemDomain::kPspr, "touch"},
      {"icache_flash_code", ecc_loop("0x80000000", "0x80000200", "0xC0000100"),
       MemDomain::kPFlash, "touch"},
  };
}

u32 domain_offset(fault::MemDomain domain, Addr addr) {
  switch (domain) {
    case fault::MemDomain::kDspr: return addr - mem::kDsprBase;
    case fault::MemDomain::kPspr: return addr - mem::kPsprBase;
    case fault::MemDomain::kLmu: return addr - mem::kLmuBase;
    default: return mem::pflash_offset(addr);
  }
}

struct EccRun {
  u64 cycles = 0;
  u64 retired = 0;
  u64 frames = 0;
  u64 frame_hash = 0;
  std::array<u64, fault::kNumAlarmKinds> alarms{};
  u64 fast_cycles_after = 0;  // window cycles after the flip
};

constexpr u64 kEccBudget = 60'000;

/// The configuration of the ECC and bus-error runs: LMU reads stay in
/// service for five cycles, so a fault can land between a grant there
/// and its completion.
soc::SocConfig ecc_config() {
  soc::SocConfig config = test::small_config();
  config.lmu_latency = 5;
  return config;
}

/// Records the cycles at which the TC's data port is granted `addr`.
struct GrantRecorder final : soc::FrameObserver {
  Addr addr = 0;
  std::vector<Cycle> grants;
  void observe(const mcds::ObservationFrame& frame) override {
    if (frame.sri.any_grant && frame.sri.granted_master == bus::MasterId::kTcData &&
        frame.sri.granted_addr == addr) {
      grants.push_back(frame.cycle);
    }
  }
  void skip_idle(const mcds::ObservationFrame&, u64) override {}
};

/// A cycle at which the accurate tier's read of `addr` is in service:
/// two cycles after the first grant of it at or after `after`.
Cycle in_service_cycle(const isa::Program& program, Addr addr, Cycle after) {
  soc::SocConfig config = ecc_config();
  config.exec_tier = ExecTier::kAccurate;
  soc::Soc soc(config);
  GrantRecorder recorder;
  recorder.addr = addr;
  soc.add_frame_observer(&recorder);
  EXPECT_TRUE(soc.load(program).is_ok());
  soc.reset(program.entry());
  soc.run(kEccBudget);
  for (const Cycle at : recorder.grants) {
    if (at >= after) return at + 2;
  }
  ADD_FAILURE() << "no grant of the target after cycle " << after;
  return after;
}

/// Index of the crossbar slave named `name` in the test configuration.
unsigned slave_index(std::string_view name) {
  soc::Soc probe(test::small_config());
  for (unsigned s = 0; s < probe.sri().slave_count(); ++s) {
    if (probe.sri().slave_name(s) == name) return s;
  }
  ADD_FAILURE() << "no slave " << name;
  return 0;
}

/// Runs `program` with `flip` under the default SafetyConfig: ECC on in
/// every domain, uncorrectable errors trap (and, with BTV unset, halt).
/// `flip` may also be any other fault event, such as an armed bus error.
EccRun run_ecc(const isa::Program& program, const fault::FaultEvent& flip,
               ExecTier tier) {
  soc::SocConfig config = ecc_config();
  config.exec_tier = tier;
  fault::FaultInjector injector(fault::FaultPlan{{flip}});
  soc::Soc soc(config);
  FrameHasher hasher;
  soc.add_frame_observer(&hasher);
  EXPECT_TRUE(soc.load(program).is_ok());
  soc.set_fault_injector(&injector);
  soc.reset(program.entry());
  soc.run(flip.at);
  const u64 fast_before = soc.exec_stats().fast_cycles;
  soc.run(kEccBudget - flip.at);
  EXPECT_EQ(injector.total_injected(), 1u);
  EccRun r;
  r.cycles = soc.cycle();
  r.retired = soc.tc().retired();
  r.frames = hasher.frames;
  r.frame_hash = hasher.hash;
  for (unsigned k = 0; k < fault::kNumAlarmKinds; ++k) {
    r.alarms[k] = soc.safety().total(static_cast<fault::AlarmKind>(k));
  }
  r.fast_cycles_after = soc.exec_stats().fast_cycles - fast_before;
  return r;
}

TEST(ExecTier, EccRecordsOnWindowWordsBitIdentical) {
  for (const EccRoute& route : ecc_routes()) {
    auto program = isa::assemble(route.source);
    ASSERT_TRUE(program.is_ok()) << program.status().to_string();
    const Addr target = program.value().symbol_addr(route.target).value();
    const Cycle at = route.in_service
                         ? in_service_cycle(program.value(), target, 1'025)
                         : 1'025;  // between two reads of the target
    for (const u8 bits : {u8{1}, u8{2}}) {
      SCOPED_TRACE(std::string(route.name) + " " + std::to_string(bits) +
                   "-bit");
      fault::FaultEvent flip;
      flip.at = at;
      flip.kind = fault::FaultKind::kMemFlip;
      flip.domain = route.domain;
      flip.offset = domain_offset(route.domain, target);
      flip.bits = bits;
      flip.bit0 = 3;
      flip.bit1 = 17;
      const EccRun fast = run_ecc(program.value(), flip, ExecTier::kSuperblock);
      const EccRun accurate = run_ecc(program.value(), flip, ExecTier::kAccurate);
      EXPECT_EQ(fast.cycles, accurate.cycles);
      EXPECT_EQ(fast.retired, accurate.retired);
      EXPECT_EQ(fast.frames, accurate.frames);
      EXPECT_EQ(fast.frame_hash, accurate.frame_hash);
      EXPECT_EQ(fast.alarms, accurate.alarms);
      EXPECT_GT(fast.fast_cycles_after, 0u);
      // The flipped word really was read: its record raised the alarm.
      const auto raised = bits == 1 ? fault::AlarmKind::kEccCorrected
                                    : fault::AlarmKind::kEccUncorrectable;
      EXPECT_EQ(accurate.alarms[static_cast<unsigned>(raised)], 1u);
    }
  }
}

// An error response armed on the flash data port or the LMU turns the
// next read there into a read-as-zero and a bus-error alarm, which the
// monitor reports in the cycle of the completion. On the flash it is
// armed once between two read-buffer hits, whose grant cycle is their
// completion, and once while an array read is in service; on the LMU once
// between two loads and once while a load is in service.
TEST(ExecTier, BusErrorsOnUncachedFlashLoadsBitIdentical) {
  struct Case {
    const char* name;
    std::string source;
    const char* slave;
    bool in_service;
  };
  const Case cases[] = {
      {"buffer_hit", ecc_loop("0xC8000000", "0xC8000200", "0xA0010000"),
       "PFlash.data", false},
      {"in_service", ecc_loop("0xC8000000", "0xC8000200", "0xA0010000", true),
       "PFlash.data", true},
      {"lmu_load", ecc_loop("0xC8000000", "0xC8000200", "0x90000100"), "LMU",
       false},
      {"lmu_in_service", ecc_loop("0xC8000000", "0xC8000200", "0x90000100"),
       "LMU", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto program = isa::assemble(c.source);
    ASSERT_TRUE(program.is_ok()) << program.status().to_string();
    const Addr word = program.value().symbol_addr("word").value();
    fault::FaultEvent error;
    error.at = c.in_service ? in_service_cycle(program.value(), word, 1'025)
                            : 1'025;
    error.kind = fault::FaultKind::kBusError;
    error.slave = slave_index(c.slave);
    error.count = 1;
    const EccRun fast = run_ecc(program.value(), error, ExecTier::kSuperblock);
    const EccRun accurate = run_ecc(program.value(), error, ExecTier::kAccurate);
    EXPECT_EQ(fast.cycles, accurate.cycles);
    EXPECT_EQ(fast.retired, accurate.retired);
    EXPECT_EQ(fast.frames, accurate.frames);
    EXPECT_EQ(fast.frame_hash, accurate.frame_hash);
    EXPECT_EQ(fast.alarms, accurate.alarms);
    EXPECT_GT(fast.fast_cycles_after, 0u);
    EXPECT_EQ(
        accurate.alarms[static_cast<unsigned>(fault::AlarmKind::kBusError)],
        1u);
  }
}

// ---- self-modifying code --------------------------------------------

// A loop that patches one of its own instructions mid-run: the word at
// patch_dst starts as a nop and is overwritten (a guest store into the
// executing superblock's address range) with "add d5, d5, d1" once the
// counter reaches 200. d5 then counts the remaining 200 iterations.
constexpr std::string_view kSelfModifying = R"(
    .text 0xC8000000
main:
    movd d0, 0            ; iteration counter
    movd d1, 1
    movd d2, 400          ; total iterations
    movd d3, 200          ; patch once, at iteration 200
    movd d5, 0            ; counts executions of the patched op
    movha a15, 0xC800
    lea  a2, [a15+lo(patch_src)]
    lea  a3, [a15+lo(patch_dst)]
    ld.w d4, [a2+0]       ; the replacement instruction word
loop:
    add  d0, d0, d1
patch_dst:
    nop                   ; becomes "add d5, d5, d1" mid-run
    jne  d0, d3, skip
    st.w d4, [a3+0]       ; store into the hot code region
skip:
    jne  d0, d2, loop
    halt
patch_src:
    add  d5, d5, d1
)";

TEST(ExecTier, SelfModifyingCodeBitIdentical) {
  // Both tiers must observe the patch at the same cycle: the superblock
  // covering the loop is invalidated by the store and rebuilt from the
  // patched words on re-entry.
  auto program = isa::assemble(kSelfModifying);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  Observed results[2];
  for (const ExecTier tier : {ExecTier::kSuperblock, ExecTier::kAccurate}) {
    soc::SocConfig config = test::small_config();
    config.exec_tier = tier;
    soc::Soc soc(config);
    FrameHasher hasher;
    soc.set_frame_observer(&hasher);
    ASSERT_TRUE(soc.load(program.value()).is_ok());
    soc.reset(program.value().entry());
    const unsigned i = tier == ExecTier::kSuperblock ? 0 : 1;
    results[i].steps = soc.run(5'000'000);
    results[i].cycles = soc.cycle();
    results[i].retired = soc.tc().retired();
    results[i].halted = soc.tc().halted();
    results[i].frames = hasher.frames;
    results[i].frame_hash = hasher.hash;
    EXPECT_TRUE(soc.tc().halted());
    EXPECT_EQ(soc.tc().d(0), 400u);
    EXPECT_EQ(soc.tc().d(5), 200u);  // patched op ran for the back half
    if (tier == ExecTier::kSuperblock) {
      // The fast tier really was active on this code, and the store
      // really did drop predecoded chunks.
      EXPECT_GT(soc.superblocks().stats().builds, 0u);
      EXPECT_GT(soc.superblocks().stats().invalidations, 0u);
    }
  }
  EXPECT_EQ(results[0].steps, results[1].steps);
  EXPECT_EQ(results[0].cycles, results[1].cycles);
  EXPECT_EQ(results[0].retired, results[1].retired);
  EXPECT_EQ(results[0].frames, results[1].frames);
  EXPECT_EQ(results[0].frame_hash, results[1].frame_hash);
}

// ---- live front-end adoption ------------------------------------------
//
// A window opens on a core whose fetch queue still holds instructions
// (and whose next local fetch may be in flight) when the queue continues
// the superblock at next_pc. These programs pin what that may and may not
// adopt.

struct AsmWorkload {
  isa::Program program;
};

AsmWorkload assemble_workload(std::string_view source) {
  auto program = isa::assemble(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return AsmWorkload{std::move(program).value()};
}

const auto kInstallAsm = [](soc::Soc& soc, const AsmWorkload& w) {
  const Status loaded = soc.load(w.program);
  soc.reset(w.program.entry());
  return loaded;
};

u64 bails(const Observed& o, cpu::FastBail reason) {
  return o.exec.bails[static_cast<unsigned>(reason)];
}

// The engine's flash-bound shape: one bus load per iteration, its
// consumer, then a long run of ALU work and a backward branch. While the
// load is outstanding the queue fills up behind the consumer.
constexpr std::string_view kLoadThenAluLoop = R"(
    .text 0xC8000000
main:
    movha a4, 0x9000      ; LMU, behind the bus
    movd  d0, 0
    movd  d1, 1
    movd  d2, 300
loop:
    ld.w  d3, [a4+0]
    add   d4, d4, d3      ; load-use
    add   d5, d5, d1
    xor   d6, d6, d0
    shli  d7, d0, 3
    add   d8, d8, d7
    sub   d9, d9, d1
    or    d10, d10, d8
    add   d11, d11, d5
    xor   d12, d12, d9
    shri  d13, d11, 2
    add   d14, d14, d13
    and   d15, d14, d12
    add   d5, d5, d15
    add   d0, d0, d1
    jne   d0, d2, loop
    halt
)";

TEST(ExecTier, LiveFrontEndWindowsCoverLoadThenAluLoop) {
  const AsmWorkload w = assemble_workload(kLoadThenAluLoop);
  const Observed fast =
      run_tier(w, kInstallAsm, ExecTier::kSuperblock, 1'000'000);
  const Observed accurate =
      run_tier(w, kInstallAsm, ExecTier::kAccurate, 1'000'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  // The ALU tail after each load runs in a window opened on the queue the
  // load left behind, so most cycles are fast and hardly any entry is
  // refused for a busy front end.
  EXPECT_GE(2 * fast.exec.fast_cycles, fast.cycles);
  EXPECT_LE(bails(fast, cpu::FastBail::kFrontendBusy), 4u);
}

// A store rewrites `target` after the core has fetched it. The core runs
// the stale copy it holds; the rebuilt superblock holds the new word, so a
// window must not adopt the queue while `target` is in it.
constexpr std::string_view kStoreOverQueuedCode = R"(
    .text 0xC8000000
main:
    movd  d1, 1
    movd  d7, 1000
    movha a15, 0xC800
    lea   a2, [a15+lo(patch_src)]
    lea   a3, [a15+lo(target)]
    ld.w  d4, [a2+0]      ; the replacement word, over the bus
    st.w  d4, [a3+0]      ; lands while `target` waits in the queue...
    div   d7, d7, d1      ; ...behind an 8-cycle divide
    add   d8, d7, d7
target:
    movd  d5, 1           ; becomes "movd d5, 2" in memory only
    movd  d6, 2
    halt
patch_src:
    movd  d5, 2
)";

TEST(ExecTier, StoreOverQueuedInstructionDeclinesAdoption) {
  const AsmWorkload w = assemble_workload(kStoreOverQueuedCode);
  const Observed fast =
      run_tier(w, kInstallAsm, ExecTier::kSuperblock, 100'000);
  const Observed accurate =
      run_tier(w, kInstallAsm, ExecTier::kAccurate, 100'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  EXPECT_EQ(fast.d[5], 1u);  // the stale fetched instruction ran
  EXPECT_EQ(fast.d[6], 2u);
  EXPECT_GT(bails(fast, cpu::FastBail::kFrontendBusy), 0u);
}

// The loop body straddles the 1 KiB boundary between two superblock
// chunks, so the queue a load leaves behind spans both.
constexpr std::string_view kLoopAcrossChunks = R"(
    .text 0xC8000000
main:
    movha a4, 0x9000
    movd  d0, 0
    movd  d1, 1
    movd  d2, 40
    j     loop
    .text 0xC80003F0      ; the last four words of the first chunk
loop:
    ld.w  d3, [a4+0]
    add   d4, d4, d3
    add   d5, d5, d1
    add   d6, d6, d1
    add   d7, d7, d1      ; first word of the second chunk
    add   d8, d8, d1
    add   d9, d9, d1
    add   d0, d0, d1
    jne   d0, d2, loop
    halt
)";

TEST(ExecTier, QueueAcrossChunkBoundaryDeclinesAdoption) {
  const AsmWorkload w = assemble_workload(kLoopAcrossChunks);
  const Observed fast =
      run_tier(w, kInstallAsm, ExecTier::kSuperblock, 100'000);
  const Observed accurate =
      run_tier(w, kInstallAsm, ExecTier::kAccurate, 100'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  EXPECT_EQ(fast.d[0], 40u);
  // Every iteration declines at least once on the straddling queue, and
  // still opens windows once the queue lies inside the second chunk.
  EXPECT_GE(bails(fast, cpu::FastBail::kFrontendBusy), 40u);
  EXPECT_GT(fast.exec.fast_cycles, 0u);
}

// The consumer of each load is a SYS op the fast tier cannot execute. It
// heads a 4-word fetch block, so while the load is outstanding the queue
// fills to its full depth of 8 behind it. The window adopts that full
// queue and bails on its first cycle.
constexpr std::string_view kFullQueueFirstCycleBail = R"(
    .text 0xC8000000
main:
    movha a4, 0x9000
    movd  d0, 0
    movd  d1, 1
    movd  d2, 30
loop:                     ; 16-byte aligned
    add   d5, d5, d1
    add   d6, d6, d5
    add   d7, d7, d6
    ld.w  d3, [a4+0]
    mtcr  scratch0, d3    ; load-use on an unsupported op
    add   d8, d8, d7
    add   d9, d9, d8
    add   d10, d10, d9
    add   d11, d11, d10
    add   d0, d0, d1
    jne   d0, d2, loop
    halt
)";

TEST(ExecTier, AdoptedFullQueueFirstCycleBailRestoresExactly) {
  const AsmWorkload w = assemble_workload(kFullQueueFirstCycleBail);
  const Observed fast =
      run_tier(w, kInstallAsm, ExecTier::kSuperblock, 100'000);
  const Observed accurate =
      run_tier(w, kInstallAsm, ExecTier::kAccurate, 100'000);
  EXPECT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  EXPECT_GE(bails(fast, cpu::FastBail::kUnsupportedOp), 30u);
  EXPECT_GT(fast.exec.fast_cycles, 0u);
}

// ---- the core's own bus transaction in flight ---------------------------
//
// A window opens while the TC's granted data transaction is alone on the
// fabric and ends the cycle before it completes. Each block of this loop
// puts different work under one transaction: the load-use and WAW hazards
// on an in-flight load, scratchpad accesses that need no LS port, D-cache
// hits that do (one reaching the head of the queue in a window, one ending
// a group there), and LMU and SFR transactions. The six uncached loads
// hit different flash lines, so each one reads the array.
constexpr std::string_view kWorkUnderInFlightLoad = R"(
    .text 0xC8000000
main:
    movha a3, 0xA001      ; uncached flash alias of tbl
    movha a6, 0x8001      ; cached alias of tbl
    movha a5, 0xC000      ; DSPR
    movha a4, 0x9000      ; LMU
    movha a14, 0xF000     ; SFR space: STM counter
    movd  d0, 0
    movd  d15, 50
    ld.w  d11, [a6+64]    ; allocate the D-cache line
loop:
    ld.w  d1, [a3+0]      ; independent ALU work, then a load-use
    add   d4, d4, d0
    xor   d5, d5, d4
    shli  d6, d5, 2
    sub   d6, d6, d4
    add   d7, d7, d1
    ld.w  d2, [a3+256]    ; a DSPR store and load, then a WAW
    st.w  d4, [a5+0]
    ld.w  d8, [a5+4]
    movd  d2, 3
    add   d7, d7, d2
    add   d9, d9, d8
    ld.w  d1, [a3+512]    ; a D-cache hit reaching the head
    add   d4, d4, d7
    xor   d5, d5, d4
    add   d6, d6, d5
    ld.w  d11, [a6+64]
    add   d7, d7, d11
    add   d7, d7, d1
    ld.w  d3, [a3+768]    ; a D-cache hit ending a group
    add   d4, d4, d7
    xor   d5, d5, d4
    add   d6, d6, d5
    sub   d10, d10, d6
    ld.w  d11, [a6+64]
    add   d7, d7, d11
    add   d7, d7, d3
    ld.w  d1, [a3+1024]   ; consumers right behind
    add   d7, d7, d1
    ld.w  d1, [a3+1280]
    add   d7, d7, d1
    st.w  d7, [a4+0]      ; LMU store under ALU work
    add   d9, d9, d7
    xor   d10, d10, d9
    add   d4, d4, d10
    sub   d5, d5, d4
    add   d6, d6, d5
    ld.w  d12, [a14+0]    ; SFR load
    add   d13, d13, d12
    addi  d0, d0, 1
    jne   d0, d15, loop
    halt
    .data 0x80010000
tbl:
    .word 1
    .space 60
    .word 10
    .space 188
    .word 2               ; overwritten by the WAW's 3
    .space 252
    .word 100
    .space 252
    .word 1000
    .space 252
    .word 10000
    .space 252
    .word 100000
)";

TEST(ExecTier, WindowsCarryTheCoresInFlightTransaction) {
  const AsmWorkload w = assemble_workload(kWorkUnderInFlightLoad);
  // Five LMU service cycles leave a carried window behind the grant.
  soc::SocConfig config = test::small_config();
  config.lmu_latency = 5;
  const Observed fast = run_tier(w, kInstallAsm, ExecTier::kSuperblock,
                                 1'000'000, true, config);
  const Observed accurate = run_tier(w, kInstallAsm, ExecTier::kAccurate,
                                     1'000'000, true, config);
  ASSERT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  EXPECT_EQ(fast.d[7], 50u * 111'124);
  // Only the cycle that consumes each transaction declines for data
  // traffic, plus the last two cycles the D-cache hit at the head of the
  // queue waits: an uncached load's wait states run in windows.
  constexpr u64 kUncachedLoads = 50 * 6;
  EXPECT_LT(bails(fast, cpu::FastBail::kDataBusy), 2 * kUncachedLoads)
      << bails(fast, cpu::FastBail::kDataBusy);
  EXPECT_GE(2 * fast.exec.fast_cycles, fast.cycles);
}

// ---- the uncached flash load's whole life in a window -------------------
//
// A window issues the core's uncached flash loads itself, steps the flash
// and the crossbar for each grant and completion, and finishes the load
// in the next cycle. Each block of this loop puts a different hazard
// around one load: an array fetch with a WAW on its destination in its
// issue group; a second uncached load that waits for the LS port, issues
// in the first one's consume cycle beside the WAW, and hits the read
// buffer, so its grant and completion fall in one cycle; a DSPR store in
// that load's consume cycle and a load-use on it; a DSPR load in a
// consume cycle; and a D-cache hit that waits for the LS port behind an
// array fetch.
constexpr std::string_view kUncachedLoadsInWindows = R"(
    .text 0xC8000000
main:
    movha a3, 0xA001      ; uncached alias of tbl
    movha a6, 0x8001      ; cached alias of tbl
    movha a5, 0xC000      ; DSPR
    movd  d0, 0
    movd  d15, 100
    ld.w  d11, [a6+96]    ; allocate the D-cache line
loop:
    ld.w  d1, [a3+0]      ; array fetch: the buffer holds another line
    add   d1, d0, d0      ; WAW on the load's destination
    ld.w  d2, [a3+4]      ; read-buffer hit
    st.w  d1, [a5+0]      ; DSPR store in the hit's consume cycle
    add   d3, d3, d2      ; load-use
    ld.w  d4, [a3+32]     ; array fetch
    add   d4, d2, d2      ; WAW, then a DSPR load in the consume cycle
    ld.w  d8, [a5+0]
    ld.w  d5, [a3+64]     ; array fetch
    ld.w  d11, [a6+96]    ; D-cache hit waiting for the LS port
    add   d7, d7, d5
    add   d7, d7, d11
    add   d7, d7, d8
    add   d7, d7, d4
    add   d7, d7, d3
    addi  d0, d0, 1
    jne   d0, d15, loop
    halt
    .data 0x80010000
tbl:
    .word 1
    .word 10
    .space 24
    .word 100
    .space 28
    .word 1000
    .space 28
    .word 10000
)";

TEST(ExecTier, WindowsCarryUncachedFlashLoadsWhole) {
  const AsmWorkload w = assemble_workload(kUncachedLoadsInWindows);
  const Observed fast =
      run_tier(w, kInstallAsm, ExecTier::kSuperblock, 1'000'000);
  const Observed accurate =
      run_tier(w, kInstallAsm, ExecTier::kAccurate, 1'000'000);
  ASSERT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  // Per iteration i: 1000 + 10000 + 2i (d8) + 20 (d4) + 10(i + 1) (d3).
  EXPECT_EQ(fast.d[7], 100u * 11'020 + 2 * 4'950 + 10 * 5'050);
  EXPECT_EQ(fast.d[1], 2u * 99);
  // The windows run the loads' issue, grant, completion and consume
  // cycles: only the set-up's D-cache refill and the halt are stepped.
  EXPECT_GE(fast.exec.fast_cycles * 100, fast.cycles * 95)
      << fast.exec.fast_cycles << " of " << fast.cycles;
  EXPECT_LE(bails(fast, cpu::FastBail::kDataRoute) +
                bails(fast, cpu::FastBail::kDataBusy),
            3u);
}

// ---- LMU loads and D-cache refills in windows ---------------------------
//
// A window carries an LMU load as it carries an uncached flash load: it
// issues the load, steps the crossbar for its grant and completion, and
// finishes it in the next cycle. Each block of this loop puts a different
// hazard around one load: a WAW on its destination in its issue group,
// which the load's consume cycle issues beside a DSPR store; a load-use;
// and a WAW with a DSPR load in the consume cycle.
constexpr std::string_view kLmuLoadsInWindows = R"(
    .text 0xC8000000
main:
    movha a4, 0x9000      ; LMU: tbl
    movha a5, 0xC000      ; DSPR
    movd  d0, 0
    movd  d15, 100
loop:
    ld.w  d1, [a4+0]      ; WAW on the load's destination in its group
    add   d1, d0, d0
    st.w  d0, [a5+0]      ; DSPR store in the load's consume cycle
    ld.w  d2, [a4+4]
    add   d3, d3, d2      ; load-use
    ld.w  d4, [a4+8]      ; WAW, then a DSPR load in the consume cycle
    add   d4, d1, d1
    ld.w  d8, [a5+0]
    add   d7, d7, d8
    add   d7, d7, d4
    add   d7, d7, d3
    addi  d0, d0, 1
    jne   d0, d15, loop
    halt
    .data 0x90000000
tbl:
    .word 1
    .word 10
    .word 100
)";

TEST(ExecTier, WindowsCarryLmuLoadsWhole) {
  const AsmWorkload w = assemble_workload(kLmuLoadsInWindows);
  // At latency 1 a load completes in its grant cycle; at 2 and 5 the
  // window counts its service cycles.
  for (const unsigned latency : {1u, 2u, 5u}) {
    SCOPED_TRACE("lmu_latency " + std::to_string(latency));
    soc::SocConfig config = test::small_config();
    config.lmu_latency = latency;
    const Observed fast = run_tier(w, kInstallAsm, ExecTier::kSuperblock,
                                   1'000'000, true, config);
    const Observed accurate = run_tier(w, kInstallAsm, ExecTier::kAccurate,
                                       1'000'000, true, config);
    ASSERT_TRUE(fast.halted);
    expect_identical(fast, accurate);
    // Per iteration i: i (d8) + 4i (d4) + 10(i + 1) (d3).
    EXPECT_EQ(fast.d[7], 4'950u + 4 * 4'950 + 10 * 5'050);
    EXPECT_GE(fast.exec.fast_cycles * 100, fast.cycles * 95)
        << fast.exec.fast_cycles << " of " << fast.cycles;
    EXPECT_LE(bails(fast, cpu::FastBail::kDataRoute) +
                  bails(fast, cpu::FastBail::kDataBusy),
              3u);
  }
}

// A window carries a cached-flash load that misses the D-cache whole too:
// the refill is a read on the flash data port, and the cycle that
// finishes it fills the line before its issue group, so a load there
// probes the D-cache as the fill leaves it. The loop walks 8 KiB of flash
// in 64-byte steps, twice the D-cache, so every walk load misses, in the
// even sets; it has a WAW partner in its group. X, Y and Z share an odd
// set of the 2-way D-cache. X misses, and in its consume cycle Y hits a
// line X's fill keeps; Z misses, and in its consume cycle Y hits a line
// Z's fill evicts, so it misses after all. Each Y load has a WAW partner
// that joins its group only if it hits. With the D-cache off every load
// reads the flash data port, as an uncached load does.
std::string dcache_refill_loop() {
  std::string source = R"(
    .text 0xC8000000
main:
    movha a6, 0x8001      ; cached alias of tbl: the walk
    movha a3, 0x8001      ; X, Y and Z
    movd  d0, 0
    movd  d15, 128
loop:
    ld.w  d1, [a6+0]      ; the walk misses; WAW on its destination
    add   d1, d0, d0
    ld.w  d2, [a3+32]     ; X misses
    ld.w  d3, [a3+2080]   ; Y: a hit X's fill keeps
    add   d3, d0, d0
    ld.w  d4, [a3+32]     ; X hits
    ld.w  d5, [a3+4128]   ; Z misses
    ld.w  d6, [a3+2080]   ; Y: a hit Z's fill evicts
    add   d6, d0, d0
    add   d7, d7, d1
    add   d7, d7, d2
    add   d7, d7, d3
    add   d7, d7, d4
    add   d7, d7, d5
    add   d7, d7, d6
    lea   a6, [a6+64]
    addi  d0, d0, 1
    jne   d0, d15, loop
    halt
    .data 0x80010000
tbl:
)";
  // Slot k holds the walk's word k + 1, and at offset 32 of slots 0, 32
  // and 64 the words of X, Y and Z.
  for (unsigned k = 0; k < 128; ++k) {
    const unsigned xyz = k == 0 ? 1 : k == 32 ? 10 : k == 64 ? 100 : 0;
    source += "    .word " + std::to_string(k + 1) + "\n    .space 28\n" +
              "    .word " + std::to_string(xyz) + "\n    .space 28\n";
  }
  return source;
}

TEST(ExecTier, WindowsCarryDcacheRefillsWhole) {
  const AsmWorkload w = assemble_workload(dcache_refill_loop());
  for (const bool dcache : {true, false}) {
    SCOPED_TRACE(dcache ? "D-cache on" : "D-cache off");
    soc::SocConfig config = test::small_config();
    config.dcache.enabled = dcache;
    const Observed fast = run_tier(w, kInstallAsm, ExecTier::kSuperblock,
                                   1'000'000, true, config);
    const Observed accurate = run_tier(w, kInstallAsm, ExecTier::kAccurate,
                                       1'000'000, true, config);
    ASSERT_TRUE(fast.halted);
    expect_identical(fast, accurate);
    // Per iteration i: 2i from each WAW partner, and 1 + 1 + 100 (X, X
    // and Z).
    EXPECT_EQ(fast.d[7], 3u * 2 * 8'128 + 102 * 128);
    EXPECT_GE(fast.exec.fast_cycles * 100, fast.cycles * 95)
        << fast.exec.fast_cycles << " of " << fast.cycles;
    EXPECT_LE(bails(fast, cpu::FastBail::kDataRoute) +
                  bails(fast, cpu::FastBail::kDataBusy),
              3u);
  }
}

// The fill that finishes a refill can evict the line the next load
// reads, which waits for the LS port behind the refill and issues in its
// consume cycle. X, Y and Z share one set of the 2-way D-cache. Each
// refill's fill evicts the line the next load reads, which has a WAW
// partner in its group; the rotation restores the set every pass.
constexpr std::string_view kRefillEvictsNextLoad = R"(
    .text 0xC8000000
main:
    movha a6, 0x8001      ; cached alias of tbl
    movd  d0, 0
    movd  d15, 20
    ld.w  d7, [a6+2048]   ; the set holds Y, then Z
    ld.w  d7, [a6+4096]
loop:
    ld.w  d1, [a6+0]      ; X misses; its fill evicts Y
    ld.w  d2, [a6+2048]
    add   d2, d0, d0
    ld.w  d3, [a6+4096]   ; Z misses; its fill evicts X
    ld.w  d4, [a6+0]
    add   d4, d0, d0
    ld.w  d5, [a6+2048]   ; Y misses; its fill evicts Z
    ld.w  d6, [a6+4096]
    add   d6, d0, d0
    add   d8, d8, d1
    add   d8, d8, d3
    add   d8, d8, d5
    addi  d0, d0, 1
    jne   d0, d15, loop
    halt
    .data 0x80010000
tbl:
    .word 1
    .space 2044
    .word 10
    .space 2044
    .word 100
)";

TEST(ExecTier, RefillEvictingTheNextLoadsLineBitIdentical) {
  const AsmWorkload w = assemble_workload(kRefillEvictsNextLoad);
  const Observed fast =
      run_tier(w, kInstallAsm, ExecTier::kSuperblock, 1'000'000);
  const Observed accurate =
      run_tier(w, kInstallAsm, ExecTier::kAccurate, 1'000'000);
  ASSERT_TRUE(fast.halted);
  expect_identical(fast, accurate);
  EXPECT_EQ(fast.d[8], 20u * 111);
  EXPECT_EQ(fast.d[2], 2u * 19);
  EXPECT_GE(fast.exec.fast_cycles * 100, fast.cycles * 95)
      << fast.exec.fast_cycles << " of " << fast.cycles;
}

}  // namespace
}  // namespace audo
