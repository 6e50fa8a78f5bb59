// Snapshot / restore / resume tests (ISSUE 8): loader hardening against
// mutated images, Soc and Emulation-Device restore bit-identity vs
// uninterrupted runs, campaign warm-fork equivalence for any job count,
// manifest journaling + crash resume, and the per-scenario robustness
// policy (budget / timeout / retry) plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ed/emulation_device.hpp"
#include "helpers.hpp"
#include "host/campaign_manifest.hpp"
#include "optimize/fault_campaign.hpp"
#include "soc/snapshot.hpp"
#include "telemetry/run_report.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

// ---- shared fixtures -------------------------------------------------

// Idle-background engine: WFI park between interrupts, so the SoC is
// quiescent from early in the run — the shape warm forks engage on.
workload::EngineWorkload idle_engine(u32 revs) {
  workload::EngineOptions opt;
  opt.idle_background = true;
  opt.halt_after_revs = revs;
  auto built = workload::build_engine_workload(opt);
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  return std::move(built).value();
}

optimize::WorkloadCase engine_case(const workload::EngineWorkload& w,
                                   u64 max_cycles = 400'000) {
  optimize::WorkloadCase wc;
  wc.name = "engine";
  wc.program = w.program;
  wc.tc_entry = w.tc_entry;
  wc.pcp_entry = w.pcp_entry;
  wc.configure = [options = w.options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = max_cycles;
  return wc;
}

void install(soc::Soc& soc, const workload::EngineWorkload& w) {
  ASSERT_TRUE(workload::install_engine(soc, w).is_ok());
}

// Step to the first quiescent (non-halted) cycle at or after `after`.
Cycle step_to_quiescence(soc::Soc& soc, Cycle after) {
  while (!(soc.cycle() >= after && soc.quiescent()) && !soc.tc().halted()) {
    soc.step();
  }
  return soc.cycle();
}

void expect_same_architectural_state(soc::Soc& a, soc::Soc& b) {
  EXPECT_EQ(a.cycle(), b.cycle());
  EXPECT_EQ(a.tc().retired(), b.tc().retired());
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(a.tc().d(i), b.tc().d(i)) << "d" << i;
    EXPECT_EQ(a.tc().a(i), b.tc().a(i)) << "a" << i;
  }
  EXPECT_EQ(a.dspr().array(), b.dspr().array());
}

// ---- loader hardening ------------------------------------------------

soc::Snapshot quiescent_snapshot(const soc::SocConfig& config,
                                 const workload::EngineWorkload& w) {
  soc::Soc soc(config);
  EXPECT_TRUE(workload::install_engine(soc, w).is_ok());
  step_to_quiescence(soc, 1'000);
  auto snap = soc.save_snapshot();
  EXPECT_TRUE(snap.is_ok()) << snap.status().to_string();
  return std::move(snap).value();
}

TEST(SnapshotLoader, SerializeRoundTrips) {
  const workload::EngineWorkload w = idle_engine(2);
  const soc::SocConfig config;
  const soc::Snapshot snap = quiescent_snapshot(config, w);
  ASSERT_FALSE(snap.payload.empty());

  const std::vector<u8> bytes = snap.serialize();
  auto back = soc::Snapshot::deserialize(bytes);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().shape_fingerprint, snap.shape_fingerprint);
  EXPECT_EQ(back.value().cycle, snap.cycle);
  EXPECT_EQ(back.value().payload, snap.payload);
  EXPECT_EQ(back.value().checksum(), snap.checksum());
}

TEST(SnapshotLoader, RejectsMutatedImages) {
  const workload::EngineWorkload w = idle_engine(2);
  const soc::SocConfig config;
  const soc::Snapshot snap = quiescent_snapshot(config, w);
  const std::vector<u8> good = snap.serialize();
  constexpr usize kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

  // Truncations: below the header, at the header, and mid-payload.
  for (const usize keep : {usize{0}, usize{10}, kHeaderBytes - 1,
                           kHeaderBytes, good.size() - 1}) {
    std::vector<u8> bytes(good.begin(), good.begin() + keep);
    EXPECT_FALSE(soc::Snapshot::deserialize(bytes).is_ok())
        << "accepted truncation to " << keep << " bytes";
  }

  // Wrong magic.
  {
    std::vector<u8> bytes = good;
    bytes[0] ^= 0xFF;
    EXPECT_FALSE(soc::Snapshot::deserialize(bytes).is_ok());
  }
  // Unsupported version.
  {
    std::vector<u8> bytes = good;
    bytes[4] = 0x7F;
    EXPECT_FALSE(soc::Snapshot::deserialize(bytes).is_ok());
  }
  // Header lies about the payload length.
  {
    std::vector<u8> bytes = good;
    bytes[4 + 4 + 8 + 8] ^= 0x01;  // low byte of the length field
    EXPECT_FALSE(soc::Snapshot::deserialize(bytes).is_ok());
  }
  // Every corrupted payload byte position we try trips the checksum.
  for (const usize at : {usize{0}, snap.payload.size() / 2,
                         snap.payload.size() - 1}) {
    std::vector<u8> bytes = good;
    bytes[kHeaderBytes + at] ^= 0x40;
    EXPECT_FALSE(soc::Snapshot::deserialize(bytes).is_ok())
        << "accepted payload corruption at " << at;
  }
  // Trailing garbage changes the framed length.
  {
    std::vector<u8> bytes = good;
    bytes.push_back(0xAB);
    EXPECT_FALSE(soc::Snapshot::deserialize(bytes).is_ok());
  }
}

TEST(SnapshotLoader, RestoreRefusesWrongShapeAndLeavesMachineUntouched) {
  const workload::EngineWorkload w = idle_engine(2);
  const soc::Snapshot snap = quiescent_snapshot(soc::SocConfig{}, w);

  soc::SocConfig other;
  other.dspr_bytes *= 2;  // structurally different machine
  soc::Soc soc(other);
  ASSERT_TRUE(workload::install_engine(soc, w).is_ok());
  const Cycle before = soc.cycle();
  EXPECT_FALSE(soc.restore_snapshot(snap).is_ok());
  EXPECT_EQ(soc.cycle(), before);
}

TEST(SnapshotLoader, FileRoundTripAndCorruptFileRejected) {
  const workload::EngineWorkload w = idle_engine(2);
  const soc::Snapshot snap = quiescent_snapshot(soc::SocConfig{}, w);
  const std::string path = ::testing::TempDir() + "audo_snapshot_test.img";

  ASSERT_TRUE(snap.to_file(path).is_ok());
  auto back = soc::Snapshot::from_file(path);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().payload, snap.payload);

  // Flip one byte on disk; the loader must reject the file.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  const u8 evil = 0xEE;
  ASSERT_EQ(std::fwrite(&evil, 1, 1, f), 1u);
  std::fclose(f);
  EXPECT_FALSE(soc::Snapshot::from_file(path).is_ok());

  EXPECT_FALSE(soc::Snapshot::from_file(path + ".missing").is_ok());
  std::remove(path.c_str());
}

// ---- restore bit-identity --------------------------------------------

TEST(SnapshotRestore, SocResumesBitIdenticalToUninterruptedRun) {
  const workload::EngineWorkload w = idle_engine(2);
  const soc::SocConfig config;

  soc::Soc uninterrupted(config);
  install(uninterrupted, w);
  uninterrupted.run(400'000);
  ASSERT_TRUE(uninterrupted.tc().halted());

  // Capture a mid-run quiescent point, then resume on a fresh machine.
  soc::Soc donor(config);
  install(donor, w);
  const Cycle at = step_to_quiescence(donor, 1'500);
  ASSERT_GT(at, 0u);
  ASSERT_LT(at, uninterrupted.cycle());
  auto snap = donor.save_snapshot();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  EXPECT_EQ(snap.value().cycle, at);

  soc::Soc resumed(config);
  install(resumed, w);
  ASSERT_TRUE(resumed.restore_snapshot(snap.value()).is_ok());
  EXPECT_EQ(resumed.cycle(), at);
  resumed.run(400'000 - at);
  ASSERT_TRUE(resumed.tc().halted());

  expect_same_architectural_state(uninterrupted, resumed);
}

TEST(SnapshotRestore, SaveRequiresQuiescence) {
  // A busy background loop is not quiescent mid-computation.
  workload::EngineOptions opt;
  opt.halt_after_bg = 60;
  auto built = workload::build_engine_workload(opt);
  ASSERT_TRUE(built.is_ok());
  soc::Soc soc{soc::SocConfig{}};
  install(soc, built.value());
  soc.run(501);
  ASSERT_FALSE(soc.quiescent());
  EXPECT_FALSE(soc.save_snapshot().is_ok());
}

TEST(SnapshotRestore, EmulationDeviceResumesMidTraceWindow) {
  const workload::EngineWorkload w = idle_engine(2);
  const soc::SocConfig config;
  mcds::McdsConfig trace;
  trace.program_trace = true;
  trace.data_trace = true;
  trace.irq_trace = true;
  trace.sync_interval_cycles = 512;
  ed::EdConfig edc;
  edc.emem.size_bytes = 512 * 1024;
  edc.emem.overlay_bytes = 128 * 1024;

  const auto setup = [&](ed::EmulationDevice& ed) {
    ASSERT_TRUE(ed.load(w.program).is_ok());
    workload::configure_engine(ed.soc(), w.options);
    ed.reset(w.tc_entry, w.pcp_entry);
  };

  ed::EmulationDevice uninterrupted(config, trace, edc);
  setup(uninterrupted);
  uninterrupted.run(400'000);
  ASSERT_TRUE(uninterrupted.soc().tc().halted());
  auto trace_a = uninterrupted.download_trace();
  ASSERT_TRUE(trace_a.is_ok());

  // Snapshot at a quiescent cycle that is NOT a sync-window boundary, so
  // the MCDS counter groups and sync schedule are captured mid-window.
  ed::EmulationDevice donor(config, trace, edc);
  setup(donor);
  Cycle at = 0;
  for (Cycle want = 1'500;; want = donor.soc().cycle() + 1) {
    while (!(donor.soc().cycle() >= want && donor.soc().quiescent()) &&
           !donor.soc().tc().halted()) {
      donor.step();
    }
    ASSERT_FALSE(donor.soc().tc().halted());
    if (donor.soc().cycle() % trace.sync_interval_cycles != 0) {
      at = donor.soc().cycle();
      break;
    }
  }
  auto snap = donor.save_snapshot();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();

  ed::EmulationDevice resumed(config, trace, edc);
  setup(resumed);
  ASSERT_TRUE(resumed.restore_snapshot(snap.value()).is_ok());
  EXPECT_EQ(resumed.soc().cycle(), at);
  resumed.run(400'000 - at);
  ASSERT_TRUE(resumed.soc().tc().halted());

  expect_same_architectural_state(uninterrupted.soc(), resumed.soc());

  // The downloaded trace streams are message-for-message identical —
  // the EEC side (schedules, counters, EMEM, MLI) resumed exactly.
  auto trace_b = resumed.download_trace();
  ASSERT_TRUE(trace_b.is_ok());
  ASSERT_EQ(trace_a.value().size(), trace_b.value().size());
  for (usize i = 0; i < trace_a.value().size(); ++i) {
    const mcds::TraceMessage& ma = trace_a.value()[i];
    const mcds::TraceMessage& mb = trace_b.value()[i];
    ASSERT_EQ(ma.kind, mb.kind) << "message " << i;
    ASSERT_EQ(ma.source, mb.source) << "message " << i;
    ASSERT_EQ(ma.cycle, mb.cycle) << "message " << i;
    ASSERT_EQ(ma.pc, mb.pc) << "message " << i;
    ASSERT_EQ(ma.instr_count, mb.instr_count) << "message " << i;
    ASSERT_EQ(ma.addr, mb.addr) << "message " << i;
    ASSERT_EQ(ma.value, mb.value) << "message " << i;
    ASSERT_EQ(ma.counts, mb.counts) << "message " << i;
  }
}

// ---- warm-fork campaigns ---------------------------------------------

TEST(WarmFork, CampaignClassificationMatchesColdForAnyJobCount) {
  const workload::EngineWorkload w = idle_engine(2);
  optimize::FaultCampaign campaign(soc::SocConfig{}, engine_case(w));
  const auto scenarios = campaign.make_scenarios(/*seed=*/5, /*count=*/8);

  const optimize::CampaignSummary cold = campaign.run(scenarios);
  ASSERT_TRUE(cold.golden.halted);
  const u64 cold_hash = cold.classification_hash();

  ASSERT_NE(campaign.prepare_warm_fork(scenarios), 0u);
  ASSERT_TRUE(campaign.has_warm_fork());
  EXPECT_GT(campaign.warm_fork_cycle(), 0u);
  EXPECT_EQ(campaign.warm_fork_hash(), campaign.warm_fork_image().checksum());

  for (const unsigned jobs : {1u, 2u, 8u}) {
    campaign.set_jobs(jobs);
    const optimize::CampaignSummary warm = campaign.run(scenarios);
    EXPECT_EQ(warm.classification_hash(), cold_hash) << "jobs=" << jobs;
    EXPECT_EQ(warm.golden.cycles, cold.golden.cycles) << "jobs=" << jobs;
    EXPECT_EQ(warm.golden.signature, cold.golden.signature);
  }
}

TEST(WarmFork, BusyWorkloadFallsBackToColdBoot) {
  // The transmission workload has no WFI park: the TC computes between
  // interrupts, so no mid-run quiescent point exists and prepare must
  // decline (everything cold-boots — always correct, never wrong).
  workload::TransmissionOptions opt;
  opt.halt_after_tasks = 3;
  auto built = workload::build_transmission_workload(opt);
  ASSERT_TRUE(built.is_ok());
  optimize::WorkloadCase wc;
  wc.name = "transmission";
  wc.program = built.value().program;
  wc.tc_entry = built.value().tc_entry;
  wc.configure = [options = built.value().options](soc::Soc& soc) {
    workload::configure_transmission(soc, options);
  };
  wc.max_cycles = 400'000;

  optimize::FaultCampaign campaign(soc::SocConfig{}, std::move(wc));
  campaign.set_jobs(2);
  const auto scenarios = campaign.make_scenarios(/*seed=*/3, /*count=*/4);

  const u64 cold_hash = campaign.run(scenarios).classification_hash();
  EXPECT_EQ(campaign.prepare_warm_fork(scenarios), 0u);
  EXPECT_FALSE(campaign.has_warm_fork());
  EXPECT_EQ(campaign.run(scenarios).classification_hash(), cold_hash);
}

// ---- manifest journal + resume ---------------------------------------

host::CampaignHeader big_header() {
  host::CampaignHeader h;
  h.workload = "engine";
  h.campaign_seed = 0xFEDCBA9876543210ull;  // > 2^53: must not round
  h.config_fingerprint = 9'581'216'573'188'400'823ull;
  h.snapshot_hash = 11'528'891'750'608'023'875ull;
  h.scenario_count = 2;
  return h;
}

host::ScenarioRecord record(const std::string& name, u64 seed) {
  host::ScenarioRecord r;
  r.name = name;
  r.seed = seed;
  r.outcome = "sdc";
  r.cycles = 216'108;
  r.halted = true;
  r.signature = 16'026'638'672'417'489'055ull;  // > 2^53
  r.task = "isr_tooth";
  r.injected = {1, 0, 0, 2};
  r.alarms = {0, 0, 1, 0, 0};
  r.budget_cycles = 400'000;
  r.timeout_ms = 250;
  r.attempts = 2;
  return r;
}

TEST(CampaignManifest, RoundTripsExactU64Values) {
  const std::string path = ::testing::TempDir() + "audo_manifest_test.jsonl";
  {
    host::CampaignManifest m;
    ASSERT_TRUE(m.create(path, big_header()).is_ok());
    ASSERT_TRUE(m.append(record("rand-0", 4'116'863'941'369'023'524ull)).is_ok());
    ASSERT_TRUE(m.append(record("rand-1", 6'349'179'348'336'612'933ull)).is_ok());
  }
  auto loaded = host::CampaignManifest::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const host::CampaignHeader want = big_header();
  EXPECT_EQ(loaded.value().header.workload, want.workload);
  EXPECT_EQ(loaded.value().header.campaign_seed, want.campaign_seed);
  EXPECT_EQ(loaded.value().header.config_fingerprint, want.config_fingerprint);
  EXPECT_EQ(loaded.value().header.snapshot_hash, want.snapshot_hash);
  EXPECT_EQ(loaded.value().header.scenario_count, want.scenario_count);

  ASSERT_EQ(loaded.value().records.size(), 2u);
  const host::ScenarioRecord& got = loaded.value().records[0];
  const host::ScenarioRecord ref = record("rand-0", 4'116'863'941'369'023'524ull);
  EXPECT_EQ(got.name, ref.name);
  EXPECT_EQ(got.seed, ref.seed);
  EXPECT_EQ(got.outcome, ref.outcome);
  EXPECT_EQ(got.cycles, ref.cycles);
  EXPECT_EQ(got.halted, ref.halted);
  EXPECT_EQ(got.signature, ref.signature);
  EXPECT_EQ(got.task, ref.task);
  EXPECT_EQ(got.injected, ref.injected);
  EXPECT_EQ(got.alarms, ref.alarms);
  EXPECT_EQ(got.budget_cycles, ref.budget_cycles);
  EXPECT_EQ(got.timeout_ms, ref.timeout_ms);
  EXPECT_EQ(got.attempts, ref.attempts);
  std::remove(path.c_str());
}

TEST(CampaignManifest, TornTrailingLineIsDroppedButMidFileGarbageIsNot) {
  const std::string path = ::testing::TempDir() + "audo_manifest_torn.jsonl";
  {
    host::CampaignManifest m;
    ASSERT_TRUE(m.create(path, big_header()).is_ok());
    ASSERT_TRUE(m.append(record("rand-0", 1)).is_ok());
  }
  // Simulate kill -9 mid-write: a record with no terminating newline.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char torn[] = "{\"name\":\"rand-1\",\"seed\":2,\"outcome\":\"mas";
  std::fwrite(torn, 1, sizeof torn - 1, f);
  std::fclose(f);

  auto loaded = host::CampaignManifest::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().records.size(), 1u);
  EXPECT_EQ(loaded.value().records[0].name, "rand-0");

  // But a malformed *terminated* line is data loss, not a torn tail.
  f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite("\n{\"name\":\"rand-2\"}\n", 1, 19, f);
  std::fclose(f);
  // The torn fragment above became a complete malformed line.
  EXPECT_FALSE(host::CampaignManifest::load(path).is_ok());
  std::remove(path.c_str());

  EXPECT_FALSE(host::CampaignManifest::load(path).is_ok());  // missing file
}

TEST(CampaignManifest, ResumeReproducesClassificationHash) {
  const workload::EngineWorkload w = idle_engine(2);
  optimize::FaultCampaign campaign(soc::SocConfig{}, engine_case(w));
  campaign.set_jobs(2);
  const auto scenarios = campaign.make_scenarios(/*seed=*/11, /*count=*/6);

  const std::string path = ::testing::TempDir() + "audo_manifest_resume.jsonl";
  host::CampaignHeader header;
  header.workload = "engine";
  header.campaign_seed = 11;
  header.config_fingerprint = campaign.config().fingerprint();
  header.scenario_count = scenarios.size();

  // Full journaled run = the reference.
  host::CampaignManifest manifest;
  ASSERT_TRUE(manifest.create(path, header).is_ok());
  campaign.set_manifest(&manifest);
  const optimize::CampaignSummary reference = campaign.run(scenarios);
  manifest.close();
  campaign.set_manifest(nullptr);
  const u64 want = reference.classification_hash();

  auto contents = host::CampaignManifest::load(path);
  ASSERT_TRUE(contents.is_ok()) << contents.status().to_string();
  ASSERT_EQ(contents.value().records.size(), scenarios.size());

  // Pretend the campaign died after two scenarios and resume from them.
  std::vector<host::ScenarioRecord> survived(
      contents.value().records.begin(), contents.value().records.begin() + 2);
  campaign.set_resume_records(&survived);
  const optimize::CampaignSummary resumed = campaign.run(scenarios);
  campaign.set_resume_records(nullptr);

  EXPECT_EQ(resumed.classification_hash(), want);
  unsigned replayed = 0;
  for (const optimize::ScenarioResult& r : resumed.runs) {
    if (r.from_manifest) ++replayed;
    EXPECT_EQ(r.budget_cycles, campaign.budget_cycles());
  }
  EXPECT_EQ(replayed, 2u);
  std::remove(path.c_str());
}

// ---- robustness policy -----------------------------------------------

TEST(RobustnessPolicy, OutcomeNamesRoundTrip) {
  for (unsigned o = 0; o < optimize::kNumFaultOutcomes; ++o) {
    const auto outcome = static_cast<optimize::FaultOutcome>(o);
    optimize::FaultOutcome back = optimize::FaultOutcome::kMasked;
    ASSERT_TRUE(optimize::outcome_from_string(to_string(outcome), &back));
    EXPECT_EQ(back, outcome);
  }
  optimize::FaultOutcome out;
  EXPECT_FALSE(optimize::outcome_from_string("not-an-outcome", &out));
}

TEST(RobustnessPolicy, BudgetAndPolicyFieldsReachReport) {
  const workload::EngineWorkload w = idle_engine(2);
  optimize::FaultCampaign campaign(soc::SocConfig{}, engine_case(w));
  campaign.set_timeout_ms(60'000);  // generous: must not fire
  const auto scenarios = campaign.make_scenarios(/*seed=*/2, /*count=*/3);
  const optimize::CampaignSummary summary = campaign.run(scenarios);

  ASSERT_EQ(summary.runs.size(), 3u);
  for (const optimize::ScenarioResult& r : summary.runs) {
    EXPECT_EQ(r.budget_cycles, campaign.budget_cycles());
    EXPECT_EQ(r.timeout_ms, 60'000u);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.failed);
  }

  telemetry::RunReport report;
  summary.fill_report(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"budget_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"timeout_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
}

TEST(RobustnessPolicy, WallClockTimeoutStopsRunawayScenarioAsHang) {
  // An interrupt storm never halts; give it a huge cycle budget so only
  // the wall clock can stop it, and a timeout far below the time the
  // full budget would need.
  workload::EngineOptions opt;
  opt.halt_after_bg = 60;
  auto built = workload::build_engine_workload(opt);
  ASSERT_TRUE(built.is_ok());

  optimize::WorkloadCase wc;
  wc.name = "engine";
  wc.program = built.value().program;
  wc.tc_entry = built.value().tc_entry;
  wc.pcp_entry = built.value().pcp_entry;
  wc.configure = [options = built.value().options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = 150'000'000;

  optimize::FaultCampaign campaign(soc::SocConfig{}, std::move(wc));
  campaign.set_timeout_ms(10);

  optimize::FaultCampaign::DemoTargets targets;
  soc::Soc probe{soc::SocConfig{}};
  targets.storm_src = probe.srcs().adc_done;
  // Scenario [4] of the demo set is the interrupt storm (hang class).
  auto scenarios = campaign.make_demo_scenarios(targets);
  scenarios.erase(scenarios.begin(), scenarios.end() - 1);
  ASSERT_EQ(scenarios.size(), 1u);

  const optimize::CampaignSummary summary = campaign.run(scenarios);
  ASSERT_EQ(summary.runs.size(), 1u);
  const optimize::ScenarioResult& r = summary.runs[0];
  EXPECT_EQ(r.outcome, optimize::FaultOutcome::kHang);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.halted);
  EXPECT_LT(r.cycles, r.budget_cycles);
}

}  // namespace
}  // namespace audo
