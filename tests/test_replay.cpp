// Record/replay regression lab tests (ISSUE 10): ReplaySpec JSON
// round-tripping and strict rejection of corrupt goldens, the
// differential replay oracle passing bit-identically on honest reruns
// under either exec tier and fast-forward setting, and seeded
// architecture mutations caught at the independently verified first
// divergent cycle, on plain-Soc recordings and on a committed session
// golden, early and late in the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "replay/oracle.hpp"
#include "replay/replay.hpp"
#include "soc/frame_digest.hpp"
#include "soc/soc.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

namespace audo {
namespace {

// ---- recording fixtures ----------------------------------------------

// Busy-loop engine, short enough to keep every test fast.
workload::EngineOptions busy_engine_options() {
  workload::EngineOptions opt;
  opt.halt_after_bg = 0;  // run to the cycle budget
  return opt;
}

// Idle-background engine with the CAN ring in the LMU: WFI park between
// interrupts, and the first LMU access only happens when the first CAN
// frame arrives (can_rx_period cycles in) — an lmu_latency mutation
// therefore first diverges windows into the run.
workload::EngineOptions idle_lmu_engine_options() {
  workload::EngineOptions opt;
  opt.idle_background = true;
  opt.can_ring_in_lmu = true;
  return opt;
}

// Record a plain-soc (no profiling session) golden: run the workload on
// a fresh Soc with the canonical windowed digest attached — exactly the
// capture audo-profile --record performs, minus the MCDS session.
replay::ReplaySpec record_plain(const soc::SocConfig& cfg,
                                const replay::ScenarioSpec& scenario,
                                u32 window_bits) {
  replay::ReplaySpec spec;
  spec.name = scenario.kind;
  spec.scenario = scenario;
  spec.scenario.session.enabled = false;
  spec.config = cfg;
  spec.config_fingerprint = cfg.fingerprint();

  Addr tc_entry = 0;
  Addr pcp_entry = 0;
  isa::Program program;
  if (scenario.kind == "engine") {
    auto built = workload::build_engine_workload(scenario.engine);
    EXPECT_TRUE(built.is_ok()) << built.status().to_string();
    tc_entry = built.value().tc_entry;
    pcp_entry = built.value().pcp_entry;
    program = std::move(built).value().program;
  } else {
    auto built = workload::build_transmission_workload(scenario.transmission);
    EXPECT_TRUE(built.is_ok()) << built.status().to_string();
    tc_entry = built.value().tc_entry;
    program = std::move(built).value().program;
  }

  soc::Soc soc(cfg);
  EXPECT_TRUE(soc.load(program).is_ok());
  if (scenario.kind == "engine") {
    workload::configure_engine(soc, scenario.engine);
  } else {
    workload::configure_transmission(soc, scenario.transmission);
  }
  soc::WindowedFrameDigest recorder(window_bits);
  soc.add_frame_observer(&recorder);
  soc.reset(tc_entry, pcp_entry);
  soc.run(scenario.run_cycles);

  spec.digests.window_bits = window_bits;
  spec.digests.windows = recorder.finish();
  spec.digests.total_frames = recorder.total_frames();
  spec.digests.stream = recorder.stream_digest();
  spec.cycles = soc.cycle();
  spec.instructions = soc.tc().retired();
  return spec;
}

// Per-cycle fingerprint tape: the independent ground truth the
// first-divergence assertions compare the oracle's answer against.
class FingerprintTape final : public soc::FrameObserver {
 public:
  std::vector<u64> fps;  // fps[i] = fingerprint of cycle i + 1

  void observe(const mcds::ObservationFrame& frame) override {
    fps.push_back(soc::frame_fingerprint(frame));
  }
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override {
    const u64 fp = soc::frame_fingerprint(idle);
    for (u64 i = 0; i < n; ++i) fps.push_back(fp);
  }
};

std::vector<u64> fingerprint_run(const soc::SocConfig& cfg,
                                 const replay::ScenarioSpec& scenario) {
  auto built = workload::build_engine_workload(scenario.engine);
  EXPECT_TRUE(built.is_ok());
  soc::Soc soc(cfg);
  EXPECT_TRUE(soc.load(built.value().program).is_ok());
  workload::configure_engine(soc, scenario.engine);
  FingerprintTape tape;
  soc.add_frame_observer(&tape);
  soc.reset(built.value().tc_entry, built.value().pcp_entry);
  soc.run(scenario.run_cycles);
  return tape.fps;
}

// First cycle whose fingerprint differs between two tapes (1-based),
// or 0 when they match over the common prefix and length.
u64 first_divergent_cycle(const std::vector<u64>& a,
                          const std::vector<u64>& b) {
  const usize n = std::min(a.size(), b.size());
  for (usize i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i + 1;
  }
  return a.size() == b.size() ? 0 : n + 1;
}

// ---- schema round trip and rejection ----------------------------------

TEST(ReplaySchema, RoundTripPreservesEveryField) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.engine.table_dim = 16;
  scenario.engine.pcp_offload = true;
  scenario.run_cycles = 20'000;

  soc::SocConfig cfg;
  cfg.pflash.wait_states = 4;
  cfg.icache.ways = 4;
  cfg.safety.ecc_sram = false;
  replay::ReplaySpec spec = record_plain(cfg, scenario, 12);
  ASSERT_FALSE(spec.digests.windows.empty());

  spec.campaign.enabled = true;
  spec.campaign.seed = 42;
  spec.campaign.scenarios = 3;
  spec.campaign.jobs = 2;
  spec.campaign.classification_hash = 0xdeadbeefcafe;
  spec.campaign.runs.push_back({"rand-0", "masked", 123, 0xaa, "main"});
  spec.campaign.runs.push_back({"rand-1", "sdc", 456, 0xbb, "isr_tooth"});

  auto loaded = replay::ReplaySpec::from_json(spec.to_json());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const replay::ReplaySpec& got = loaded.value();

  EXPECT_EQ(got.name, spec.name);
  EXPECT_EQ(got.scenario.kind, "engine");
  EXPECT_EQ(got.scenario.run_cycles, spec.scenario.run_cycles);
  EXPECT_EQ(got.scenario.engine.table_dim, 16u);
  EXPECT_TRUE(got.scenario.engine.pcp_offload);
  EXPECT_EQ(got.config.fingerprint(), cfg.fingerprint());
  EXPECT_EQ(got.config_fingerprint, spec.config_fingerprint);
  EXPECT_EQ(got.cycles, spec.cycles);
  EXPECT_EQ(got.instructions, spec.instructions);
  EXPECT_EQ(got.digests.window_bits, 12u);
  EXPECT_EQ(got.digests.total_frames, spec.digests.total_frames);
  EXPECT_EQ(got.digests.stream, spec.digests.stream);
  ASSERT_EQ(got.digests.windows.size(), spec.digests.windows.size());
  for (usize i = 0; i < got.digests.windows.size(); ++i) {
    EXPECT_EQ(got.digests.windows[i].index, spec.digests.windows[i].index);
    EXPECT_EQ(got.digests.windows[i].frames, spec.digests.windows[i].frames);
    EXPECT_EQ(got.digests.windows[i].digest, spec.digests.windows[i].digest);
    EXPECT_EQ(got.digests.windows[i].components,
              spec.digests.windows[i].components);
  }
  EXPECT_TRUE(got.campaign.enabled);
  EXPECT_EQ(got.campaign.seed, 42u);
  EXPECT_EQ(got.campaign.classification_hash, 0xdeadbeefcafeull);
  ASSERT_EQ(got.campaign.runs.size(), 2u);
  EXPECT_EQ(got.campaign.runs[1].name, "rand-1");
  EXPECT_EQ(got.campaign.runs[1].outcome, "sdc");
  EXPECT_EQ(got.campaign.runs[1].cycles, 456u);
  EXPECT_EQ(got.campaign.runs[1].signature, 0xbbu);
  EXPECT_EQ(got.campaign.runs[1].task, "isr_tooth");
}

TEST(ReplaySchema, RejectsCorruptTruncatedAndMismatchedInput) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 8'000;
  const std::string good = record_plain({}, scenario, 12).to_json();
  ASSERT_TRUE(replay::ReplaySpec::from_json(good).is_ok());

  // Not JSON at all.
  EXPECT_FALSE(replay::ReplaySpec::from_json("").is_ok());
  EXPECT_FALSE(replay::ReplaySpec::from_json("not json").is_ok());

  // Truncation anywhere is a parse error, never a half-loaded spec.
  for (usize cut : {good.size() / 4, good.size() / 2, good.size() - 3}) {
    EXPECT_FALSE(replay::ReplaySpec::from_json(good.substr(0, cut)).is_ok())
        << "truncated at " << cut;
  }

  // Trailing garbage after a valid document.
  EXPECT_FALSE(replay::ReplaySpec::from_json(good + "x").is_ok());

  // Schema version mismatch.
  std::string wrong_schema = good;
  const usize at = wrong_schema.find("trisim-replay/1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 15, "trisim-replay/9");
  EXPECT_FALSE(replay::ReplaySpec::from_json(wrong_schema).is_ok());

  // A hand-edited config knob no longer hashes back to the recorded
  // fingerprint and must be refused.
  std::string edited = good;
  usize ws = edited.find("\"wait_states\":");
  ASSERT_NE(ws, std::string::npos);
  ws += 14;
  while (edited[ws] == ' ') ++ws;
  usize digits = 0;
  while (std::isdigit(static_cast<unsigned char>(edited[ws + digits]))) {
    ++digits;
  }
  ASSERT_GT(digits, 0u);
  edited.replace(ws, digits, edited[ws] == '7' ? "8" : "7");
  auto refused = replay::ReplaySpec::from_json(edited);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.status().to_string().find("fingerprint"),
            std::string::npos);
}

TEST(ReplaySchema, FileRoundTrip) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 8'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);

  const std::string path = "replay_roundtrip_test.json";
  ASSERT_TRUE(spec.to_file(path).is_ok());
  auto loaded = replay::ReplaySpec::from_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().to_json(), spec.to_json());
  std::remove(path.c_str());

  EXPECT_FALSE(replay::ReplaySpec::from_file("no_such_golden.json").is_ok());
}

// ---- the oracle on honest reruns --------------------------------------

TEST(ReplayOracle, IdenticalRerunPassesUnderEveryHostMode) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 40'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);
  ASSERT_GE(spec.digests.windows.size(), 4u);

  struct Mode {
    const char* tier;
    int ff;
  };
  for (const Mode& m : {Mode{"", -1}, Mode{"accurate", -1},
                        Mode{"superblock", 0}, Mode{"accurate", 0}}) {
    replay::OracleOptions opts;
    opts.exec_tier = m.tier;
    opts.fast_forward = m.ff;
    auto run = replay::run_replay(spec, opts);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    EXPECT_TRUE(run.value().passed)
        << "tier=" << m.tier << " ff=" << m.ff << "\n"
        << run.value().format();
    EXPECT_EQ(run.value().windows_checked, spec.digests.windows.size());
    EXPECT_EQ(run.value().frames, spec.digests.total_frames);
  }
}

TEST(ReplayOracle, TransmissionGoldenReplays) {
  replay::ScenarioSpec scenario;
  scenario.kind = "transmission";
  scenario.transmission.halt_after_tasks = 0;
  scenario.run_cycles = 30'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);
  ASSERT_FALSE(spec.digests.windows.empty());

  replay::OracleOptions opts;
  opts.exec_tier = "accurate";
  auto run = replay::run_replay(spec, opts);
  ASSERT_TRUE(run.is_ok());
  EXPECT_TRUE(run.value().passed) << run.value().format();
}

// ---- seeded mutations are caught at the right cycle --------------------

// Both replay shapes: a plain-Soc recording, and a committed session
// golden, whose replay rebuilds the ProfilingSession with MCDS attached.
TEST(ReplayOracle, MutationCaughtAtIndependentlyVerifiedCycle) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 30'000;
  const replay::ReplaySpec plain = record_plain({}, scenario, 12);
  auto session = replay::ReplaySpec::from_file(std::string(AUDO_REPLAYS_DIR) +
                                               "/engine_superblock.json");
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  const replay::ReplaySpec& golden = session.value();
  ASSERT_TRUE(golden.scenario.session.enabled);

  for (const replay::ReplaySpec* spec : {&plain, &golden}) {
    SCOPED_TRACE(spec->scenario.session.enabled ? "session golden"
                                                : "plain recording");
    replay::OracleOptions opts;
    opts.mutations.emplace_back("flash_ws", 6);
    auto run = replay::run_replay(*spec, opts);
    ASSERT_TRUE(run.is_ok());
    const replay::ReplayResult& r = run.value();
    ASSERT_FALSE(r.passed);
    ASSERT_TRUE(r.divergence.found);
    EXPECT_EQ(r.divergence.kind, "frame");
    EXPECT_FALSE(r.divergence.fields.empty());

    // Ground truth: two independent full-frame runs, first differing
    // cycle.
    soc::SocConfig mutated = spec->config;
    ASSERT_TRUE(replay::apply_mutation(mutated, "flash_ws", 6).is_ok());
    const u64 want =
        first_divergent_cycle(fingerprint_run(spec->config, spec->scenario),
                              fingerprint_run(mutated, spec->scenario));
    ASSERT_NE(want, 0u);
    EXPECT_EQ(r.divergence.cycle, want);

    // The context rows straddle the divergence: matching before, not
    // after.
    bool saw_match_before = false;
    for (const replay::ContextRow& row : r.divergence.context) {
      if (row.cycle < r.divergence.cycle) {
        saw_match_before = true;
        EXPECT_TRUE(row.match) << "cycle " << row.cycle;
      }
      if (row.cycle == r.divergence.cycle) {
        EXPECT_FALSE(row.match);
      }
    }
    EXPECT_TRUE(saw_match_before);
  }
}

TEST(ReplayOracle, UnknownMutationKnobIsRejected) {
  struct Case {
    const char* knob;
    u64 value;
  };
  // An unknown knob, a value that makes the config invalid, and values
  // their field cannot hold, which must not wrap into range.
  for (const Case& c :
       {Case{"bogus_knob", 1}, Case{"issue_width", 99},
        Case{"flash_ws", 4'294'967'302}, Case{"lmu_latency", u64{1} << 32},
        Case{"icache", 2}, Case{"dcache", 2}}) {
    soc::SocConfig cfg;
    EXPECT_FALSE(replay::apply_mutation(cfg, c.knob, c.value).is_ok())
        << c.knob << "=" << c.value;
  }
  soc::SocConfig good;
  EXPECT_TRUE(replay::apply_mutation(good, "flash_ws", 6).is_ok());
  EXPECT_EQ(good.pflash.wait_states, 6u);
  EXPECT_TRUE(replay::apply_mutation(good, "dcache", 0).is_ok());
  EXPECT_FALSE(good.dcache.enabled);
}

// ---- bisection ---------------------------------------------------------

// The LMU is first touched by the CAN RX ISR (can_rx_period cycles in),
// so an lmu_latency mutation diverges windows into the run, past stretches
// the idle background parks in WFI. The bisection must name the same
// first divergent cycle under either exec tier and with fast-forward on
// or off.
TEST(ReplayBisect, LocatesLateDivergenceUnderEveryHostMode) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = idle_lmu_engine_options();
  scenario.run_cycles = 24'000;
  const soc::SocConfig cfg;
  const replay::ReplaySpec spec = record_plain(cfg, scenario, 10);
  const u64 win = u64{1} << 10;

  struct Mode {
    const char* tier;
    int ff;
  };
  for (const Mode& m : {Mode{"superblock", 1}, Mode{"accurate", 1},
                        Mode{"superblock", 0}, Mode{"accurate", 0}}) {
    replay::OracleOptions opts;
    opts.exec_tier = m.tier;
    opts.fast_forward = m.ff;
    opts.mutations.emplace_back("lmu_latency", 12);
    auto run = replay::run_replay(spec, opts);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    const replay::ReplayResult& r = run.value();
    ASSERT_FALSE(r.passed) << "tier=" << m.tier << " ff=" << m.ff;
    ASSERT_TRUE(r.divergence.found);
    EXPECT_EQ(r.divergence.kind, "frame") << r.format();
    // The first CAN frame arrives can_rx_period (9000) cycles in: the
    // divergence sits windows past cycle 0.
    EXPECT_GT(r.divergence.window_index, 0u);
    EXPECT_GT(r.divergence.cycle, win);
    // All four host modes agree on the first divergent cycle.
    static u64 agreed = 0;
    if (agreed == 0) agreed = r.divergence.cycle;
    EXPECT_EQ(r.divergence.cycle, agreed);
  }
}

// A golden whose window digest was tampered with cannot be blamed on the
// test run: the reference rerun does not reproduce it either, so the
// oracle degrades to an honest window-granularity verdict instead of
// inventing per-cycle claims.
TEST(ReplayBisect, TamperedGoldenDegradesToWindowGranularity) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 20'000;
  replay::ReplaySpec spec = record_plain({}, scenario, 12);
  ASSERT_GE(spec.digests.windows.size(), 3u);
  spec.digests.windows[2].digest ^= 1;  // single-bit golden corruption

  auto run = replay::run_replay(spec);
  ASSERT_TRUE(run.is_ok());
  const replay::ReplayResult& r = run.value();
  ASSERT_FALSE(r.passed);
  ASSERT_TRUE(r.divergence.found);
  EXPECT_EQ(r.divergence.kind, "window") << r.format();
  EXPECT_EQ(r.divergence.window_index, 2u);
  EXPECT_FALSE(r.divergence.reference_matches);
  EXPECT_NE(r.format().find("regenerate goldens"), std::string::npos)
      << r.format();
  auto doc = json::json_parse(r.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue* matches =
      doc.value().find("divergence")->find("reference_matches_golden");
  ASSERT_NE(matches, nullptr);
  EXPECT_FALSE(matches->boolean);
}

// A window verdict says which run failed: it tells the user to
// regenerate goldens only when the reference run under the recorded
// config did not reproduce the golden window. When it did and no
// re-stepped frame differs, the text says so and blames no golden.
TEST(ReplayReport, WindowVerdictSaysWhetherTheReferenceReproducedTheGolden) {
  replay::ReplayResult r;
  r.golden = "engine";
  r.exec_tier = "superblock";
  r.mismatches.push_back("windows");
  r.divergence.found = true;
  r.divergence.kind = "window";
  r.divergence.window_index = 3;
  r.divergence.window_start = 3 * 4096 + 1;
  r.divergence.window_end = 4 * 4096 + 1;
  r.divergence.components.push_back("tc");

  for (const bool reference_matches : {false, true}) {
    r.divergence.reference_matches = reference_matches;
    const std::string text = r.format();
    EXPECT_EQ(text.find("regenerate goldens") != std::string::npos,
              !reference_matches)
        << text;
    EXPECT_EQ(text.find("every re-stepped frame matches") != std::string::npos,
              reference_matches)
        << text;
    auto doc = json::json_parse(r.to_json());
    ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
    const json::JsonValue* matches =
        doc.value().find("divergence")->find("reference_matches_golden");
    ASSERT_NE(matches, nullptr);
    EXPECT_EQ(matches->kind, json::JsonValue::Kind::kBool);
    EXPECT_EQ(matches->boolean, reference_matches);
  }
}

// A campaign whose attribution alone drifted: one row's task (and the
// classification hash, which covers it) no longer match. The oracle must
// name that scenario and both tasks, not report a scenario-count
// mismatch with equal counts.
TEST(ReplayCampaign, AttributionDriftNamesTheScenarioAndBothTasks) {
  auto loaded = replay::ReplaySpec::from_file(std::string(AUDO_REPLAYS_DIR) +
                                              "/faultcamp_idle.json");
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  replay::ReplaySpec spec = std::move(loaded).value();
  ASSERT_TRUE(spec.campaign.enabled);
  ASSERT_GT(spec.campaign.runs.size(), 3u);
  replay::CampaignSpec::Run& row = spec.campaign.runs[3];
  const std::string name = row.name;
  const std::string recorded = row.task;
  ASSERT_FALSE(recorded.empty());
  row.task = "isr_elsewhere";
  spec.campaign.classification_hash ^= 1;

  auto run = replay::run_replay(spec);
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  const replay::ReplayResult& r = run.value();
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.divergence.kind, "campaign");
  EXPECT_EQ(r.divergence.scenario, name);
  EXPECT_EQ(r.divergence.expected_task, "isr_elsewhere");
  EXPECT_EQ(r.divergence.actual_task, recorded);
  EXPECT_EQ(r.divergence.expected_outcome, r.divergence.actual_outcome);
  EXPECT_EQ(r.divergence.expected_cycles, r.divergence.actual_cycles);

  const std::string text = r.format();
  EXPECT_NE(text.find(name), std::string::npos) << text;
  EXPECT_NE(text.find("'isr_elsewhere'"), std::string::npos) << text;
  EXPECT_NE(text.find("'" + recorded + "'"), std::string::npos) << text;

  auto doc = json::json_parse(r.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue* sc = doc.value().find("divergence")->find("scenario");
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->find("name")->string, name);
  EXPECT_EQ(sc->find("expected_task")->string, "isr_elsewhere");
  EXPECT_EQ(sc->find("actual_task")->string, recorded);
}

// audo-replay's verdict line and the divergence JSON name a golden by its
// `name` alone, so no two committed goldens, campaign or session, may
// share one.
TEST(ReplaySchema, CommittedGoldensHaveDistinctNames) {
  std::vector<std::filesystem::path> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator(AUDO_REPLAYS_DIR)) {
    if (entry.path().extension() == ".json") goldens.push_back(entry.path());
  }
  std::sort(goldens.begin(), goldens.end());
  std::map<std::string, std::string> file_of;  // name -> golden file
  for (const auto& path : goldens) {
    auto spec = replay::ReplaySpec::from_file(path.string());
    ASSERT_TRUE(spec.is_ok()) << path << ": " << spec.status().to_string();
    const std::string file = path.filename().string();
    const auto [it, fresh] = file_of.emplace(spec.value().name, file);
    EXPECT_TRUE(fresh) << file << " and " << it->second << " are both named '"
                       << spec.value().name << "'";
  }
  EXPECT_EQ(file_of.size(), goldens.size());
  EXPECT_GE(file_of.size(), 6u);
}

// ---- divergence report JSON -------------------------------------------

TEST(ReplayReport, DivergenceJsonCarriesTheStructuredReport) {
  replay::ScenarioSpec scenario;
  scenario.kind = "engine";
  scenario.engine = busy_engine_options();
  scenario.run_cycles = 20'000;
  const replay::ReplaySpec spec = record_plain({}, scenario, 12);

  replay::OracleOptions opts;
  opts.mutations.emplace_back("issue_width", 1);
  auto run = replay::run_replay(spec, opts);
  ASSERT_TRUE(run.is_ok());
  ASSERT_FALSE(run.value().passed);

  auto doc = json::json_parse(run.value().to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue& root = doc.value();
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->string, replay::kDivergenceSchema);
  EXPECT_FALSE(root.find("passed")->boolean);
  const json::JsonValue* div = root.find("divergence");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->find("kind")->string, "frame");
  EXPECT_GT(div->find("cycle")->as_u64(), 0u);
  ASSERT_NE(div->find("fields"), nullptr);
  ASSERT_FALSE(div->find("fields")->array.empty());
  const json::JsonValue& f = div->find("fields")->array[0];
  EXPECT_FALSE(f.find("component")->string.empty());
  EXPECT_FALSE(f.find("field")->string.empty());
  ASSERT_NE(div->find("context"), nullptr);
  EXPECT_FALSE(div->find("context")->array.empty());
}

}  // namespace
}  // namespace audo
