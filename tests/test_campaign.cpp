// Campaign resume and robustness tests: manifest journaling and crash
// resume, strict record fields, seeded mutation of a journaled manifest,
// manifests written while campaigns still carried a boot-image hash, and
// the per-scenario robustness policy (budget / timeout / retry) plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/prng.hpp"
#include "helpers.hpp"
#include "host/campaign_manifest.hpp"
#include "optimize/fault_campaign.hpp"
#include "telemetry/run_report.hpp"
#include "workload/engine.hpp"

namespace audo {
namespace {

// ---- shared fixtures -------------------------------------------------

// Idle-background engine: WFI park between interrupts, halting after
// `revs` crank revolutions.
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---- manifest journal + resume ---------------------------------------

host::CampaignHeader big_header() {
  host::CampaignHeader h;
  h.workload = "engine";
  h.campaign_seed = 0xFEDCBA9876543210ull;  // > 2^53: must not round
  h.config_fingerprint = 9'581'216'573'188'400'823ull;
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
  ASSERT_TRUE(campaign.set_resume_records(&survived).is_ok());
  const optimize::CampaignSummary resumed = campaign.run(scenarios);
  ASSERT_TRUE(campaign.set_resume_records(nullptr).is_ok());

  EXPECT_EQ(resumed.classification_hash(), want);
  unsigned replayed = 0;
  for (const optimize::ScenarioResult& r : resumed.runs) {
    if (r.from_manifest) ++replayed;
    EXPECT_EQ(r.budget_cycles, campaign.budget_cycles());
  }
  EXPECT_EQ(replayed, 2u);
  std::remove(path.c_str());
}

// A journaled outcome that is not an outcome name (a corrupt or hand-edited
// record) fails the resume and names its manifest line; it is never
// replayed as some other outcome.
TEST(CampaignManifest, UnknownOutcomeFailsTheResumeAndNamesItsLine) {
  const workload::EngineWorkload w = idle_engine(2);
  optimize::FaultCampaign campaign(soc::SocConfig{}, engine_case(w));
  const std::string path = ::testing::TempDir() + "audo_manifest_outcome.jsonl";
  for (const std::string bad : {"sdx", "", "s]c", "Masked"}) {
    SCOPED_TRACE("outcome \"" + bad + "\"");
    {
      host::CampaignManifest m;
      ASSERT_TRUE(m.create(path, big_header()).is_ok());
      ASSERT_TRUE(m.append(record("rand-0", 1)).is_ok());
      host::ScenarioRecord corrupt = record("rand-1", 2);
      corrupt.outcome = bad;
      ASSERT_TRUE(m.append(corrupt).is_ok());
    }
    auto loaded = host::CampaignManifest::load(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    const std::vector<host::ScenarioRecord>& records = loaded.value().records;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].line, 2u);
    EXPECT_EQ(records[1].line, 3u);

    EXPECT_TRUE(optimize::from_manifest_record(records[0]).is_ok());
    const auto converted = optimize::from_manifest_record(records[1]);
    ASSERT_FALSE(converted.is_ok());
    EXPECT_EQ(converted.status().message(),
              "line 3: unknown outcome \"" + bad + "\"");

    const Status resumed = campaign.set_resume_records(&records);
    EXPECT_FALSE(resumed.is_ok());
    EXPECT_EQ(resumed.message(), converted.status().message());
  }
  std::remove(path.c_str());
}

// Every header and record field must be present with its type. A record
// with a field renamed away or holding the wrong kind of value fails the
// load, naming its line and the field, instead of loading that field as
// 0, false or empty (a renamed "cycles" resumed as 0 cycles and changed
// the classification hash).
TEST(CampaignManifest, MissingOrMistypedFieldFailsTheLoadAndNamesIt) {
  const std::string path = ::testing::TempDir() + "audo_manifest_fields.jsonl";
  {
    host::CampaignManifest m;
    ASSERT_TRUE(m.create(path, big_header()).is_ok());
    ASSERT_TRUE(m.append(record("rand-0", 1)).is_ok());
  }
  const std::string journaled = read_file(path);
  ASSERT_TRUE(host::CampaignManifest::load(path).is_ok());
  const usize record_at = journaled.find('\n') + 1;

  struct Field {
    const char* key;
    const char* type;
    std::vector<const char*> wrong;  // mistyped values
  };
  const std::vector<Field> record_fields = {
      {"name", "a string", {"1", "null"}},
      {"seed", "an unsigned integer", {"\"1\"", "-1", "1.5", "1e3", "true"}},
      {"outcome", "a string", {"[]"}},
      {"cycles", "an unsigned integer",
       {"\"216108\"", "-216108", "216108.0", "18446744073709551616"}},
      {"halted", "true or false", {"1", "\"true\"", "null"}},
      {"signature", "an unsigned integer", {"{}", "2e19"}},
      {"task", "a string", {"0"}},
      {"injected", "an array of unsigned integers", {"1", "[1,-1]", "[\"1\"]"}},
      {"alarms", "an array of unsigned integers", {"{}", "[0.5]"}},
      {"budget_cycles", "an unsigned integer", {"false"}},
      {"timeout_ms", "an unsigned integer", {"[250]"}},
      {"attempts", "an unsigned integer", {"\"2\""}},
  };
  const std::vector<Field> header_fields = {
      {"workload", "a string", {"7"}},
      {"campaign_seed", "an unsigned integer", {"-5"}},
      {"config_fingerprint", "an unsigned integer", {"\"9\""}},
      {"scenario_count", "an unsigned integer", {"2.0"}},
  };
  // The value of `key` starts after `"key":` and ends at the next
  // top-level ',' or '}' (arrays are skipped whole).
  const auto value_span = [](const std::string& text, usize from,
                             const std::string& key) {
    const usize at = text.find("\"" + key + "\":", from);
    const usize begin = at + key.size() + 3;
    usize end = begin;
    if (text[begin] == '[') {
      end = text.find(']', begin) + 1;
    } else if (text[begin] == '"') {
      end = text.find('"', begin + 1) + 1;
    } else {
      end = text.find_first_of(",}", begin);
    }
    return std::make_pair(at, std::make_pair(begin, end));
  };
  const auto expect_refused = [&](const std::string& mutant, usize line,
                                  const std::string& key, const char* type) {
    write_file(path, mutant);
    auto loaded = host::CampaignManifest::load(path);
    ASSERT_FALSE(loaded.is_ok()) << mutant;
    EXPECT_EQ(loaded.status().message(),
              path + ":" + std::to_string(line) + ": field \"" + key +
                  "\" is missing or not " + type);
  };
  for (const bool header : {true, false}) {
    const usize from = header ? 0 : record_at;
    const usize line = header ? 1 : 2;
    for (const Field& field : header ? header_fields : record_fields) {
      SCOPED_TRACE(field.key);
      const auto [at, span] = value_span(journaled, from, field.key);
      ASSERT_NE(at, std::string::npos);
      ASSERT_LT(at, header ? record_at : journaled.size());
      // Renamed away: "cycles" -> "cyclez".
      std::string renamed = journaled;
      renamed[at + std::string(field.key).size()] = 'z';
      expect_refused(renamed, line, field.key, field.type);
      for (const char* wrong : field.wrong) {
        SCOPED_TRACE(wrong);
        std::string mistyped = journaled;
        mistyped.replace(span.first, span.second - span.first, wrong);
        expect_refused(mistyped, line, field.key, field.type);
      }
    }
  }
  // A count too large for its 32-bit field is refused too.
  const auto [at, span] = value_span(journaled, record_at, "attempts");
  std::string wide = journaled;
  wide.replace(span.first, span.second - span.first, "4294967296");
  expect_refused(wide, 2, "attempts", "a 32-bit unsigned integer");
  std::remove(path.c_str());
}

// The first field of `rec` that differs from what its manifest line
// `text` names, or "" when every field loaded as written.
std::string field_not_as_written(const host::ScenarioRecord& rec,
                                 std::string_view text) {
  auto parsed = json::json_parse(text);
  if (!parsed.is_ok()) return "line does not parse";
  const json::JsonValue& obj = parsed.value();
  const auto exact = [](const json::JsonValue* v, u64 want) {
    return v != nullptr && v->is_number() && !v->number_literal.empty() &&
           v->number_literal.find_first_not_of("0123456789") ==
               std::string::npos &&
           v->as_u64() == want;
  };
  const auto string_is = [&](const char* key, const std::string& want) {
    const json::JsonValue* v = obj.find(key);
    return v != nullptr && v->is_string() && v->string == want;
  };
  const auto array_is = [&](const char* key, const std::vector<u64>& want) {
    const json::JsonValue* v = obj.find(key);
    if (v == nullptr || !v->is_array() || v->array.size() != want.size()) {
      return false;
    }
    for (usize i = 0; i < want.size(); ++i) {
      if (!exact(&v->array[i], want[i])) return false;
    }
    return true;
  };
  const json::JsonValue* halted = obj.find("halted");
  if (!string_is("name", rec.name)) return "name";
  if (!exact(obj.find("seed"), rec.seed)) return "seed";
  if (!string_is("outcome", rec.outcome)) return "outcome";
  if (!exact(obj.find("cycles"), rec.cycles)) return "cycles";
  if (halted == nullptr || halted->kind != json::JsonValue::Kind::kBool ||
      halted->boolean != rec.halted) {
    return "halted";
  }
  if (!exact(obj.find("signature"), rec.signature)) return "signature";
  if (!string_is("task", rec.task)) return "task";
  if (!array_is("injected", rec.injected)) return "injected";
  if (!array_is("alarms", rec.alarms)) return "alarms";
  if (!exact(obj.find("budget_cycles"), rec.budget_cycles)) {
    return "budget_cycles";
  }
  if (!exact(obj.find("timeout_ms"), rec.timeout_ms)) return "timeout_ms";
  if (!exact(obj.find("attempts"), rec.attempts)) return "attempts";
  return "";
}

// Seeded byte-level mutants of a journaled manifest: bit flips, byte
// overwrites and truncations, a third of the edits aimed inside outcome
// values and a third inside the numeric and boolean fields, keys and
// values. Each mutant loads or fails with a status; every record that
// loads holds exactly the values its line names, and either converts to
// exactly the outcome its text names or fails with an error that names
// its line, and the resume accepts the records exactly when all of them
// convert.
TEST(CampaignManifest, SeededMutantsLoadOrFailButNeverReclassify) {
  const std::string journaled =
      read_file(std::string(AUDO_TESTDATA_DIR) + "/warm_fork_manifest.jsonl");
  ASSERT_FALSE(journaled.empty());
  std::vector<usize> outcome_bytes;  // offsets inside outcome values
  const std::string key = "\"outcome\":\"";
  for (usize at = journaled.find(key); at != std::string::npos;
       at = journaled.find(key, at + 1)) {
    for (usize b = at + key.size(); journaled[b] != '"'; ++b) {
      outcome_bytes.push_back(b);
    }
  }
  ASSERT_GE(outcome_bytes.size(), 30u);
  // Offsets inside the records' numeric and boolean fields, from the
  // first byte of the key to the last of the value.
  std::vector<usize> number_bytes;
  for (const char* name : {"seed", "cycles", "halted", "signature", "injected",
                           "alarms", "budget_cycles", "timeout_ms",
                           "attempts"}) {
    const std::string field = std::string("\"") + name + "\":";
    for (usize at = journaled.find(field); at != std::string::npos;
         at = journaled.find(field, at + 1)) {
      const usize value = at + field.size();
      const usize end = journaled[value] == '['
                            ? journaled.find(']', value) + 1
                            : journaled.find_first_of(",}", value);
      for (usize b = at + 1; b < end; ++b) number_bytes.push_back(b);
    }
  }
  ASSERT_GE(number_bytes.size(), 300u);

  const workload::EngineWorkload w = idle_engine(2);
  optimize::FaultCampaign campaign(soc::SocConfig{}, engine_case(w));
  const std::string path = ::testing::TempDir() + "audo_manifest_mutant.jsonl";
  constexpr unsigned kMutants = 450;
  Prng rng(0x3A21'F0CA);
  unsigned loaded_count = 0;
  unsigned unknown_outcomes = 0;
  unsigned field_refusals = 0;
  for (unsigned m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::string mutant = journaled;
    const u64 edits = 1 + rng.next_below(3);
    for (u64 e = 0; e < edits; ++e) {
      const u64 aim = rng.next_below(3);
      const usize at =
          aim == 0   ? outcome_bytes[rng.next_below(outcome_bytes.size())]
          : aim == 1 ? number_bytes[rng.next_below(number_bytes.size())]
                     : rng.next_below(mutant.size());
      if (rng.next_below(2) == 0) {
        mutant[at] = static_cast<char>(mutant[at] ^ (1u << rng.next_below(8)));
      } else {
        mutant[at] = static_cast<char>(rng.next_below(256));
      }
    }
    if (rng.next_below(3) == 0) mutant.resize(rng.next_below(mutant.size()));
    write_file(path, mutant);

    auto loaded = host::CampaignManifest::load(path);
    if (!loaded.is_ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
      if (loaded.status().message().find(": field \"") != std::string::npos) {
        ++field_refusals;
      }
      continue;
    }
    ++loaded_count;
    std::vector<std::string_view> lines;
    for (usize begin = 0; begin < mutant.size();) {
      const usize end = std::min(mutant.find('\n', begin), mutant.size());
      lines.push_back(std::string_view(mutant).substr(begin, end - begin));
      begin = end + 1;
    }
    const std::vector<host::ScenarioRecord>& records = loaded.value().records;
    bool all_convert = true;
    for (const host::ScenarioRecord& rec : records) {
      ASSERT_LE(rec.line, lines.size());
      EXPECT_EQ(field_not_as_written(rec, lines[rec.line - 1]), "")
          << "line " << rec.line << " loaded a value its text does not name";
      const auto converted = optimize::from_manifest_record(rec);
      if (converted.is_ok()) {
        EXPECT_EQ(optimize::to_string(converted.value().outcome), rec.outcome)
            << "line " << rec.line << " was reclassified";
      } else {
        all_convert = false;
        ++unknown_outcomes;
        EXPECT_EQ(converted.status().message(),
                  "line " + std::to_string(rec.line) + ": unknown outcome \"" +
                      rec.outcome + "\"");
      }
    }
    EXPECT_EQ(campaign.set_resume_records(&records).is_ok(), all_convert);
    if (::testing::Test::HasFailure()) break;
  }
  // Both outcomes occur, and the aimed edits reach the outcome check.
  EXPECT_GT(loaded_count, 0u);
  EXPECT_LT(loaded_count, kMutants);
  EXPECT_GT(unknown_outcomes, 0u);
  EXPECT_GT(field_refusals, 0u);
  std::remove(path.c_str());
}

// A manifest journaled by audo-faultcamp while campaigns still forked
// scenarios from a warm boot image: its header carries `snapshot_hash`,
// which loading ignores. `--idle-revs 2 --scenarios 6 --seed 3 --jobs 1
// --manifest` wrote it and printed classification 0x9d04599d5a348601;
// resuming from all of it, from its first three records, or from none
// gives that hash.
TEST(CampaignManifest, WarmForkManifestResumesToTheSameHash) {
  auto loaded = host::CampaignManifest::load(std::string(AUDO_TESTDATA_DIR) +
                                             "/warm_fork_manifest.jsonl");
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const host::ManifestContents& journal = loaded.value();
  ASSERT_EQ(journal.records.size(), 6u);

  const workload::EngineWorkload w = idle_engine(2);
  optimize::FaultCampaign campaign(soc::SocConfig{}, engine_case(w));
  campaign.set_jobs(1);
  const auto scenarios = campaign.make_scenarios(/*seed=*/3, /*count=*/6);
  EXPECT_EQ(journal.header.workload, campaign.workload().name);
  EXPECT_EQ(journal.header.campaign_seed, 3u);
  EXPECT_EQ(journal.header.config_fingerprint, campaign.config().fingerprint());
  EXPECT_EQ(journal.header.scenario_count, scenarios.size());

  constexpr u64 kWant = 0x9d04599d5a348601ull;
  for (const usize keep : {usize{6}, usize{3}, usize{0}}) {
    SCOPED_TRACE("records kept: " + std::to_string(keep));
    const std::vector<host::ScenarioRecord> records(
        journal.records.begin(),
        journal.records.begin() + static_cast<std::ptrdiff_t>(keep));
    ASSERT_TRUE(campaign.set_resume_records(&records).is_ok());
    const optimize::CampaignSummary summary = campaign.run(scenarios);
    EXPECT_EQ(summary.classification_hash(), kWant);
    unsigned replayed = 0;
    for (const optimize::ScenarioResult& r : summary.runs) {
      if (r.from_manifest) ++replayed;
    }
    EXPECT_EQ(replayed, keep);
  }
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
