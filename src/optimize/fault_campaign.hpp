// Parallel fault-injection campaigns: sweep N seeded fault scenarios of
// one workload through the SimPool and classify each run against a
// fault-free golden run — the robustness counterpart of the §6
// architecture sweep, using the same "each job owns its Soc" determinism
// contract so campaign classifications are bit-identical for any --jobs.
//
// Outcome taxonomy (precedence top to bottom):
//  * hang       — the TC never halted within the cycle budget (livelock,
//    runaway interrupt load, corrupted control flow that spins);
//  * detected   — a safety mechanism flagged the fault: uncorrectable
//    ECC, bus error, watchdog timeout or trap alarms above golden;
//  * silent-data-corruption — no alarm, but the final architectural
//    state (registers + DSPR image) differs from golden. This includes
//    corrupt-but-never-consumed words (latent faults) and runs whose
//    timing was perturbed enough to change state left in memory;
//  * corrected  — ECC corrected every consumed flip; state matches;
//  * masked     — the fault was never consumed at all (dead code /
//    stale data / scrubbed by an overwrite).
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/safety.hpp"
#include "host/campaign_manifest.hpp"
#include "optimize/evaluator.hpp"
#include "soc/soc_config.hpp"

namespace audo::telemetry {
struct RunReport;
}

namespace audo::optimize {

enum class FaultOutcome : u8 {
  kMasked = 0,
  kCorrected,
  kDetected,
  kSilentDataCorruption,
  kHang,
  /// The *host* could not complete the scenario (repeated exceptions —
  /// allocation failure, internal error) even after the retry budget.
  /// The scenario is quarantined with this outcome instead of killing
  /// the whole campaign.
  kFailed,
  kCount,
};
inline constexpr unsigned kNumFaultOutcomes =
    static_cast<unsigned>(FaultOutcome::kCount);
const char* to_string(FaultOutcome outcome);
/// Inverse of to_string; false when `name` is not an outcome name.
bool outcome_from_string(std::string_view name, FaultOutcome* out);

/// One campaign entry: a fault plan plus the safety configuration it
/// runs under (so a single campaign can compare ECC-on vs ECC-off).
struct FaultScenario {
  std::string name;
  u64 seed = 0;
  fault::FaultPlan plan;
  fault::SafetyConfig safety;
};

struct ScenarioResult {
  std::string name;
  u64 seed = 0;
  FaultOutcome outcome = FaultOutcome::kMasked;
  u64 cycles = 0;
  bool halted = false;
  u64 signature = 0;  // FNV-1a over final d/a registers + DSPR image
  /// Task/ISR the TC was executing when the first fault event fired
  /// (execution-DAG attribution; "" for the golden run or when the
  /// injection cycle falls outside the run).
  std::string task;
  std::array<u64, fault::kNumFaultKinds> injected{};
  std::array<u64, fault::kNumAlarmKinds> alarms{};

  // ---- robustness-policy bookkeeping (reported per scenario) ----------
  u64 budget_cycles = 0;  // cycle budget this run was given
  u64 timeout_ms = 0;     // wall-clock limit (0 = none)
  u32 attempts = 1;       // host attempts consumed (1 = first try worked)
  bool timed_out = false; // wall clock expired before the TC halted
  bool failed = false;    // quarantined after exhausting retries
  bool aborted = false;   // campaign was aborted before this ran
  bool from_manifest = false;  // replayed from a resume journal
};

/// Manifest adapters: a ScenarioResult as journal plain data and back.
/// A record whose outcome is not an outcome name does not convert; the
/// error names the record's manifest line.
host::ScenarioRecord to_manifest_record(const ScenarioResult& r);
Result<ScenarioResult> from_manifest_record(const host::ScenarioRecord& rec);

struct CampaignSummary {
  ScenarioResult golden;  // fault-free reference (outcome forced kMasked)
  std::vector<ScenarioResult> runs;
  std::array<u64, kNumFaultOutcomes> outcome_counts{};

  /// Stable digest of every run's (name, outcome, cycles, signature,
  /// alarms) — the value the jobs-independence test pins.
  u64 classification_hash() const;

  /// Fill the report's faults/alarms sections: injected counts by kind,
  /// outcome tallies, and alarm totals summed over all runs.
  void fill_report(telemetry::RunReport& report) const;

  std::string format() const;
};

/// Campaign driver for one (SoC configuration, workload) pair.
class FaultCampaign {
 public:
  FaultCampaign(soc::SocConfig config, WorkloadCase workload);

  /// Host workers; same contract as ArchitectureEvaluator::set_jobs —
  /// any value produces identical results in identical order.
  void set_jobs(unsigned jobs) { jobs_ = jobs; }
  unsigned jobs() const { return jobs_; }

  /// Random campaign: `count` scenarios with per-scenario seeds derived
  /// from `seed`, plans drawn from the platform-shaped PlanSpec.
  std::vector<FaultScenario> make_scenarios(u64 seed, unsigned count) const;

  /// Hand-aimed targets for the five-outcome demo campaign.
  struct DemoTargets {
    u32 hot_flash_offset = 0;   // flash bytes the workload executes
    u32 dead_flash_offset = 0;  // flash bytes it never touches
    u32 live_dspr_offset = 0;   // DSPR word left live at halt
    unsigned storm_src = 0;     // enabled high-rate interrupt source
    Cycle at = 2'000;           // injection cycle
  };

  /// One scenario per outcome class, in taxonomy order (masked,
  /// corrected, detected, sdc, hang).
  std::vector<FaultScenario> make_demo_scenarios(const DemoTargets& t) const;

  // ---- robustness policy ---------------------------------------------

  /// Wall-clock limit per scenario (0 = none). A run that exceeds it is
  /// stopped and classified kHang — a poison scenario costs bounded host
  /// time instead of stalling the whole campaign.
  void set_timeout_ms(u64 ms) { timeout_ms_ = ms; }
  u64 timeout_ms() const { return timeout_ms_; }

  /// Host-failure retries per scenario (exceptions, not simulation
  /// outcomes). Retries back off exponentially; exhausting them
  /// quarantines the scenario as kFailed instead of killing the run.
  void set_retries(unsigned retries) { retries_ = retries; }
  unsigned retries() const { return retries_; }

  /// Cooperative abort (SIGINT/SIGTERM): scenarios that have not started
  /// when the flag goes true are skipped; completed ones are kept, so
  /// the partial summary + manifest stay consistent.
  void set_abort_flag(const std::atomic<bool>* flag) { abort_ = flag; }

  /// Always 0: every run boots cold. Kept for perfbench/workloads.cpp,
  /// which still calls it.
  u64 prepare_warm_fork(const std::vector<FaultScenario>&) { return 0; }

  // ---- resume --------------------------------------------------------

  /// Journal every completed scenario to `manifest` (append-only JSONL;
  /// thread-safe, durable per record). Null disables journaling.
  void set_manifest(host::CampaignManifest* manifest) {
    manifest_ = manifest;
  }

  /// Scenarios already completed by a previous (crashed) campaign:
  /// run() matches them by (name, seed) and replays the journaled
  /// result instead of re-simulating. Null clears them. Fails, keeping
  /// none, on the first record that does not convert.
  Status set_resume_records(const std::vector<host::ScenarioRecord>* records);

  /// Run the golden reference plus every scenario (parallel across
  /// jobs()) and classify. Scenarios found in the resume records are
  /// replayed from the journal; fresh results are journaled to the
  /// manifest; aborted scenarios are dropped from the summary.
  CampaignSummary run(const std::vector<FaultScenario>& scenarios) const;

  /// The generator shape used by make_scenarios (exposed for tests).
  fault::PlanSpec plan_spec() const;

  const soc::SocConfig& config() const { return config_; }
  const WorkloadCase& workload() const { return workload_; }

  /// Effective per-scenario cycle budget (workload max_cycles, bounded
  /// by the SoC's hard cap).
  u64 budget_cycles() const;

 private:
  ScenarioResult run_one(const fault::FaultPlan* plan,
                         const fault::SafetyConfig& safety) const;
  ScenarioResult run_one_with_retries(const fault::FaultPlan* plan,
                                      const fault::SafetyConfig& safety) const;
  static FaultOutcome classify(const ScenarioResult& run,
                               const ScenarioResult& golden);

  soc::SocConfig config_;
  WorkloadCase workload_;
  unsigned jobs_ = 1;
  u64 timeout_ms_ = 0;
  unsigned retries_ = 2;
  const std::atomic<bool>* abort_ = nullptr;
  host::CampaignManifest* manifest_ = nullptr;
  /// Journaled results to replay, by (name, seed).
  std::map<std::pair<std::string, u64>, ScenarioResult> resumed_;
};

}  // namespace audo::optimize
