#include "optimize/fault_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/bits.hpp"
#include "fault/safety_monitor.hpp"
#include "host/sim_pool.hpp"
#include "mem/memory_map.hpp"
#include "periph/sfr_bridge.hpp"
#include "profiling/dag.hpp"
#include "soc/soc.hpp"
#include "telemetry/run_report.hpp"

namespace audo::optimize {

const char* to_string(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kMasked: return "masked";
    case FaultOutcome::kCorrected: return "corrected";
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kSilentDataCorruption: return "sdc";
    case FaultOutcome::kHang: return "hang";
    case FaultOutcome::kFailed: return "failed";
    case FaultOutcome::kCount: break;
  }
  return "?";
}

bool outcome_from_string(std::string_view name, FaultOutcome* out) {
  for (unsigned o = 0; o < kNumFaultOutcomes; ++o) {
    const auto outcome = static_cast<FaultOutcome>(o);
    if (name == to_string(outcome)) {
      *out = outcome;
      return true;
    }
  }
  return false;
}

host::ScenarioRecord to_manifest_record(const ScenarioResult& r) {
  host::ScenarioRecord rec;
  rec.name = r.name;
  rec.seed = r.seed;
  rec.outcome = to_string(r.outcome);
  rec.cycles = r.cycles;
  rec.halted = r.halted;
  rec.signature = r.signature;
  rec.task = r.task;
  rec.injected.assign(r.injected.begin(), r.injected.end());
  rec.alarms.assign(r.alarms.begin(), r.alarms.end());
  rec.budget_cycles = r.budget_cycles;
  rec.timeout_ms = r.timeout_ms;
  rec.attempts = r.attempts;
  return rec;
}

Result<ScenarioResult> from_manifest_record(const host::ScenarioRecord& rec) {
  ScenarioResult r;
  r.name = rec.name;
  r.seed = rec.seed;
  if (!outcome_from_string(rec.outcome, &r.outcome)) {
    return error(StatusCode::kInvalidArgument,
                 "line " + std::to_string(rec.line) + ": unknown outcome \"" +
                     rec.outcome + "\"");
  }
  r.failed = r.outcome == FaultOutcome::kFailed;
  r.cycles = rec.cycles;
  r.halted = rec.halted;
  r.signature = rec.signature;
  r.task = rec.task;
  for (usize k = 0; k < r.injected.size() && k < rec.injected.size(); ++k) {
    r.injected[k] = rec.injected[k];
  }
  for (usize k = 0; k < r.alarms.size() && k < rec.alarms.size(); ++k) {
    r.alarms[k] = rec.alarms[k];
  }
  r.budget_cycles = rec.budget_cycles;
  r.timeout_ms = rec.timeout_ms;
  r.attempts = rec.attempts;
  r.from_manifest = true;
  return r;
}

namespace {

/// Digest of the architecturally-visible end state: TC register files
/// plus the DSPR image word by word. The image is read as peek() reads
/// it, so inspection cannot consume pending ECC fault records; it is
/// nearly all zero, and each run of zero words folds in one step.
u64 state_signature(soc::Soc& soc) {
  u64 h = kFnvOffset;
  for (unsigned i = 0; i < 16; ++i) {
    h = fnv1a(h, u64{soc.tc().d(i)});
    h = fnv1a(h, u64{soc.tc().a(i)});
  }
  return fnv1a_words(h, soc.dspr().array().bytes());
}

/// Cycle of the plan's earliest event (~0 when there is none): the cycle
/// whose TC task the campaign attributes the scenario to.
Cycle first_event_cycle(const fault::FaultPlan* plan) {
  Cycle first = ~Cycle{0};
  if (plan != nullptr) {
    for (const fault::FaultEvent& ev : plan->events) {
      first = std::min(first, ev.at);
    }
  }
  return first;
}

/// Feeds the scenario's ExecutionDag only until the TC task at the first
/// fault event is settled: the campaign asks the DAG nothing else, and
/// the Soc walks its observer list while it publishes, so the DAG cannot
/// detach mid-run. Later frames stop here.
class AttributionFeed final : public soc::FrameObserver {
 public:
  AttributionFeed(profiling::ExecutionDag& dag, Cycle at)
      : dag_(dag), at_(at) {}

  void observe(const mcds::ObservationFrame& frame) override {
    if (settled_) return;
    dag_.observe(frame);
    settled_ = dag_.task_settled(profiling::kDagCoreTc, at_);
  }
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override {
    if (settled_) return;
    dag_.skip_idle(idle, n);
    settled_ = dag_.task_settled(profiling::kDagCoreTc, at_);
  }

 private:
  profiling::ExecutionDag& dag_;
  Cycle at_;
  bool settled_ = false;
};

/// Wall-clock granularity: how many cycles run between deadline checks
/// when a scenario timeout is armed. Chunk boundaries only repartition
/// fast-forward budget wakes; cycles, signatures and classification are
/// untouched.
constexpr u64 kTimeoutCheckChunk = 1u << 20;

}  // namespace

FaultCampaign::FaultCampaign(soc::SocConfig config, WorkloadCase workload)
    : config_(std::move(config)), workload_(std::move(workload)) {}

fault::PlanSpec FaultCampaign::plan_spec() const {
  fault::PlanSpec spec;
  spec.flash_bytes = config_.pflash.size;
  spec.dspr_bytes = config_.dspr_bytes;
  spec.pspr_bytes = config_.pspr_bytes;
  spec.lmu_bytes = config_.lmu_bytes;
  // Live flash footprint: highest byte the program image places there.
  u32 image_end = 0;
  for (const isa::Section& sec : workload_.program.sections()) {
    if (!mem::is_pflash(sec.base, config_.pflash.size)) continue;
    const u32 end = mem::pflash_offset(sec.base) +
                    static_cast<u32>(sec.bytes.size());
    image_end = std::max(image_end, end);
  }
  spec.flash_image_bytes = image_end;
  // Shape of the constructed platform (slave indices, SRC ids, SFR map)
  // is fixed by Soc's construction order; probe one instance for it.
  soc::Soc probe(config_);
  spec.slave_count = probe.sri().slave_count();
  spec.irq_srcs = {probe.srcs().adc_done, probe.srcs().can_rx,
                   probe.srcs().stm0};
  using namespace periph::sfr;
  spec.sfr_offsets = {kAdc + 0x00, kCrank + 0x00, kCrank + 0x04,
                      kCan + 0x00, kStm + 0x00};
  spec.window_begin = 1'000;
  const u64 budget = workload_.max_cycles == 0
                         ? soc::Soc::kDefaultRunBudget
                         : workload_.max_cycles;
  spec.window_end = std::max<Cycle>(spec.window_begin + 1, budget / 2);
  spec.events_min = 1;
  spec.events_max = 3;
  return spec;
}

std::vector<FaultScenario> FaultCampaign::make_scenarios(
    u64 seed, unsigned count) const {
  const fault::PlanSpec spec = plan_spec();
  std::vector<FaultScenario> scenarios;
  scenarios.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    FaultScenario sc;
    sc.seed = fnv1a(fnv1a(kFnvOffset, seed), u64{i});
    sc.name = "rand-" + std::to_string(i);
    sc.plan = fault::generate_plan(sc.seed, spec);
    sc.safety = config_.safety;
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

std::vector<FaultScenario> FaultCampaign::make_demo_scenarios(
    const DemoTargets& t) const {
  std::vector<FaultScenario> scenarios;
  auto flip = [&](u32 offset, u8 bits) {
    fault::FaultEvent ev;
    ev.at = t.at;
    ev.kind = fault::FaultKind::kMemFlip;
    ev.domain = fault::MemDomain::kPFlash;
    ev.offset = offset;
    ev.bits = bits;
    return ev;
  };

  FaultScenario masked;
  masked.name = "demo-masked";
  masked.safety = config_.safety;
  masked.plan.events.push_back(flip(t.dead_flash_offset, 1));
  scenarios.push_back(std::move(masked));

  FaultScenario corrected;
  corrected.name = "demo-corrected";
  corrected.safety = config_.safety;
  corrected.plan.events.push_back(flip(t.hot_flash_offset, 1));
  scenarios.push_back(std::move(corrected));

  FaultScenario detected;
  detected.name = "demo-detected";
  detected.safety = config_.safety;
  detected.plan.events.push_back(flip(t.hot_flash_offset, 2));
  scenarios.push_back(std::move(detected));

  FaultScenario sdc;
  sdc.name = "demo-sdc";
  sdc.safety = config_.safety;
  sdc.safety.ecc_sram = false;  // unprotected RAM: the flip is silent
  fault::FaultEvent ram = flip(t.live_dspr_offset, 1);
  ram.domain = fault::MemDomain::kDspr;
  sdc.plan.events.push_back(ram);
  scenarios.push_back(std::move(sdc));

  FaultScenario hang;
  hang.name = "demo-hang";
  hang.safety = config_.safety;
  fault::FaultEvent storm;
  storm.at = t.at;
  storm.kind = fault::FaultKind::kIrqStorm;
  storm.irq_src = t.storm_src;
  storm.duration = ~Cycle{0} / 2;  // outlives any cycle budget
  hang.plan.events.push_back(storm);
  scenarios.push_back(std::move(hang));

  return scenarios;
}

Status FaultCampaign::set_resume_records(
    const std::vector<host::ScenarioRecord>* records) {
  resumed_.clear();
  if (records == nullptr) return Status::ok();
  for (const host::ScenarioRecord& rec : *records) {
    Result<ScenarioResult> r = from_manifest_record(rec);
    if (!r.is_ok()) {
      resumed_.clear();
      return r.status();
    }
    resumed_[{rec.name, rec.seed}] = std::move(r).value();
  }
  return Status::ok();
}

u64 FaultCampaign::budget_cycles() const {
  const u64 budget = workload_.max_cycles == 0 ? soc::Soc::kDefaultRunBudget
                                               : workload_.max_cycles;
  return std::min<u64>(budget, soc::Soc::kDefaultRunBudget);
}

ScenarioResult FaultCampaign::run_one_with_retries(
    const fault::FaultPlan* plan, const fault::SafetyConfig& safety) const {
  for (unsigned attempt = 1; attempt <= retries_ + 1; ++attempt) {
    try {
      ScenarioResult r = run_one(plan, safety);
      r.attempts = attempt;
      return r;
    } catch (const std::exception&) {
      // Host-side failure (allocation, internal error) — not a
      // simulation outcome. Back off and retry; the simulation itself
      // is deterministic, so a retry only helps for transient host
      // conditions, which is exactly what this policy is for.
      if (attempt <= retries_) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(u64{10} << (attempt - 1)));
      }
    }
  }
  ScenarioResult r;
  r.failed = true;
  r.outcome = FaultOutcome::kFailed;
  r.attempts = retries_ + 1;
  r.budget_cycles = budget_cycles();
  r.timeout_ms = timeout_ms_;
  return r;
}

ScenarioResult FaultCampaign::run_one(const fault::FaultPlan* plan,
                                      const fault::SafetyConfig& safety) const {
  ScenarioResult r;
  r.budget_cycles = budget_cycles();
  r.timeout_ms = timeout_ms_;
  soc::SocConfig cfg = config_;
  cfg.safety = safety;
  // The injector must outlive the Soc (its ECC hooks live in the Soc's
  // memory arrays until ~Soc detaches them).
  fault::FaultInjector injector(plan != nullptr ? *plan : fault::FaultPlan{});
  soc::Soc soc(cfg);
  if (Status s = soc.load(workload_.program); !s.is_ok()) {
    r.outcome = FaultOutcome::kHang;  // unloadable = never completes
    return r;
  }
  if (workload_.configure) workload_.configure(soc);
  // Segment the run into task/ISR activations so the campaign can report
  // *where* each fault landed, not just what it did. The DAG rides the
  // frame-observer hook, so attribution is bit-identical with
  // fast-forward on or off and for any --jobs; it sees the run only up
  // to where the task at the first event is settled.
  profiling::ExecutionDag dag(isa::SymbolMap(workload_.program));
  const bool attribute = plan != nullptr && !plan->events.empty();
  AttributionFeed feed(dag, first_event_cycle(plan));
  if (attribute) soc.add_frame_observer(&feed);
  if (plan != nullptr) soc.set_fault_injector(&injector);
  soc.reset(workload_.tc_entry, workload_.pcp_entry);

  if (timeout_ms_ == 0) {
    soc.run(r.budget_cycles);
  } else {
    // Chunked run so the wall clock is checked at bounded intervals.
    // Chunk boundaries are invisible to the simulation (fast-forward
    // resumes exactly where it stopped).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms_);
    while (soc.cycle() < r.budget_cycles && !soc.tc().halted()) {
      const u64 chunk =
          std::min<u64>(r.budget_cycles - soc.cycle(), kTimeoutCheckChunk);
      const u64 stepped = soc.run(chunk);
      if (std::chrono::steady_clock::now() >= deadline) {
        r.timed_out = !soc.tc().halted();
        break;
      }
      if (stepped < chunk) break;  // halted or idle deadlock
    }
  }
  r.cycles = soc.cycle();
  r.halted = soc.tc().halted();
  if (attribute) {
    r.task = dag.task_at(profiling::kDagCoreTc, first_event_cycle(plan));
  }
  for (unsigned k = 0; k < fault::kNumFaultKinds; ++k) {
    r.injected[k] = injector.injected(static_cast<fault::FaultKind>(k));
  }
  for (unsigned k = 0; k < fault::kNumAlarmKinds; ++k) {
    r.alarms[k] = soc.safety().total(static_cast<fault::AlarmKind>(k));
  }
  r.signature = state_signature(soc);
  return r;
}

FaultOutcome FaultCampaign::classify(const ScenarioResult& run,
                                     const ScenarioResult& golden) {
  if (!run.halted) return FaultOutcome::kHang;
  const auto raised = [&](fault::AlarmKind kind) {
    const unsigned k = static_cast<unsigned>(kind);
    return run.alarms[k] > golden.alarms[k];
  };
  if (raised(fault::AlarmKind::kEccUncorrectable) ||
      raised(fault::AlarmKind::kBusError) ||
      raised(fault::AlarmKind::kWatchdogTimeout) ||
      raised(fault::AlarmKind::kCpuTrap)) {
    return FaultOutcome::kDetected;
  }
  if (run.signature != golden.signature) {
    return FaultOutcome::kSilentDataCorruption;
  }
  if (raised(fault::AlarmKind::kEccCorrected)) return FaultOutcome::kCorrected;
  return FaultOutcome::kMasked;
}

CampaignSummary FaultCampaign::run(
    const std::vector<FaultScenario>& scenarios) const {
  CampaignSummary summary;
  // Golden reference under the campaign's base safety config; scenarios
  // only diverge from it via their injected faults (per-scenario safety
  // tweaks like ECC-off change nothing in a fault-free run).
  summary.golden = run_one_with_retries(nullptr, config_.safety);
  summary.golden.name = "golden";

  host::SimPool pool(jobs_);
  std::vector<ScenarioResult> runs = pool.map<ScenarioResult>(
      scenarios.size(), [&](usize i) {
        const FaultScenario& sc = scenarios[i];
        // Journaled by a previous (interrupted) campaign: replayed, not
        // re-simulated.
        if (auto it = resumed_.find({sc.name, sc.seed}); it != resumed_.end()) {
          return it->second;
        }
        if (abort_ != nullptr && abort_->load()) {
          ScenarioResult r;
          r.name = sc.name;
          r.seed = sc.seed;
          r.aborted = true;
          return r;
        }
        ScenarioResult r = run_one_with_retries(&sc.plan, sc.safety);
        r.name = sc.name;
        r.seed = sc.seed;
        // Classify in the worker so the journal records the final
        // outcome — resumes then replay it verbatim.
        if (!r.failed) r.outcome = classify(r, summary.golden);
        if (manifest_ != nullptr) {
          (void)manifest_->append(to_manifest_record(r));
        }
        return r;
      });

  // Results stay in submission order (SimPool contract), so the merged
  // summary — and classification_hash — is identical no matter which
  // scenarios came from the journal and which ran fresh. Aborted
  // placeholders are dropped: they represent work not done.
  for (ScenarioResult& r : runs) {
    if (r.aborted) continue;
    summary.outcome_counts[static_cast<unsigned>(r.outcome)] += 1;
    summary.runs.push_back(std::move(r));
  }
  return summary;
}

u64 CampaignSummary::classification_hash() const {
  u64 h = kFnvOffset;
  h = fnv1a(h, golden.cycles);
  h = fnv1a(h, golden.signature);
  for (const ScenarioResult& r : runs) {
    h = fnv1a(h, r.name);
    h = fnv1a(h, static_cast<u64>(r.outcome));
    h = fnv1a(h, r.cycles);
    h = fnv1a(h, r.signature);
    h = fnv1a(h, r.task);  // DAG attribution must be jobs/ff-independent
    for (const u64 a : r.alarms) h = fnv1a(h, a);
  }
  return h;
}

void CampaignSummary::fill_report(telemetry::RunReport& report) const {
  std::array<u64, fault::kNumFaultKinds> injected{};
  std::array<u64, fault::kNumAlarmKinds> alarms{};
  for (const ScenarioResult& r : runs) {
    for (unsigned k = 0; k < fault::kNumFaultKinds; ++k) {
      injected[k] += r.injected[k];
    }
    for (unsigned k = 0; k < fault::kNumAlarmKinds; ++k) {
      alarms[k] += r.alarms[k];
    }
  }
  report.add_fault("scenarios", runs.size());
  for (unsigned k = 0; k < fault::kNumFaultKinds; ++k) {
    report.add_fault(
        std::string("injected.") + to_string(static_cast<fault::FaultKind>(k)),
        injected[k]);
  }
  for (unsigned o = 0; o < kNumFaultOutcomes; ++o) {
    report.add_fault(
        std::string("outcome.") + to_string(static_cast<FaultOutcome>(o)),
        outcome_counts[o]);
  }
  for (unsigned k = 0; k < fault::kNumAlarmKinds; ++k) {
    report.add_alarm(to_string(static_cast<fault::AlarmKind>(k)), alarms[k]);
  }
  for (const ScenarioResult& r : runs) {
    report.add_fault_scenario(r.name, to_string(r.outcome), r.cycles, r.task,
                              r.budget_cycles, r.timeout_ms, r.attempts);
  }
}

std::string CampaignSummary::format() const {
  std::ostringstream out;
  out << "golden: " << golden.cycles << " cycles, signature 0x" << std::hex
      << golden.signature << std::dec << "\n";
  for (const ScenarioResult& r : runs) {
    out << "  " << r.name << ": " << to_string(r.outcome) << " (" << r.cycles
        << " cycles";
    u64 alarm_total = 0;
    for (const u64 a : r.alarms) alarm_total += a;
    if (alarm_total > 0) out << ", " << alarm_total << " alarms";
    if (!r.task.empty()) out << ", in " << r.task;
    out << ")\n";
  }
  out << "outcomes:";
  for (unsigned o = 0; o < kNumFaultOutcomes; ++o) {
    out << " " << to_string(static_cast<FaultOutcome>(o)) << "="
        << outcome_counts[o];
  }
  out << "\n";
  return out.str();
}

}  // namespace audo::optimize
