#include "replay/oracle.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/json.hpp"
#include "optimize/fault_campaign.hpp"
#include "profiling/dag.hpp"
#include "profiling/session.hpp"
#include "soc/soc.hpp"

namespace audo::replay {

namespace {

struct BuiltWorkload {
  isa::Program program;
  Addr tc_entry = 0;
  Addr pcp_entry = 0;
};

Result<BuiltWorkload> build_workload(const ScenarioSpec& s) {
  BuiltWorkload w;
  if (s.kind == "engine") {
    auto built = workload::build_engine_workload(s.engine);
    if (!built.is_ok()) return built.status();
    w.tc_entry = built.value().tc_entry;
    w.pcp_entry = built.value().pcp_entry;
    w.program = std::move(built).value().program;
  } else {
    auto built = workload::build_transmission_workload(s.transmission);
    if (!built.is_ok()) return built.status();
    w.tc_entry = built.value().tc_entry;
    w.program = std::move(built).value().program;
  }
  return w;
}

void configure_workload(soc::Soc& soc, const ScenarioSpec& s) {
  if (s.kind == "engine") {
    workload::configure_engine(soc, s.engine);
  } else {
    workload::configure_transmission(soc, s.transmission);
  }
}

/// Captures the full frame of every cycle in [lo, hi), expanding idle
/// skips into their per-cycle equivalents (an idle frame's non-cycle
/// fields are constant across the skip by definition).
class WindowCapture final : public soc::FrameObserver {
 public:
  WindowCapture(u64 lo, u64 hi) : lo_(lo), hi_(hi) {}

  void observe(const mcds::ObservationFrame& frame) override {
    next_ = frame.cycle;
    push(frame, next_);
    ++next_;
  }
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override {
    if (next_ < hi_ && next_ + n > lo_) {
      const u64 from = std::max(next_, lo_);
      const u64 to = std::min(next_ + n, hi_);
      for (u64 c = from; c < to; ++c) push(idle, c);
    }
    next_ += n;
  }

  /// Frame at `cycle`, or nullptr when the run never reached it.
  const mcds::ObservationFrame* at(u64 cycle) const {
    if (frames_.empty() || cycle < first_ ||
        cycle >= first_ + frames_.size()) {
      return nullptr;
    }
    return &frames_[cycle - first_];
  }

 private:
  void push(const mcds::ObservationFrame& f, u64 c) {
    if (c < lo_ || c >= hi_) return;
    if (frames_.empty()) first_ = c;
    frames_.push_back(f);
    frames_.back().cycle = c;
  }

  u64 lo_;
  u64 hi_;
  u64 next_ = 1;
  u64 first_ = 0;
  std::vector<mcds::ObservationFrame> frames_;
};

/// Everything one verification run produces.
struct FrameRun {
  soc::WindowedFrameDigest digest;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 mcds_messages = 0;
  u64 mcds_hash = 0;
  u64 dag_hash = 0;

  explicit FrameRun(u32 bits) : digest(bits) {}
};

/// Session replay: the golden carried MCDS instrumentation, so rebuild
/// the same ProfilingSession (trace digests must compare like-for-like)
/// and digest frames from its SoC.
Status run_session(const ScenarioSpec& scenario, const BuiltWorkload& w,
                   const soc::SocConfig& cfg, u64 run_cycles, FrameRun& out,
                   soc::FrameObserver* extra) {
  profiling::SessionOptions so;
  so.resolution = scenario.session.resolution;
  so.program_trace = scenario.session.program_trace;
  so.irq_trace = scenario.session.irq_trace;
  so.dag = scenario.session.dag;
  profiling::ProfilingSession session(cfg, so);
  if (Status s = session.load(w.program); !s.is_ok()) return s;
  configure_workload(session.device().soc(), scenario);
  session.device().soc().add_frame_observer(&out.digest);
  if (extra != nullptr) session.device().soc().add_frame_observer(extra);
  session.reset(w.tc_entry, w.pcp_entry);
  const profiling::SessionResult result = session.run(run_cycles);
  out.digest.finish();
  out.cycles = result.cycles;
  out.instructions = result.tc_retired;
  out.mcds_messages = result.messages.size();
  out.mcds_hash = hash_messages(result.messages);
  if (session.dag() != nullptr) out.dag_hash = session.dag()->analysis().hash;
  return Status::ok();
}

/// One uninterrupted run of the scenario from reset under `cfg`, for at
/// most `run_cycles`: every frame goes to `out`'s digest and to `extra`.
/// The test run, the bisection's reference run and its test-side re-run
/// all come through here, so they differ only in config and budget.
Status run_frames(const ScenarioSpec& scenario, const BuiltWorkload& w,
                  const soc::SocConfig& cfg, u64 run_cycles, FrameRun& out,
                  soc::FrameObserver* extra) {
  if (scenario.session.enabled) {
    return run_session(scenario, w, cfg, run_cycles, out, extra);
  }
  soc::Soc soc(cfg);
  if (Status s = soc.load(w.program); !s.is_ok()) return s;
  configure_workload(soc, scenario);
  soc.add_frame_observer(&out.digest);
  if (extra != nullptr) soc.add_frame_observer(extra);
  soc.reset(w.tc_entry, w.pcp_entry);
  // A zero budget runs nothing, as EmulationDevice::run has it for
  // sessions (Soc::run would read 0 as its default budget).
  if (run_cycles > 0) soc.run(run_cycles);
  out.digest.finish();
  out.cycles = soc.cycle();
  out.instructions = soc.tc().retired();
  return Status::ok();
}

/// Localize the divergence inside golden-window position `bad`: verify
/// the reference run still reproduces the golden there, re-step the
/// window on both machines and walk to the first differing cycle.
Status bisect_window(const ReplaySpec& spec, const OracleOptions& opts,
                     const soc::SocConfig& test_cfg, const BuiltWorkload& w,
                     usize bad, const FrameRun& test, Divergence& d) {
  const u32 bits = spec.digests.window_bits;
  const u64 win = u64{1} << bits;
  const auto& golden = spec.digests.windows;
  const u64 windex = bad < golden.size() ? golden[bad].index : bad;
  d.found = true;
  d.window_index = windex;
  d.window_start = windex * win + 1;
  d.window_end = (windex + 1) * win + 1;

  // Which component sub-digests disagree (available without any re-run).
  const auto& tws = test.digest.windows();
  if (bad < tws.size() && bad < golden.size() &&
      tws[bad].index == golden[bad].index) {
    for (unsigned c = 0; c < soc::WindowedFrameDigest::kNumComponents; ++c) {
      if (tws[bad].components[c] != golden[bad].components[c]) {
        d.components.push_back(soc::WindowedFrameDigest::component_name(c));
      }
    }
  }

  // Reference run under the *recorded* config, stopped at the window's
  // end. Its frames are only trusted as per-cycle expectations if it
  // still reproduces the golden digest of this window.
  const u64 budget = d.window_end - 1;
  FrameRun ref(bits);
  WindowCapture ref_cap(d.window_start, d.window_end);
  Status s = run_frames(spec.scenario, w, spec.config, budget, ref, &ref_cap);
  if (!s.is_ok()) return s;
  d.reference_matches = true;
  if (bad < golden.size()) {
    const auto& rws = ref.digest.windows();
    d.reference_matches = bad < rws.size() &&
                          rws[bad].index == golden[bad].index &&
                          rws[bad].frames == golden[bad].frames &&
                          rws[bad].digest == golden[bad].digest;
  }
  if (!d.reference_matches) {
    // The simulator no longer reproduces the golden even under the
    // recorded config — report at window granularity, no per-cycle
    // claims possible.
    d.kind = "window";
    return Status::ok();
  }

  // Test side: the same run under the test config, cold from reset.
  WindowCapture test_cap(d.window_start, d.window_end);
  FrameRun rerun(bits);
  s = run_frames(spec.scenario, w, test_cfg, budget, rerun, &test_cap);
  if (!s.is_ok()) return s;

  // First divergent cycle: fingerprints differ, or exactly one of the
  // runs stopped producing frames (earlier/later halt).
  const mcds::ObservationFrame* expected = nullptr;
  const mcds::ObservationFrame* actual = nullptr;
  u64 div_cycle = 0;
  for (u64 c = d.window_start; c < d.window_end; ++c) {
    const mcds::ObservationFrame* e = ref_cap.at(c);
    const mcds::ObservationFrame* a = test_cap.at(c);
    if (e == nullptr && a == nullptr) continue;
    if (e == nullptr || a == nullptr ||
        soc::frame_fingerprint(*e) != soc::frame_fingerprint(*a)) {
      expected = e;
      actual = a;
      div_cycle = c;
      d.frame_missing = e == nullptr || a == nullptr;
      break;
    }
  }
  if (div_cycle == 0) {
    // Window digests disagreed but every re-stepped frame matches —
    // should not happen; stay honest at window granularity.
    d.kind = "window";
    return Status::ok();
  }

  d.kind = "frame";
  d.cycle = div_cycle;
  if (expected != nullptr && actual != nullptr) {
    const auto efields = soc::enumerate_frame_fields(*expected);
    const auto afields = soc::enumerate_frame_fields(*actual);
    const usize n = std::min(efields.size(), afields.size());
    for (usize i = 0; i < n && d.fields.size() < 16; ++i) {
      // Past the first structural difference (variable-length SRI/IRQ
      // sections) positions stop lining up; the diverging count field
      // was already reported before that point.
      if (std::string_view(efields[i].component) !=
              std::string_view(afields[i].component) ||
          std::string_view(efields[i].field) !=
              std::string_view(afields[i].field)) {
        break;
      }
      if (efields[i].value != afields[i].value) {
        d.fields.push_back(FieldDiff{efields[i].component, efields[i].field,
                                     efields[i].value, afields[i].value});
      }
    }
    if (d.components.empty()) {
      for (const FieldDiff& f : d.fields) {
        if (std::find(d.components.begin(), d.components.end(), f.component) ==
            d.components.end()) {
          d.components.push_back(f.component);
        }
      }
    }
  }

  const u64 ctx = opts.context_frames;
  const u64 lo = div_cycle > d.window_start + ctx ? div_cycle - ctx
                                                  : d.window_start;
  const u64 hi = std::min(div_cycle + ctx + 1, d.window_end);
  for (u64 c = lo; c < hi; ++c) {
    const mcds::ObservationFrame* e = ref_cap.at(c);
    const mcds::ObservationFrame* a = test_cap.at(c);
    ContextRow row;
    row.cycle = c;
    row.expected_fp = e != nullptr ? soc::frame_fingerprint(*e) : 0;
    row.actual_fp = a != nullptr ? soc::frame_fingerprint(*a) : 0;
    row.missing = a == nullptr || e == nullptr;
    row.match = !row.missing && row.expected_fp == row.actual_fp;
    d.context.push_back(row);
  }
  return Status::ok();
}

Status frame_replay(const ReplaySpec& spec, const OracleOptions& opts,
                    const soc::SocConfig& cfg, const BuiltWorkload& w,
                    ReplayResult& result) {
  FrameRun test(spec.digests.window_bits);
  if (Status s = run_frames(spec.scenario, w, cfg, spec.scenario.run_cycles,
                            test, nullptr);
      !s.is_ok()) {
    return s;
  }

  // The first window that differs from the golden, or that only one side
  // has (a run that ended early or late), is the one to bisect.
  const auto& golden = spec.digests.windows;
  const auto& tws = test.digest.windows();
  usize checked = 0;
  while (checked < tws.size() && checked < golden.size() &&
         tws[checked].index == golden[checked].index &&
         tws[checked].frames == golden[checked].frames &&
         tws[checked].digest == golden[checked].digest) {
    ++checked;
  }
  result.cycles = test.cycles;
  result.frames = test.digest.total_frames();
  result.windows_checked = checked;
  if (checked < tws.size() || checked < golden.size()) {
    result.mismatches.push_back("windows");
    return bisect_window(spec, opts, cfg, w, checked, test,
                         result.divergence);
  }

  // Every window matched; check the whole-run summary digests.
  if (test.digest.stream_digest() != spec.digests.stream) {
    result.mismatches.push_back("stream");
  }
  if (test.digest.total_frames() != spec.digests.total_frames) {
    result.mismatches.push_back("total_frames");
  }
  if (test.cycles != spec.cycles) result.mismatches.push_back("cycles");
  if (test.instructions != spec.instructions) {
    result.mismatches.push_back("instructions");
  }
  if (spec.scenario.session.enabled) {
    if (test.mcds_messages != spec.digests.mcds_messages) {
      result.mismatches.push_back("mcds_messages");
    }
    if (test.mcds_hash != spec.digests.mcds_hash) {
      result.mismatches.push_back("mcds_hash");
    }
    if (spec.scenario.session.dag && test.dag_hash != spec.digests.dag_hash) {
      result.mismatches.push_back("dag_hash");
    }
  }
  if (!result.mismatches.empty() && !result.divergence.found) {
    result.divergence.found = true;
    result.divergence.kind = "summary";
  }
  return Status::ok();
}

void run_campaign(const ReplaySpec& spec, const OracleOptions& opts,
                  const soc::SocConfig& cfg, const BuiltWorkload& w,
                  ReplayResult& result) {
  optimize::WorkloadCase wc;
  wc.name = spec.scenario.kind;
  wc.program = w.program;
  wc.tc_entry = w.tc_entry;
  wc.pcp_entry = w.pcp_entry;
  wc.configure = [scenario = spec.scenario](soc::Soc& soc) {
    configure_workload(soc, scenario);
  };
  wc.max_cycles = spec.campaign.budget_cycles;
  optimize::FaultCampaign campaign(cfg, std::move(wc));
  campaign.set_jobs(opts.jobs != 0 ? opts.jobs : spec.campaign.jobs);
  const std::vector<optimize::FaultScenario> plan =
      campaign.make_scenarios(spec.campaign.seed, spec.campaign.scenarios);
  const optimize::CampaignSummary summary = campaign.run(plan);
  result.campaign_scenarios = summary.runs.size();

  if (summary.classification_hash() == spec.campaign.classification_hash &&
      summary.runs.size() == spec.campaign.runs.size()) {
    return;
  }
  result.mismatches.push_back("classification_hash");
  Divergence& d = result.divergence;
  d.found = true;
  d.kind = "campaign";
  const usize n = std::min(summary.runs.size(), spec.campaign.runs.size());
  for (usize i = 0; i < n; ++i) {
    const optimize::ScenarioResult& got = summary.runs[i];
    const CampaignSpec::Run& want = spec.campaign.runs[i];
    const char* got_outcome = optimize::to_string(got.outcome);
    if (got.name != want.name || want.outcome != got_outcome ||
        got.cycles != want.cycles || got.signature != want.signature ||
        got.task != want.task) {
      d.scenario = got.name;
      d.expected_outcome = want.outcome;
      d.actual_outcome = got_outcome;
      d.expected_cycles = want.cycles;
      d.actual_cycles = got.cycles;
      d.expected_signature = want.signature;
      d.actual_signature = got.signature;
      d.expected_task = want.task;
      d.actual_task = got.task;
      return;
    }
  }
  // All common rows agree: the counts differ (or the hash covers a field
  // the rows don't — either way, name the first uncovered scenario).
  d.scenario = "<scenario count>";
  d.expected_cycles = spec.campaign.runs.size();
  d.actual_cycles = summary.runs.size();
}

}  // namespace

Status apply_mutation(soc::SocConfig& config, const std::string& knob,
                      u64 value) {
  unsigned* field = nullptr;
  bool* enabled = nullptr;
  if (knob == "flash_ws") {
    field = &config.pflash.wait_states;
  } else if (knob == "lmu_latency") {
    field = &config.lmu_latency;
  } else if (knob == "spr_latency") {
    field = &config.spr_slave_latency;
  } else if (knob == "dflash_read") {
    field = &config.dflash.read_latency;
  } else if (knob == "dflash_write") {
    field = &config.dflash.write_latency;
  } else if (knob == "icache") {
    enabled = &config.icache.enabled;
  } else if (knob == "dcache") {
    enabled = &config.dcache.enabled;
  } else if (knob == "issue_width") {
    field = &config.tc_issue_width;
  } else {
    return error(StatusCode::kInvalidArgument,
                 "unknown mutation knob '" + knob +
                     "' (flash_ws, lmu_latency, spr_latency, dflash_read, "
                     "dflash_write, icache, dcache, issue_width)");
  }
  const u64 max = enabled != nullptr ? 1 : std::numeric_limits<unsigned>::max();
  if (value > max) {
    return error(StatusCode::kInvalidArgument,
                 "mutation " + knob + "=" + std::to_string(value) +
                     " does not fit the field (at most " +
                     std::to_string(max) + ")");
  }
  if (enabled != nullptr) {
    *enabled = value != 0;
  } else {
    *field = static_cast<unsigned>(value);
  }
  if (!config.valid()) {
    return error(StatusCode::kInvalidArgument,
                 "mutation " + knob + "=" + std::to_string(value) +
                     " makes the config invalid");
  }
  return Status::ok();
}

Result<ReplayResult> run_replay(const ReplaySpec& spec,
                                const OracleOptions& options) {
  ReplayResult result;
  result.golden = spec.name;

  soc::SocConfig cfg = spec.config;
  if (!options.exec_tier.empty()) {
    if (options.exec_tier == "accurate") {
      cfg.exec_tier = soc::SocConfig::ExecTier::kAccurate;
    } else if (options.exec_tier == "superblock") {
      cfg.exec_tier = soc::SocConfig::ExecTier::kSuperblock;
    } else {
      return error(StatusCode::kInvalidArgument,
                   "exec tier must be 'accurate' or 'superblock'");
    }
  }
  if (options.fast_forward >= 0) cfg.fast_forward = options.fast_forward != 0;
  for (const auto& [knob, value] : options.mutations) {
    if (Status s = apply_mutation(cfg, knob, value); !s.is_ok()) return s;
  }
  result.exec_tier = cfg.exec_tier == soc::SocConfig::ExecTier::kSuperblock
                         ? "superblock"
                         : "accurate";
  result.fast_forward = cfg.fast_forward;

  auto built = build_workload(spec.scenario);
  if (!built.is_ok()) return built.status();
  const BuiltWorkload& w = built.value();

  if (spec.campaign.enabled) {
    run_campaign(spec, options, cfg, w, result);
  }
  if (!spec.digests.windows.empty() || spec.digests.total_frames > 0) {
    if (Status s = frame_replay(spec, options, cfg, w, result); !s.is_ok()) {
      return s;
    }
  }

  result.passed = result.mismatches.empty() && !result.divergence.found;
  return result;
}

std::string ReplayResult::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.kv("schema", kDivergenceSchema);
  w.kv("golden", golden);
  w.kv("passed", passed);
  w.kv("exec_tier", exec_tier);
  w.kv("fast_forward", fast_forward);
  w.kv("cycles", cycles);
  w.kv("frames", frames);
  w.kv("windows_checked", windows_checked);
  w.kv("campaign_scenarios", campaign_scenarios);
  w.key("mismatches");
  w.begin_array();
  for (const std::string& m : mismatches) w.value(m);
  w.end_array();
  w.key("divergence");
  w.begin_object();
  w.kv("found", divergence.found);
  w.kv("kind", divergence.kind);
  if (divergence.found &&
      (divergence.kind == "frame" || divergence.kind == "window")) {
    w.key("window");
    w.begin_object();
    w.kv("index", divergence.window_index);
    w.kv("start_cycle", divergence.window_start);
    w.kv("end_cycle", divergence.window_end);
    w.end_object();
    w.kv("cycle", divergence.cycle);
    w.kv("frame_missing", divergence.frame_missing);
    w.kv("reference_matches_golden", divergence.reference_matches);
    w.key("components");
    w.begin_array();
    for (const std::string& c : divergence.components) w.value(c);
    w.end_array();
    w.key("fields");
    w.begin_array();
    for (const FieldDiff& f : divergence.fields) {
      w.begin_object();
      w.kv("component", f.component);
      w.kv("field", f.field);
      w.kv("expected", f.expected);
      w.kv("actual", f.actual);
      w.end_object();
    }
    w.end_array();
    w.key("context");
    w.begin_array();
    for (const ContextRow& r : divergence.context) {
      w.begin_object();
      w.kv("cycle", r.cycle);
      w.kv("expected_fp", r.expected_fp);
      w.kv("actual_fp", r.actual_fp);
      w.kv("match", r.match);
      w.kv("missing", r.missing);
      w.end_object();
    }
    w.end_array();
  }
  if (divergence.found && divergence.kind == "campaign") {
    w.key("scenario");
    w.begin_object();
    w.kv("name", divergence.scenario);
    w.kv("expected_outcome", divergence.expected_outcome);
    w.kv("actual_outcome", divergence.actual_outcome);
    w.kv("expected_cycles", divergence.expected_cycles);
    w.kv("actual_cycles", divergence.actual_cycles);
    w.kv("expected_signature", divergence.expected_signature);
    w.kv("actual_signature", divergence.actual_signature);
    w.kv("expected_task", divergence.expected_task);
    w.kv("actual_task", divergence.actual_task);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::string out = std::move(w).str();
  out.push_back('\n');
  return out;
}

std::string ReplayResult::format() const {
  std::ostringstream os;
  if (passed) {
    os << "PASS " << golden << ": ";
    if (campaign_scenarios > 0) {
      os << campaign_scenarios << " scenario classifications bit-identical";
      if (windows_checked > 0) os << ", ";
    }
    if (windows_checked > 0 || campaign_scenarios == 0) {
      os << windows_checked << " windows bit-identical (" << frames
         << " frames)";
    }
    os << " (tier " << exec_tier << ", ff " << (fast_forward ? "on" : "off")
       << ")\n";
    return os.str();
  }
  os << "FAIL " << golden << " (tier " << exec_tier << ", ff "
     << (fast_forward ? "on" : "off") << "): ";
  for (usize i = 0; i < mismatches.size(); ++i) {
    os << (i == 0 ? "" : ", ") << mismatches[i];
  }
  os << " mismatch\n";
  const Divergence& d = divergence;
  if (d.kind == "frame") {
    os << "  first divergence: cycle " << d.cycle << " (window "
       << d.window_index << ", cycles " << d.window_start << ".."
       << d.window_end - 1 << ")\n";
    if (d.frame_missing) {
      os << "  one run produced no frame at this cycle (earlier halt)\n";
    }
    for (const FieldDiff& f : d.fields) {
      os << "    " << f.component << "." << f.field << ": expected "
         << f.expected << ", got " << f.actual << "\n";
    }
  } else if (d.kind == "window") {
    os << "  divergent window " << d.window_index << " (cycles "
       << d.window_start << ".." << d.window_end - 1 << "), components:";
    if (d.components.empty()) {
      os << " (unavailable)";
    } else {
      for (const std::string& c : d.components) os << " " << c;
    }
    if (d.reference_matches) {
      os << "\n  (the reference run reproduces the golden window, yet the "
            "window digests disagree while every re-stepped frame "
            "matches)\n";
    } else {
      os << "\n  (reference run no longer matches the golden — regenerate "
            "goldens if this change is intended)\n";
    }
  } else if (d.kind == "campaign") {
    os << "  first divergent scenario: " << d.scenario << " — expected "
       << d.expected_outcome << "/" << d.expected_cycles << " cycles in '"
       << d.expected_task << "', got " << d.actual_outcome << "/"
       << d.actual_cycles << " cycles in '" << d.actual_task << "'\n";
  }
  return os.str();
}

}  // namespace audo::replay
