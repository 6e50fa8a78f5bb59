#include "workloads.hpp"

#include <time.h>

#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "fault/fault_injector.hpp"
#include "optimize/evaluator.hpp"
#include "optimize/fault_campaign.hpp"
#include "optimize/options.hpp"
#include "profiling/dag.hpp"
#include "profiling/session.hpp"
#include "profiling/spec.hpp"
#include "profiling/timeseries.hpp"
#include "soc/frame_digest.hpp"
#include "telemetry/metrics.hpp"
#include "traced.hpp"
#include "workload/engine.hpp"
#include "workload/kernels.hpp"
#include "workload/transmission.hpp"

namespace perfbench {

using namespace audo;

// ---- checks and the metric tables ---------------------------------------

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 8) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"cpu_ns_per_sim_cycle", "ns/cycle", "lower"},
      {"wall_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mib", "MiB", "lower"},
  };
  return kSpecs;
}

namespace {

// Registry counters of the modelled chip reported per layer: a host-only
// change must leave every one of them identical.
bool is_chip_count(std::string_view component, std::string_view name) {
  if (component == "tc") {
    return name == "retired" || name.starts_with("stall.");
  }
  if (component == "sri") {
    return name.ends_with(".grants") || name.ends_with(".wait_cycles") ||
           name.ends_with(".contention_cycles");
  }
  if (component == "pflash") {
    return name == "code_buffer_hits" || name == "data_buffer_hits" ||
           name == "array_fetches" || name == "port_conflict_cycles";
  }
  if (component == "icache" || component == "dcache") {
    return name == "hits" || name == "misses";
  }
  return false;
}

std::vector<MetricSpec> build_layer_specs() {
  std::vector<MetricSpec> s = {
      {"soc.step.calls", "count", "lower"},
      {"soc.step.self_ns", "ns", "lower"},
      {"soc.loop.ns", "ns", "lower"},
      {"soc.fast_window.calls", "count", "higher"},
      {"soc.fast_window.cycles", "count", "higher"},
      {"soc.fast_window.ns_per_cycle", "ns/cycle", "lower"},
      {"soc.fast_window.declined_calls", "count", "lower"},
      {"soc.fast_window.decline_ns", "ns", "lower"},
      {"exec.fast_cycle_share", "share", "higher"},
      {"exec.entry_yield", "share", "higher"},
  };
  for (unsigned g = 0; g < soc::kNumFastGates; ++g) {
    s.push_back({std::string("exec.gate.") +
                     soc::to_string(static_cast<soc::FastGate>(g)),
                 "count", "lower"});
  }
  for (unsigned b = 1; b < cpu::kNumFastBails; ++b) {
    s.push_back({std::string("exec.bail.") +
                     cpu::to_string(static_cast<cpu::FastBail>(b)),
                 "count", "lower"});
  }
  const std::vector<MetricSpec> rest = {
      {"soc.skip_idle.calls", "count", "lower"},
      {"soc.skip_idle.cycles", "count", "higher"},
      {"soc.skip_idle.ns", "ns", "lower"},
      {"ff.skipped_share", "share", "higher"},
      {"ff.wakeups", "count", "lower"},
      {"ed.run.self_ns_per_cycle", "ns/cycle", "lower"},
      {"mcds.encoded_bytes", "bytes", "lower"},
      {"mcds.dropped", "count", "lower"},
      {"emem.pushed_messages", "count", "lower"},
      {"dap.bytes_drained", "bytes", "higher"},
      {"mcds.decode_ns", "ns", "lower"},
      {"profiling.series_ns", "ns", "lower"},
      {"profiling.cpi.observe_ns", "ns", "lower"},
      {"profiling.dag.observe_ns", "ns", "lower"},
      {"profiling.dag.analysis_ns", "ns", "lower"},
      {"optimize.evaluate_ns", "ns", "lower"},
      {"optimize.boot_cache.hits", "count", "higher"},
      {"optimize.boot_cache.misses", "count", "lower"},
      {"optimize.warm_fork.prepare_ns", "ns", "lower"},
      {"optimize.campaign.run_ns", "ns", "lower"},
      {"host.pool.utilisation", "share", "higher"},
      {"fault.events_injected", "count", "higher"},
  };
  s.insert(s.end(), rest.begin(), rest.end());
  for (unsigned o = 0; o < optimize::kNumFaultOutcomes; ++o) {
    s.push_back({std::string("fault.outcome.") +
                     optimize::to_string(static_cast<optimize::FaultOutcome>(o)),
                 "count", "higher"});
  }
  const std::vector<MetricSpec> tail = {
      {"workload.build_ns", "ns", "lower"},
      {"soc.setup_ns", "ns", "lower"},
      {"trace.sim_cycles", "count", "higher"},
      {"trace.overhead_ns_per_cycle", "ns/cycle", "lower"},
      {"calib.timer_pair_ns", "ns", "lower"},
      {"calib.layer_sum_ns_per_cycle", "ns/cycle", "lower"},
      {"calib.untraced_ns_per_cycle", "ns/cycle", "lower"},
      {"calib.layer_sum_gap", "share", "lower"},
  };
  s.insert(s.end(), tail.begin(), tail.end());
  // The modelled chip's counters, named as the registry names them.
  telemetry::MetricsRegistry registry;
  const soc::Soc probe{soc::SocConfig{}};
  probe.register_metrics(registry);
  for (const telemetry::MetricSample& m : registry.collect(0).samples) {
    if (!is_chip_count(m.component, m.name)) continue;
    const bool good = m.name == "retired" || m.name == "stall.issue" ||
                      m.name.find("hits") != std::string::npos ||
                      m.name.find("grants") != std::string::npos;
    s.push_back({m.component + "." + m.name, "count",
                 good ? "higher" : "lower"});
  }
  return s;
}

usize layer_index(std::string_view name) {
  const std::vector<MetricSpec>& specs = LayerReport::specs();
  for (usize i = 0; i < specs.size(); ++i) {
    if (specs[i].name == name) return i;
  }
  std::fprintf(stderr, "unknown per-layer metric %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

}  // namespace

const std::vector<MetricSpec>& LayerReport::specs() {
  static const std::vector<MetricSpec> kSpecs = build_layer_specs();
  return kSpecs;
}

LayerReport::LayerReport() : values_(specs().size(), 0.0) {}

void LayerReport::set(std::string_view name, double value) {
  values_[layer_index(name)] = value;
}

double LayerReport::get(std::string_view name) const {
  return values_[layer_index(name)];
}

namespace {

// ---- shared helpers -----------------------------------------------------

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process CPU time since construction.
class Stopwatch {
 public:
  double wall_s() const { return 1e-9 * static_cast<double>(now_ns() - wall0_); }
  double cpu_s() const { return cpu_now_s() - cpu0_; }

 private:
  u64 wall0_ = now_ns();
  double cpu0_ = cpu_now_s();
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

[[noreturn]] void die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), s.to_string().c_str());
  std::exit(1);
}

soc::SocConfig reference_config() {
  soc::SocConfig c;
  c.exec_tier = soc::SocConfig::ExecTier::kAccurate;
  c.fast_forward = false;
  return c;
}

/// The architectural end state the checks compare.
struct Outcome {
  u64 cycle = 0;
  u64 retired = 0;
  soc::StallTotals stalls;
};

Outcome outcome_of(const soc::Soc& soc) {
  return {soc.cycle(), soc.tc().retired(), soc.tc_stall_totals()};
}

void expect_state(Checks& checks, const Outcome& got, const Outcome& want,
                  const std::string& what) {
  checks.expect(got.cycle == want.cycle, what + ": final cycle");
  checks.expect(got.retired == want.retired, what + ": retired count");
  checks.expect(got.stalls.cycles == want.stalls.cycles,
                what + ": stall totals");
}

/// Cycles a WindowedFrameDigest covers: two of its 32768-cycle windows.
/// The digest costs microseconds per frame, several times the simulator
/// itself, so it is only ever taken on a prefix in an untimed pass.
constexpr u64 kDigestCycles = 65536;

u64 digest_of(soc::WindowedFrameDigest& digest) {
  digest.finish();
  return digest.stream_digest();
}

/// Run through Soc::run, or through the traced loop with its spans
/// thrown away (the digest passes check the loop, not its timing).
void run_soc(soc::Soc& soc, u64 cycles, bool traced_loop) {
  if (!traced_loop) {
    soc.run(cycles);
    return;
  }
  SpanClock clock;
  LoopLayers discarded;
  traced_soc_run(soc, cycles, clock, discarded);
}

void run_device(ed::EmulationDevice& device, u64 cycles, bool traced_loop) {
  if (!traced_loop) {
    device.run(cycles);
    return;
  }
  SpanClock clock;
  LoopLayers discarded;
  traced_ed_run(device, cycles, clock, discarded);
}

u64 message_hash(const std::vector<mcds::TraceMessage>& messages) {
  u64 h = kFnvOffset;
  for (const mcds::TraceMessage& m : messages) {
    h = fnv1a(h, static_cast<u64>(m.kind));
    h = fnv1a(h, static_cast<u64>(m.source));
    h = fnv1a(h, m.cycle);
    h = fnv1a(h, m.pc);
    h = fnv1a(h, m.instr_count);
    h = fnv1a(h, m.addr);
    h = fnv1a(h, m.value);
    h = fnv1a(h, m.write ? 1 : 0);
    h = fnv1a(h, m.bytes);
    h = fnv1a(h, m.group);
    h = fnv1a(h, m.basis);
    for (const u32 c : m.counts) h = fnv1a(h, c);
    h = fnv1a(h, m.id);
    h = fnv1a(h, m.irq_entry ? 1 : 0);
  }
  return h;
}

/// Everything one traced pass accumulates, read once at the end.
class TracedPass {
 public:
  explicit TracedPass(const Calibration& calibration) : cal_(calibration) {}

  SpanClock clock;
  LoopLayers loop;
  // Post-run layers of the profiling flow and the profiling observers.
  Layer decode, series, dag_analysis, cpi_observe, dag_observe;
  u64 sim_cycles = 0;  // cycles the traced loops simulated
  u64 traced_ns = 0;   // wall ns of the traced loops and post-run layers
  u64 build_ns = 0;    // workload generation and assembly
  u64 setup_ns = 0;    // Soc/ED construction, load, reset

  /// Fold one finished Soc's coverage counters and chip counters in.
  void add_soc(const soc::Soc& soc) {
    const soc::ExecTierStats& e = soc.exec_stats();
    exec_.windows += e.windows;
    exec_.fast_cycles += e.fast_cycles;
    for (unsigned g = 0; g < soc::kNumFastGates; ++g) exec_.gates[g] += e.gates[g];
    for (unsigned b = 0; b < cpu::kNumFastBails; ++b) exec_.bails[b] += e.bails[b];
    ff_skipped_ += soc.ff_stats().skipped_cycles;
    ff_wakeups_ += soc.ff_stats().wakeups;
    telemetry::MetricsRegistry registry;
    soc.register_metrics(registry);
    for (const telemetry::MetricSample& m : registry.collect(soc.cycle()).samples) {
      if (is_chip_count(m.component, m.name)) {
        chip_[m.component + "." + m.name] += m.value;
      }
    }
  }

  /// Emulation Device flavour: the product chip plus "mcds"/"emem"/"dap".
  void add_device(const ed::EmulationDevice& ed) {
    add_soc(ed.soc());
    telemetry::MetricsRegistry registry;
    ed.register_metrics(registry);
    for (const telemetry::MetricSample& m :
         registry.collect(ed.soc().cycle()).samples) {
      const std::string name = m.component + "." + m.name;
      if (name == "mcds.encoded_bytes" || name == "mcds.dropped" ||
          name == "emem.pushed_messages" || name == "dap.bytes_drained") {
        eec_[name] += m.value;
      }
    }
  }

  /// Write every layer this pass measured into `out`. `untraced` is the
  /// untraced ns per simulated cycle of the same simulated work.
  void report(LayerReport& out, double untraced) const {
    const Calibration& p = cal_;
    const LoopLayers& l = loop;
    const double cycles = static_cast<double>(sim_cycles);
    const auto count = [](u64 n) { return static_cast<double>(n); };
    out.set("soc.step.calls", count(l.step.calls));
    out.set("soc.step.self_ns", l.step.self_ns(p));
    out.set("soc.loop.ns", l.loop.self_ns(p));
    out.set("soc.fast_window.calls", count(l.fast_window.calls));
    out.set("soc.fast_window.cycles", count(l.fast_window.cycles));
    out.set("soc.fast_window.ns_per_cycle",
            ratio(l.fast_window.self_ns(p), count(l.fast_window.cycles)));
    out.set("soc.fast_window.declined_calls", count(l.declined.calls));
    out.set("soc.fast_window.decline_ns", l.declined.self_ns(p));
    out.set("exec.fast_cycle_share", ratio(count(exec_.fast_cycles), cycles));
    u64 declines = 0;
    for (unsigned g = 0; g < soc::kNumFastGates; ++g) {
      declines += exec_.gates[g];
      out.set(std::string("exec.gate.") +
                  soc::to_string(static_cast<soc::FastGate>(g)),
              count(exec_.gates[g]));
    }
    for (unsigned b = 1; b < cpu::kNumFastBails; ++b) {
      declines += exec_.bails[b];
      out.set(std::string("exec.bail.") +
                  cpu::to_string(static_cast<cpu::FastBail>(b)),
              count(exec_.bails[b]));
    }
    out.set("exec.entry_yield",
            ratio(count(exec_.windows), count(exec_.windows + declines)));
    out.set("soc.skip_idle.calls", count(l.skip_idle.calls));
    out.set("soc.skip_idle.cycles", count(l.skip_idle.cycles));
    out.set("soc.skip_idle.ns", l.skip_idle.self_ns(p));
    out.set("ff.skipped_share", ratio(count(ff_skipped_), cycles));
    out.set("ff.wakeups", count(ff_wakeups_));
    out.set("ed.run.self_ns_per_cycle",
            ratio(l.eec_observe.self_ns(p) + l.eec_idle.self_ns(p), cycles));
    for (const auto& [name, value] : eec_) out.set(name, count(value));
    out.set("mcds.decode_ns", decode.self_ns(p));
    out.set("profiling.series_ns", series.self_ns(p));
    out.set("profiling.cpi.observe_ns", cpi_observe.self_ns(p));
    out.set("profiling.dag.observe_ns", dag_observe.self_ns(p));
    out.set("profiling.dag.analysis_ns", dag_analysis.self_ns(p));
    out.set("workload.build_ns", count(build_ns));
    out.set("soc.setup_ns", count(setup_ns));
    for (const auto& [name, value] : chip_) out.set(name, count(value));

    // Calibration: every layer of the traced pass, against the untraced
    // cost of the same simulated work.
    const Layer* layers[] = {&l.fast_window, &l.declined,  &l.step,
                             &l.loop,        &l.skip_idle, &l.eec_observe,
                             &l.eec_idle,    &decode,      &series,
                             &dag_analysis,  &cpi_observe, &dag_observe};
    double sum_ns = 0.0;
    for (const Layer* layer : layers) sum_ns += layer->self_ns(p);
    const double layer_sum = ratio(sum_ns, cycles);
    out.set("trace.sim_cycles", cycles);
    out.set("trace.overhead_ns_per_cycle",
            ratio(count(traced_ns), cycles) - untraced);
    out.set("calib.timer_pair_ns", p.pair_ticks * p.ns_per_tick);
    out.set("calib.layer_sum_ns_per_cycle", layer_sum);
    out.set("calib.untraced_ns_per_cycle", untraced);
    out.set("calib.layer_sum_gap", ratio(layer_sum - untraced, untraced));
  }

 private:
  Calibration cal_;
  soc::ExecTierStats exec_;
  u64 ff_skipped_ = 0;
  u64 ff_wakeups_ = 0;
  std::map<std::string, u64> chip_;
  std::map<std::string, u64> eec_;
};

/// Time `fn` into `ns` (a plain wall-clock span outside any layer).
template <typename Fn>
auto timed_ns(u64& ns, Fn&& fn) {
  const u64 t0 = now_ns();
  auto result = fn();
  ns += now_ns() - t0;
  return result;
}

// ---- engine_flash -------------------------------------------------------
//
// The paper's flash/bus-heavy engine application on a plain Soc, default
// tier, for a fixed simulated-cycle budget.

class EngineFlash final : public Workload {
 public:
  explicit EngineFlash(bool smoke) : cycles_(smoke ? 50'000 : 400'000) {}

  void reference(Checks& checks) override {
    const workload::EngineWorkload w = bench::default_engine();
    soc::Soc soc{reference_config()};
    install(soc, w);
    soc.run(cycles_);
    want_ = outcome_of(soc);
    want_digest_ = expected(digest(w, reference_config(), false));
    checks.expect(digest(w, soc::SocConfig{}, false) == want_digest_,
                  "engine_flash untimed pass: frame digest");
  }

  Rep run(Checks& checks) override {
    Rep rep;
    const Stopwatch setup;
    const workload::EngineWorkload w = bench::default_engine();
    soc::Soc soc{soc::SocConfig{}};
    install(soc, w);
    rep.setup_s = setup.cpu_s();
    const Stopwatch measured;
    rep.sim_cycles = soc.run(cycles_);
    rep.wall_s = measured.wall_s();
    rep.cpu_s = measured.cpu_s();
    expect_state(checks, outcome_of(soc), want_, "engine_flash");
    return rep;
  }

  void traced(Checks& checks, double untraced, const Calibration& calibration,
              LayerReport& out) override {
    checks.expect(digest(bench::default_engine(), soc::SocConfig{}, true) ==
                      want_digest_,
                  "engine_flash traced loop: frame digest");
    TracedPass pass(calibration);
    const workload::EngineWorkload w =
        timed_ns(pass.build_ns, [] { return bench::default_engine(); });
    auto soc = timed_ns(pass.setup_ns, [&] {
      auto s = std::make_unique<soc::Soc>(soc::SocConfig{});
      install(*s, w);
      return s;
    });
    pass.sim_cycles = timed_ns(pass.traced_ns, [&] {
      return traced_soc_run(*soc, cycles_, pass.clock, pass.loop);
    });
    pass.add_soc(*soc);
    expect_state(checks, outcome_of(*soc), want_, "engine_flash traced");
    pass.report(out, untraced);
  }


 private:
  static void install(soc::Soc& soc, const workload::EngineWorkload& w) {
    if (Status s = workload::install_engine(soc, w); !s.is_ok()) {
      die("engine install", s);
    }
  }

  u64 digest(const workload::EngineWorkload& w, const soc::SocConfig& config,
             bool traced_loop) const {
    soc::Soc soc{config};
    soc::WindowedFrameDigest digest;
    soc.add_frame_observer(&digest);
    install(soc, w);
    run_soc(soc, std::min(cycles_, kDigestCycles), traced_loop);
    return digest_of(digest);
  }

  u64 cycles_;
  Outcome want_;
  u64 want_digest_ = 0;
};

// ---- tcu_profile --------------------------------------------------------
//
// The §5 flow end to end: the transmission app under a full profiling
// session on the Emulation Device (standard rate groups, program-flow
// trace, CPI stacks, execution DAG), then trace download, decode, series
// extraction and DAG analysis.

class TcuProfile final : public Workload {
 public:
  explicit TcuProfile(bool smoke) : cycles_(smoke ? 100'000 : 1'000'000) {}

  void reference(Checks&) override {
    const workload::TransmissionWorkload w = build();
    profiling::ProfilingSession session(reference_config(), options(true));
    install(session, w);
    session.reset(w.tc_entry);
    const profiling::SessionResult r = session.run(cycles_);
    want_ = outcome_of(session.device().soc());
    want_messages_ = r.messages.size();
    want_hash_ = expected(message_hash(r.messages));
  }

  Rep run(Checks& checks) override {
    Rep rep;
    const Stopwatch setup;
    const workload::TransmissionWorkload w = build();
    profiling::ProfilingSession session(soc::SocConfig{}, options(true));
    install(session, w);
    session.reset(w.tc_entry);
    rep.setup_s = setup.cpu_s();
    const Stopwatch measured;
    const profiling::SessionResult r = session.run(cycles_);
    const profiling::DagAnalysis& analysis = session.dag()->analysis();
    rep.wall_s = measured.wall_s();
    rep.cpu_s = measured.cpu_s();
    rep.sim_cycles = r.cycles;
    checks.expect(!analysis.nodes.empty(), "tcu_profile: DAG has activations");
    expect_messages(checks, r.messages, "tcu_profile");
    return rep;
  }

  void traced(Checks& checks, double untraced, const Calibration& calibration,
              LayerReport& out) override {
    {
      const workload::TransmissionWorkload w = build();
      checks.expect(digest(w, soc::SocConfig{}, true) ==
                        digest(w, reference_config(), false),
                    "tcu_profile traced loop: frame digest");
    }
    TracedPass pass(calibration);
    const workload::TransmissionWorkload w =
        timed_ns(pass.build_ns, [] { return build(); });
    // The session's CPI and DAG observers, built here so they can be
    // wrapped; the stall counter group they need goes in as an extra
    // group, which yields the session's own group list.
    profiling::CpiStackBuilder cpi{isa::SymbolMap(w.program)};
    profiling::ExecutionDag dag{isa::SymbolMap(w.program)};
    TimedObserver timed_cpi(pass.clock, cpi, pass.cpi_observe);
    TimedObserver timed_dag(pass.clock, dag, pass.dag_observe);
    auto session = timed_ns(pass.setup_ns, [&] {
      auto s = std::make_unique<profiling::ProfilingSession>(soc::SocConfig{},
                                                             options(false));
      install(*s, w);
      s->device().soc().set_frame_observer(&timed_cpi);
      s->device().soc().add_frame_observer(&timed_dag);
      s->reset(w.tc_entry);
      return s;
    });
    ed::EmulationDevice& device = session->device();
    std::vector<mcds::TraceMessage> messages;
    std::vector<profiling::RateSeries> series;
    usize dag_nodes = 0;
    const u64 t0 = now_ns();
    pass.sim_cycles = traced_ed_run(device, cycles_, pass.clock, pass.loop);
    pass.clock.time(pass.decode, [&] {
      auto decoded = device.download_trace();
      if (!decoded.is_ok()) die("tcu_profile decode", decoded.status());
      messages = std::move(decoded).value();
      return u64{0};
    });
    pass.clock.time(pass.series, [&] {
      series = profiling::extract_series(session->groups(), messages);
      return u64{0};
    });
    pass.clock.time(pass.dag_analysis, [&] {
      dag_nodes = dag.analysis().nodes.size();
      return u64{0};
    });
    pass.traced_ns = now_ns() - t0;
    pass.add_device(device);
    expect_state(checks, outcome_of(device.soc()), want_, "tcu_profile traced");
    expect_messages(checks, messages, "tcu_profile traced");
    checks.expect(!series.empty() && dag_nodes != 0,
                  "tcu_profile traced: series and DAG produced");
    pass.report(out, untraced);
  }


 private:
  static workload::TransmissionWorkload build() {
    auto w = workload::build_transmission_workload({});
    if (!w.is_ok()) die("transmission build", w.status());
    return std::move(w).value();
  }

  /// The full session; with `in_session` false the CPI and DAG observers
  /// are left for the caller to attach.
  static profiling::SessionOptions options(bool in_session) {
    profiling::SessionOptions o;
    o.program_trace = true;
    if (in_session) {
      o.cpi_stacks = true;
      o.dag = true;
    } else {
      o.extra_groups.push_back(profiling::stall_root_group(o.resolution));
    }
    return o;
  }

  static void install(profiling::ProfilingSession& session,
                      const workload::TransmissionWorkload& w) {
    if (Status s = session.load(w.program); !s.is_ok()) die("tcu load", s);
    workload::configure_transmission(session.device().soc(), w.options);
  }

  u64 digest(const workload::TransmissionWorkload& w,
             const soc::SocConfig& config, bool traced_loop) const {
    profiling::ProfilingSession session(config, options(true));
    install(session, w);
    soc::WindowedFrameDigest digest;
    session.device().soc().add_frame_observer(&digest);
    session.reset(w.tc_entry);
    run_device(session.device(), std::min(cycles_, kDigestCycles), traced_loop);
    return digest_of(digest);
  }

  void expect_messages(Checks& checks,
                       const std::vector<mcds::TraceMessage>& messages,
                       const std::string& what) const {
    checks.expect(messages.size() == want_messages_,
                  what + ": MCDS message count");
    checks.expect(message_hash(messages) == want_hash_,
                  what + ": MCDS message hash");
  }

  u64 cycles_;
  Outcome want_;
  u64 want_messages_ = 0;
  u64 want_hash_ = 0;
};

// ---- e6_sweep -----------------------------------------------------------
//
// The §6 flow: rank the standard option catalogue over the kernel suite.

constexpr unsigned kPoolJobs = 2;

std::vector<optimize::WorkloadCase> kernel_cases() {
  std::vector<optimize::WorkloadCase> cases;
  for (const workload::KernelSpec& spec : workload::standard_suite()) {
    auto program = spec.build();
    if (!program.is_ok()) die(std::string("kernel ") + spec.name, program.status());
    optimize::WorkloadCase wc;
    wc.name = spec.name;
    wc.program = std::move(program).value();
    wc.tc_entry = wc.program.entry();
    cases.push_back(std::move(wc));
  }
  return cases;
}

/// Order-sensitive digest over every option's per-case results.
u64 sweep_checksum(const std::vector<optimize::OptionResult>& results) {
  u64 h = kFnvOffset;
  for (const optimize::OptionResult& r : results) {
    h = fnv1a(h, r.option);
    for (const optimize::CaseRun& run : r.runs) {
      h = fnv1a(h, run.cycles);
      h = fnv1a(h, run.instructions);
      h = fnv1a(h, run.halted ? 1 : 0);
    }
  }
  return h;
}

std::string ranking_of(const std::vector<optimize::OptionResult>& results) {
  std::string ranking;
  for (const optimize::OptionResult& r : results) ranking += r.option + " ";
  return ranking;
}

class E6Sweep final : public Workload {
 public:
  explicit E6Sweep(bool smoke) : catalogue_(optimize::standard_catalogue()) {
    if (smoke) catalogue_.resize(2);
  }

  unsigned threads() const override { return kPoolJobs; }

  void reference(Checks&) override {
    optimize::ArchitectureEvaluator evaluator{reference_config()};
    evaluator.set_warm_fork(false);
    evaluator.set_jobs(kPoolJobs);
    for (optimize::WorkloadCase& wc : kernel_cases()) {
      evaluator.add_case(std::move(wc));
    }
    const auto results = evaluator.evaluate(catalogue_);
    want_checksum_ = expected(sweep_checksum(results));
    want_ranking_ = ranking_of(results);
    // The baseline runs, which evaluate() does not return: their cycles
    // count toward the sweep's simulated work, and their end states check
    // the traced replay.
    for (const optimize::WorkloadCase& wc : kernel_cases()) {
      soc::Soc soc{reference_config()};
      load(soc, wc);
      soc.run(wc.max_cycles);
      want_base_.push_back(outcome_of(soc));
      base_cycles_ += soc.cycle();
    }
  }

  Rep run(Checks& checks) override {
    Rep rep;
    const Stopwatch setup;
    optimize::ArchitectureEvaluator evaluator = make_evaluator();
    rep.setup_s = setup.cpu_s();
    const Stopwatch measured;
    const auto results = evaluator.evaluate(catalogue_);
    rep.wall_s = measured.wall_s();
    rep.cpu_s = measured.cpu_s();
    rep.sim_cycles = base_cycles_ + cycles_of(results);
    expect_results(checks, results, "e6_sweep");
    return rep;
  }

  void traced(Checks& checks, double, const Calibration& calibration,
              LayerReport& out) override {
    TracedPass pass(calibration);
    std::vector<optimize::WorkloadCase> cases =
        timed_ns(pass.build_ns, [] { return kernel_cases(); });
    optimize::ArchitectureEvaluator evaluator =
        timed_ns(pass.setup_ns, [&] { return make_evaluator(); });
    u64 evaluate_ns = 0;
    const Stopwatch pool;
    const auto results =
        timed_ns(evaluate_ns, [&] { return evaluator.evaluate(catalogue_); });
    const double utilisation = ratio(pool.cpu_s(), pool.wall_s() * kPoolJobs);
    expect_results(checks, results, "e6_sweep traced");

    // Layer split: the baseline cases replayed through the traced loop,
    // after a digest check of that loop and an untraced twin of the same
    // runs for the calibration.
    for (const optimize::WorkloadCase& wc : cases) {
      checks.expect(digest(wc, soc::SocConfig{}, true) ==
                        digest(wc, reference_config(), false),
                    "e6_sweep traced loop " + wc.name + ": frame digest");
    }
    double twin_cpu_s = 0.0;
    u64 twin_cycles = 0;
    for (const optimize::WorkloadCase& wc : cases) {
      soc::Soc soc{soc::SocConfig{}};
      load(soc, wc);
      const Stopwatch twin;
      soc.run(wc.max_cycles);
      twin_cpu_s += twin.cpu_s();
      twin_cycles += soc.cycle();
    }
    for (usize k = 0; k < cases.size(); ++k) {
      const optimize::WorkloadCase& wc = cases[k];
      auto soc = timed_ns(pass.setup_ns, [&] {
        auto s = std::make_unique<soc::Soc>(soc::SocConfig{});
        load(*s, wc);
        return s;
      });
      pass.sim_cycles += timed_ns(pass.traced_ns, [&] {
        return traced_soc_run(*soc, wc.max_cycles, pass.clock, pass.loop);
      });
      pass.add_soc(*soc);
      expect_state(checks, outcome_of(*soc), want_base_[k],
                   "e6_sweep traced " + wc.name);
    }
    pass.report(out, ratio(1e9 * twin_cpu_s, static_cast<double>(twin_cycles)));
    const optimize::ArchitectureEvaluator::BootCacheStats boot =
        evaluator.boot_cache_stats();
    out.set("optimize.evaluate_ns", static_cast<double>(evaluate_ns));
    out.set("optimize.boot_cache.hits", static_cast<double>(boot.hits));
    out.set("optimize.boot_cache.misses", static_cast<double>(boot.misses));
    out.set("host.pool.utilisation", utilisation);
  }


 private:
  /// Per-case prefix the traced-loop digest check covers.
  static constexpr u64 kCaseDigestCycles = kDigestCycles / 4;

  static void load(soc::Soc& soc, const optimize::WorkloadCase& wc) {
    if (Status s = soc.load(wc.program); !s.is_ok()) die("kernel load", s);
    soc.reset(wc.tc_entry, wc.pcp_entry);
  }

  static u64 digest(const optimize::WorkloadCase& wc,
                    const soc::SocConfig& config, bool traced_loop) {
    soc::Soc soc{config};
    soc::WindowedFrameDigest digest;
    soc.add_frame_observer(&digest);
    load(soc, wc);
    run_soc(soc, kCaseDigestCycles, traced_loop);
    return digest_of(digest);
  }

  static optimize::ArchitectureEvaluator make_evaluator() {
    optimize::ArchitectureEvaluator evaluator{soc::SocConfig{}};
    evaluator.set_jobs(kPoolJobs);
    for (optimize::WorkloadCase& wc : kernel_cases()) {
      evaluator.add_case(std::move(wc));
    }
    return evaluator;
  }

  static u64 cycles_of(const std::vector<optimize::OptionResult>& results) {
    u64 cycles = 0;
    for (const optimize::OptionResult& r : results) {
      for (const optimize::CaseRun& run : r.runs) cycles += run.cycles;
    }
    return cycles;
  }

  void expect_results(Checks& checks,
                      const std::vector<optimize::OptionResult>& results,
                      const std::string& what) const {
    checks.expect(sweep_checksum(results) == want_checksum_,
                  what + ": sweep checksum");
    checks.expect(ranking_of(results) == want_ranking_, what + ": ranking");
  }

  std::vector<optimize::ArchOption> catalogue_;
  u64 want_checksum_ = 0;
  std::string want_ranking_;
  std::vector<Outcome> want_base_;
  u64 base_cycles_ = 0;
};

// ---- faultcamp_idle -----------------------------------------------------
//
// A seeded fault campaign on the event-driven engine (WFI between
// interrupts, halts after two revolutions), warm-forked, on the pool.

class FaultcampIdle final : public Workload {
 public:
  FaultcampIdle(u64 seed, bool smoke)
      : seed_(seed), scenarios_(smoke ? 8 : 256) {}

  unsigned threads() const override { return kPoolJobs; }

  void reference(Checks&) override {
    optimize::FaultCampaign campaign{reference_config(), make_case()};
    campaign.set_jobs(kPoolJobs);
    want_hash_ = expected(
        campaign.run(campaign.make_scenarios(seed_, scenarios_))
            .classification_hash());
  }

  Rep run(Checks& checks) override {
    Rep rep;
    const Stopwatch setup;
    optimize::FaultCampaign campaign{soc::SocConfig{}, make_case()};
    campaign.set_jobs(kPoolJobs);
    const auto scenarios = campaign.make_scenarios(seed_, scenarios_);
    campaign.prepare_warm_fork(scenarios);
    rep.setup_s = setup.cpu_s();
    const Stopwatch measured;
    const optimize::CampaignSummary summary = campaign.run(scenarios);
    rep.wall_s = measured.wall_s();
    rep.cpu_s = measured.cpu_s();
    rep.sim_cycles = cycles_of(summary);
    checks.expect(summary.classification_hash() == want_hash_,
                  "faultcamp_idle: classification hash");
    return rep;
  }

  void traced(Checks& checks, double, const Calibration& calibration,
              LayerReport& out) override {
    TracedPass pass(calibration);
    const optimize::WorkloadCase wc =
        timed_ns(pass.build_ns, [] { return make_case(); });
    optimize::FaultCampaign campaign{soc::SocConfig{}, wc};
    campaign.set_jobs(kPoolJobs);
    const auto scenarios = campaign.make_scenarios(seed_, scenarios_);
    u64 prepare_ns = 0;
    timed_ns(prepare_ns, [&] { return campaign.prepare_warm_fork(scenarios); });
    u64 run_ns = 0;
    const Stopwatch pool;
    const optimize::CampaignSummary summary =
        timed_ns(run_ns, [&] { return campaign.run(scenarios); });
    const double utilisation = ratio(pool.cpu_s(), pool.wall_s() * kPoolJobs);
    checks.expect(summary.classification_hash() == want_hash_,
                  "faultcamp_idle traced: classification hash");

    // Layer split: every scenario replayed cold through the traced loop,
    // after a digest check of that loop on the first scenarios and an
    // untraced twin of the same runs, which also gives the end states
    // the traced replays must reproduce.
    const u64 budget = campaign.budget_cycles();
    for (usize i = 0; i < std::min<usize>(kDigestScenarios, scenarios.size()); ++i) {
      checks.expect(digest(wc, scenarios[i], soc::SocConfig{}, true) ==
                        digest(wc, scenarios[i], reference_config(), false),
                    "faultcamp_idle traced loop " + scenarios[i].name +
                        ": frame digest");
    }
    double twin_cpu_s = 0.0;
    u64 twin_cycles = 0;
    std::vector<Outcome> twins;
    for (const optimize::FaultScenario& sc : scenarios) {
      Replay twin(wc, sc, soc::SocConfig{});
      const Stopwatch clock;
      twin.soc->run(budget);
      twin_cpu_s += clock.cpu_s();
      twin_cycles += twin.soc->cycle();
      twins.push_back(outcome_of(*twin.soc));
    }
    for (usize i = 0; i < scenarios.size(); ++i) {
      const optimize::FaultScenario& sc = scenarios[i];
      std::unique_ptr<TimedObserver> timed_dag;
      auto replay = timed_ns(pass.setup_ns, [&] {
        auto r = std::make_unique<Replay>(wc, sc, soc::SocConfig{});
        if (r->dag != nullptr) {
          timed_dag = std::make_unique<TimedObserver>(pass.clock, *r->dag,
                                                      pass.dag_observe);
          r->soc->set_frame_observer(timed_dag.get());
        }
        return r;
      });
      pass.sim_cycles += timed_ns(pass.traced_ns, [&] {
        return traced_soc_run(*replay->soc, budget, pass.clock, pass.loop);
      });
      pass.add_soc(*replay->soc);
      const std::string what = "faultcamp_idle traced " + sc.name;
      expect_state(checks, outcome_of(*replay->soc), twins[i], what);
      const optimize::ScenarioResult& run = summary.runs[i];
      checks.expect(run.cycles == replay->soc->cycle() &&
                        run.halted == replay->soc->tc().halted() &&
                        run.injected == replay->injected(),
                    what + ": matches the campaign's run");
    }
    pass.report(out, ratio(1e9 * twin_cpu_s, static_cast<double>(twin_cycles)));
    u64 injected = 0;
    for (const optimize::ScenarioResult& r : summary.runs) {
      for (const u64 n : r.injected) injected += n;
    }
    out.set("optimize.warm_fork.prepare_ns", static_cast<double>(prepare_ns));
    out.set("optimize.campaign.run_ns", static_cast<double>(run_ns));
    out.set("host.pool.utilisation", utilisation);
    out.set("fault.events_injected", static_cast<double>(injected));
    for (unsigned o = 0; o < optimize::kNumFaultOutcomes; ++o) {
      out.set(std::string("fault.outcome.") +
                  optimize::to_string(static_cast<optimize::FaultOutcome>(o)),
              static_cast<double>(summary.outcome_counts[o]));
    }
  }


 private:
  /// Scenarios whose traced-loop digest is checked, on a prefix of half
  /// kDigestCycles (the fast-forward-off reference steps every cycle).
  static constexpr usize kDigestScenarios = 4;

  /// One scenario on a cold-booted Soc, set up as the campaign sets up
  /// each run (the injector outlives the Soc; the DAG rides along when
  /// the plan has events).
  struct Replay {
    Replay(const optimize::WorkloadCase& wc, const optimize::FaultScenario& sc,
           soc::SocConfig config)
        : injector(sc.plan) {
      config.safety = sc.safety;
      soc = std::make_unique<soc::Soc>(config);
      if (Status s = soc->load(wc.program); !s.is_ok()) die("engine load", s);
      wc.configure(*soc);
      if (!sc.plan.events.empty()) {
        dag = std::make_unique<profiling::ExecutionDag>(isa::SymbolMap(wc.program));
        soc->add_frame_observer(dag.get());
      }
      soc->set_fault_injector(&injector);
      soc->reset(wc.tc_entry, wc.pcp_entry);
    }

    std::array<u64, fault::kNumFaultKinds> injected() const {
      std::array<u64, fault::kNumFaultKinds> n{};
      for (unsigned k = 0; k < fault::kNumFaultKinds; ++k) {
        n[k] = injector.injected(static_cast<fault::FaultKind>(k));
      }
      return n;
    }

    fault::FaultInjector injector;  // declared first: outlives the Soc
    std::unique_ptr<profiling::ExecutionDag> dag;
    std::unique_ptr<soc::Soc> soc;
  };

  static u64 digest(const optimize::WorkloadCase& wc,
                    const optimize::FaultScenario& sc,
                    const soc::SocConfig& config, bool traced_loop) {
    Replay replay(wc, sc, config);
    soc::WindowedFrameDigest digest;
    replay.soc->add_frame_observer(&digest);
    run_soc(*replay.soc, kDigestCycles / 2, traced_loop);
    return digest_of(digest);
  }

  static optimize::WorkloadCase make_case() {
    workload::EngineOptions opt;
    opt.idle_background = true;
    opt.halt_after_revs = 2;
    auto w = workload::build_engine_workload(opt);
    if (!w.is_ok()) die("engine build", w.status());
    optimize::WorkloadCase wc;
    wc.name = "engine_idle";
    wc.program = w.value().program;
    wc.tc_entry = w.value().tc_entry;
    wc.pcp_entry = w.value().pcp_entry;
    wc.configure = [options = w.value().options](soc::Soc& soc) {
      workload::configure_engine(soc, options);
    };
    wc.max_cycles = 400'000;
    return wc;
  }

  static u64 cycles_of(const optimize::CampaignSummary& summary) {
    u64 cycles = summary.golden.cycles;
    for (const optimize::ScenarioResult& r : summary.runs) cycles += r.cycles;
    return cycles;
  }

  u64 seed_;
  unsigned scenarios_;
  u64 want_hash_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, u64 seed,
                                        bool smoke) {
  if (name == "engine_flash") return std::make_unique<EngineFlash>(smoke);
  if (name == "tcu_profile") return std::make_unique<TcuProfile>(smoke);
  if (name == "e6_sweep") return std::make_unique<E6Sweep>(smoke);
  if (name == "faultcamp_idle") return std::make_unique<FaultcampIdle>(seed, smoke);
  return nullptr;
}

}  // namespace perfbench
