// Host telemetry layer: metrics registry, timeline/Perfetto export, host
// self-profiler, run reports — and the property the whole design hangs
// on: attaching telemetry must not change the simulation by one cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bits.hpp"
#include "common/json.hpp"
#include "ed/emulation_device.hpp"
#include "helpers.hpp"
#include "profiling/cpi_stack.hpp"
#include "soc/presets.hpp"
#include "soc/tracer.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/timeline.hpp"
#include "workload/engine.hpp"

namespace audo {
namespace {

workload::EngineWorkload engine_workload() {
  workload::EngineOptions opt;
  opt.crank_time_scale = 100;
  auto w = workload::build_engine_workload(opt);
  EXPECT_TRUE(w.is_ok()) << w.status().to_string();
  return std::move(w).value();
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, CountersAndGaugesCollectLiveValues) {
  u64 retired = 41;
  telemetry::MetricsRegistry registry;
  registry.counter("tc", "retired", &retired);
  registry.gauge("emem", "occupancy_bytes", [] { return u64{512}; });
  ASSERT_EQ(registry.size(), 2u);

  retired = 42;  // collect() must read the live value, not a copy
  const telemetry::MetricsSnapshot snap = registry.collect(1000);
  EXPECT_EQ(snap.sim_cycle, 1000u);
  EXPECT_GT(snap.host_ns, 0u);
  ASSERT_EQ(snap.samples.size(), 2u);
  const telemetry::MetricSample* s = snap.find("tc", "retired");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 42u);
  s = snap.find("emem", "occupancy_bytes");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 512u);
  EXPECT_EQ(snap.find("tc", "nonexistent"), nullptr);
  EXPECT_EQ(snap.component_count(), 2u);
}

TEST(MetricsRegistry, SocRegistersAllMajorComponents) {
  soc::Soc soc(test::small_config());
  telemetry::MetricsRegistry registry;
  soc.register_metrics(registry);
  const telemetry::MetricsSnapshot snap = registry.collect(0);
  // The ISSUE floor is eight instrumented components; the plain SoC alone
  // (no EEC side) already exceeds it.
  EXPECT_GE(snap.component_count(), 8u);
  for (const char* component :
       {"tc", "icache", "dcache", "pflash", "sri", "irq", "dma"}) {
    bool found = false;
    for (const auto& s : snap.samples) found |= s.component == component;
    EXPECT_TRUE(found) << "component missing: " << component;
  }
}

TEST(MetricsRegistry, SnapshotsAreDeterministicAcrossIdenticalRuns) {
  auto run_once = [](telemetry::MetricsSnapshot& out) {
    auto w = engine_workload();
    soc::Soc soc(test::small_config());
    ASSERT_TRUE(workload::install_engine(soc, w).is_ok());
    telemetry::MetricsRegistry registry;
    soc.register_metrics(registry);
    soc.run(150'000);
    out = registry.collect(soc.cycle());
  };
  telemetry::MetricsSnapshot a, b;
  run_once(a);
  run_once(b);
  EXPECT_EQ(a.sim_cycle, b.sim_cycle);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (usize i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].component, b.samples[i].component);
    EXPECT_EQ(a.samples[i].name, b.samples[i].name);
    EXPECT_EQ(a.samples[i].value, b.samples[i].value)
        << a.samples[i].component << "/" << a.samples[i].name;
  }
}

// ---------------------------------------------------------------------
// Non-intrusiveness: the acceptance property
// ---------------------------------------------------------------------

TEST(Telemetry, AttachingTelemetryDoesNotPerturbTheSimulation) {
  auto w = engine_workload();

  soc::Soc bare(test::small_config());
  ASSERT_TRUE(workload::install_engine(bare, w).is_ok());
  bare.run(200'000);

  soc::Soc observed(test::small_config());
  ASSERT_TRUE(workload::install_engine(observed, w).is_ok());
  telemetry::MetricsRegistry registry;
  observed.register_metrics(registry);
  soc::SocTracer tracer;
  observed.set_tracer(&tracer);
  telemetry::HostProfiler host;
  observed.set_phase_probe(&host.probe());
  host.start(observed.cycle());
  observed.run(200'000);
  host.stop(observed.cycle());
  tracer.finish(observed.cycle());

  // Bit-identical simulated state: same cycle count, same retired
  // instructions, same architectural registers.
  EXPECT_EQ(bare.cycle(), observed.cycle());
  EXPECT_EQ(bare.tc().retired(), observed.tc().retired());
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(bare.tc().d(i), observed.tc().d(i)) << "d" << i;
    EXPECT_EQ(bare.tc().a(i), observed.tc().a(i)) << "a" << i;
  }
  // ...and the observers actually observed something.
  EXPECT_GT(tracer.timeline().event_count(), 0u);
  EXPECT_GT(host.sim_cycles_per_second(), 0.0);
}

// ---------------------------------------------------------------------
// Timeline + Chrome JSON export
// ---------------------------------------------------------------------

// Walk a chrome trace document; returns the traceEvents array.
const json::JsonValue& trace_events(const json::JsonValue& doc) {
  EXPECT_TRUE(doc.is_object());
  const json::JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  return *events;
}

TEST(Timeline, ChromeJsonIsValidAndWellFormed) {
  telemetry::Timeline tl;
  const auto t0 = tl.add_track("track0");
  const auto t1 = tl.add_track("track1");
  tl.begin(t0, "outer", 10);
  tl.begin(t0, "inner", 20);
  tl.end(t0, 30);
  tl.end(t0, 40);
  tl.complete(t1, "xact", 15, 25);
  tl.instant(t1, "ping", 50);
  tl.counter("fill", 60, 123.5);

  auto doc = json::json_parse(tl.to_chrome_json(100'000'000));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue& events = trace_events(doc.value());

  usize b = 0, e = 0, x = 0, i = 0, c = 0, m = 0;
  for (const auto& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    const json::JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string& kind = ph->string;
    if (kind == "B") ++b;
    else if (kind == "E") ++e;
    else if (kind == "X") ++x;
    else if (kind == "i") ++i;
    else if (kind == "C") ++c;
    else if (kind == "M") ++m;
    else FAIL() << "unexpected ph: " << kind;
    if (kind != "M") {
      ASSERT_NE(ev.find("ts"), nullptr);
      EXPECT_TRUE(ev.find("ts")->is_number());
    }
  }
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(e, 2u);
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(i, 1u);
  EXPECT_EQ(c, 1u);
  EXPECT_GE(m, 2u);  // at least process_name + one thread_name

  // Cycle -> microsecond conversion at 100 MHz: cycle 10 = 0.1 us.
  for (const auto& ev : events.array) {
    if (ev.find("ph")->string == "B" && ev.find("name")->string == "outer") {
      EXPECT_DOUBLE_EQ(ev.find("ts")->number, 0.1);
    }
  }
}

TEST(Timeline, BoundsEventCountAndCountsDrops) {
  telemetry::TimelineOptions opt;
  opt.max_events = 10;
  telemetry::Timeline tl(opt);
  const auto t = tl.add_track("t");
  for (Cycle at = 0; at < 100; ++at) tl.instant(t, "e", at);
  EXPECT_LE(tl.event_count(), 10u);
  EXPECT_EQ(tl.dropped_events(), 90u);
}

TEST(Timeline, WindowFiltersEventsOutsideRange) {
  telemetry::TimelineOptions opt;
  opt.start_cycle = 100;
  opt.end_cycle = 200;
  telemetry::Timeline tl(opt);
  const auto t = tl.add_track("t");
  tl.instant(t, "before", 50);
  tl.instant(t, "in", 150);
  tl.instant(t, "after", 250);
  EXPECT_EQ(tl.event_count(), 1u);
}

// ---------------------------------------------------------------------
// SocTracer end-to-end: a real run exports an openable Perfetto trace
// ---------------------------------------------------------------------

TEST(SocTracer, EngineRunExportsBalancedNestedSpans) {
  auto w = engine_workload();
  mcds::McdsConfig mcds_cfg;
  mcds_cfg.irq_trace = true;
  ed::EmulationDevice ed(test::small_config(), mcds_cfg, ed::EdConfig{});
  ASSERT_TRUE(ed.load(w.program).is_ok());
  workload::configure_engine(ed.soc(), w.options);
  ed.reset(w.tc_entry, w.pcp_entry);

  soc::SocTracer tracer;
  ed.soc().set_tracer(&tracer);
  ed.run(200'000);
  tracer.finish(ed.soc().cycle());

  EXPECT_GE(tracer.timeline().track_count(), 4u);
  auto doc = json::json_parse(
      tracer.timeline().to_chrome_json(ed.soc().config().clock_hz));
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue& events = trace_events(doc.value());
  EXPECT_GT(events.array.size(), 100u);

  // Per-track invariants over B/E duration events: timestamps are
  // monotonic, spans balance, and nesting never goes negative.
  std::map<double, int> depth;          // tid -> open span depth
  std::map<double, double> last_ts;     // tid -> last B/E ts
  std::set<double> tids;
  for (const auto& ev : events.array) {
    const std::string& ph = ev.find("ph")->string;
    if (ph == "M") continue;
    const double tid = ev.find("tid")->number;
    tids.insert(tid);
    if (ph != "B" && ph != "E") continue;
    const double ts = ev.find("ts")->number;
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "non-monotonic ts on tid " << tid;
    }
    last_ts[tid] = ts;
    depth[tid] += ph == "B" ? 1 : -1;
    EXPECT_GE(depth[tid], 0) << "E without matching B on tid " << tid;
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
  // X transactions carry non-negative durations.
  for (const auto& ev : events.array) {
    if (ev.find("ph")->string != "X") continue;
    ASSERT_NE(ev.find("dur"), nullptr);
    EXPECT_GT(ev.find("dur")->number, 0.0);
  }
  EXPECT_GE(tids.size(), 4u);
}

TEST(SocTracer, TraceIdenticalAcrossHostModes) {
  // The idle engine parks in WFI between crank teeth, so fast-forward
  // skips most of its cycles and windows run much of the rest. The trace
  // must not show how the cycles ran: every host mode exports the same
  // bytes, on a plain Soc and on the ED, whose sink adds the EEC track.
  // At the shorter crank time scales one idle skip spans several sample
  // points, whose SoC and EEC samples stepping interleaves.
  for (const u32 scale : {100u, 50u, 20u}) {
    SCOPED_TRACE(testing::Message() << "crank_time_scale " << scale);
    workload::EngineOptions opt;
    opt.crank_time_scale = scale;
    opt.idle_background = true;
    auto built = workload::build_engine_workload(opt);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    const workload::EngineWorkload& w = built.value();
    constexpr u64 kCycles = 120'000;
    using Tier = soc::SocConfig::ExecTier;

    struct Trace {
      usize bytes = 0;
      u64 hash = 0;
      usize events = 0;
    };
    // A CPI observer rides along. `tracer_first` attaches the tracer before
    // it, so set_frame_observer() must keep the tracer.
    const auto trace = [&](bool on_ed, Tier tier, bool fast_forward,
                           bool tracer_first) {
      soc::SocConfig chip = test::small_config();
      chip.exec_tier = tier;
      chip.fast_forward = fast_forward;
      soc::SocTracer tracer;
      profiling::CpiStackBuilder cpi{isa::SymbolMap(w.program)};
      const auto attach = [&](soc::Soc& soc) {
        if (tracer_first) soc.set_tracer(&tracer);
        soc.set_frame_observer(&cpi);
        if (!tracer_first) soc.set_tracer(&tracer);
      };
      Cycle end = 0;
      if (on_ed) {
        mcds::McdsConfig mcds_cfg;
        mcds_cfg.program_trace = true;
        mcds_cfg.irq_trace = true;
        ed::EmulationDevice ed(chip, mcds_cfg, ed::EdConfig{});
        EXPECT_TRUE(ed.load(w.program).is_ok());
        workload::configure_engine(ed.soc(), w.options);
        ed.reset(w.tc_entry, w.pcp_entry);
        attach(ed.soc());
        ed.run(kCycles);
        end = ed.soc().cycle();
      } else {
        soc::Soc soc(chip);
        EXPECT_TRUE(workload::install_engine(soc, w).is_ok());
        attach(soc);
        soc.run(kCycles);
        end = soc.cycle();
      }
      tracer.finish(end);
      const std::string json = tracer.timeline().to_chrome_json(chip.clock_hz);
      return Trace{json.size(), fnv1a(kFnvOffset, json),
                   tracer.timeline().event_count()};
    };

    for (const bool on_ed : {false, true}) {
      const Trace reference = trace(on_ed, Tier::kAccurate, false, false);
      EXPECT_GT(reference.events, 1000u);
      for (const Tier tier : {Tier::kAccurate, Tier::kSuperblock}) {
        for (const bool fast_forward : {true, false}) {
          if (tier == Tier::kAccurate && !fast_forward) continue;
          SCOPED_TRACE(testing::Message()
                       << (on_ed ? "ED, " : "Soc, ")
                       << (tier == Tier::kAccurate ? "accurate" : "superblock")
                       << (fast_forward ? ", ff on" : ", ff off"));
          const bool tracer_first =
              !on_ed && tier == Tier::kSuperblock && fast_forward;
          const Trace t = trace(on_ed, tier, fast_forward, tracer_first);
          EXPECT_EQ(t.bytes, reference.bytes);
          EXPECT_EQ(t.hash, reference.hash);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Host self-profiler
// ---------------------------------------------------------------------

TEST(HostProfiler, MeasuresThroughputAndPhaseBreakdown) {
  auto w = engine_workload();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(workload::install_engine(soc, w).is_ok());
  telemetry::HostProfiler host;
  soc.set_phase_probe(&host.probe());
  host.start(soc.cycle());
  soc.run(100'000);
  host.stop(soc.cycle());

  EXPECT_TRUE(host.stopped());
  EXPECT_EQ(host.sim_cycles(), 100'000u);
  EXPECT_GT(host.wall_seconds(), 0.0);
  EXPECT_GT(host.sim_cycles_per_second(), 0.0);
  EXPECT_GT(host.probe().instrumented_cycles(), 0u);
  // The SoC phases were all visited; their fractions sum to ~1.
  double total = 0.0;
  for (unsigned p = 0; p < static_cast<unsigned>(telemetry::StepPhase::kMcds);
       ++p) {
    const auto phase = static_cast<telemetry::StepPhase>(p);
    EXPECT_GT(host.probe().stat(phase).samples, 0u)
        << telemetry::to_string(phase);
    total += host.probe().fraction(phase);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// RunReport JSON
// ---------------------------------------------------------------------

// Every report producer fills its run block through one Soc call. Under
// the default tier, windows, stepping and fast-forward account for every
// cycle, as each core's stall buckets do; a second fill changes nothing.
TEST(RunReport, SocFillsTheRunBlockForEveryCycle) {
  for (const bool idle : {false, true}) {
    SCOPED_TRACE(idle ? "idle background" : "busy background");
    workload::EngineOptions opt;
    opt.crank_time_scale = 100;
    opt.idle_background = idle;
    auto w = workload::build_engine_workload(opt);
    ASSERT_TRUE(w.is_ok()) << w.status().to_string();
    soc::Soc soc(soc::SocConfig{});
    ASSERT_TRUE(workload::install_engine(soc, w.value()).is_ok());
    soc.run(200'000);

    telemetry::RunReport report;
    soc.fill_run_report(report);
    EXPECT_EQ(report.cycles, soc.cycle());
    EXPECT_EQ(report.instructions, soc.tc().retired());
    EXPECT_EQ(report.exec_tier.tier, "superblock");
    EXPECT_GT(report.exec_tier.fast_cycles, 0u);
    EXPECT_EQ(report.exec_tier.fast_cycles + report.exec_tier.stepped_cycles +
                  report.ff_skipped_cycles,
              report.cycles);
    EXPECT_EQ(report.ff_skipped_cycles > 0, idle);
    u64 woken = 0;
    for (const auto& [source, count] : report.ff_wake_sources) woken += count;
    EXPECT_EQ(woken, report.ff_wakeups);
    EXPECT_TRUE(std::is_sorted(
        report.exec_tier.declines.begin(), report.exec_tier.declines.end(),
        [](const auto& a, const auto& b) { return a.second > b.second; }));
    ASSERT_EQ(report.stall_attribution.size(), 2u);  // tc, pcp
    for (const auto& block : report.stall_attribution) {
      u64 cycles = 0;
      for (const auto& [bucket, count] : block.buckets) cycles += count;
      EXPECT_EQ(cycles, report.cycles) << block.core;
    }

    const std::string once = report.to_json();
    soc.fill_run_report(report);
    EXPECT_EQ(report.to_json(), once);
  }
}

TEST(RunReport, JsonHasTheDocumentedShape) {
  u64 counter = 7;
  telemetry::MetricsRegistry registry;
  registry.counter("tc", "retired", &counter);
  registry.counter("tc", "stall.total", &counter);
  registry.counter("sri", "grants", &counter);

  telemetry::RunReport report;
  report.bench = "unit";
  report.config_name = "small";
  report.config_fingerprint = 0xDEADBEEF;
  report.cycles = 1234;
  report.instructions = 1000;
  report.sim_ipc = 0.81;
  report.metrics = registry.collect(1234);
  report.add_extra("answer", 42.0);

  auto doc = json::json_parse(report.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  const json::JsonValue& v = doc.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("schema")->string, "trisim-run-report/1");
  EXPECT_EQ(v.find("bench")->string, "unit");
  EXPECT_DOUBLE_EQ(v.find("config")->find("fingerprint")->number,
                   static_cast<double>(0xDEADBEEF));
  EXPECT_DOUBLE_EQ(v.find("run")->find("cycles")->number, 1234.0);
  const json::JsonValue* components = v.find("metrics")->find("components");
  ASSERT_NE(components, nullptr);
  EXPECT_EQ(components->object.size(), 2u);  // tc, sri
  EXPECT_DOUBLE_EQ(
      components->find("tc")->find("retired")->number, 7.0);
  EXPECT_DOUBLE_EQ(v.find("extras")->find("answer")->number, 42.0);
  ASSERT_NE(v.find("host"), nullptr);
  ASSERT_NE(v.find("host")->find("phases"), nullptr);
}

// ---------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------

TEST(SocConfig, FingerprintIsStableAndSensitive) {
  const soc::SocConfig a;
  const soc::SocConfig b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  soc::SocConfig c;
  c.pflash.wait_states += 1;
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  soc::SocConfig d;
  d.dcache.enabled = !d.dcache.enabled;
  EXPECT_NE(a.fingerprint(), d.fingerprint());

  soc::SocConfig e;
  e.name = "other";
  EXPECT_NE(a.fingerprint(), e.fingerprint());
}

// Journal headers, goldens and run reports store these hashes, so a
// change to how the fingerprint folds the knobs must not move them. The
// host knobs (fast_forward, exec_tier) are left out of the fold.
TEST(SocConfig, FingerprintsArePinned) {
  EXPECT_EQ(soc::SocConfig{}.fingerprint(), 9581216573188400823u);
  EXPECT_EQ(soc::tc1767_like().fingerprint(), 4263956894648783236u);
  EXPECT_EQ(soc::tc1796_like().fingerprint(), 7180883162160232891u);

  soc::SocConfig safety;
  safety.safety.ecc_sram = false;
  safety.safety.reactions[static_cast<unsigned>(fault::AlarmKind::kBusError)] =
      fault::Reaction::kIrq;
  safety.safety
      .reactions[static_cast<unsigned>(fault::AlarmKind::kWatchdogTimeout)] =
      fault::Reaction::kHaltCore;
  EXPECT_EQ(safety.fingerprint(), 8478887207153569684u);
  safety.fast_forward = false;
  safety.exec_tier = soc::SocConfig::ExecTier::kAccurate;
  EXPECT_EQ(safety.fingerprint(), 8478887207153569684u);
}

}  // namespace
}  // namespace audo
