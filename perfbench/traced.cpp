#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

using namespace audo;

Calibration calibrate() {
  Calibration c;
  const u64 ns0 = now_ns();
  const u64 tick0 = ticks();
  u64 ns1 = ns0;
  while (ns1 - ns0 < 20'000'000) ns1 = now_ns();
  c.ns_per_tick = static_cast<double>(ns1 - ns0) /
                  static_cast<double>(ticks() - tick0);

  constexpr unsigned kBatches = 31;
  constexpr unsigned kPairs = 20'000;
  std::vector<double> per_pair;
  per_pair.reserve(kBatches);
  for (unsigned b = 0; b < kBatches; ++b) {
    u64 sum = 0;
    for (unsigned i = 0; i < kPairs; ++i) {
      const u64 t0 = ticks();
      sum += ticks() - t0;
    }
    per_pair.push_back(static_cast<double>(sum) / kPairs);
  }
  std::nth_element(per_pair.begin(), per_pair.begin() + kBatches / 2,
                   per_pair.end());
  c.pair_ticks = per_pair[kBatches / 2];
  return c;
}

u64 traced_soc_run(soc::Soc& soc, u64 max_cycles, SpanClock& clock,
                   LoopLayers& l) {
  const u64 budget =
      max_cycles == 0 ? soc::Soc::kDefaultRunBudget
                      : std::min(max_cycles, soc::Soc::kDefaultRunBudget);
  const bool fast_forward = soc.config().fast_forward;
  u64 steps = 0;
  while (steps < budget && !soc.tc().halted()) {
    steps += clock.time(l.fast_window, l.declined,
                        [&] { return soc.run_fast_window(budget - steps); });
    if (steps >= budget || soc.tc().halted()) break;
    clock.time(l.step, [&] {
      soc.step();
      return u64{1};
    });
    ++steps;
    u64 idle = 0;
    soc::WakeSource source = soc::WakeSource::kBudget;
    clock.time(l.loop, [&] {
      if (!soc.tc().waiting() || !soc.quiescent()) return u64{0};
      if (!fast_forward || steps >= budget) return u64{0};
      const Cycle next = soc.next_activity_cycle(&source);
      idle = next == periph::kNoActivity ? budget - steps
                                         : next - soc.cycle() - 1;
      if (idle >= budget - steps) {
        idle = budget - steps;
        source = soc::WakeSource::kBudget;
      }
      return u64{0};
    });
    if (idle == 0) continue;
    clock.time(l.skip_idle, [&] {
      soc.skip_idle(idle, source);
      return idle;
    });
    steps += idle;
  }
  return steps;
}

namespace {

// Feeds fast-window frames to the MCDS, as the device's own sink does
// with stream drain off and no tracer attached.
struct EecSink final : soc::FrameSink {
  EecSink(mcds::Mcds& mcds, SpanClock& clock, Layer& layer)
      : mcds(mcds), clock(clock), layer(layer) {}

  bool on_frame(const mcds::ObservationFrame& frame) override {
    clock.time(layer, [&] {
      mcds.observe(frame);
      return u64{1};
    });
    return !mcds.break_requested();
  }

  mcds::Mcds& mcds;
  SpanClock& clock;
  Layer& layer;
};

}  // namespace

u64 traced_ed_run(ed::EmulationDevice& ed, u64 max_cycles, SpanClock& clock,
                  LoopLayers& l) {
  if (ed.config().stream_drain || ed.soc().tracer() != nullptr) {
    std::fprintf(stderr, "traced_ed_run: stream drain and tracers are not "
                         "reachable from outside the device loop\n");
    std::abort();
  }
  soc::Soc& soc = ed.soc();
  mcds::Mcds& mcds = ed.mcds();
  EecSink sink(mcds, clock, l.eec_observe);
  const bool fast_forward = soc.config().fast_forward;
  u64 steps = 0;
  while (steps < max_cycles && !soc.tc().halted() && !mcds.break_requested()) {
    steps += clock.time(l.fast_window, l.declined, [&] {
      return soc.run_fast_window(max_cycles - steps, &sink);
    });
    if (steps >= max_cycles || soc.tc().halted() || mcds.break_requested()) {
      break;
    }
    clock.time(l.step, [&] {
      soc.step();
      return u64{1};
    });
    clock.time(l.eec_observe, [&] {
      mcds.observe(soc.frame());
      return u64{1};
    });
    ++steps;
    if (!fast_forward || steps >= max_cycles) continue;
    u64 n = 0;
    soc::WakeSource source = soc::WakeSource::kBudget;
    clock.time(l.loop, [&] {
      if (!soc.tc().waiting() || !soc.quiescent()) return u64{0};
      const Cycle from = soc.cycle();
      const Cycle next = soc.next_activity_cycle(&source);
      if (next <= from + 1) return u64{0};
      n = next - from - 1;
      if (n >= max_cycles - steps) {
        n = max_cycles - steps;
        source = soc::WakeSource::kBudget;
      }
      return u64{0};
    });
    if (n == 0) continue;
    mcds::ObservationFrame idle;
    clock.time(l.eec_idle, [&] {
      idle = soc.make_idle_frame();
      if (const u64 limit = mcds.idle_skip_limit(idle); limit < n) {
        n = limit;
        source = soc::WakeSource::kMcds;
      }
      return u64{0};
    });
    if (n == 0) continue;
    clock.time(l.skip_idle, [&] {
      soc.skip_idle(n, source);
      return n;
    });
    clock.time(l.eec_idle, [&] {
      mcds.skip_idle(idle, n);
      return u64{0};
    });
    steps += n;
  }
  return steps;
}

}  // namespace perfbench
