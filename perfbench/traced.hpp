// Host-time spans for the benchmark's traced pass.
//
// The traced pass rebuilds the simulator's run loops from their public
// calls (run_fast_window -> step -> waiting()/quiescent() ->
// next_activity_cycle -> skip_idle) and times every call from here, in
// the benchmark's own code; nothing inside the simulator is instrumented.
// Spans accumulate in memory per layer and are read once at the end.
#pragma once

#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "ed/emulation_device.hpp"
#include "soc/soc.hpp"

namespace perfbench {

using audo::u64;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span timestamps. On x86 the time-stamp counter, read in about half
/// the time of a steady_clock read, which matters at one span per
/// simulated cycle; elsewhere steady_clock ns.
inline u64 ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

/// How to turn span ticks into ns, and what one empty span costs.
struct Calibration {
  double ns_per_tick = 1.0;
  double pair_ticks = 0.0;  // median cost of an empty ticks() pair
};

/// Measure ns per tick against steady_clock over ~20 ms, and the cost of
/// an empty timer pair as the median over batches of back-to-back pairs.
Calibration calibrate();

/// One layer's calls, simulated cycles and host time. `raw_ticks`
/// already excludes the spans nested inside the layer's calls;
/// `inner_pairs` counts those nested spans, whose timer cost still fell
/// inside.
struct Layer {
  u64 calls = 0;
  u64 cycles = 0;
  u64 raw_ticks = 0;
  u64 inner_pairs = 0;

  /// Self time in ns, with the timer cost of this layer's own spans and
  /// of the spans nested inside it taken out.
  double self_ns(const Calibration& c) const {
    return (static_cast<double>(raw_ticks) -
            static_cast<double>(calls + inner_pairs) * c.pair_ticks) *
           c.ns_per_tick;
  }
};

/// Times calls into layers; a span that runs inside another span is
/// charged to its own layer only, never to the enclosing one.
class SpanClock {
 public:
  /// Time `fn` (which returns the simulated cycles it covered) into
  /// `hit`, or into `miss` when it covered none — e.g. a fast-window
  /// attempt that declined.
  template <typename Fn>
  u64 time(Layer& hit, Layer& miss, Fn&& fn) {
    const u64 nested_ticks = nested_ticks_;
    const u64 nested_pairs = nested_pairs_;
    const u64 t0 = ticks();
    const u64 cycles = fn();
    const u64 elapsed = ticks() - t0;
    Layer& layer = cycles != 0 ? hit : miss;
    layer.calls += 1;
    layer.cycles += cycles;
    layer.raw_ticks += elapsed - (nested_ticks_ - nested_ticks);
    layer.inner_pairs += nested_pairs_ - nested_pairs;
    nested_ticks_ = nested_ticks + elapsed;
    nested_pairs_ = nested_pairs + 1;
    return cycles;
  }

  template <typename Fn>
  u64 time(Layer& layer, Fn&& fn) {
    return time(layer, layer, std::forward<Fn>(fn));
  }

 private:
  // Elapsed ticks and span count of every closed span, so an enclosing
  // span can subtract what ran inside it.
  u64 nested_ticks_ = 0;
  u64 nested_pairs_ = 0;
};

/// FrameObserver decorator: times every call into the wrapped observer
/// into `layer`.
class TimedObserver final : public audo::soc::FrameObserver {
 public:
  TimedObserver(SpanClock& clock, audo::soc::FrameObserver& inner,
                Layer& layer)
      : clock_(clock), inner_(inner), layer_(layer) {}

  void observe(const audo::mcds::ObservationFrame& frame) override {
    clock_.time(layer_, [&] {
      inner_.observe(frame);
      return u64{1};
    });
  }
  void skip_idle(const audo::mcds::ObservationFrame& idle, u64 n) override {
    clock_.time(layer_, [&] {
      inner_.skip_idle(idle, n);
      return n;
    });
  }

 private:
  SpanClock& clock_;
  audo::soc::FrameObserver& inner_;
  Layer& layer_;
};

/// The run loop's layers.
struct LoopLayers {
  Layer fast_window;  // run_fast_window calls that ran a window
  Layer declined;     // run_fast_window calls that ran nothing
  Layer step;         // Soc::step
  Layer loop;         // waiting()/quiescent()/next_activity_cycle checks
  Layer skip_idle;    // Soc::skip_idle
  Layer eec_observe;  // ED only: Mcds::observe, in windows and after steps
  Layer eec_idle;     // ED only: idle frame, MCDS skip limit, MCDS skip
};

/// Soc::run(max_cycles) from public calls, one span per call. It does
/// not test for an idle deadlock (that check is private), so use it only
/// on workloads where some wake source always stays armed; the callers
/// compare the final state with an untraced run.
u64 traced_soc_run(audo::soc::Soc& soc, u64 max_cycles, SpanClock& clock,
                   LoopLayers& layers);

/// EmulationDevice::run(max_cycles) from public calls, one span per call.
/// Requires stream drain off and no timeline tracer attached (the two
/// parts of the device loop that are not reachable from outside).
u64 traced_ed_run(audo::ed::EmulationDevice& ed, u64 max_cycles,
                  SpanClock& clock, LoopLayers& layers);

}  // namespace perfbench
