// SocTracer: adapts the per-cycle ObservationFrame into host-telemetry
// timeline tracks — the visual counterpart of the MCDS trace path.
//
// Tracks produced (one Perfetto "thread" each):
//  * "TC pipeline" / "PCP pipeline" — coalesced run/stall-cause spans;
//  * "TC irq" / "PCP irq"           — nested interrupt entry/exit spans;
//  * "SRI <master>"                  — one track per bus master with a
//    wait span (issue → grant) and a transfer span (grant → completion)
//    per transaction, named after the addressed slave;
//  * "DMA"                           — per-channel transfer instants;
//  * "Safety"                        — alarm instants from the safety
//    monitor (ECC events, bus errors, watchdog timeouts, traps);
//  * "EEC"                           — trace-message drops;
//  * counter series — TC IPC, flash buffer hit rates, SRI contention,
//    EMEM fill level and trace-message volume, sampled every
//    `counter_interval` cycles.
//
// The tracer is a FrameObserver, so it sees every stepped, windowed and
// skipped cycle through the Soc's one observer list. Like the MCDS, it is
// strictly read-only over the frame: wiring it up (Soc::set_tracer)
// cannot change architectural behaviour.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "mcds/observation.hpp"
#include "soc/soc.hpp"
#include "telemetry/timeline.hpp"

namespace audo::soc {

class SocTracer final : public FrameObserver {
 public:
  struct Options {
    /// Cycles between counter-series samples.
    u32 counter_interval = 1024;
    telemetry::TimelineOptions timeline;
  };

  SocTracer();
  explicit SocTracer(Options options);

  /// Give bus-transaction spans their slave names (done by
  /// Soc::set_tracer; index = crossbar slave index).
  void set_slave_names(std::vector<std::string> names);

  /// Consume one stepped or windowed product-chip cycle.
  void observe(const mcds::ObservationFrame& frame) override;

  /// Consume the EEC side of one cycle (called by the Emulation Device):
  /// cumulative message/byte/drop counts and the current EMEM fill level.
  void observe_eec(Cycle now, usize emem_occupancy_bytes, u64 trace_messages,
                   u64 dropped_messages);

  /// Bulk-advance over an idle window (cycles `idle.cycle`+1 ..
  /// `idle.cycle`+n, all equivalent to `idle`) exactly as if each idle
  /// frame had been observed: each core's parked span opens at the first
  /// skipped cycle and extends over the window, and the counter-sampling
  /// schedule replays with identical sample cycles and zero-valued series.
  /// With an EEC side, each sample point's EEC sample follows its SoC
  /// sample, as stepping orders them, with the values observe_eec last
  /// received: the MCDS emits nothing within its idle-skip limit and a
  /// draining stream never skips, so they hold across the window.
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;

  /// Close all open spans and flush pending counters; call once after the
  /// run, before exporting.
  void finish(Cycle now);

  telemetry::Timeline& timeline() { return timeline_; }
  const telemetry::Timeline& timeline() const { return timeline_; }

  Status write_chrome_json(const std::string& path, u64 clock_hz) const {
    return timeline_.write_chrome_json(path, clock_hz);
  }

 private:
  struct CoreState {
    telemetry::Timeline::TrackId pipe_track = 0;
    telemetry::Timeline::TrackId irq_track = 0;
    bool span_open = false;
    mcds::StallCause span_cause = mcds::StallCause::kNone;
    bool span_running = false;  // retired > 0 during the span
    Cycle span_start = 0;
    unsigned irq_depth = 0;
  };

  void observe_core(const mcds::CoreObservation& obs, CoreState& core,
                    Cycle now);
  void close_core_span(CoreState& core, Cycle now);
  void sample_counters(Cycle now);
  void sample_eec(Cycle now);

  Options options_;
  telemetry::Timeline timeline_;

  CoreState tc_;
  CoreState pcp_;
  std::array<telemetry::Timeline::TrackId, bus::kNumMasters> bus_tracks_{};
  telemetry::Timeline::TrackId dma_track_ = 0;
  telemetry::Timeline::TrackId safety_track_ = 0;
  telemetry::Timeline::TrackId eec_track_ = 0;
  std::vector<std::string> slave_names_;

  // Counter-series accumulators over the current interval.
  Cycle next_sample_ = 0;
  u64 interval_cycles_ = 0;
  u64 interval_retired_ = 0;
  u64 interval_code_acc_ = 0;
  u64 interval_code_hit_ = 0;
  u64 interval_data_acc_ = 0;
  u64 interval_data_hit_ = 0;
  u64 interval_contention_ = 0;
  // TC stall root causes (kFrontend..kBusSlaveBusy only: parked cycles
  // are excluded so fast-forwarded idle windows — which contribute only
  // interval_cycles_ — replay bit-identically to stepping them).
  std::array<u64, mcds::kNumStallRootCauses> interval_stall_root_{};

  // EEC side: what observe_eec last received, and the sampled deltas.
  bool eec_observed_ = false;
  usize emem_occupancy_bytes_ = 0;
  u64 trace_messages_ = 0;
  Cycle next_eec_sample_ = 0;
  u64 last_trace_messages_ = 0;
  u64 last_dropped_ = 0;
};

}  // namespace audo::soc
