#include "soc/tracer.hpp"

#include <algorithm>
#include <utility>

namespace audo::soc {

namespace {

/// Span name for a pipeline state. Running cycles get one interned name;
/// stalls reuse the StallCause string table.
const char* span_name(bool running, mcds::StallCause cause) {
  if (running) return "run";
  return mcds::to_string(cause);
}

std::string channel_name(u8 channel) {
  return "ch" + std::to_string(static_cast<unsigned>(channel));
}

}  // namespace

SocTracer::SocTracer() : SocTracer(Options{}) {}

SocTracer::SocTracer(Options options)
    : options_(std::move(options)), timeline_(options_.timeline) {
  tc_.pipe_track = timeline_.add_track("TC pipeline");
  tc_.irq_track = timeline_.add_track("TC irq");
  pcp_.pipe_track = timeline_.add_track("PCP pipeline");
  pcp_.irq_track = timeline_.add_track("PCP irq");
  for (unsigned m = 0; m < bus::kNumMasters; ++m) {
    bus_tracks_[m] = timeline_.add_track(
        std::string("SRI ") + bus::to_string(static_cast<bus::MasterId>(m)));
  }
  dma_track_ = timeline_.add_track("DMA");
  safety_track_ = timeline_.add_track("Safety");
  eec_track_ = timeline_.add_track("EEC");
}

void SocTracer::set_slave_names(std::vector<std::string> names) {
  slave_names_ = std::move(names);
}

void SocTracer::close_core_span(CoreState& core, Cycle now) {
  if (!core.span_open) return;
  timeline_.complete(core.pipe_track,
                     span_name(core.span_running, core.span_cause),
                     core.span_start, now);
  core.span_open = false;
}

void SocTracer::observe_core(const mcds::CoreObservation& obs, CoreState& core,
                             Cycle now) {
  if (!obs.present) return;

  // Pipeline activity: coalesce consecutive cycles with the same state
  // (running, or one stall cause) into a single span. Halted cycles
  // produce no span at all, so idle cores stay blank.
  const bool halted = obs.stall == mcds::StallCause::kHalted;
  const bool running = obs.retired > 0;
  if (halted) {
    close_core_span(core, now);
  } else if (!core.span_open || core.span_running != running ||
             (!running && core.span_cause != obs.stall)) {
    close_core_span(core, now);
    core.span_open = true;
    core.span_running = running;
    core.span_cause = obs.stall;
    core.span_start = now;
  }

  // Interrupt nesting: exit before entry so a same-cycle preemption
  // hand-over (return from one handler, dispatch of the next) keeps the
  // B/E events balanced.
  if (obs.irq_exit && core.irq_depth > 0) {
    timeline_.end(core.irq_track, now);
    --core.irq_depth;
  }
  if (obs.irq_entry) {
    timeline_.begin(core.irq_track,
                    "irq p" + std::to_string(unsigned{obs.irq_prio}), now);
    ++core.irq_depth;
  }
}

void SocTracer::observe(const mcds::ObservationFrame& frame) {
  const Cycle now = frame.cycle;

  observe_core(frame.tc, tc_, now);
  observe_core(frame.pcp, pcp_, now);

  // Bus transactions that completed this cycle: a wait span while the
  // request sat un-granted, then a transfer span named after the slave.
  for (unsigned i = 0; i < frame.sri.completed_count; ++i) {
    const bus::CompletedTransaction& tx = frame.sri.completed[i];
    const unsigned m = static_cast<unsigned>(tx.master);
    if (m >= bus::kNumMasters) continue;
    if (tx.granted_at > tx.issued_at) {
      timeline_.complete(bus_tracks_[m], "wait", tx.issued_at, tx.granted_at);
    }
    const char* verb = tx.write ? "wr " : (tx.fetch ? "fetch " : "rd ");
    std::string name = tx.slave < slave_names_.size()
                           ? verb + slave_names_[tx.slave]
                           : verb + std::string("slave") +
                                 std::to_string(unsigned{tx.slave});
    timeline_.complete(bus_tracks_[m], name, tx.granted_at, now);
  }

  if (frame.dma.transfer) {
    timeline_.instant(dma_track_, channel_name(frame.dma.channel), now);
  }

  // Safety alarms are rare; one instant per alarm kind per cycle.
  const mcds::SafetyObservation& safety = frame.safety;
  if (safety.ecc_corrected > 0) {
    timeline_.instant(safety_track_, "ecc corrected", now);
  }
  if (safety.ecc_uncorrectable > 0) {
    timeline_.instant(safety_track_, "ecc uncorrectable", now);
  }
  if (safety.bus_error) timeline_.instant(safety_track_, "bus error", now);
  if (safety.wdt_timeout) timeline_.instant(safety_track_, "wdt timeout", now);
  if (safety.cpu_trap) timeline_.instant(safety_track_, "trap", now);
  if (safety.alarm_irq) timeline_.instant(safety_track_, "alarm irq", now);

  // Counter-series accumulation.
  ++interval_cycles_;
  interval_retired_ += frame.tc.retired;
  interval_code_acc_ += frame.flash.code_access ? 1 : 0;
  interval_code_hit_ += frame.flash.code_buffer_hit ? 1 : 0;
  interval_data_acc_ += frame.flash.data_access ? 1 : 0;
  interval_data_hit_ += frame.flash.data_buffer_hit ? 1 : 0;
  interval_contention_ += frame.sri.contention ? 1 : 0;
  {
    using mcds::StallRootCause;
    const StallRootCause root = frame.tc.attr.root;
    if (root >= StallRootCause::kFrontend &&
        root <= StallRootCause::kBusSlaveBusy) {
      interval_stall_root_[static_cast<unsigned>(root)]++;
    }
  }
  if (now >= next_sample_) {
    sample_counters(now);
    next_sample_ = now + options_.counter_interval;
  }
}

void SocTracer::sample_counters(Cycle now) {
  if (interval_cycles_ == 0) return;
  const double cycles = static_cast<double>(interval_cycles_);
  timeline_.counter("TC IPC", now,
                    static_cast<double>(interval_retired_) / cycles);
  if (interval_code_acc_ > 0) {
    timeline_.counter("pflash code buffer hit rate", now,
                      static_cast<double>(interval_code_hit_) /
                          static_cast<double>(interval_code_acc_));
  }
  if (interval_data_acc_ > 0) {
    timeline_.counter("pflash data buffer hit rate", now,
                      static_cast<double>(interval_data_hit_) /
                          static_cast<double>(interval_data_acc_));
  }
  timeline_.counter("SRI contention", now,
                    static_cast<double>(interval_contention_) / cycles);
  // One counter track per attributed stall root cause (fraction of the
  // interval's cycles lost to it). Tracks appear only once the cause
  // first occurs, so undisturbed runs keep their track count.
  for (unsigned r = static_cast<unsigned>(mcds::StallRootCause::kFrontend);
       r <= static_cast<unsigned>(mcds::StallRootCause::kBusSlaveBusy); ++r) {
    if (interval_stall_root_[r] == 0) continue;
    timeline_.counter(
        std::string("TC stall ") +
            mcds::to_string(static_cast<mcds::StallRootCause>(r)),
        now, static_cast<double>(interval_stall_root_[r]) / cycles);
  }
  interval_cycles_ = 0;
  interval_retired_ = 0;
  interval_code_acc_ = 0;
  interval_code_hit_ = 0;
  interval_data_acc_ = 0;
  interval_data_hit_ = 0;
  interval_contention_ = 0;
  interval_stall_root_.fill(0);
}

void SocTracer::skip_idle(const mcds::ObservationFrame& idle, u64 n) {
  const Cycle from = idle.cycle;
  const Cycle to = idle.cycle + n;
  // The first skipped cycle opens the parked span a stepped idle cycle
  // would, or closes the span of a halted core; coalescing extends it.
  observe_core(idle.tc, tc_, from + 1);
  observe_core(idle.pcp, pcp_, from + 1);
  // Idle frames add one interval cycle each and zero to every other
  // accumulator, so only the sampling schedule needs replaying: emit a
  // sample at every schedule point inside the window, then account the
  // tail cycles into the running interval.
  Cycle counted_to = from;
  while (true) {
    const Cycle s = std::max<Cycle>(next_sample_, counted_to + 1);
    if (s > to) break;
    interval_cycles_ += s - counted_to;
    counted_to = s;
    sample_counters(s);
    next_sample_ = s + options_.counter_interval;
    if (eec_observed_ && s >= next_eec_sample_) sample_eec(s);
  }
  interval_cycles_ += to - counted_to;
}

void SocTracer::observe_eec(Cycle now, usize emem_occupancy_bytes,
                            u64 trace_messages, u64 dropped_messages) {
  if (dropped_messages > last_dropped_) {
    timeline_.instant(eec_track_, "trace drop", now);
    last_dropped_ = dropped_messages;
  }
  eec_observed_ = true;
  emem_occupancy_bytes_ = emem_occupancy_bytes;
  trace_messages_ = trace_messages;
  if (now >= next_eec_sample_) sample_eec(now);
}

void SocTracer::sample_eec(Cycle now) {
  timeline_.counter("EMEM fill bytes", now,
                    static_cast<double>(emem_occupancy_bytes_));
  timeline_.counter("trace msgs", now,
                    static_cast<double>(trace_messages_ - last_trace_messages_));
  last_trace_messages_ = trace_messages_;
  next_eec_sample_ = now + options_.counter_interval;
}

void SocTracer::finish(Cycle now) {
  close_core_span(tc_, now);
  close_core_span(pcp_, now);
  while (tc_.irq_depth > 0) {
    timeline_.end(tc_.irq_track, now);
    --tc_.irq_depth;
  }
  while (pcp_.irq_depth > 0) {
    timeline_.end(pcp_.irq_track, now);
    --pcp_.irq_depth;
  }
  sample_counters(now);
}

}  // namespace audo::soc
