#include "mcds/mcds.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace audo::mcds {

void Mcds::register_metrics(telemetry::MetricsRegistry& registry,
                            std::string component) const {
  static constexpr const char* kKindNames[] = {
      "msgs.sync", "msgs.flow", "msgs.tick",       "msgs.data",
      "msgs.rate", "msgs.irq",  "msgs.watchpoint", "msgs.overflow",
  };
  registry.counter(component, kKindNames[0],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kSync)]);
  registry.counter(component, kKindNames[1],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kFlow)]);
  registry.counter(component, kKindNames[2],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kTick)]);
  registry.counter(component, kKindNames[3],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kData)]);
  registry.counter(component, kKindNames[4],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kRate)]);
  registry.counter(component, kKindNames[5],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kIrq)]);
  registry.counter(component, kKindNames[6],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kWatchpoint)]);
  registry.counter(component, kKindNames[7],
                   &kind_counts_[static_cast<unsigned>(MsgKind::kOverflow)]);
  registry.counter(component, "dropped", &dropped_);
  registry.counter(component, "trigger_out_pulses", &trigger_out_pulses_);
  registry.gauge(std::move(component), "encoded_bytes",
                 [this] { return encoder_.bytes_encoded(); });
}

Mcds::Mcds(McdsConfig config) : config_(std::move(config)), fsm_(config_.fsm) {
  for (const CounterGroupConfig& g : config_.counter_groups) {
    counters_.add_group(g);
  }
  trace_enabled_ = config_.trace_enabled_at_start;
}

void Mcds::reset() {
  counters_.reset();
  fsm_.reset();
  encoder_.reset_anchors();
  trace_enabled_ = config_.trace_enabled_at_start;
  trace_frozen_ = false;
  break_requested_ = false;
  next_sync_ = 0;
  overflow_pending_ = false;
  pending_instrs_[0] = pending_instrs_[1] = 0;
  last_data_addr_[0] = last_data_addr_[1] = 0;
  next_pc_hint_[0] = next_pc_hint_[1] = 0;
  anchored_[0] = anchored_[1] = false;
}

void Mcds::emit(TraceMessage msg) {
  if (sink_ == nullptr) return;
  if (overflow_pending_) {
    // Tell the decoder that messages are missing before this point.
    TraceMessage marker;
    marker.kind = MsgKind::kOverflow;
    marker.source = MsgSource::kChip;
    marker.cycle = msg.cycle;
    if (sink_->push(encoder_.encode(marker), msg.cycle)) {
      kind_counts_[static_cast<unsigned>(MsgKind::kOverflow)]++;
      overflow_pending_ = false;
    } else {
      ++dropped_;
      return;  // still no room; drop this message too
    }
  }
  const auto kind_index = static_cast<unsigned>(msg.kind);
  if (sink_->push(encoder_.encode(msg), msg.cycle)) {
    kind_counts_[kind_index]++;
  } else {
    ++dropped_;
    overflow_pending_ = true;
    encoder_.reset_anchors();
    next_sync_ = 0;  // re-anchor as soon as possible
  }
}

void Mcds::emit_sync(MsgSource source, Cycle now) {
  const unsigned c = static_cast<unsigned>(source);
  if (next_pc_hint_[c] == 0) return;  // core has not executed yet
  TraceMessage sync =
      encoder_.make_sync(source, now, next_pc_hint_[c], last_data_addr_[c]);
  sync.instr_count = pending_instrs_[c];
  pending_instrs_[c] = 0;
  anchored_[c] = true;
  emit(sync);
}

void Mcds::flush(Cycle now) {
  if (sink_ == nullptr || !trace_enabled_ || trace_frozen_) return;
  const bool any_core_trace =
      config_.program_trace || config_.cycle_accurate || config_.data_trace;
  if (!any_core_trace) return;
  if (pending_instrs_[0] > 0) emit_sync(MsgSource::kTcCore, now);
  if (config_.trace_pcp && pending_instrs_[1] > 0) {
    emit_sync(MsgSource::kPcpCore, now);
  }
}

u64 Mcds::idle_skip_limit(const ObservationFrame& idle_frame) {
  const EventValues idle(idle_frame);
  evaluate_comparators(config_.comparators, idle_frame, comparator_hits_);
  TriggerContext ctx;
  ctx.events = &idle;
  ctx.comparator_hits = &comparator_hits_;
  ctx.counter_flags = &counters_.flags();
  ctx.state = fsm_.state();

  // Any FSM transition or action equation that fires on an idle frame
  // would fire on every skipped cycle — those cycles must be stepped.
  // (Equations on always-on events like kCycles or kTcStalled land here.)
  for (const Transition& t : config_.fsm.transitions) {
    if (t.from == ctx.state && evaluate(t.guard, ctx)) return 0;
  }
  for (const ActionBinding& binding : config_.actions) {
    if (binding.action == TriggerAction::kNone) continue;
    if (evaluate(binding.condition, ctx)) return 0;
  }

  u64 limit = ~u64{0};
  const bool trace_live = trace_enabled_ && !trace_frozen_ && sink_ != nullptr;
  const bool any_core_trace =
      config_.program_trace || config_.cycle_accurate || config_.data_trace;
  if (trace_live && any_core_trace) {
    // A first-anchor sync is still pending: it emits on the very next
    // observed cycle.
    if (!anchored_[0] && next_pc_hint_[0] != 0) return 0;
    if (config_.trace_pcp && idle_frame.pcp.present && !anchored_[1] &&
        next_pc_hint_[1] != 0) {
      return 0;
    }
    // Stop before the periodic sync so the sync message (and the
    // next_sync_ reschedule) happens in a normally observed cycle.
    const Cycle now = idle_frame.cycle;
    if (next_sync_ <= now + 1) return 0;
    limit = std::min(limit, next_sync_ - now - 1);
  }
  return std::min(limit, counters_.idle_skip_limit(idle));
}

void Mcds::skip_idle(const ObservationFrame& idle_frame, u64 n) {
  // Within an idle_skip_limit() window, idle frames leave the trigger
  // network, anchors, hints and message stream untouched: only the
  // counter bank accumulates.
  evaluate_comparators(config_.comparators, idle_frame, comparator_hits_);
  counters_.skip_idle(EventValues(idle_frame), &comparator_hits_, n);
}

void Mcds::observe(const ObservationFrame& frame) {
  const Cycle now = frame.cycle;

  // 1. The cycle's event values, comparators and counters.
  const EventValues events(frame);
  evaluate_comparators(config_.comparators, frame, comparator_hits_);
  counters_.step(events, now, &comparator_hits_);

  // 2. Trigger network: FSM transition, then action equations on the
  //    post-transition state.
  TriggerContext ctx;
  ctx.events = &events;
  ctx.comparator_hits = &comparator_hits_;
  ctx.counter_flags = &counters_.flags();
  ctx.state = fsm_.state();
  fsm_.step(ctx);
  ctx.state = fsm_.state();

  std::vector<std::pair<TriggerAction, u32>> fired;
  for (const ActionBinding& binding : config_.actions) {
    if (binding.action == TriggerAction::kNone) continue;
    if (evaluate(binding.condition, ctx)) {
      fired.emplace_back(binding.action, binding.arg);
    }
  }
  for (const auto& [action, arg] : fired) {
    switch (action) {
      case TriggerAction::kTraceOn: trace_enabled_ = true; break;
      case TriggerAction::kTraceOff: trace_enabled_ = false; break;
      case TriggerAction::kArmGroup: counters_.arm(arg, true); break;
      case TriggerAction::kDisarmGroup: counters_.arm(arg, false); break;
      case TriggerAction::kSampleGroup: counters_.force_sample(arg, now); break;
      case TriggerAction::kTriggerOut:
        ++trigger_out_pulses_;
        last_trigger_out_ = now;
        break;
      case TriggerAction::kStopTrace: trace_frozen_ = true; break;
      case TriggerAction::kBreak:
        if (!break_requested_) {
          break_requested_ = true;
          break_cycle_ = now;
        }
        break;
      case TriggerAction::kEmitWatchpoint:
      case TriggerAction::kNone:
        break;  // watchpoints emitted below, in message order
    }
  }

  // 3. Bookkeeping that runs whether or not trace is enabled.
  pending_instrs_[0] += frame.tc.retired;
  pending_instrs_[1] += frame.pcp.retired;
  if (frame.tc.data_access) last_data_addr_[0] = frame.tc.data_addr;
  if (frame.pcp.data_access) last_data_addr_[1] = frame.pcp.data_addr;
  auto update_hint = [&](const CoreObservation& core, unsigned c) {
    if (core.discontinuity) {
      next_pc_hint_[c] = core.discontinuity_target;
    } else if (core.retired > 0) {
      next_pc_hint_[c] = core.retire_pc + 4;
    }
  };
  update_hint(frame.tc, 0);
  update_hint(frame.pcp, 1);

  // 4. Message generation.
  if (!trace_enabled_ || trace_frozen_ || sink_ == nullptr) return;

  const bool any_core_trace =
      config_.program_trace || config_.cycle_accurate || config_.data_trace;
  auto trace_core = [&](const CoreObservation& core, MsgSource source) {
    const unsigned c = static_cast<unsigned>(source);
    if (config_.cycle_accurate && core.retired > 0) {
      TraceMessage tick;
      tick.kind = MsgKind::kTick;
      tick.source = source;
      tick.cycle = now;
      tick.instr_count = core.retired;
      pending_instrs_[c] = 0;
      emit(tick);
    }
    if (config_.program_trace && core.discontinuity) {
      TraceMessage flow;
      flow.kind = MsgKind::kFlow;
      flow.source = source;
      flow.cycle = now;
      flow.pc = core.discontinuity_target;
      flow.instr_count = pending_instrs_[c];
      pending_instrs_[c] = 0;
      emit(flow);
    }
    if (config_.irq_trace && (core.irq_entry || core.irq_exit)) {
      TraceMessage irq;
      irq.kind = MsgKind::kIrq;
      irq.source = source;
      irq.cycle = now;
      irq.irq_entry = core.irq_entry;
      irq.id = core.irq_prio;
      emit(irq);
    }
    if (config_.data_trace && core.data_access) {
      bool qualified = true;
      const auto& qualifier = (source == MsgSource::kPcpCore &&
                               config_.data_qualifier_pcp.has_value())
                                  ? config_.data_qualifier_pcp
                                  : config_.data_qualifier;
      if (qualifier.has_value()) {
        const unsigned q = *qualifier;
        qualified = q < comparator_hits_.size() && comparator_hits_[q];
      }
      if (qualified) {
        TraceMessage data;
        data.kind = MsgKind::kData;
        data.source = source;
        data.cycle = now;
        data.addr = core.data_addr;
        data.value = core.data_value;
        data.write = core.data_write;
        data.bytes = core.data_bytes == 0 ? 4 : core.data_bytes;
        emit(data);
      }
    }
  };
  trace_core(frame.tc, MsgSource::kTcCore);
  if (config_.trace_pcp && frame.pcp.present) {
    trace_core(frame.pcp, MsgSource::kPcpCore);
  }

  // Syncs are emitted after the cycle's flow/tick messages so the
  // instruction counts they carry are never double-counted: anchor each
  // traced core as soon as it starts executing, then periodically.
  if (any_core_trace) {
    if (!anchored_[0] && next_pc_hint_[0] != 0) {
      emit_sync(MsgSource::kTcCore, now);
    }
    if (config_.trace_pcp && frame.pcp.present && !anchored_[1] &&
        next_pc_hint_[1] != 0) {
      emit_sync(MsgSource::kPcpCore, now);
    }
    if (now >= next_sync_) {
      emit_sync(MsgSource::kTcCore, now);
      if (config_.trace_pcp && frame.pcp.present) {
        emit_sync(MsgSource::kPcpCore, now);
      }
      next_sync_ = now + config_.sync_interval_cycles;
    }
  }

  // Watchpoints (in trigger order).
  for (const auto& [action, arg] : fired) {
    if (action == TriggerAction::kEmitWatchpoint) {
      TraceMessage wp;
      wp.kind = MsgKind::kWatchpoint;
      wp.source = MsgSource::kChip;
      wp.cycle = now;
      wp.id = static_cast<u8>(arg);
      emit(wp);
    }
  }

  // Rate samples from the counter bank.
  for (const RateSample& sample : counters_.samples()) {
    TraceMessage rate;
    rate.kind = MsgKind::kRate;
    rate.source = MsgSource::kChip;
    rate.cycle = sample.cycle;
    rate.group = static_cast<u8>(sample.group);
    rate.basis = sample.basis;
    rate.counts = sample.counts;
    emit(rate);
  }
}

}  // namespace audo::mcds
