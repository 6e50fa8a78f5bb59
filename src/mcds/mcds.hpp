// The MCDS top level: observation blocks + trigger network + counter
// bank + trace qualification + message generation, glued to a trace sink
// (the EMEM on an Emulation Device).
//
// Everything here is strictly observational: observe() takes a const
// frame and can never reach back into the SoC — the structural guarantee
// behind "non-intrusively" in §5, verified by the E10/E1 tests.
#pragma once

#include <array>
#include <optional>

#include "common/types.hpp"
#include "mcds/counters.hpp"
#include "mcds/observation.hpp"
#include "mcds/trace.hpp"
#include "mcds/trigger.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::mcds {

/// Destination of encoded trace messages (EMEM, or a plain collector in
/// tests). push() returns false when the message had to be dropped.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual bool push(EncodedMessage msg, Cycle now) = 0;
};

/// An unbounded in-memory sink for tests and harnesses.
class VectorSink final : public TraceSink {
 public:
  bool push(EncodedMessage msg, Cycle now) override {
    (void)now;
    units_.push_back(std::move(msg));
    return true;
  }
  const std::vector<EncodedMessage>& units() const { return units_; }
  void clear() { units_.clear(); }

 private:
  std::vector<EncodedMessage> units_;
};

struct McdsConfig {
  // ---- trace qualification ----
  bool program_trace = false;  // flow messages on discontinuities
  bool cycle_accurate = false; // tick message every cycle with retirement
  bool data_trace = false;
  /// Restrict data trace to accesses matching this comparator index.
  std::optional<unsigned> data_qualifier;
  /// Separate qualifier for PCP-side data accesses (comparators bind to
  /// one core); defaults to data_qualifier when unset.
  std::optional<unsigned> data_qualifier_pcp;
  bool irq_trace = false;
  bool trace_pcp = false;      // also trace the PCP core
  bool trace_enabled_at_start = true;
  u32 sync_interval_cycles = 4096;

  // ---- trigger network ----
  std::vector<Comparator> comparators;
  std::vector<ActionBinding> actions;
  StateMachineConfig fsm;

  // ---- counter groups (Enhanced System Profiling) ----
  std::vector<CounterGroupConfig> counter_groups;
};

class Mcds {
 public:
  explicit Mcds(McdsConfig config);

  void set_sink(TraceSink* sink) { sink_ = sink; }

  /// Consume one observation frame (one clock cycle).
  void observe(const ObservationFrame& frame);

  /// How many consecutive repetitions of `idle_frame` (a quiescent SoC
  /// cycle; `idle_frame.cycle` = the last cycle already observed) could be
  /// absorbed without observable effect: no trigger transition or action,
  /// no trace message, no periodic sync, no counter sample. 0 means the
  /// next cycle must be observed normally. Evaluates the comparators on
  /// the idle frame as a side effect (they are recomputed from scratch on
  /// every observe, so this cannot skew later cycles).
  u64 idle_skip_limit(const ObservationFrame& idle_frame);

  /// Bulk-absorb `n` repetitions of `idle_frame` in O(1): counter bases
  /// and event accumulators advance exactly as `n` observe() calls would
  /// have advanced them. `n` must come from idle_skip_limit().
  void skip_idle(const ObservationFrame& idle_frame, u64 n);

  /// Emit final sync messages carrying the outstanding instruction counts
  /// (end-of-measurement flush before a trace download).
  void flush(Cycle now);

  void reset();

  bool trace_enabled() const { return trace_enabled_ && !trace_frozen_; }
  bool trace_frozen() const { return trace_frozen_; }

  /// A kBreak action fired (sticky until cleared): the debug-halt request
  /// the Emulation Device honours by pausing the clock for the tool.
  bool break_requested() const { return break_requested_; }
  Cycle break_cycle() const { return break_cycle_; }
  void clear_break() { break_requested_ = false; }

  CounterBank& counters() { return counters_; }
  const CounterBank& counters() const { return counters_; }
  TraceEncoder& encoder() { return encoder_; }
  const McdsConfig& config() const { return config_; }

  // ---- statistics ----
  u64 trigger_out_pulses() const { return trigger_out_pulses_; }
  Cycle last_trigger_out() const { return last_trigger_out_; }
  u64 dropped_messages() const { return dropped_; }
  u64 messages_of(MsgKind kind) const {
    return kind_counts_[static_cast<unsigned>(kind)];
  }

  /// Register encoder/trigger counters under `component` (e.g. "mcds").
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const;

 private:
  void emit(TraceMessage msg);
  void emit_sync(MsgSource source, Cycle now);

  /// The trigger network: comparators, FSM and action equations, which
  /// observe() runs only when the config has comparators, actions or FSM
  /// transitions (`trigger_network_`, fixed at construction).
  void run_trigger_network(const ObservationFrame& frame,
                           std::vector<std::pair<TriggerAction, u32>>& fired);

  McdsConfig config_;
  bool trigger_network_ = false;
  TraceSink* sink_ = nullptr;

  CounterBank counters_;
  StateMachine fsm_;
  TraceEncoder encoder_;
  std::vector<bool> comparator_hits_;

  bool trace_enabled_ = true;
  bool trace_frozen_ = false;
  Cycle next_sync_ = 0;
  bool overflow_pending_ = false;

  // Per-core instruction counts since the last emitted flow/sync/tick.
  u32 pending_instrs_[2] = {0, 0};
  Addr last_data_addr_[2] = {0, 0};
  // Where each core's execution continues (the sync anchor): the cycle's
  // discontinuity target, else last retired pc + 4. 0 = nothing ran yet.
  Addr next_pc_hint_[2] = {0, 0};
  bool anchored_[2] = {false, false};

  u64 trigger_out_pulses_ = 0;
  Cycle last_trigger_out_ = 0;
  bool break_requested_ = false;
  Cycle break_cycle_ = 0;
  u64 dropped_ = 0;
  std::array<u64, 8> kind_counts_{};
};

}  // namespace audo::mcds
