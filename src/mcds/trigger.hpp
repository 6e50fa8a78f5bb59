// MCDS trigger logic: comparators, Boolean equations (sum of products),
// and a trigger finite-state machine.
//
// §3: "MCDS allows to define very complex conditions using Boolean
// expressions, counters and state machines. It is for instance possible
// to trigger on events not happening in a defined time window."
//
// Structure per cycle:
//   observation frame -> comparators -> terms --+
//   event strobes     --------------------------+-> equations -> actions
//   counter threshold flags --------------------+
//   state machine state ------------------------+
// The state machine itself transitions on (comparator/event/flag) guards.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "mcds/events.hpp"
#include "mcds/observation.hpp"

namespace audo::mcds {

enum class CoreSel : u8 { kTc, kPcp };

enum class CompareField : u8 {
  kRetirePc,
  kDataAddr,
  kDataValue,
  kDiscontinuityTarget,
  kIrqPrio,
};

/// Range comparator on an observation field; matches when the field is
/// valid this cycle and lo <= value <= hi.
struct Comparator {
  CoreSel core = CoreSel::kTc;
  CompareField field = CompareField::kRetirePc;
  u32 lo = 0;
  u32 hi = 0;
  /// For kDataAddr/kDataValue: restrict to writes (1), reads (0), any (-1).
  int write_filter = -1;
};

/// One literal of a product term.
struct Term {
  enum class Kind : u8 {
    kTrue,
    kComparator,   // index into the comparator table
    kEvent,        // event strobe (value > 0)
    kCounterFlag,  // index into the counter-bank threshold flags
    kState,        // state machine currently in state `index`
  };
  Kind kind = Kind::kTrue;
  unsigned index = 0;
  EventId event = EventId::kNone;
  bool negate = false;
};

/// Sum of products: OR over products, AND within each product.
struct Equation {
  std::vector<std::vector<Term>> products;

  bool empty() const { return products.empty(); }

  /// Convenience builders.
  static Equation of(Term t) { return Equation{{{t}}}; }
  static Equation event(EventId id, bool negate = false) {
    return of(Term{Term::Kind::kEvent, 0, id, negate});
  }
  static Equation comparator(unsigned index, bool negate = false) {
    return of(Term{Term::Kind::kComparator, index, EventId::kNone, negate});
  }
  static Equation counter_flag(unsigned index, bool negate = false) {
    return of(Term{Term::Kind::kCounterFlag, index, EventId::kNone, negate});
  }
  static Equation state(unsigned index, bool negate = false) {
    return of(Term{Term::Kind::kState, index, EventId::kNone, negate});
  }
  static Equation always() { return of(Term{}); }
};

/// What an equation firing does.
enum class TriggerAction : u8 {
  kNone,
  kTraceOn,         // enable program/data trace qualification
  kTraceOff,
  kEmitWatchpoint,  // emit a watchpoint message (arg = id)
  kArmGroup,        // arm counter group `arg` (cascaded measurement)
  kDisarmGroup,
  kSampleGroup,     // force an immediate sample of counter group `arg`
  kTriggerOut,      // pulse the external trigger-out line
  kStopTrace,       // freeze the trace sink (post-trigger capture)
  kBreak,           // request a debug halt of the device (OCDS break)
};

struct ActionBinding {
  Equation condition;
  TriggerAction action = TriggerAction::kNone;
  u32 arg = 0;
};

/// Trigger FSM transition. Guards must not contain kState terms referring
/// to the machine itself being updated this cycle; they are evaluated on
/// the pre-transition state.
struct Transition {
  u8 from = 0;
  u8 to = 0;
  Equation guard;
};

struct StateMachineConfig {
  u8 initial = 0;
  std::vector<Transition> transitions;
};

/// Inputs to equation evaluation for one cycle.
struct TriggerContext {
  const EventValues* events = nullptr;
  const std::vector<bool>* comparator_hits = nullptr;
  const std::vector<bool>* counter_flags = nullptr;
  u8 state = 0;
};

/// Evaluate all comparators against a frame.
void evaluate_comparators(const std::vector<Comparator>& comparators,
                          const ObservationFrame& frame,
                          std::vector<bool>& hits);

bool evaluate(const Equation& equation, const TriggerContext& context);

class StateMachine {
 public:
  explicit StateMachine(StateMachineConfig config)
      : config_(std::move(config)), state_(config_.initial) {}
  StateMachine() : StateMachine(StateMachineConfig{}) {}

  /// Take the first matching transition from the current state.
  void step(const TriggerContext& context);

  u8 state() const { return state_; }
  void reset() { state_ = config_.initial; }

 private:
  StateMachineConfig config_;
  u8 state_;
};

}  // namespace audo::mcds
