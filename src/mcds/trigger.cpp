#include "mcds/trigger.hpp"

namespace audo::mcds {
namespace {

bool comparator_matches(const Comparator& cmp, const ObservationFrame& frame) {
  const CoreObservation& core =
      cmp.core == CoreSel::kTc ? frame.tc : frame.pcp;
  u32 value = 0;
  switch (cmp.field) {
    case CompareField::kRetirePc:
      if (core.retired == 0) return false;
      value = core.retire_pc;
      break;
    case CompareField::kDataAddr:
    case CompareField::kDataValue:
      if (!core.data_access) return false;
      if (cmp.write_filter == 0 && core.data_write) return false;
      if (cmp.write_filter == 1 && !core.data_write) return false;
      value = cmp.field == CompareField::kDataAddr ? core.data_addr
                                                   : core.data_value;
      break;
    case CompareField::kDiscontinuityTarget:
      if (!core.discontinuity) return false;
      value = core.discontinuity_target;
      break;
    case CompareField::kIrqPrio:
      if (!core.irq_entry) return false;
      value = core.irq_prio;
      break;
  }
  return value >= cmp.lo && value <= cmp.hi;
}

bool term_value(const Term& term, const TriggerContext& ctx) {
  bool value = false;
  switch (term.kind) {
    case Term::Kind::kTrue:
      value = true;
      break;
    case Term::Kind::kComparator:
      value = ctx.comparator_hits != nullptr &&
              term.index < ctx.comparator_hits->size() &&
              (*ctx.comparator_hits)[term.index];
      break;
    case Term::Kind::kEvent:
      value = ctx.events != nullptr &&
              static_cast<unsigned>(term.event) < kNumEvents &&
              (*ctx.events)[term.event] > 0;
      break;
    case Term::Kind::kCounterFlag:
      value = ctx.counter_flags != nullptr &&
              term.index < ctx.counter_flags->size() &&
              (*ctx.counter_flags)[term.index];
      break;
    case Term::Kind::kState:
      value = ctx.state == term.index;
      break;
  }
  return term.negate ? !value : value;
}

}  // namespace

void evaluate_comparators(const std::vector<Comparator>& comparators,
                          const ObservationFrame& frame,
                          std::vector<bool>& hits) {
  hits.resize(comparators.size());
  for (usize i = 0; i < comparators.size(); ++i) {
    hits[i] = comparator_matches(comparators[i], frame);
  }
}

bool evaluate(const Equation& equation, const TriggerContext& context) {
  for (const auto& product : equation.products) {
    bool all = true;
    for (const Term& term : product) {
      if (!term_value(term, context)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

void StateMachine::step(const TriggerContext& context) {
  for (const Transition& t : config_.transitions) {
    if (t.from != state_) continue;
    if (evaluate(t.guard, context)) {
      state_ = t.to;
      return;
    }
  }
}

}  // namespace audo::mcds
