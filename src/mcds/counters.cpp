#include "mcds/counters.hpp"

#include <algorithm>
#include <cassert>

namespace audo::mcds {

namespace {

// totals[e] += scale * values[e] for every event; one SIMD add per four
// events when scale is 1.
void add_events(u32* __restrict totals, const u32* __restrict values,
                u32 scale) {
  for (unsigned e = 0; e < kNumEvents; ++e) totals[e] += scale * values[e];
}

bool qualifier_matches(const RateCounterConfig& counter,
                       const std::vector<bool>* comparator_hits) {
  const unsigned q = *counter.qualifier;
  return comparator_hits != nullptr && q < comparator_hits->size() &&
         (*comparator_hits)[q];
}

}  // namespace

unsigned CounterBank::add_group(CounterGroupConfig config) {
  assert(config.resolution > 0);
  assert(config.counters.size() <= 8);
  Group group;
  group.armed = config.armed_at_start;
  group.marks.assign(config.counters.size(), 0);
  group.held.assign(config.counters.size(), 0);
  for (usize c = 0; c < config.counters.size(); ++c) {
    const RateCounterConfig& counter = config.counters[c];
    if (counter.qualifier.has_value()) {
      group.qualified.push_back(static_cast<unsigned>(c));
    }
    if (counter.threshold.has_value()) {
      group.flag_slots.push_back(static_cast<unsigned>(flags_.size()));
      flags_.push_back(false);
    } else {
      group.flag_slots.push_back(~0u);
    }
  }
  group.config = std::move(config);
  set_window(group, 0, nullptr);
  groups_.push_back(std::move(group));
  return static_cast<unsigned>(groups_.size() - 1);
}

unsigned CounterBank::flag_index(unsigned group, unsigned counter) const {
  return groups_.at(group).flag_slots.at(counter);
}

std::vector<u32> CounterBank::counts(const Group& g) const {
  std::vector<u32> out(g.held.size());
  for (usize c = 0; c < out.size(); ++c) {
    out[c] = counts_from_totals(g, c)
                 ? totals_[static_cast<unsigned>(g.config.counters[c].event)] -
                       g.marks[c]
                 : g.held[c];
  }
  return out;
}

void CounterBank::set_window(Group& g, u32 basis,
                             const std::vector<u32>* counts) {
  if (g.armed) {
    g.basis_mark = totals_[static_cast<unsigned>(g.config.basis)] - basis;
  } else {
    g.basis_held = basis;
  }
  for (usize c = 0; c < g.held.size(); ++c) {
    const u32 count = counts != nullptr ? (*counts)[c] : 0;
    if (counts_from_totals(g, c)) {
      g.marks[c] =
          totals_[static_cast<unsigned>(g.config.counters[c].event)] - count;
      g.held[c] = 0;
    } else {
      g.held[c] = count;
    }
  }
}

void CounterBank::arm(unsigned group, bool armed) {
  Group& g = groups_.at(group);
  if (g.armed == armed) return;
  if (armed) {
    // A freshly armed group starts a clean measurement window.
    g.armed = true;
    set_window(g, 0, nullptr);
  } else {
    // Freeze the window: a disarmed group counts nothing.
    const u32 basis = basis_count(g);
    const std::vector<u32> window = counts(g);
    g.armed = false;
    set_window(g, basis, &window);
  }
}

void CounterBank::emit_sample(Group& group, unsigned index, Cycle now) {
  RateSample sample;
  sample.cycle = now;
  sample.group = index;
  sample.basis = group.config.resolution;
  sample.counts = counts(group);
  // Update threshold flags from this sample.
  for (usize c = 0; c < sample.counts.size(); ++c) {
    const auto& threshold = group.config.counters[c].threshold;
    if (!threshold.has_value()) continue;
    const bool flag = threshold->dir == Threshold::Dir::kBelow
                          ? sample.counts[c] < threshold->value
                          : sample.counts[c] >= threshold->value;
    flags_[group.flag_slots[c]] = flag;
  }
  // A multi-issue basis (up to 3 instructions/cycle) can step past the
  // resolution; carry the remainder so long-run rates stay exact.
  set_window(group, basis_count(group) - group.config.resolution, nullptr);
  samples_.push_back(std::move(sample));
}

void CounterBank::force_sample(unsigned group, Cycle now) {
  Group& g = groups_.at(group);
  const u32 basis = basis_count(g);
  if (basis == 0) return;
  RateSample sample;
  sample.cycle = now;
  sample.group = group;
  sample.basis = basis;  // partial window: report actual basis
  sample.counts = counts(g);
  set_window(g, 0, nullptr);
  samples_.push_back(std::move(sample));
}

void CounterBank::step(const EventValues& events, Cycle now,
                       const std::vector<bool>* comparator_hits) {
  samples_.clear();
  if (groups_.empty()) return;
  add_events(totals_.data(), events.all().data(), 1);
  for (usize i = 0; i < groups_.size(); ++i) {
    Group& g = groups_[i];
    if (!g.armed) continue;
    for (unsigned c : g.qualified) {
      const RateCounterConfig& counter = g.config.counters[c];
      if (qualifier_matches(counter, comparator_hits)) {
        g.held[c] += events[counter.event];
      }
    }
    while (basis_count(g) >= g.config.resolution) {
      emit_sample(g, static_cast<unsigned>(i), now);
    }
  }
}

u64 CounterBank::idle_skip_limit(const EventValues& idle) const {
  u64 limit = ~u64{0};
  for (const Group& g : groups_) {
    if (!g.armed) continue;
    const u32 v = idle[g.config.basis];
    if (v == 0) continue;  // basis does not advance on idle cycles
    // Stop before the basis reaches the resolution: the sample (and any
    // threshold-flag update) must happen in a normally stepped cycle.
    const u32 basis = basis_count(g);
    const u64 room = g.config.resolution > basis
                         ? (g.config.resolution - 1 - basis) / v
                         : 0;
    limit = std::min(limit, room);
  }
  return limit;
}

void CounterBank::skip_idle(const EventValues& idle,
                            const std::vector<bool>* comparator_hits, u64 n) {
  // Stepped idle cycles would have cleared any samples left over from the
  // preceding cycle.
  samples_.clear();
  // u32 wrap-around matches n repeated single-cycle additions.
  add_events(totals_.data(), idle.all().data(), static_cast<u32>(n));
  for (Group& g : groups_) {
    if (!g.armed) continue;
    for (unsigned c : g.qualified) {
      const RateCounterConfig& counter = g.config.counters[c];
      if (qualifier_matches(counter, comparator_hits)) {
        g.held[c] += static_cast<u32>(n * idle[counter.event]);
      }
    }
  }
}

void CounterBank::reset() {
  totals_.fill(0);
  for (Group& g : groups_) {
    g.armed = g.config.armed_at_start;
    set_window(g, 0, nullptr);
  }
  std::fill(flags_.begin(), flags_.end(), false);
  samples_.clear();
}

}  // namespace audo::mcds
