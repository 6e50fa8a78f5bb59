#include "mcds/counters.hpp"

#include <algorithm>
#include <cassert>

namespace audo::mcds {

namespace {

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
  group.marks.assign(config.counters.size(), 0);
  group.held.assign(config.counters.size(), 0);
  for (usize c = 0; c < config.counters.size(); ++c) {
    const RateCounterConfig& counter = config.counters[c];
    if (counter.qualifier.has_value()) {
      group.qualified.push_back(static_cast<unsigned>(c));
      any_qualified_ = true;
    }
    if (counter.threshold.has_value()) {
      group.flag_slots.push_back(static_cast<unsigned>(flags_.size()));
      flags_.push_back(false);
    } else {
      group.flag_slots.push_back(~0u);
    }
  }
  Window window;
  window.basis = static_cast<u8>(config.basis);
  window.armed = config.armed_at_start;
  window.resolution = config.resolution;
  group.config = std::move(config);
  groups_.push_back(std::move(group));
  windows_.push_back(window);
  const auto index = static_cast<unsigned>(groups_.size() - 1);
  set_window(index, 0, nullptr);
  return index;
}

unsigned CounterBank::flag_index(unsigned group, unsigned counter) const {
  return groups_.at(group).flag_slots.at(counter);
}

std::vector<u32> CounterBank::counts(unsigned group) const {
  const Group& g = groups_[group];
  std::vector<u32> out(g.held.size());
  for (usize c = 0; c < out.size(); ++c) {
    out[c] = counts_from_totals(group, c)
                 ? totals_[static_cast<unsigned>(g.config.counters[c].event)] -
                       g.marks[c]
                 : g.held[c];
  }
  return out;
}

void CounterBank::set_window(unsigned group, u32 basis,
                             const std::vector<u32>* counts) {
  Group& g = groups_[group];
  Window& w = windows_[group];
  if (w.armed) {
    w.mark = totals_[w.basis] - basis;
  } else {
    g.basis_held = basis;
  }
  for (usize c = 0; c < g.held.size(); ++c) {
    const u32 count = counts != nullptr ? (*counts)[c] : 0;
    if (counts_from_totals(group, c)) {
      g.marks[c] =
          totals_[static_cast<unsigned>(g.config.counters[c].event)] - count;
      g.held[c] = 0;
    } else {
      g.held[c] = count;
    }
  }
}

void CounterBank::arm(unsigned group, bool armed) {
  Window& w = windows_.at(group);
  if (w.armed == armed) return;
  if (armed) {
    // A freshly armed group starts a clean measurement window.
    w.armed = true;
    set_window(group, 0, nullptr);
  } else {
    // Freeze the window: a disarmed group counts nothing.
    const u32 basis = basis_count(group);
    const std::vector<u32> window = counts(group);
    w.armed = false;
    set_window(group, basis, &window);
  }
}

void CounterBank::emit_sample(unsigned group, Cycle now) {
  const Group& g = groups_[group];
  RateSample sample;
  sample.cycle = now;
  sample.group = group;
  sample.basis = g.config.resolution;
  sample.counts = counts(group);
  // Update threshold flags from this sample.
  for (usize c = 0; c < sample.counts.size(); ++c) {
    const auto& threshold = g.config.counters[c].threshold;
    if (!threshold.has_value()) continue;
    const bool flag = threshold->dir == Threshold::Dir::kBelow
                          ? sample.counts[c] < threshold->value
                          : sample.counts[c] >= threshold->value;
    flags_[g.flag_slots[c]] = flag;
  }
  // A multi-issue basis (up to 3 instructions/cycle) can step past the
  // resolution; carry the remainder so long-run rates stay exact.
  set_window(group, basis_count(group) - g.config.resolution, nullptr);
  samples_.push_back(std::move(sample));
}

void CounterBank::force_sample(unsigned group, Cycle now) {
  const u32 basis = basis_count(group);
  if (basis == 0) return;
  RateSample sample;
  sample.cycle = now;
  sample.group = group;
  sample.basis = basis;  // partial window: report actual basis
  sample.counts = counts(group);
  set_window(group, 0, nullptr);
  samples_.push_back(std::move(sample));
}

void CounterBank::accumulate(const ObservationFrame& frame,
                             const std::vector<bool>* comparator_hits, u32 n) {
  if (!any_qualified_) {
    accumulate_events(totals_, frame, n);
    return;
  }
  // A qualified counter adds what its event gained in this accumulation.
  const EventTotals before = totals_;
  accumulate_events(totals_, frame, n);
  for (usize i = 0; i < groups_.size(); ++i) {
    if (!windows_[i].armed) continue;
    Group& g = groups_[i];
    for (unsigned c : g.qualified) {
      const RateCounterConfig& counter = g.config.counters[c];
      if (qualifier_matches(counter, comparator_hits)) {
        const auto e = static_cast<unsigned>(counter.event);
        g.held[c] += totals_[e] - before[e];
      }
    }
  }
}

void CounterBank::step(const ObservationFrame& frame,
                       const std::vector<bool>* comparator_hits) {
  samples_.clear();
  if (groups_.empty()) return;
  accumulate(frame, comparator_hits, 1);
  for (const Window& w : windows_) {
    if (!w.armed || totals_[w.basis] - w.mark < w.resolution) continue;
    const auto group = static_cast<unsigned>(&w - windows_.data());
    while (basis_count(group) >= w.resolution) emit_sample(group, frame.cycle);
  }
}

u64 CounterBank::idle_skip_limit(const EventValues& idle) const {
  u64 limit = ~u64{0};
  for (usize i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    if (!w.armed) continue;
    const u32 v = idle.all()[w.basis];
    if (v == 0) continue;  // basis does not advance on idle cycles
    // Stop before the basis reaches the resolution: the sample (and any
    // threshold-flag update) must happen in a normally stepped cycle.
    const u32 basis = basis_count(static_cast<unsigned>(i));
    const u64 room = w.resolution > basis ? (w.resolution - 1 - basis) / v : 0;
    limit = std::min(limit, room);
  }
  return limit;
}

void CounterBank::skip_idle(const ObservationFrame& idle,
                            const std::vector<bool>* comparator_hits, u64 n) {
  // Stepped idle cycles would have cleared any samples left over from the
  // preceding cycle.
  samples_.clear();
  // u32 wrap-around matches n repeated single-cycle additions.
  accumulate(idle, comparator_hits, static_cast<u32>(n));
}

void CounterBank::reset() {
  totals_.fill(0);
  for (usize i = 0; i < groups_.size(); ++i) {
    windows_[i].armed = groups_[i].config.armed_at_start;
    set_window(static_cast<unsigned>(i), 0, nullptr);
  }
  std::fill(flags_.begin(), flags_.end(), false);
  samples_.clear();
}

}  // namespace audo::mcds
