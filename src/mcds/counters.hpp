// MCDS counter bank: the §5 rate-measurement hardware.
//
// "For each CPU one MCDS counter measures for example the instructions
// executed, while another counter is used for the resolution basis.
// Every x clock cycles, the number of executed instructions is saved as a
// trace message ... It is also possible to connect multiple counter
// structures with different resolutions."
//
// A counter *group* shares one resolution basis (executed instructions or
// clock cycles) and samples all its event counters into a single compact
// rate message every `resolution` basis ticks. Groups can be armed and
// disarmed by trigger actions — the cascaded multi-resolution measurement
// of §5. Counters may carry thresholds whose crossing flags feed back
// into the trigger logic.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mcds/events.hpp"

namespace audo::mcds {

struct Threshold {
  enum class Dir : u8 { kBelow, kAboveOrEqual };
  Dir dir = Dir::kBelow;
  u32 value = 0;
};

struct RateCounterConfig {
  EventId event = EventId::kNone;
  /// Evaluated against the sampled count at every group sample; the
  /// resulting flag is a trigger term until the next sample.
  std::optional<Threshold> threshold;
  /// Count only in cycles where this comparator (index into the MCDS
  /// comparator table) matches — e.g. "interrupt entries with priority
  /// 40" instead of all interrupt entries.
  std::optional<unsigned> qualifier;
};

struct CounterGroupConfig {
  std::string name;
  EventId basis = EventId::kTcRetired;  // denominator: instructions or cycles
  u32 resolution = 100;                 // basis ticks per sample
  bool armed_at_start = true;
  std::vector<RateCounterConfig> counters;  // up to 8
};

/// One emitted sample (becomes a kRate trace message).
struct RateSample {
  Cycle cycle = 0;
  unsigned group = 0;
  u32 basis = 0;  // the group's resolution (basis ticks covered)
  std::vector<u32> counts;
};

class CounterBank {
 public:
  /// Returns the group index.
  unsigned add_group(CounterGroupConfig config);

  /// Flag slot of counter `c` in group `g` (only counters with a
  /// threshold own a slot; others return ~0u).
  unsigned flag_index(unsigned group, unsigned counter) const;

  void arm(unsigned group, bool armed);
  bool armed(unsigned group) const { return groups_.at(group).armed; }

  /// Force an immediate sample regardless of the basis position
  /// (kSampleGroup trigger action). No-op on an empty accumulation.
  void force_sample(unsigned group, Cycle now);

  /// Accumulate one cycle (`events`, observed at cycle `now`); emits zero
  /// or more samples into samples(). `comparator_hits` feeds counter
  /// qualifiers (may be null when no counter uses one).
  void step(const EventValues& events, Cycle now,
            const std::vector<bool>* comparator_hits = nullptr);

  /// Samples emitted during the last step()/force_sample(); cleared at
  /// the beginning of each step.
  const std::vector<RateSample>& samples() const { return samples_; }

  /// How many consecutive repetitions of the idle cycle `idle` could be
  /// absorbed without any armed group reaching its resolution (i.e.
  /// without a sample or threshold-flag update). 0 means the next cycle
  /// must be stepped; ~0 means counters impose no bound.
  u64 idle_skip_limit(const EventValues& idle) const;

  /// Bulk-accumulate `n` repetitions of `idle` — exactly what `n` step()
  /// calls would have accumulated, provided `n` is within
  /// idle_skip_limit() so no sample boundary is crossed.
  void skip_idle(const EventValues& idle,
                 const std::vector<bool>* comparator_hits, u64 n);

  /// Current threshold flags (index via flag_index).
  const std::vector<bool>& flags() const { return flags_; }

  void reset();

 private:
  // A group's open measurement window. The counters are running event
  // totals: while a group is armed, its basis and each unqualified
  // counter count what totals_ gained since a mark taken at the window
  // start, so a cycle costs one basis compare per armed group. Every
  // other count is held outright: a comparator-qualified counter adds
  // its event in the cycles its comparator matches, and a disarmed
  // group's window is frozen in `held` when it is disarmed.
  struct Group {
    CounterGroupConfig config;
    bool armed = true;
    u32 basis_mark = 0;
    u32 basis_held = 0;
    std::vector<u32> marks;
    std::vector<u32> held;
    std::vector<unsigned> qualified;   // indices of qualified counters
    std::vector<unsigned> flag_slots;  // per counter; ~0u = no threshold
  };

  bool counts_from_totals(const Group& g, usize counter) const {
    return g.armed && !g.config.counters[counter].qualifier.has_value();
  }
  u32 basis_count(const Group& g) const {
    return g.armed ? totals_[static_cast<unsigned>(g.config.basis)] -
                         g.basis_mark
                   : g.basis_held;
  }
  std::vector<u32> counts(const Group& g) const;
  /// Make the group's window hold `basis` ticks and `counts` (all zero
  /// when null), in the form its armed state reads.
  void set_window(Group& g, u32 basis, const std::vector<u32>* counts);
  void emit_sample(Group& group, unsigned index, Cycle now);

  // Per-event sums since reset(), in u32 like the hardware counters: a
  // window reads total minus mark, exact modulo 2^32.
  std::array<u32, kNumEvents> totals_{};
  std::vector<Group> groups_;
  std::vector<bool> flags_;
  std::vector<RateSample> samples_;
};

}  // namespace audo::mcds
