// MCDS logic tests: event mux, comparators, Boolean equations, the
// trigger FSM, the counter bank (rates, thresholds, cascading) and the
// top-level Mcds message generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/prng.hpp"
#include "mcds/counters.hpp"
#include "mcds/events.hpp"
#include "mcds/mcds.hpp"
#include "mcds/trigger.hpp"

namespace audo::mcds {
namespace {

ObservationFrame frame_at(Cycle cycle) {
  ObservationFrame f;
  f.cycle = cycle;
  f.tc.present = true;
  return f;
}

void step(CounterBank& bank, const ObservationFrame& f,
          const std::vector<bool>* hits = nullptr) {
  bank.step(EventValues(f), f.cycle, hits);
}

TEST(Events, ValuesReflectFrame) {
  ObservationFrame f = frame_at(10);
  f.tc.retired = 3;
  f.tc.icache_miss = true;
  f.sri.contention = true;
  f.sri.waiting_masters = 2;
  EXPECT_EQ(event_value(f, EventId::kCycles), 1u);
  EXPECT_EQ(event_value(f, EventId::kTcRetired), 3u);
  EXPECT_EQ(event_value(f, EventId::kTcICacheMiss), 1u);
  EXPECT_EQ(event_value(f, EventId::kTcICacheHit), 0u);
  EXPECT_EQ(event_value(f, EventId::kBusContention), 1u);
  EXPECT_EQ(event_value(f, EventId::kBusWaitingMasters), 2u);
}

TEST(Events, StalledExcludesHaltAndRetirement) {
  ObservationFrame f = frame_at(1);
  f.tc.retired = 0;
  f.tc.stall = StallCause::kIFetch;
  EXPECT_EQ(event_value(f, EventId::kTcStalled), 1u);
  f.tc.stall = StallCause::kHalted;
  EXPECT_EQ(event_value(f, EventId::kTcStalled), 0u);
  f.tc.stall = StallCause::kNone;
  f.tc.retired = 1;
  EXPECT_EQ(event_value(f, EventId::kTcStalled), 0u);
}

TEST(Events, EveryEventHasAName) {
  for (unsigned i = 1; i < kNumEvents; ++i) {
    EXPECT_NE(event_name(static_cast<EventId>(i)), "?");
  }
}

TEST(Comparators, AddressRangeAndWriteFilter) {
  std::vector<Comparator> cmps = {
      {CoreSel::kTc, CompareField::kDataAddr, 0x1000, 0x1FFF, -1},
      {CoreSel::kTc, CompareField::kDataAddr, 0x1000, 0x1FFF, 1},  // writes
      {CoreSel::kTc, CompareField::kRetirePc, 0x8000, 0x8003, -1},
  };
  std::vector<bool> hits;

  ObservationFrame f = frame_at(1);
  f.tc.data_access = true;
  f.tc.data_write = false;
  f.tc.data_addr = 0x1800;
  evaluate_comparators(cmps, f, hits);
  EXPECT_TRUE(hits[0]);
  EXPECT_FALSE(hits[1]);  // read, write-filtered out
  EXPECT_FALSE(hits[2]);  // no retirement

  f.tc.data_write = true;
  f.tc.retired = 1;
  f.tc.retire_pc = 0x8000;
  evaluate_comparators(cmps, f, hits);
  EXPECT_TRUE(hits[0]);
  EXPECT_TRUE(hits[1]);
  EXPECT_TRUE(hits[2]);

  f.tc.data_addr = 0x2000;  // out of range
  evaluate_comparators(cmps, f, hits);
  EXPECT_FALSE(hits[0]);
}

TEST(Equations, SumOfProductsWithNegation) {
  // (eventA AND NOT cmp0) OR cmp1
  Equation eq;
  eq.products = {
      {Term{Term::Kind::kEvent, 0, EventId::kTcIrqEntry, false},
       Term{Term::Kind::kComparator, 0, EventId::kNone, true}},
      {Term{Term::Kind::kComparator, 1, EventId::kNone, false}},
  };
  ObservationFrame f = frame_at(1);
  std::vector<bool> hits = {false, false};
  const auto eval = [&] {
    const EventValues events(f);
    return evaluate(eq, TriggerContext{&events, &hits, nullptr, 0});
  };

  EXPECT_FALSE(eval());
  f.tc.irq_entry = true;
  EXPECT_TRUE(eval());   // A and not cmp0
  hits[0] = true;
  EXPECT_FALSE(eval());  // cmp0 kills first product
  hits[1] = true;
  EXPECT_TRUE(eval());   // second product
}

TEST(StateMachine, TransitionsOnGuards) {
  StateMachineConfig cfg;
  cfg.initial = 0;
  cfg.transitions = {
      {0, 1, Equation::event(EventId::kTcIrqEntry)},
      {1, 2, Equation::event(EventId::kTcDataAccess)},
      {2, 0, Equation::always()},
  };
  StateMachine fsm(cfg);
  ObservationFrame f = frame_at(1);
  const auto step_fsm = [&] {
    const EventValues events(f);
    fsm.step(TriggerContext{&events, nullptr, nullptr, 0});
  };

  step_fsm();
  EXPECT_EQ(fsm.state(), 0);  // no irq yet
  f.tc.irq_entry = true;
  step_fsm();
  EXPECT_EQ(fsm.state(), 1);
  f.tc.irq_entry = false;
  step_fsm();
  EXPECT_EQ(fsm.state(), 1);
  f.tc.data_access = true;
  step_fsm();
  EXPECT_EQ(fsm.state(), 2);
  step_fsm();
  EXPECT_EQ(fsm.state(), 0);  // unconditional
  fsm.reset();
  EXPECT_EQ(fsm.state(), 0);
}

// ---------------------------------------------------------------------
// Counter bank.

TEST(CounterBank, RateSamplingOnInstructionBasis) {
  CounterBank bank;
  CounterGroupConfig g;
  g.name = "cache";
  g.basis = EventId::kTcRetired;
  g.resolution = 10;
  g.counters = {RateCounterConfig{EventId::kTcICacheMiss, {}, {}}};
  bank.add_group(g);

  // 7 cycles with 2 instrs each (14 instrs) and a miss every cycle.
  u32 samples_seen = 0;
  for (Cycle c = 1; c <= 7; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 2;
    f.tc.icache_miss = true;
    step(bank, f);
    samples_seen += static_cast<u32>(bank.samples().size());
    if (!bank.samples().empty()) {
      EXPECT_EQ(bank.samples()[0].basis, 10u);
      EXPECT_EQ(bank.samples()[0].counts[0], 5u);  // 5 misses per 10 instrs
    }
  }
  EXPECT_EQ(samples_seen, 1u);  // 14 instrs -> one complete window
}

TEST(CounterBank, BasisRemainderCarries) {
  CounterBank bank;
  CounterGroupConfig g;
  g.basis = EventId::kTcRetired;
  g.resolution = 4;
  g.counters = {RateCounterConfig{EventId::kCycles, {}, {}}};
  bank.add_group(g);
  // 3 retired per cycle: windows complete at cumulative 4,8,12 instrs.
  u32 total_samples = 0;
  for (Cycle c = 1; c <= 4; ++c) {  // 12 instructions
    ObservationFrame f = frame_at(c);
    f.tc.retired = 3;
    step(bank, f);
    total_samples += static_cast<u32>(bank.samples().size());
  }
  EXPECT_EQ(total_samples, 3u);
}

TEST(CounterBank, ThresholdFlagFollowsSamples) {
  CounterBank bank;
  CounterGroupConfig g;
  g.basis = EventId::kCycles;
  g.resolution = 10;
  g.counters = {RateCounterConfig{
      EventId::kTcRetired, Threshold{Threshold::Dir::kBelow, 5}, {}}};
  const unsigned gi = bank.add_group(g);
  const unsigned flag = bank.flag_index(gi, 0);
  ASSERT_NE(flag, ~0u);

  // High IPC: 1/cycle -> count 10 >= 5 -> flag false.
  for (Cycle c = 1; c <= 10; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 1;
    step(bank, f);
  }
  EXPECT_FALSE(bank.flags()[flag]);
  // Zero IPC -> count 0 < 5 -> flag true after the next sample.
  for (Cycle c = 11; c <= 20; ++c) step(bank, frame_at(c));
  EXPECT_TRUE(bank.flags()[flag]);
}

TEST(CounterBank, DisarmedGroupDoesNotSample) {
  CounterBank bank;
  CounterGroupConfig g;
  g.basis = EventId::kCycles;
  g.resolution = 5;
  g.armed_at_start = false;
  g.counters = {RateCounterConfig{EventId::kTcRetired, {}, {}}};
  const unsigned gi = bank.add_group(g);
  for (Cycle c = 1; c <= 20; ++c) {
    step(bank, frame_at(c));
    EXPECT_TRUE(bank.samples().empty());
  }
  bank.arm(gi, true);
  u32 samples = 0;
  for (Cycle c = 21; c <= 30; ++c) {
    step(bank, frame_at(c));
    samples += static_cast<u32>(bank.samples().size());
  }
  EXPECT_EQ(samples, 2u);
}

TEST(CounterBank, ForceSampleReportsPartialBasis) {
  CounterBank bank;
  CounterGroupConfig g;
  g.basis = EventId::kCycles;
  g.resolution = 100;
  g.counters = {RateCounterConfig{EventId::kTcRetired, {}, {}}};
  const unsigned gi = bank.add_group(g);
  for (Cycle c = 1; c <= 7; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 2;
    step(bank, f);
  }
  bank.force_sample(gi, 7);
  ASSERT_EQ(bank.samples().size(), 1u);
  EXPECT_EQ(bank.samples()[0].basis, 7u);
  EXPECT_EQ(bank.samples()[0].counts[0], 14u);
}

// ---------------------------------------------------------------------
// Top-level Mcds.

TEST(Mcds, RateMessagesReachTheSink) {
  McdsConfig cfg;
  CounterGroupConfig g;
  g.name = "ipc";
  g.basis = EventId::kCycles;
  g.resolution = 8;
  g.counters = {RateCounterConfig{EventId::kTcRetired, {}, {}}};
  cfg.counter_groups = {g};
  Mcds mcds(cfg);
  VectorSink sink;
  mcds.set_sink(&sink);

  for (Cycle c = 1; c <= 32; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 2;
    mcds.observe(f);
  }
  EXPECT_EQ(mcds.messages_of(MsgKind::kRate), 4u);
  auto decoded = TraceDecoder::decode(sink.units());
  ASSERT_TRUE(decoded.is_ok());
  unsigned rates = 0;
  for (const TraceMessage& m : decoded.value()) {
    if (m.kind == MsgKind::kRate) {
      ++rates;
      EXPECT_EQ(m.basis, 8u);
      ASSERT_EQ(m.counts.size(), 1u);
      EXPECT_EQ(m.counts[0], 16u);
    }
  }
  EXPECT_EQ(rates, 4u);
}

TEST(Mcds, TriggerActionsControlTrace) {
  // TraceOn when a data write to 0x2000 happens; TraceOff on address
  // 0x3000. Program trace gated accordingly.
  McdsConfig cfg;
  cfg.program_trace = true;
  cfg.trace_enabled_at_start = false;
  cfg.comparators = {
      Comparator{CoreSel::kTc, CompareField::kDataAddr, 0x2000, 0x2003, -1},
      Comparator{CoreSel::kTc, CompareField::kDataAddr, 0x3000, 0x3003, -1},
  };
  cfg.actions = {
      ActionBinding{Equation::comparator(0), TriggerAction::kTraceOn, 0},
      ActionBinding{Equation::comparator(1), TriggerAction::kTraceOff, 0},
  };
  Mcds mcds(cfg);
  VectorSink sink;
  mcds.set_sink(&sink);

  auto data_frame = [&](Cycle c, Addr addr) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 1;
    f.tc.retire_pc = 0x80000000;
    f.tc.data_access = true;
    f.tc.data_addr = addr;
    f.tc.discontinuity = true;
    f.tc.discontinuity_target = 0x80000100;
    return f;
  };

  mcds.observe(data_frame(1, 0x1000));
  EXPECT_FALSE(mcds.trace_enabled());
  EXPECT_EQ(sink.units().size(), 0u);
  mcds.observe(data_frame(2, 0x2000));
  EXPECT_TRUE(mcds.trace_enabled());
  mcds.observe(data_frame(3, 0x1000));
  EXPECT_GT(sink.units().size(), 0u);
  mcds.observe(data_frame(4, 0x3000));
  EXPECT_FALSE(mcds.trace_enabled());
}

TEST(Mcds, WatchpointAndTriggerOut) {
  McdsConfig cfg;
  cfg.program_trace = true;
  cfg.comparators = {
      Comparator{CoreSel::kTc, CompareField::kRetirePc, 0x9000, 0x9003, -1}};
  cfg.actions = {
      ActionBinding{Equation::comparator(0), TriggerAction::kEmitWatchpoint, 7},
      ActionBinding{Equation::comparator(0), TriggerAction::kTriggerOut, 0},
  };
  Mcds mcds(cfg);
  VectorSink sink;
  mcds.set_sink(&sink);

  ObservationFrame f = frame_at(5);
  f.tc.retired = 1;
  f.tc.retire_pc = 0x9000;
  mcds.observe(f);
  EXPECT_EQ(mcds.trigger_out_pulses(), 1u);
  EXPECT_EQ(mcds.last_trigger_out(), 5u);
  auto decoded = TraceDecoder::decode(sink.units());
  ASSERT_TRUE(decoded.is_ok());
  bool saw_wp = false;
  for (const TraceMessage& m : decoded.value()) {
    if (m.kind == MsgKind::kWatchpoint) {
      saw_wp = true;
      EXPECT_EQ(m.id, 7);
      EXPECT_EQ(m.cycle, 5u);
    }
  }
  EXPECT_TRUE(saw_wp);
}

TEST(Mcds, CascadedArmDisarmViaCounterFlag) {
  // Guard group: IPC per 10 cycles, threshold below 5 arms group 1.
  McdsConfig cfg;
  CounterGroupConfig guard;
  guard.name = "guard";
  guard.basis = EventId::kCycles;
  guard.resolution = 10;
  guard.counters = {RateCounterConfig{
      EventId::kTcRetired, Threshold{Threshold::Dir::kBelow, 5}, {}}};
  CounterGroupConfig detail;
  detail.name = "detail";
  detail.basis = EventId::kCycles;
  detail.resolution = 2;
  detail.armed_at_start = false;
  detail.counters = {RateCounterConfig{EventId::kTcRetired, {}, {}}};
  cfg.counter_groups = {guard, detail};
  cfg.actions = {
      ActionBinding{Equation::counter_flag(0), TriggerAction::kArmGroup, 1},
      ActionBinding{Equation::counter_flag(0, true), TriggerAction::kDisarmGroup, 1},
  };
  Mcds mcds(cfg);
  VectorSink sink;
  mcds.set_sink(&sink);

  // Phase 1: high IPC -> detail stays disarmed.
  for (Cycle c = 1; c <= 30; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 1;
    mcds.observe(f);
  }
  EXPECT_FALSE(mcds.counters().armed(1));
  const u64 rates_high = mcds.messages_of(MsgKind::kRate);
  // Phase 2: stall -> guard flag arms the detail group.
  for (Cycle c = 31; c <= 60; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 0;
    f.tc.stall = StallCause::kIFetch;
    mcds.observe(f);
  }
  EXPECT_TRUE(mcds.counters().armed(1));
  EXPECT_GT(mcds.messages_of(MsgKind::kRate), rates_high + 5);
  // Phase 3: recovery -> disarmed again.
  for (Cycle c = 61; c <= 90; ++c) {
    ObservationFrame f = frame_at(c);
    f.tc.retired = 2;
    mcds.observe(f);
  }
  EXPECT_FALSE(mcds.counters().armed(1));
}

TEST(Mcds, StopTraceFreezesSink) {
  McdsConfig cfg;
  cfg.program_trace = true;
  cfg.comparators = {
      Comparator{CoreSel::kTc, CompareField::kRetirePc, 0x9000, 0x9003, -1}};
  cfg.actions = {
      ActionBinding{Equation::comparator(0), TriggerAction::kStopTrace, 0}};
  Mcds mcds(cfg);
  VectorSink sink;
  mcds.set_sink(&sink);

  ObservationFrame f = frame_at(1);
  f.tc.retired = 1;
  f.tc.retire_pc = 0x8000;
  f.tc.discontinuity = true;
  f.tc.discontinuity_target = 0x8100;
  mcds.observe(f);
  const usize before = sink.units().size();
  EXPECT_GT(before, 0u);

  f.cycle = 2;
  f.tc.retire_pc = 0x9000;  // trigger
  mcds.observe(f);
  EXPECT_TRUE(mcds.trace_frozen());
  f.cycle = 3;
  f.tc.retire_pc = 0x8000;
  mcds.observe(f);
  mcds.observe(f);
  // Nothing after the freeze (allow the freeze-cycle message itself).
  EXPECT_LE(sink.units().size(), before + 1);
}

// ---------------------------------------------------------------------
// Counter-bank differential test: the bank against a reference
// accumulator written out here, which adds every counter's event value
// into its window on every cycle.

class ReferenceBank {
 public:
  void add_group(const CounterGroupConfig& config) {
    Group g;
    g.config = config;
    g.armed = config.armed_at_start;
    g.accs.assign(config.counters.size(), 0);
    for (const RateCounterConfig& c : config.counters) {
      g.flag_slots.push_back(c.threshold ? static_cast<unsigned>(flags.size())
                                         : ~0u);
      if (c.threshold) flags.push_back(false);
    }
    groups_.push_back(std::move(g));
  }

  void arm(unsigned index, bool armed) {
    Group& g = groups_[index];
    if (g.armed == armed) return;
    g.armed = armed;
    if (armed) {
      g.basis_acc = 0;
      std::fill(g.accs.begin(), g.accs.end(), 0u);
    }
  }

  void force_sample(unsigned index, Cycle now) {
    Group& g = groups_[index];
    if (g.basis_acc == 0) return;
    samples.push_back(RateSample{now, index, g.basis_acc, g.accs});
    std::fill(g.accs.begin(), g.accs.end(), 0u);
    g.basis_acc = 0;
  }

  void step(const ObservationFrame& f, const std::vector<bool>& hits) {
    samples.clear();
    for (unsigned i = 0; i < groups_.size(); ++i) {
      Group& g = groups_[i];
      if (!g.armed) continue;
      g.basis_acc += event_value(f, g.config.basis);
      for (usize c = 0; c < g.accs.size(); ++c) {
        const RateCounterConfig& counter = g.config.counters[c];
        if (counter.qualifier &&
            (*counter.qualifier >= hits.size() || !hits[*counter.qualifier])) {
          continue;
        }
        g.accs[c] += event_value(f, counter.event);
      }
      while (g.basis_acc >= g.config.resolution) {
        g.basis_acc -= g.config.resolution;
        samples.push_back(
            RateSample{f.cycle, i, g.config.resolution, g.accs});
        for (usize c = 0; c < g.accs.size(); ++c) {
          const auto& threshold = g.config.counters[c].threshold;
          if (!threshold) continue;
          flags[g.flag_slots[c]] = threshold->dir == Threshold::Dir::kBelow
                                       ? g.accs[c] < threshold->value
                                       : g.accs[c] >= threshold->value;
        }
        std::fill(g.accs.begin(), g.accs.end(), 0u);
      }
    }
  }

  /// The bank's skip bound, restated: no armed group may reach its
  /// resolution inside the skipped run.
  u64 idle_skip_limit(const ObservationFrame& idle) const {
    u64 limit = ~u64{0};
    for (const Group& g : groups_) {
      const u32 v = event_value(idle, g.config.basis);
      if (!g.armed || v == 0) continue;
      limit = std::min<u64>(limit,
                            (g.config.resolution - 1 - g.basis_acc) / v);
    }
    return limit;
  }

  std::vector<RateSample> samples;
  std::vector<bool> flags;

 private:
  struct Group {
    CounterGroupConfig config;
    bool armed = true;
    u32 basis_acc = 0;
    std::vector<u32> accs;
    std::vector<unsigned> flag_slots;
  };
  std::vector<Group> groups_;
};

constexpr unsigned kDiffComparators = 3;

/// A frame with every event source the mux reads set at random;
/// `density` is the chance of each strobe. The TC retires nothing when
/// `idle` is set (a parked core's cycle).
ObservationFrame random_frame(Prng& prng, Cycle cycle, double density,
                              bool idle) {
  const auto bit = [&] { return prng.chance(density); };
  const auto small = [&](u64 bound) {
    return bit() ? static_cast<u8>(prng.next_below(bound)) : u8{0};
  };
  ObservationFrame f;
  f.cycle = cycle;
  for (CoreObservation* core : {&f.tc, &f.pcp}) {
    CoreObservation& c = *core;
    c.present = core == &f.tc || prng.chance(0.8);
    c.retired = idle ? 0 : small(4);
    c.retire_pc = 0x80000000u + static_cast<Addr>(prng.next_below(64)) * 4;
    c.stall = static_cast<StallCause>(prng.next_below(7));
    c.attr.root = static_cast<StallRootCause>(
        prng.next_below(kNumStallRootCauses));
    c.discontinuity = bit();
    c.irq_entry = bit();
    c.irq_exit = bit();
    c.trap_entry = bit();
    c.data_access = bit();
    c.data_write = bit();
    c.icache_access = bit();
    c.icache_hit = bit();
    c.icache_miss = bit();
    c.dcache_access = bit();
    c.dcache_hit = bit();
    c.dcache_miss = bit();
    c.dspr_access = bit();
    c.flash_data_access = bit();
    c.sram_data_access = bit();
    c.periph_data_access = bit();
  }
  f.flash.code_access = bit();
  f.flash.code_buffer_hit = bit();
  f.flash.data_access = bit();
  f.flash.data_buffer_hit = bit();
  f.flash.array_conflict = bit();
  f.sri.any_grant = bit();
  f.sri.contention = bit();
  f.sri.waiting_masters = small(5);
  f.dma.transfer = bit();
  f.safety.ecc_corrected = small(3);
  f.safety.ecc_uncorrectable = small(3);
  f.safety.bus_error = bit();
  f.safety.wdt_timeout = bit();
  f.safety.cpu_trap = bit();
  f.safety.alarm_irq = bit();
  f.irq.count = small(5);
  return f;
}

/// Cycle or retired basis, resolution 1..64 (a 3-issue cycle can close
/// two windows at once), up to 6 counters on random events with random
/// thresholds, and exactly one comparator-qualified counter.
CounterGroupConfig random_group(Prng& prng) {
  CounterGroupConfig g;
  g.basis = prng.chance(0.5) ? EventId::kCycles : EventId::kTcRetired;
  g.resolution = static_cast<u32>(
      1 + prng.next_below(prng.chance(0.3) ? 2 : 64));
  g.armed_at_start = prng.chance(0.75);
  const unsigned n = 1 + static_cast<unsigned>(prng.next_below(6));
  const unsigned qualified = static_cast<unsigned>(prng.next_below(n));
  for (unsigned c = 0; c < n; ++c) {
    RateCounterConfig counter;
    counter.event = static_cast<EventId>(1 + prng.next_below(kNumEvents - 1));
    if (prng.chance(0.4)) {
      counter.threshold = Threshold{
          prng.chance(0.5) ? Threshold::Dir::kBelow
                           : Threshold::Dir::kAboveOrEqual,
          static_cast<u32>(prng.next_below(40))};
    }
    // Index kDiffComparators is out of range: a qualifier with no
    // comparator behind it never counts.
    if (c == qualified) {
      counter.qualifier =
          static_cast<unsigned>(prng.next_below(kDiffComparators + 1));
    }
    g.counters.push_back(counter);
  }
  return g;
}

void expect_same_output(const CounterBank& bank, const ReferenceBank& ref,
                        Cycle cycle) {
  ASSERT_EQ(bank.samples().size(), ref.samples.size()) << "cycle " << cycle;
  for (usize i = 0; i < ref.samples.size(); ++i) {
    const RateSample& got = bank.samples()[i];
    const RateSample& want = ref.samples[i];
    EXPECT_EQ(got.cycle, want.cycle) << "cycle " << cycle;
    EXPECT_EQ(got.group, want.group) << "cycle " << cycle;
    EXPECT_EQ(got.basis, want.basis) << "cycle " << cycle;
    EXPECT_EQ(got.counts, want.counts) << "cycle " << cycle;
  }
  EXPECT_EQ(bank.flags(), ref.flags) << "cycle " << cycle;
}

/// Drive a bank and the reference through one seeded history: random
/// frames, arm/disarm and force_sample calls, and idle skips inside the
/// bank's limit. The history ends by force-sampling every group, so the
/// counts of the windows still open are compared too.
void run_differential(u64 seed, Cycle cycles) {
  Prng prng(seed);
  std::vector<CounterGroupConfig> configs;
  const unsigned groups = 2 + static_cast<unsigned>(prng.next_below(4));
  for (unsigned i = 0; i < groups; ++i) configs.push_back(random_group(prng));

  CounterBank bank;
  ReferenceBank ref;
  for (const CounterGroupConfig& g : configs) {
    bank.add_group(g);
    ref.add_group(g);
  }
  std::vector<bool> hits(kDiffComparators);
  Cycle cycle = 0;
  while (cycle < cycles) {
    ++cycle;
    for (usize i = 0; i < hits.size(); ++i) hits[i] = prng.chance(0.5);
    const u64 op = prng.next_below(100);
    if (op < 8) {
      // An idle run the bank may absorb in one call.
      const ObservationFrame idle = random_frame(prng, cycle, 0.1, true);
      const u64 limit = bank.idle_skip_limit(EventValues(idle));
      EXPECT_EQ(limit, ref.idle_skip_limit(idle)) << "cycle " << cycle;
      const u64 n = std::min<u64>(limit, prng.next_below(50));
      bank.skip_idle(EventValues(idle), &hits, n);
      for (u64 k = 0; k < n; ++k) {
        ref.step(idle, hits);
        EXPECT_TRUE(ref.samples.empty()) << "skip limit crossed a sample";
      }
      ref.samples.clear();
      cycle += n;
    } else {
      const ObservationFrame f = random_frame(prng, cycle, 0.3, false);
      step(bank, f, &hits);
      ref.step(f, hits);
    }
    if (op >= 90 && op < 95) {
      const unsigned g = static_cast<unsigned>(prng.next_below(groups));
      const bool armed = prng.chance(0.5);
      bank.arm(g, armed);
      ref.arm(g, armed);
    } else if (op >= 95) {
      const unsigned g = static_cast<unsigned>(prng.next_below(groups));
      bank.force_sample(g, cycle);
      ref.force_sample(g, cycle);
    }
    expect_same_output(bank, ref, cycle);
    if (::testing::Test::HasFailure()) return;
  }
  for (unsigned g = 0; g < groups; ++g) {
    bank.force_sample(g, cycle);
    ref.force_sample(g, cycle);
  }
  expect_same_output(bank, ref, cycle);
}

TEST(CounterBank, DifferentialAgainstPerCycleReference) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(seed, 4000);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace audo::mcds
