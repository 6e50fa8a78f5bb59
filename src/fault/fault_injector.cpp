#include "fault/fault_injector.hpp"

#include <algorithm>
#include <string>

#include "bus/crossbar.hpp"
#include "common/prng.hpp"
#include "fault/safety_monitor.hpp"
#include "periph/irq_router.hpp"
#include "periph/sfr_bridge.hpp"
#include "telemetry/metrics.hpp"

namespace audo::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMemFlip: return "mem_flip";
    case FaultKind::kBusError: return "bus_error";
    case FaultKind::kSfrStuck: return "sfr_stuck";
    case FaultKind::kIrqStorm: return "irq_storm";
    case FaultKind::kCount: break;
  }
  return "?";
}

const char* to_string(MemDomain domain) {
  switch (domain) {
    case MemDomain::kPFlash: return "pflash";
    case MemDomain::kDspr: return "dspr";
    case MemDomain::kPspr: return "pspr";
    case MemDomain::kLmu: return "lmu";
    case MemDomain::kCount: break;
  }
  return "?";
}

void FaultPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

// ------------------------------------------------------- generate_plan --

FaultPlan generate_plan(u64 seed, const PlanSpec& spec) {
  Prng prng(seed);
  FaultPlan plan;
  const unsigned span = spec.events_max > spec.events_min
                            ? spec.events_max - spec.events_min
                            : 0;
  const unsigned n =
      spec.events_min + static_cast<unsigned>(prng.next_below(span + 1));
  const Cycle window = spec.window_end > spec.window_begin
                           ? spec.window_end - spec.window_begin
                           : 1;

  auto pick_mem_flip = [&](FaultEvent& ev) {
    ev.kind = FaultKind::kMemFlip;
    const u64 roll = prng.next_below(100);
    u32 bytes = 0;
    if (roll < 50 && spec.flash_bytes > 0) {
      ev.domain = MemDomain::kPFlash;
      // Bias towards the live image so flips are likely to be observed.
      const bool live = spec.flash_image_bytes > 0 && prng.next_below(100) < 70;
      bytes = live ? spec.flash_image_bytes : spec.flash_bytes;
    } else if (roll < 80 && spec.dspr_bytes > 0) {
      ev.domain = MemDomain::kDspr;
      bytes = spec.dspr_bytes;
    } else if (roll < 90 && spec.pspr_bytes > 0) {
      ev.domain = MemDomain::kPspr;
      bytes = spec.pspr_bytes;
    } else if (spec.lmu_bytes > 0) {
      ev.domain = MemDomain::kLmu;
      bytes = spec.lmu_bytes;
    } else {
      ev.domain = MemDomain::kPFlash;
      bytes = spec.flash_bytes;
    }
    if (bytes < 4) bytes = 4;
    ev.offset = static_cast<u32>(prng.next_below(bytes)) & ~3u;
    ev.bits = prng.next_below(4) == 0 ? 2 : 1;
    ev.bit0 = static_cast<u8>(prng.next_below(32));
    ev.bit1 = static_cast<u8>((ev.bit0 + 1 + prng.next_below(31)) % 32);
  };

  for (unsigned i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.at = spec.window_begin + prng.next_below(window);
    const u64 roll = prng.next_below(100);
    if (roll < 55) {
      pick_mem_flip(ev);
    } else if (roll < 70 && spec.slave_count > 0) {
      ev.kind = FaultKind::kBusError;
      ev.slave = static_cast<unsigned>(prng.next_below(spec.slave_count));
      ev.count = 1 + prng.next_below(4);
    } else if (roll < 85 && !spec.sfr_offsets.empty()) {
      ev.kind = FaultKind::kSfrStuck;
      ev.sfr_offset =
          spec.sfr_offsets[prng.next_below(spec.sfr_offsets.size())];
      ev.sfr_value = prng.next_u32();
      ev.count = 1 + prng.next_below(50);
    } else if (!spec.irq_srcs.empty()) {
      ev.kind = FaultKind::kIrqStorm;
      ev.irq_src = spec.irq_srcs[prng.next_below(spec.irq_srcs.size())];
      ev.duration = 100 + prng.next_below(5'000);
    } else {
      pick_mem_flip(ev);
    }
    plan.events.push_back(ev);
  }
  plan.sort();
  return plan;
}

// ----------------------------------------------------------- EccDomain --

void EccDomain::attach(mem::MemArray* array, SafetyMonitor* monitor,
                       bool ecc_enabled) {
  array_ = array;
  monitor_ = monitor;
  ecc_ = ecc_enabled;
  array_->set_fault_hook(this);
}

void EccDomain::detach() {
  if (array_ != nullptr && array_->fault_hook() == this) {
    array_->set_fault_hook(nullptr);
  }
  array_ = nullptr;
  monitor_ = nullptr;
  records_.clear();
}

void EccDomain::inject(const FaultEvent& ev) {
  assert(array_ != nullptr);
  const u32 word = ev.offset & ~3u;
  if (word + 4 > array_->size()) return;  // beyond the array: no effect
  const u8 b0 = ev.bit0 & 31;
  u8 b1 = ev.bit1 & 31;
  if (b1 == b0) b1 = (b0 + 1) & 31;
  if (ecc_ && ev.bits < 2) {
    // Single-bit under SEC-DED: the stored codeword is wrong but every
    // read corrects it, so the data array is left intact; the record
    // raises kEccCorrected on the first overlapping read.
    records_.push_back(Record{word, 1});
    return;
  }
  u32 flipped = array_->peek(word, 4) ^ (1u << b0);
  if (ev.bits >= 2) flipped ^= 1u << b1;
  array_->poke(word, flipped, 4);
  if (ecc_) records_.push_back(Record{word, 2});
  // No ECC: the corruption is silent — no record, no alarm, just wrong
  // bits waiting to be consumed.
}

u32 EccDomain::on_read(usize offset, unsigned bytes, u32 raw) {
  if (records_.empty()) return raw;
  for (usize i = 0; i < records_.size();) {
    const Record r = records_[i];
    if (r.overlaps(offset, bytes)) {
      if (monitor_ != nullptr) {
        monitor_->post(r.bits >= 2 ? AlarmKind::kEccUncorrectable
                                   : AlarmKind::kEccCorrected);
      }
      records_.erase(records_.begin() + static_cast<long>(i));
      continue;
    }
    ++i;
  }
  return raw;
}

void EccDomain::on_write(usize offset, unsigned bytes) {
  if (records_.empty()) return;
  // A write re-encodes the word: pending fault records under it are
  // scrubbed without ever raising an alarm (the fault is masked).
  std::erase_if(records_,
                [&](const Record& r) { return r.overlaps(offset, bytes); });
}

bool EccDomain::pending(usize offset, unsigned bytes) const {
  return std::any_of(records_.begin(), records_.end(),
                     [&](const Record& r) { return r.overlaps(offset, bytes); });
}

// ------------------------------------------------------- FaultInjector --

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.sort();
}

mem::MemArray* FaultInjector::domain_array(MemDomain domain) const {
  switch (domain) {
    case MemDomain::kPFlash: return targets_.pflash;
    case MemDomain::kDspr: return targets_.dspr;
    case MemDomain::kPspr: return targets_.pspr;
    case MemDomain::kLmu: return targets_.lmu;
    case MemDomain::kCount: break;
  }
  return nullptr;
}

bool FaultInjector::domain_ecc(MemDomain domain) const {
  return domain == MemDomain::kPFlash ? targets_.safety.ecc_pflash
                                      : targets_.safety.ecc_sram;
}

void FaultInjector::bind(const Targets& targets) {
  targets_ = targets;
}

void FaultInjector::unbind() {
  for (EccDomain& dom : domains_) dom.detach();
  targets_ = Targets{};
}

void FaultInjector::fire(const FaultEvent& ev, Cycle now) {
  switch (ev.kind) {
    case FaultKind::kMemFlip: {
      mem::MemArray* array = domain_array(ev.domain);
      if (array == nullptr) return;
      EccDomain& dom = domains_[static_cast<unsigned>(ev.domain)];
      if (!dom.attached()) {
        dom.attach(array, targets_.monitor, domain_ecc(ev.domain));
      }
      dom.inject(ev);
      break;
    }
    case FaultKind::kBusError:
      if (targets_.bus == nullptr || targets_.bus->slave_count() == 0) return;
      targets_.bus->inject_slave_errors(ev.slave % targets_.bus->slave_count(),
                                        ev.count);
      break;
    case FaultKind::kSfrStuck:
      if (targets_.bridge == nullptr) return;
      targets_.bridge->inject_sfr_fault(ev.sfr_offset, ev.sfr_value, ev.count);
      break;
    case FaultKind::kIrqStorm:
      if (targets_.irq == nullptr) return;
      storms_.push_back(Storm{ev.irq_src, now + ev.duration});
      break;
    case FaultKind::kCount:
      return;
  }
  injected_[static_cast<unsigned>(ev.kind)] += 1;
}

void FaultInjector::step(Cycle now) {
  while (next_ < plan_.events.size() && plan_.events[next_].at <= now) {
    fire(plan_.events[next_], now);
    ++next_;
  }
  if (storms_.empty()) return;
  for (usize i = 0; i < storms_.size();) {
    if (now >= storms_[i].until) {
      storms_.erase(storms_.begin() + static_cast<long>(i));
      continue;
    }
    targets_.irq->post(storms_[i].src);
    ++i;
  }
}

Cycle FaultInjector::next_activity_cycle(Cycle now) const {
  Cycle next = ~Cycle{0};
  if (next_ < plan_.events.size()) {
    // Events are cycle-sorted and step(now) drained everything <= now.
    next = std::max(plan_.events[next_].at, now + 1);
  }
  // An active storm posts its source again on the very next cycle.
  if (!storms_.empty()) next = std::min(next, now + 1);
  return next;
}

u64 FaultInjector::total_injected() const {
  u64 total = 0;
  for (const u64 v : injected_) total += v;
  return total;
}

void FaultInjector::register_metrics(telemetry::MetricsRegistry& registry,
                                     std::string_view component) const {
  for (unsigned k = 0; k < kNumFaultKinds; ++k) {
    registry.counter(std::string(component),
                     std::string("injected.") +
                         to_string(static_cast<FaultKind>(k)),
                     &injected_[k]);
  }
}

}  // namespace audo::fault
