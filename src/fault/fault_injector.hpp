// Deterministic, seed-driven fault injection.
//
// A FaultPlan is a cycle-sorted list of FaultEvents; the FaultInjector
// binds to the platform's components and fires each event at exactly its
// scheduled cycle. Four fault classes:
//
//  * kMemFlip  — stored-bit flips in PFLASH / DSPR / PSPR / LMU under a
//    SEC-DED ECC model. With ECC enabled, a single-bit flip is recorded
//    but the array stays intact (the read path "corrects" it and raises
//    kEccCorrected); a double-bit flip really corrupts the word and the
//    first read raises kEccUncorrectable while returning corrupt data.
//    With ECC disabled any flip corrupts silently. An overwrite scrubs
//    pending records (the write re-encodes the word).
//  * kBusError — the next N completions on a crossbar slave return an
//    error response (transfer suppressed, master port flagged).
//  * kSfrStuck — a peripheral SFR offset returns a stuck value for the
//    next N reads (undetectable by hardware; classic sensor fault).
//  * kIrqStorm — a service-request node is posted every cycle for a
//    duration (interrupt overload / livelock stimulus).
//
// Determinism: plans are pure data generated from a seed (generate_plan)
// and event firing depends only on the cycle counter, so identical
// (seed, config, workload) triples replay bit-identically on any host —
// the property fault campaigns lean on.
//
// Lifetime: the injector installs MemFaultHook pointers into the SoC's
// memory arrays; it must outlive the Soc it is bound to (declare the
// injector first), or be detached via Soc::set_fault_injector(nullptr).
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "fault/safety.hpp"
#include "mem/mem_array.hpp"

namespace audo::bus {
class Crossbar;
}
namespace audo::periph {
class IrqRouter;
class PeriphBridge;
}
namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::fault {

class SafetyMonitor;

enum class FaultKind : u8 { kMemFlip, kBusError, kSfrStuck, kIrqStorm, kCount };
inline constexpr unsigned kNumFaultKinds =
    static_cast<unsigned>(FaultKind::kCount);
const char* to_string(FaultKind kind);

enum class MemDomain : u8 { kPFlash, kDspr, kPspr, kLmu, kCount };
inline constexpr unsigned kNumMemDomains =
    static_cast<unsigned>(MemDomain::kCount);
const char* to_string(MemDomain domain);

/// One scheduled fault. Only the fields of the selected kind matter.
struct FaultEvent {
  Cycle at = 1;
  FaultKind kind = FaultKind::kMemFlip;

  // kMemFlip
  MemDomain domain = MemDomain::kPFlash;
  u32 offset = 0;  // byte offset into the domain (word-aligned internally)
  u8 bits = 1;     // 1 = correctable under ECC, 2 = uncorrectable
  u8 bit0 = 0;     // flipped bit positions within the 32-bit word
  u8 bit1 = 1;

  // kBusError / kSfrStuck
  u64 count = 1;   // errored completions / stuck reads

  // kBusError
  unsigned slave = 0;

  // kSfrStuck
  u32 sfr_offset = 0;  // offset from kPeriphBase
  u32 sfr_value = 0;

  // kIrqStorm
  unsigned irq_src = 0;
  u64 duration = 1;  // cycles the source is re-posted every cycle
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Order events by cycle (stable, so same-cycle events keep their
  /// generation order). Call after hand-building a plan.
  void sort();
};

/// Target ranges the random generator draws from; the campaign builds
/// this from the workload image and SoC configuration.
struct PlanSpec {
  Cycle window_begin = 1'000;
  Cycle window_end = 100'000;
  u32 flash_bytes = 0;
  u32 flash_image_bytes = 0;  // live image footprint (0 = whole flash)
  u32 dspr_bytes = 0;
  u32 pspr_bytes = 0;
  u32 lmu_bytes = 0;
  unsigned slave_count = 0;
  std::vector<u32> sfr_offsets;    // candidate stuck-read targets
  std::vector<unsigned> irq_srcs;  // candidate storm sources
  unsigned events_min = 1;
  unsigned events_max = 2;
};

/// Deterministically expand a seed into a fault plan within `spec`.
FaultPlan generate_plan(u64 seed, const PlanSpec& spec);

/// The per-memory-domain ECC model (a MemFaultHook; see file comment).
class EccDomain final : public mem::MemFaultHook {
 public:
  void attach(mem::MemArray* array, SafetyMonitor* monitor, bool ecc_enabled);
  /// Remove the hook from the array (if attached) and drop all records.
  void detach();
  bool attached() const { return array_ != nullptr; }

  /// Apply a kMemFlip event to the attached array.
  void inject(const FaultEvent& ev);

  u32 on_read(usize offset, unsigned bytes, u32 raw) override;
  void on_write(usize offset, unsigned bytes) override;
  bool pending(usize offset, unsigned bytes) const override;

  usize pending_records() const { return records_.size(); }

  /// Snapshot support: pending ECC fault records. Attachment wiring is
  /// reconstructed by bind().
  void save_state(snapshot::Writer& w) const {
    w.put_u32(static_cast<u32>(records_.size()));
    for (const Record& rec : records_) {
      w.put_u32(rec.word_offset);
      w.put_u8(rec.bits);
    }
  }
  void restore_state(snapshot::Reader& r) {
    records_.clear();
    const u32 count = r.get_u32();
    for (u32 i = 0; i < count && r.ok(); ++i) {
      Record rec{};
      rec.word_offset = r.get_u32();
      rec.bits = r.get_u8();
      records_.push_back(rec);
    }
  }

 private:
  struct Record {
    u32 word_offset;
    u8 bits;

    /// The access [offset, offset + bytes) touches this record's word.
    bool overlaps(usize offset, unsigned bytes) const {
      return offset < word_offset + 4u && word_offset < offset + bytes;
    }
  };

  mem::MemArray* array_ = nullptr;
  SafetyMonitor* monitor_ = nullptr;
  bool ecc_ = true;
  std::vector<Record> records_;
};

class FaultInjector {
 public:
  /// Component pointers the injector acts on (bound by
  /// Soc::set_fault_injector).
  struct Targets {
    mem::MemArray* pflash = nullptr;
    mem::MemArray* dspr = nullptr;
    mem::MemArray* pspr = nullptr;
    mem::MemArray* lmu = nullptr;
    bus::Crossbar* bus = nullptr;
    periph::PeriphBridge* bridge = nullptr;
    periph::IrqRouter* irq = nullptr;
    SafetyMonitor* monitor = nullptr;
    SafetyConfig safety;  // ECC enables per domain
  };

  explicit FaultInjector(FaultPlan plan);

  void bind(const Targets& targets);
  /// Detach from the bound SoC: unhooks every ECC domain from its memory
  /// array and clears the target pointers. Safe to call when unbound.
  void unbind();

  /// Fire all events scheduled at or before `now`, then pump active IRQ
  /// storms. Called at the top of Soc::step().
  void step(Cycle now);

  /// Earliest future cycle whose step() fires an event or re-posts a
  /// storm; ~Cycle{0} when the plan is exhausted and no storm is active.
  Cycle next_activity_cycle(Cycle now) const;

  /// No events left to fire and no storm running — the injector can never
  /// wake the system again (idle-deadlock scan).
  bool exhausted() const { return next_ >= plan_.events.size() && storms_.empty(); }

  u64 injected(FaultKind kind) const {
    return injected_[static_cast<unsigned>(kind)];
  }
  u64 total_injected() const;
  const FaultPlan& plan() const { return plan_; }

  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string_view component) const;

  /// Snapshot support: plan cursor, active storms, injection counters and
  /// pending ECC records. The plan itself is input data — restore into an
  /// injector constructed from the same plan (and bound to the same
  /// targets; the binding re-attaches the ECC hooks).
  void save_state(snapshot::Writer& w) const {
    w.put_u64(next_);
    w.put_u32(static_cast<u32>(storms_.size()));
    for (const Storm& s : storms_) {
      w.put_u32(static_cast<u32>(s.src));
      w.put_u64(s.until);
    }
    for (u64 v : injected_) w.put_u64(v);
    for (const EccDomain& d : domains_) d.save_state(w);
  }
  void restore_state(snapshot::Reader& r) {
    next_ = r.get_u64();
    storms_.clear();
    const u32 storm_count = r.get_u32();
    for (u32 i = 0; i < storm_count && r.ok(); ++i) {
      Storm s{};
      s.src = r.get_u32();
      s.until = r.get_u64();
      storms_.push_back(s);
    }
    for (u64& v : injected_) v = r.get_u64();
    for (EccDomain& d : domains_) d.restore_state(r);
  }

 private:
  void fire(const FaultEvent& ev, Cycle now);
  mem::MemArray* domain_array(MemDomain domain) const;
  bool domain_ecc(MemDomain domain) const;

  struct Storm {
    unsigned src;
    Cycle until;  // exclusive
  };

  FaultPlan plan_;
  usize next_ = 0;
  Targets targets_;
  std::array<EccDomain, kNumMemDomains> domains_;
  std::vector<Storm> storms_;
  std::array<u64, kNumFaultKinds> injected_{};
};

}  // namespace audo::fault
