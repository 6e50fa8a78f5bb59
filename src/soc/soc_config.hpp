// Every architecture knob of the simulated SoC in one value type.
//
// The §4/§6 optimization methodology evaluates next-generation options by
// replaying workloads over variants of this struct; src/optimize owns the
// option catalogue and the area-cost model attached to these knobs.
#pragma once

#include <array>
#include <string>
#include <type_traits>

#include "bus/crossbar.hpp"
#include "cache/cache.hpp"
#include "common/bits.hpp"
#include "common/fields.hpp"
#include "common/types.hpp"
#include "fault/safety.hpp"
#include "mem/dflash.hpp"
#include "mem/pflash.hpp"

namespace audo::soc {

struct SocConfig {
  std::string name = "TC1797-like";
  u64 clock_hz = 180'000'000;

  mem::PFlashConfig pflash;
  mem::DFlashConfig dflash;

  cache::CacheConfig icache{.enabled = true,
                            .size_bytes = 16 * 1024,
                            .ways = 2,
                            .line_bytes = 32};
  cache::CacheConfig dcache{.enabled = true,
                            .size_bytes = 4 * 1024,
                            .ways = 2,
                            .line_bytes = 32};

  u32 dspr_bytes = 128 * 1024;
  u32 pspr_bytes = 40 * 1024;

  u32 lmu_bytes = 128 * 1024;
  unsigned lmu_latency = 2;

  bool has_pcp = true;
  u32 pcp_pram_bytes = 32 * 1024;
  u32 pcp_dram_bytes = 16 * 1024;

  unsigned tc_issue_width = 3;
  unsigned dma_channels = 8;

  bus::ArbitrationPolicy arbitration = bus::ArbitrationPolicy::kFixedPriority;

  /// Scratchpad-as-bus-slave latency for non-owning masters.
  unsigned spr_slave_latency = 2;

  /// Safety-mechanism model: ECC coverage and SMU-like alarm reactions
  /// (src/fault). Defaults are record-only, so fault-free runs are
  /// cycle-identical with and without the monitor.
  fault::SafetyConfig safety;

  /// Host acceleration: when the whole SoC is quiescent, Soc::run jumps
  /// over the idle cycles to the next scheduled activity instead of
  /// stepping through them. Bit-identical to cycle-by-cycle execution
  /// (every counter, deadline and trace timestamp advances exactly as if
  /// each cycle had been stepped), so it is a host knob, deliberately
  /// excluded from fingerprint().
  bool fast_forward = true;

  /// Host acceleration: execution-engine tier. kSuperblock predecodes
  /// straight-line code into dense superblocks and runs whole cycles out
  /// of them whenever the SoC state permits, bailing to the accurate
  /// stepper the moment anything interesting (trap, IRQ, cache miss, bus
  /// traffic, self-modified code) shows up. Bit-identical to kAccurate —
  /// every ObservationFrame, MCDS event, stall attribution and counter
  /// matches — so, like fast_forward, it is a host knob excluded from
  /// fingerprint().
  enum class ExecTier : u8 { kAccurate, kSuperblock };
  ExecTier exec_tier = ExecTier::kSuperblock;

  /// JSON names of the tiers, indexed by ExecTier.
  static constexpr std::array<const char*, 2> kExecTierNames = {
      "accurate", "superblock"};

  bool valid() const {
    return icache.valid() && dcache.valid() && tc_issue_width >= 1 &&
           tc_issue_width <= 3 && pflash.size > 0;
  }

  /// Stable FNV-1a hash over every architecture knob, in visit_fields
  /// order. Written into run reports so results from different
  /// configurations never get compared by accident.
  u64 fingerprint() const;
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<SocConfig> Self, typename V>
void visit_fields(Self& c, V& v) {
  v("name", c.name);
  v("clock_hz", c.clock_hz);
  v("pflash", c.pflash);
  v("dflash", c.dflash);
  v("icache", c.icache);
  v("dcache", c.dcache);
  v("dspr_bytes", c.dspr_bytes);
  v("pspr_bytes", c.pspr_bytes);
  v("lmu_bytes", c.lmu_bytes);
  v("lmu_latency", c.lmu_latency);
  v("has_pcp", c.has_pcp);
  v("pcp_pram_bytes", c.pcp_pram_bytes);
  v("pcp_dram_bytes", c.pcp_dram_bytes);
  v("tc_issue_width", c.tc_issue_width);
  v("dma_channels", c.dma_channels);
  v("arbitration", c.arbitration, bus::ArbitrationPolicy::kRoundRobin);
  v("spr_slave_latency", c.spr_slave_latency);
  v("safety", c.safety);
  v.host("fast_forward", c.fast_forward);
  v.host("exec_tier", c.exec_tier, SocConfig::kExecTierNames);
}

namespace detail {

// Folds each field a visit_fields names into an FNV-1a hash: strings by
// their bytes, every other value widened to u64. Host knobs stay out.
struct FingerprintFold {
  u64 h = kFnvOffset;

  void operator()(const char*, const std::string& s) { h = fnv1a(h, s); }
  template <typename F>
  void operator()(const char*, const F& field) {
    if constexpr (std::is_class_v<F>) {
      visit_fields(field, *this);
    } else {
      h = fnv1a(h, static_cast<u64>(field));
    }
  }
  template <typename F>
  void operator()(const char* key, const F& field, F) {
    (*this)(key, field);
  }
  template <typename E, usize N>
  void operator()(const char* key, const E (&field)[N], E) {
    for (const E e : field) (*this)(key, e);
  }
  template <typename... A>
  void host(const char*, const A&...) {}
};

}  // namespace detail

inline u64 SocConfig::fingerprint() const {
  detail::FingerprintFold fold;
  visit_fields(*this, fold);
  return fold.h;
}

}  // namespace audo::soc
