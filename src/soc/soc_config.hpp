// Every architecture knob of the simulated SoC in one value type.
//
// The §4/§6 optimization methodology evaluates next-generation options by
// replaying workloads over variants of this struct; src/optimize owns the
// option catalogue and the area-cost model attached to these knobs.
#pragma once

#include <string>

#include "bus/crossbar.hpp"
#include "cache/cache.hpp"
#include "common/bits.hpp"
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

  bool valid() const {
    return icache.valid() && dcache.valid() && tc_issue_width >= 1 &&
           tc_issue_width <= 3 && pflash.size > 0;
  }

  /// Stable FNV-1a hash over every architecture knob. Written into run
  /// reports so results from different configurations never get compared
  /// by accident.
  u64 fingerprint() const { return safety.fingerprint(shape_fingerprint()); }

  /// Hash over the *structural* knobs only — everything fingerprint()
  /// covers except the safety model. Snapshots are keyed by this: a
  /// fault-free boot leaves no trace of the safety configuration (no
  /// alarm, no ECC event, cycle-identical with the monitor on or off),
  /// so scenarios that differ only in safety settings can fork from one
  /// warm boot image.
  u64 shape_fingerprint() const {
    u64 h = fnv1a(kFnvOffset, name);
    h = fnv1a(h, clock_hz);
    h = fnv1a(h, pflash.size);
    h = fnv1a(h, u64{pflash.wait_states});
    h = fnv1a(h, u64{pflash.line_bytes});
    h = fnv1a(h, u64{pflash.code_buffers});
    h = fnv1a(h, u64{pflash.data_buffers});
    h = fnv1a(h, u64{pflash.sequential_prefetch});
    h = fnv1a(h, dflash.size);
    h = fnv1a(h, u64{dflash.read_latency});
    h = fnv1a(h, u64{dflash.write_latency});
    const auto mix_cache = [&h](const cache::CacheConfig& c) {
      h = fnv1a(h, u64{c.enabled});
      h = fnv1a(h, u64{c.size_bytes});
      h = fnv1a(h, u64{c.ways});
      h = fnv1a(h, u64{c.line_bytes});
      h = fnv1a(h, static_cast<u64>(c.replacement));
    };
    mix_cache(icache);
    mix_cache(dcache);
    h = fnv1a(h, u64{dspr_bytes});
    h = fnv1a(h, u64{pspr_bytes});
    h = fnv1a(h, u64{lmu_bytes});
    h = fnv1a(h, u64{lmu_latency});
    h = fnv1a(h, u64{has_pcp});
    h = fnv1a(h, u64{pcp_pram_bytes});
    h = fnv1a(h, u64{pcp_dram_bytes});
    h = fnv1a(h, u64{tc_issue_width});
    h = fnv1a(h, u64{dma_channels});
    h = fnv1a(h, static_cast<u64>(arbitration));
    h = fnv1a(h, u64{spr_slave_latency});
    return h;
  }
};

}  // namespace audo::soc
