// Area/cost model for architecture options.
//
// The paper's decision rule (§6) is a performance-gain / cost ratio; any
// consistent cost model exercises it. Costs are in abstract "area units"
// (au), calibrated loosely to a 130 nm automotive process: 1 KiB of SRAM
// ~ 25 au, embedded flash ~ 6 au/KiB, a small RISC core ~ 800 au.
#pragma once

#include "soc/soc_config.hpp"

namespace audo::optimize {

struct CostModel {
  double sram_au_per_kib = 25.0;
  double cache_tag_au_per_kib = 30.0;  // tag/status arrays (denser ports)
  double cache_control_au = 10.0;      // per cache, plus per-way adders
  double cache_way_au = 4.0;
  double flash_au_per_kib = 6.0;
  double flash_buffer_au = 3.0;        // per 256-bit line buffer
  /// Removing one flash wait state (faster sense amps / more banks).
  double flash_waitstate_au = 40.0;
  double pcp_core_au = 800.0;
  double dma_channel_au = 15.0;
  double bus_rr_arbiter_au = 5.0;      // round-robin fairness logic
  double lmu_fast_au = 60.0;           // 1-cycle LMU timing closure cost

  /// Reference wait-state count that the flash macro gives "for free".
  unsigned flash_reference_waitstates = 5;

  double cache_area(const cache::CacheConfig& cache) const;
  double soc_area(const soc::SocConfig& config) const;
};

}  // namespace audo::optimize
