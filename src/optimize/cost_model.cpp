#include "optimize/cost_model.hpp"

#include "common/bits.hpp"

namespace audo::optimize {

double CostModel::cache_area(const cache::CacheConfig& cache) const {
  if (!cache.enabled) return 0.0;
  const double data_kib = static_cast<double>(cache.size_bytes) / 1024.0;
  // Tag bits per line: address tag + valid + replacement state.
  const unsigned lines = cache.size_bytes / cache.line_bytes;
  const unsigned tag_bits = 32 - log2_exact(cache.line_bytes) -
                            (cache.num_sets() > 1 ? log2_exact(cache.num_sets()) : 0);
  const double tag_kib =
      static_cast<double>(lines) * (tag_bits + 2) / 8.0 / 1024.0;
  return data_kib * sram_au_per_kib + tag_kib * cache_tag_au_per_kib +
         cache_control_au + cache_way_au * cache.ways;
}

double CostModel::soc_area(const soc::SocConfig& config) const {
  double area = 0.0;
  area += cache_area(config.icache);
  area += cache_area(config.dcache);
  area += static_cast<double>(config.dspr_bytes) / 1024.0 * sram_au_per_kib;
  area += static_cast<double>(config.pspr_bytes) / 1024.0 * sram_au_per_kib;
  area += static_cast<double>(config.lmu_bytes) / 1024.0 * sram_au_per_kib;
  if (config.lmu_latency <= 1) area += lmu_fast_au;
  area += static_cast<double>(config.pflash.size) / 1024.0 * flash_au_per_kib;
  area += flash_buffer_au *
          (config.pflash.code_buffers + config.pflash.data_buffers);
  if (config.pflash.wait_states < flash_reference_waitstates) {
    area += flash_waitstate_au *
            (flash_reference_waitstates - config.pflash.wait_states);
  }
  if (config.has_pcp) {
    area += pcp_core_au;
    area += static_cast<double>(config.pcp_pram_bytes + config.pcp_dram_bytes) /
            1024.0 * sram_au_per_kib;
  }
  area += dma_channel_au * config.dma_channels;
  if (config.arbitration == bus::ArbitrationPolicy::kRoundRobin) {
    area += bus_rr_arbiter_au;
  }
  return area;
}

}  // namespace audo::optimize
