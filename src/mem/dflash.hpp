// Data flash used for EEPROM emulation (§4: "This embedded flash is used
// for application code and data and for EEPROM emulation").
//
// Reads cost flash wait states; writes model the (scaled-down) word
// program time, making EEPROM-emulation activity visibly expensive in
// profiles, as it is on real silicon.
#pragma once

#include <string>

#include "bus/port.hpp"
#include "common/fields.hpp"
#include "common/types.hpp"
#include "mem/mem_array.hpp"
#include "telemetry/metrics.hpp"

namespace audo::mem {

struct DFlashConfig {
  u32 size = 32u * 1024;
  unsigned read_latency = 6;
  unsigned write_latency = 60;  // word-program time, scaled to cycles
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<DFlashConfig> Self, typename V>
void visit_fields(Self& c, V& v) {
  v("size", c.size);
  v("read_latency", c.read_latency);
  v("write_latency", c.write_latency);
}

class DFlashSlave final : public bus::BusSlave {
 public:
  DFlashSlave(Addr base, const DFlashConfig& config)
      : base_(base), config_(config), array_(config.size) {}

  unsigned start_access(const bus::BusRequest& req) override {
    if (req.kind == bus::AccessKind::kWrite) {
      ++writes_;
      return config_.write_latency;
    }
    ++reads_;
    return config_.read_latency;
  }

  u32 complete_access(const bus::BusRequest& req) override {
    const usize offset = req.addr - base_;
    if (req.kind == bus::AccessKind::kWrite) {
      // Flash programming can only clear bits; EEPROM-emulation drivers
      // rely on this (write-once-then-erase journalling).
      const u32 old = array_.read(offset, req.bytes);
      array_.write(offset, old & req.wdata, req.bytes);
      return 0;
    }
    return array_.read(offset, req.bytes);
  }

  std::string_view name() const override { return "DFlash"; }

  /// Erase (set to 0xFF) the whole array — sector granularity is not
  /// modelled; workloads erase between journal generations.
  void erase_all() { array_.fill(0xFF); }

  MemArray& array() { return array_; }
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }
  const DFlashConfig& config() const { return config_; }

  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const {
    registry.counter(component, "reads", &reads_);
    registry.counter(std::move(component), "writes", &writes_);
  }

 private:
  Addr base_;
  DFlashConfig config_;
  MemArray array_;
  u64 reads_ = 0;
  u64 writes_ = 0;
};

}  // namespace audo::mem
