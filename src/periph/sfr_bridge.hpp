// The peripheral bridge: routes SFR-space bus transactions to devices.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bus/port.hpp"
#include "common/types.hpp"
#include "mem/memory_map.hpp"

namespace audo::periph {

/// A device with special-function registers. Offsets are local to the
/// device's registered window.
class SfrDevice {
 public:
  virtual ~SfrDevice() = default;
  virtual u32 read_sfr(u32 offset) = 0;
  virtual void write_sfr(u32 offset, u32 value) = 0;
};

class PeriphBridge final : public bus::BusSlave {
 public:
  explicit PeriphBridge(unsigned latency = 3) : latency_(latency) {}

  /// Register `device` at [kPeriphBase+offset, +size).
  void add_device(u32 offset, u32 size, SfrDevice* device) {
    ranges_.push_back(Range{offset, size, device});
  }

  unsigned start_access(const bus::BusRequest&) override { return latency_; }

  u32 complete_access(const bus::BusRequest& req) override {
    const u32 offset = req.addr - mem::kPeriphBase;
    for (const Range& r : ranges_) {
      if (offset >= r.offset && offset - r.offset < r.size) {
        if (req.kind == bus::AccessKind::kWrite) {
          r.device->write_sfr(offset - r.offset, req.wdata);
          return 0;
        }
        const u32 value = r.device->read_sfr(offset - r.offset);
        return faults_.empty() ? value : apply_sfr_fault(offset, value);
      }
    }
    return 0;
  }

  /// Fault injection: the next `reads` reads of the SFR at `offset`
  /// (from kPeriphBase) return `value` instead of the device's answer.
  /// The device's read side effects still occur (the register is read,
  /// the returned data is corrupted on the way back).
  void inject_sfr_fault(u32 offset, u32 value, u64 reads) {
    faults_.push_back(SfrFault{offset, value, reads});
  }

  std::string_view name() const override { return "PBridge"; }

  u64 faulted_reads() const { return faulted_reads_; }

 private:
  struct Range {
    u32 offset;
    u32 size;
    SfrDevice* device;
  };

  struct SfrFault {
    u32 offset;
    u32 value;
    u64 reads_left;
  };

  u32 apply_sfr_fault(u32 offset, u32 value) {
    for (usize i = 0; i < faults_.size(); ++i) {
      SfrFault& f = faults_[i];
      if (f.offset != offset) continue;
      ++faulted_reads_;
      const u32 stuck = f.value;
      if (--f.reads_left == 0) faults_.erase(faults_.begin() + static_cast<std::ptrdiff_t>(i));
      return stuck;
    }
    return value;
  }

  unsigned latency_;
  std::vector<Range> ranges_;
  std::vector<SfrFault> faults_;
  u64 faulted_reads_ = 0;
};

/// Canonical SFR window offsets (from kPeriphBase) used by the SoC.
namespace sfr {
inline constexpr u32 kStm = 0x0000;
inline constexpr u32 kWatchdog = 0x0100;
inline constexpr u32 kCrank = 0x0400;
inline constexpr u32 kAdc = 0x1000;
inline constexpr u32 kCan = 0x2000;
inline constexpr u32 kDma = 0x3000;
inline constexpr u32 kWindow = 0x0100;  // default window size per device
}  // namespace sfr

}  // namespace audo::periph
