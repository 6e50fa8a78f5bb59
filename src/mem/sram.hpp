// Bus-attached SRAM (the LMU) and core-local scratchpad memories.
#pragma once

#include <string>

#include "bus/port.hpp"
#include "common/types.hpp"
#include "mem/mem_array.hpp"
#include "telemetry/metrics.hpp"

namespace audo::mem {

/// On-chip SRAM behind the crossbar with a fixed access latency.
class SramSlave final : public bus::BusSlave {
 public:
  SramSlave(std::string name, Addr base, usize size, unsigned latency)
      : name_(std::move(name)), base_(base), latency_(latency), array_(size) {}

  unsigned start_access(const bus::BusRequest&) override { return latency_; }

  u32 complete_access(const bus::BusRequest& req) override {
    const usize offset = req.addr - base_;
    if (req.kind == bus::AccessKind::kWrite) {
      array_.write(offset, req.wdata, req.bytes);
      return 0;
    }
    return array_.read(offset, req.bytes);
  }

  std::string_view name() const override { return name_; }

  MemArray& array() { return array_; }
  const MemArray& array() const { return array_; }
  Addr base() const { return base_; }
  unsigned latency() const { return latency_; }

 private:
  std::string name_;
  Addr base_;
  unsigned latency_;
  MemArray array_;
};

/// Observer for runtime scratchpad writes. Code-holding scratchpads
/// (PSPR) notify so predecoded superblocks over the written range can be
/// invalidated — the single funnel every self-modifying-code path
/// (core store, DMA deposit, tool poke through write()) flows through.
class ScratchpadWriteListener {
 public:
  virtual ~ScratchpadWriteListener() = default;
  virtual void on_scratchpad_write(Addr addr, unsigned bytes) = 0;
};

/// Core-local scratchpad (DSPR/PSPR/PRAM): single-cycle, never on the bus.
/// The §5 methodology's "map hot data structures to scratchpad" moves
/// traffic from the flash data port into here.
class Scratchpad {
 public:
  Scratchpad(Addr base, usize size) : base_(base), array_(size) {}

  bool contains(Addr addr) const {
    return addr >= base_ && addr - base_ < array_.size();
  }

  u32 read(Addr addr, unsigned bytes) const {
    ++reads_;
    return array_.read(addr - base_, bytes);
  }

  void write(Addr addr, u32 value, unsigned bytes) {
    ++writes_;
    array_.write(addr - base_, value, bytes);
    if (write_listener_) write_listener_->on_scratchpad_write(addr, bytes);
  }

  void set_write_listener(ScratchpadWriteListener* l) { write_listener_ = l; }

  Addr base() const { return base_; }
  usize size() const { return array_.size(); }
  MemArray& array() { return array_; }
  const MemArray& array() const { return array_; }
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }

  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const {
    registry.counter(component, "reads", &reads_);
    registry.counter(std::move(component), "writes", &writes_);
  }

 private:
  Addr base_;
  MemArray array_;
  mutable u64 reads_ = 0;
  u64 writes_ = 0;
  ScratchpadWriteListener* write_listener_ = nullptr;  // host-side, not state
};

/// Bus-slave view of a scratchpad: the owning core reaches its scratchpad
/// directly (single cycle), every other master goes through the crossbar
/// with this wrapper's latency — e.g. DMA depositing ADC results in the
/// TC's DSPR.
class ScratchpadSlave final : public bus::BusSlave {
 public:
  ScratchpadSlave(std::string name, Scratchpad* spr, unsigned latency = 2)
      : name_(std::move(name)), spr_(spr), latency_(latency) {}

  unsigned start_access(const bus::BusRequest&) override { return latency_; }

  u32 complete_access(const bus::BusRequest& req) override {
    if (req.kind == bus::AccessKind::kWrite) {
      spr_->write(req.addr, req.wdata, req.bytes);
      return 0;
    }
    return spr_->read(req.addr, req.bytes);
  }

  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  Scratchpad* spr_;
  unsigned latency_;
};

}  // namespace audo::mem
