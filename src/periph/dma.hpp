// DMA controller: a multi-channel bus master.
//
// §3 motivates tracing it explicitly: "significant activity (e.g. DMA
// channels) occurs without any of the data passing through a processor
// core". Channels are triggered by interrupt-router nodes (target kDma,
// priority = channel + 1) or run freely; each transfer unit is a bus read
// followed by a bus write, so DMA competes with the CPUs for the fabric
// and the flash data port — the contention the methodology measures.
//
// SFR window (per channel ch at 0x20*ch): 0x00 SRC, 0x04 DST, 0x08 COUNT,
// 0x0C CTRL (bit0 enable, bit1 continuous-reload, bits 8..9 log2 bytes),
// 0x10 SWTRIG (write = software trigger).
#pragma once

#include <vector>

#include "bus/crossbar.hpp"
#include "common/types.hpp"
#include "cpu/cpu.hpp"
#include "mcds/observation.hpp"
#include "periph/irq_router.hpp"
#include "periph/sfr_bridge.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::periph {

class DmaController final : public SfrDevice {
 public:
  struct ChannelConfig {
    Addr src = 0;
    Addr dst = 0;
    u32 count = 0;          // transfer units per block
    u8 bytes = 4;           // unit size
    i32 src_step = 4;       // address increment per unit (0 = fixed)
    i32 dst_step = 4;
    bool continuous = false;       // reload the block when done
    u32 units_per_trigger = 0;     // 0 = free-running while enabled
  };

  struct ChannelStats {
    u64 units = 0;    // completed transfer units
    u64 blocks = 0;   // completed blocks
    u64 triggers = 0;
  };

  DmaController(unsigned channels, bus::Crossbar* bus, IrqRouter* router);

  /// Configure and arm a channel from the harness side.
  void setup_channel(unsigned ch, const ChannelConfig& config,
                     bool enabled = true);
  void enable_channel(unsigned ch, bool enabled);
  /// Software/peripheral trigger: release `units_per_trigger` units.
  void trigger(unsigned ch);

  /// SRC node posted when a channel's block completes (one per channel);
  /// wired by the SoC. ~0u disables.
  void set_done_src(unsigned ch, unsigned src_id);

  void step(Cycle now);

  /// True when a step() would do nothing: no unit in flight, no ready
  /// channel to arbitrate and no router trigger waiting. A quiescent DMA
  /// schedules no future work by itself, so it has no next-activity
  /// cycle — only an interrupt-router trigger or SFR write restarts it.
  bool quiescent() const;

  const mcds::DmaObservation& observation() const { return observation_; }
  const ChannelStats& stats(unsigned ch) const { return channels_.at(ch).stats; }
  bool channel_idle(unsigned ch) const;

  u32 read_sfr(u32 offset) override;
  void write_sfr(u32 offset, u32 value) override;

  /// Register per-channel counters under `component` (e.g. "dma").
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const;

 private:
  struct Channel {
    ChannelConfig config;
    bool enabled = false;
    Addr src = 0;
    Addr dst = 0;
    u32 remaining = 0;
    u32 credit = 0;  // released units (free-running: unlimited)
    unsigned done_src = ~0u;
    ChannelStats stats;
  };

  enum class Phase : u8 { kIdle, kRead, kWrite };

  bool channel_ready(const Channel& ch) const;
  void reload(Channel& ch);

  std::vector<Channel> channels_;
  bus::Crossbar* bus_;
  IrqRouter* router_;
  bus::MasterPort port_;
  Phase phase_ = Phase::kIdle;
  unsigned active_ = 0;   // channel owning the in-flight unit
  u32 unit_data_ = 0;
  unsigned rr_next_ = 0;  // round-robin channel arbitration
  mcds::DmaObservation observation_;
};

}  // namespace audo::periph
