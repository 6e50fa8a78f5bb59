// The interrupt router: service request (SRC) nodes, as on TriCore SoCs.
//
// Each peripheral event posts to an SRC node; the node's configuration
// decides the priority and whether the TriCore-like core or the PCP
// services it. This HW/SW-partitioning knob — "software partitioning
// between TriCore and PCP cores" (§1) — is a first-class architecture
// option in the optimization study.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/cpu.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::periph {

enum class IrqTarget : u8 { kTc, kPcp, kDma };

class IrqRouter {
 public:
  struct SrcNode {
    std::string name;
    u8 priority = 0;       // 1..255; 0 = never delivered
    IrqTarget target = IrqTarget::kTc;
    bool enabled = false;
    bool pending = false;
    u64 posted = 0;        // lifetime posts
    u64 serviced = 0;      // lifetime acknowledges
    u64 lost = 0;          // posts that found the node already pending
  };

  /// Register a service request node; returns its id.
  unsigned add_source(std::string name);

  void configure(unsigned src, u8 priority, IrqTarget target,
                 bool enabled = true);

  /// Raise the service request (edge). A post while already pending is
  /// counted as lost — visible interrupt overload.
  void post(unsigned src);

  /// Newly-raised requests since the last take_raises() — the per-cycle
  /// strobe record Soc::step publishes as ObservationFrame::irq. Only
  /// enabled nodes with a nonzero priority are recorded (a disabled node
  /// can never cause a dispatch, so it is not a latency source).
  struct Raise {
    u8 priority = 0;
    IrqTarget target = IrqTarget::kTc;
  };
  static constexpr unsigned kMaxRaisesPerCycle = 4;

  /// Copy-and-clear the per-cycle raise record (called once per step).
  unsigned take_raises(Raise out[kMaxRaisesPerCycle]) {
    const unsigned n = raise_count_;
    for (unsigned i = 0; i < n; ++i) out[i] = raises_[i];
    raise_count_ = 0;
    return n;
  }
  bool raises_pending() const { return raise_count_ != 0; }

  const SrcNode& node(unsigned src) const { return nodes_.at(src); }
  unsigned source_count() const { return static_cast<unsigned>(nodes_.size()); }

  /// Register per-node post/service/lost counters under `component`
  /// (e.g. "irq"). Call after all sources are added; the registry keeps
  /// pointers into the node table.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string_view component) const;

  /// Core-facing views. The DMA view makes the router able to trigger
  /// DMA channels directly, as the TriCore interrupt system can.
  cpu::IrqSource& tc_view() { return tc_view_; }
  cpu::IrqSource& pcp_view() { return pcp_view_; }
  cpu::IrqSource& dma_view() { return dma_view_; }

 private:
  class View final : public cpu::IrqSource {
   public:
    View(IrqRouter* router, IrqTarget target)
        : router_(router), target_(target) {}
    std::optional<u8> pending() const override;
    void acknowledge(u8 prio) override;

   private:
    IrqRouter* router_;
    IrqTarget target_;
  };

  std::vector<SrcNode> nodes_;
  Raise raises_[kMaxRaisesPerCycle];
  unsigned raise_count_ = 0;
  View tc_view_{this, IrqTarget::kTc};
  View pcp_view_{this, IrqTarget::kPcp};
  View dma_view_{this, IrqTarget::kDma};
};

}  // namespace audo::periph
