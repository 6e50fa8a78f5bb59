// The Emulation Device: the unchanged product chip (soc::Soc) plus the
// Emulation Extension Chip — MCDS, EMEM and the ECerberus tool-access
// master behind the JTAG/DAP port (Figure 4).
//
// Two properties of the real ED are preserved structurally:
//  * the product chip part is *unchanged*: this class owns a Soc, runs
//    it through the Soc's own run loop and never modifies its behaviour
//    — the EEC is that loop's frame sink, MCDS observation is read-only,
//    and turning the whole EEC off yields cycle-identical runs (test E10);
//  * the tool interface has finite bandwidth that does not scale with
//    CPU frequency (§5): the DAP drain budget is configured in bits/s
//    and converted to bytes per CPU cycle.
#pragma once

#include "common/status.hpp"
#include "ed/mli_bridge.hpp"
#include "emem/emem.hpp"
#include "mcds/mcds.hpp"
#include "soc/soc.hpp"

namespace audo::ed {

struct EdConfig {
  emem::EmemConfig emem;
  /// Tool-interface bandwidth. DAP over a robust 2-pin cable reaches a
  /// few tens of Mbit/s regardless of the CPU clock.
  u64 dap_bits_per_second = 40'000'000;
  /// Continuously drain the EMEM through the DAP while running
  /// (long-measurement mode); otherwise the EMEM buffers and the tool
  /// downloads after the run.
  bool stream_drain = false;
};

class EmulationDevice : private soc::FrameSink {
 public:
  EmulationDevice(const soc::SocConfig& soc_config, mcds::McdsConfig mcds_config,
                  EdConfig ed_config);

  soc::Soc& soc() { return soc_; }
  const soc::Soc& soc() const { return soc_; }
  mcds::Mcds& mcds() { return mcds_; }
  emem::Emem& emem() { return emem_; }
  MliBridge& mli() { return mli_; }
  const EdConfig& config() const { return config_; }

  Status load(const isa::Program& program) { return soc_.load(program); }
  void reset(Addr tc_entry, Addr pcp_entry = 0);

  /// One clock cycle: product chip, then EEC observation, then DAP drain.
  void step();

  /// Run until the TC halts, an MCDS break fires, the product chip
  /// reports an idle deadlock or `max_cycles` elapse; returns cycles run.
  /// This is soc::Soc::run with the EEC as its sink, so the budget is
  /// capped alike, except that 0 runs nothing. A break pending at entry
  /// (OCDS debug halt) pauses the device until the tool clears it: run()
  /// returns 0, like a hit breakpoint.
  u64 run(u64 max_cycles);

  /// Bytes the DAP can move per CPU cycle (may be < 1).
  double dap_bytes_per_cycle() const;

  /// Bytes drained over the DAP so far (stream mode).
  u64 dap_bytes_drained() const { return dap_drained_; }

  // ---- tool access path (DAP -> ECerberus -> BBB -> product SRI) ----
  // These *do* occupy the product bus, exactly like a real monitor or
  // calibration access; they advance device time until completion.
  u32 tool_read32(Addr addr);
  void tool_write32(Addr addr, u32 value);

  /// Drain/download everything still in the EMEM and decode the full
  /// host-side unit stream into messages.
  Result<std::vector<mcds::TraceMessage>> download_trace();

  // ---- host telemetry ------------------------------------------------

  /// Register the product chip's components plus the EEC side ("mcds",
  /// "emem", "dap"). Call once, after construction. A tracer or phase
  /// probe attached to soc() sees the EEC side too: the tracer gets the
  /// EMEM fill level and trace drops each cycle, and the probe times the
  /// EEC observation as its own phase (kMcds).
  void register_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  // soc::FrameSink: the EEC's work on every cycle the product chip runs.
  /// MCDS observe, DAP drain and the tracer's EEC track; false on a break.
  bool on_frame(const mcds::ObservationFrame& frame) override;
  /// The MCDS bound; 0 under stream drain, whose fractional DAP budget
  /// has no O(1) replay.
  u64 idle_skip_limit(const mcds::ObservationFrame& idle) override;
  void skip_idle(const mcds::ObservationFrame& idle, u64 n) override;

  /// Issue a tool access on the Cerberus port and step the device until
  /// it completes; returns the read data (0 if the fabric refused it).
  u32 tool_access(bus::AccessKind kind, Addr addr, u32 wdata);

  soc::Soc soc_;
  mcds::Mcds mcds_;
  EdConfig config_;
  emem::Emem emem_;
  MliBridge mli_;
  bus::MasterPort cerberus_port_;
  double drain_budget_ = 0.0;
  u64 dap_drained_ = 0;
};

}  // namespace audo::ed
