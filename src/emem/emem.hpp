// The EEC Emulation Memory (EMEM): 256/512 KiB of SRAM shared between the
// calibration overlay and the trace sink (Figure 4).
//
// Trace modes:
//  * kFill  — record until full, then drop (pre-trigger capture);
//  * kRing  — overwrite the oldest messages (post-trigger capture: freeze
//             via the kStopTrace action keeps the window around the
//             trigger);
//  * kStream — a FIFO drained by the DAP at a configurable bandwidth;
//             overflows when production outpaces the tool interface, the
//             exact effect §5's bandwidth argument is about.
//
// The calibration overlay pages model the ED's original purpose: RAM that
// tools map over flash parameter blocks during calibration.
#pragma once

#include <deque>
#include <vector>

#include "common/types.hpp"
#include "mcds/mcds.hpp"
#include "mem/mem_array.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::emem {

enum class TraceMode : u8 { kFill, kRing, kStream };

struct EmemConfig {
  u32 size_bytes = 512 * 1024;
  /// Bytes reserved for calibration overlay pages (not available to trace).
  u32 overlay_bytes = 128 * 1024;
  TraceMode mode = TraceMode::kFill;

  u32 trace_bytes() const { return size_bytes - overlay_bytes; }
};

class Emem final : public mcds::TraceSink {
 public:
  explicit Emem(const EmemConfig& config);

  // ---- trace sink ----
  bool push(mcds::EncodedMessage msg, Cycle now) override;

  /// Stream mode: drain up to `budget_bytes` through the tool interface.
  /// Returns the number of bytes actually moved. Drained messages are
  /// appended to the host buffer.
  usize drain(u64 budget_bytes);

  /// Fill/ring mode: download the whole buffer content to the host
  /// buffer (end-of-run upload over DAP/JTAG).
  void download_all();

  /// Messages that arrived at the host side (after drain/download).
  const std::vector<mcds::EncodedMessage>& host_units() const {
    return host_units_;
  }

  usize occupancy_bytes() const { return occupancy_; }
  u64 total_pushed_bytes() const { return pushed_bytes_; }
  u64 total_pushed_messages() const { return pushed_messages_; }
  u64 dropped_messages() const { return dropped_; }
  u64 overwritten_messages() const { return overwritten_; }
  const EmemConfig& config() const { return config_; }

  void clear();

  /// Register trace-sink counters under `component` (e.g. "emem").
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const;

  // ---- calibration overlay ----
  mem::MemArray& overlay() { return overlay_; }

 private:
  EmemConfig config_;
  std::deque<mcds::EncodedMessage> buffer_;
  usize occupancy_ = 0;
  u64 partial_drained_ = 0;  // bytes of buffer_.front() already drained
  std::vector<mcds::EncodedMessage> host_units_;

  u64 pushed_bytes_ = 0;
  u64 pushed_messages_ = 0;
  u64 dropped_ = 0;
  u64 overwritten_ = 0;

  mem::MemArray overlay_;
};

}  // namespace audo::emem
