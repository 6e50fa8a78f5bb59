// The embedded program flash — the performance-critical device of §4:
// "the path from CPU to flash is the main lever to increase the CPU
// system performance".
//
// Model:
//  * one flash array with a multi-cycle line read (wait states),
//  * two independent bus ports (code / data) that arbitrate for the
//    array — the paper's "arbitration between the code and data ports",
//  * per-port line buffers: prefetch buffers on the code port (with
//    optional sequential next-line prefetch issued into the array shadow)
//    and read buffers on the data port,
//  * per-cycle event strobes for the MCDS (buffer hit/miss, port
//    conflict) and cumulative statistics.
#pragma once

#include <string>
#include <vector>

#include "bus/port.hpp"
#include "common/fields.hpp"
#include "common/types.hpp"
#include "mem/mem_array.hpp"

namespace audo::telemetry {
class MetricsRegistry;
}

namespace audo::mem {

struct PFlashConfig {
  u32 size = 2u * 1024 * 1024;
  /// Extra cycles for an array line fetch beyond the 1-cycle buffer hit.
  /// TC1797 @180 MHz needs ~4-6 CPU cycles per flash read.
  unsigned wait_states = 5;
  unsigned line_bytes = 32;      // 256-bit flash line
  unsigned code_buffers = 2;     // prefetch buffers on the code port
  unsigned data_buffers = 1;     // read buffers on the data port
  bool sequential_prefetch = true;
};

/// The persisted fields, in order (common/fields.hpp).
template <FieldsOf<PFlashConfig> Self, typename V>
void visit_fields(Self& c, V& v) {
  v("size", c.size);
  v("wait_states", c.wait_states);
  v("line_bytes", c.line_bytes);
  v("code_buffers", c.code_buffers);
  v("data_buffers", c.data_buffers);
  v("sequential_prefetch", c.sequential_prefetch);
}

class PFlash {
 public:
  struct Stats {
    u64 code_accesses = 0;
    u64 code_buffer_hits = 0;
    u64 data_accesses = 0;
    u64 data_buffer_hits = 0;
    u64 array_fetches = 0;
    u64 prefetches_issued = 0;
    u64 prefetch_hits = 0;          // code buffer hits on prefetched lines
    u64 port_conflict_cycles = 0;   // cycles spent waiting for the array
    u64 illegal_writes = 0;         // bus writes to PFlash (ignored)
  };

  /// Per-cycle strobes for the MCDS observation frame; cleared by tick().
  struct Strobes {
    bool code_access = false;
    bool code_buffer_hit = false;
    bool data_access = false;
    bool data_buffer_hit = false;
    bool array_conflict = false;
  };

  /// How the most recent access granted on a port is being served — the
  /// flash-side input to the SoC stall-attribution walk (DESIGN.md,
  /// "Stall attribution & interference matrix"). Valid from grant until
  /// the next grant on the same port.
  enum class AccessClass : u8 {
    kNone = 0,     // no access granted on this port yet
    kBufferHit,    // read/prefetch buffer hit (incl. in-flight prefetch)
    kArrayFetch,   // buffer miss: array line fetch at full wait states
    kConflict,     // buffer miss delayed by the other port's array use
  };

  explicit PFlash(const PFlashConfig& config);

  /// Advance internal time; must be called once per cycle *before* the
  /// crossbar step so grant-time latency sampling sees the current cycle.
  void tick(Cycle now);

  /// The flash never acts on its own: array occupancy and prefetch-shadow
  /// deadlines (`array_free_at_`, BufferEntry::available_at) are absolute
  /// cycles sampled on the next access, so idle time passes for free.
  Cycle next_activity_cycle(Cycle) const { return ~Cycle{0}; }
  /// Bulk-advance over idle cycles: tick() only samples `now` and clears
  /// strobes, both of which the resume-cycle tick() redoes.
  void skip(u64) {}

  bus::BusSlave& code_port() { return code_port_; }
  bus::BusSlave& data_port() { return data_port_; }

  /// Service class of the transaction most recently granted on a port
  /// (code_port when `code`); the attribution walk refines "stalled on
  /// the flash slave" into buffer-hit / array-fetch / port-conflict.
  AccessClass access_class(bool code) const {
    return code ? code_port_.access_class_ : data_port_.access_class_;
  }

  MemArray& array() { return array_; }
  const MemArray& array() const { return array_; }
  const PFlashConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  const Strobes& strobes() const { return strobes_; }

  /// Drop all buffered lines (used between benchmark runs).
  void invalidate_buffers();

  /// Register the flash counters under `component` (e.g. "pflash").
  void register_metrics(telemetry::MetricsRegistry& registry,
                        std::string component) const;

 private:
  struct BufferEntry {
    u32 line = 0;
    Cycle available_at = 0;  // in-flight until then (prefetch shadow)
    Cycle last_used = 0;
    bool valid = false;
    bool prefetched = false;
  };

  class Port final : public bus::BusSlave {
   public:
    Port(PFlash* flash, bool is_code, unsigned buffers, std::string name)
        : flash_(flash), is_code_(is_code), buffers_(buffers), name_(std::move(name)) {}

    unsigned start_access(const bus::BusRequest& req) override;
    u32 complete_access(const bus::BusRequest& req) override;
    std::string_view name() const override { return name_; }

    std::vector<BufferEntry> entries() const { return buffers_; }
    void invalidate();

   private:
    friend class PFlash;
    BufferEntry* find(u32 line);
    BufferEntry& victim();

    PFlash* flash_;
    bool is_code_;
    std::vector<BufferEntry> buffers_;
    std::string name_;
    AccessClass access_class_ = AccessClass::kNone;
  };

  u32 line_of(Addr addr) const;
  /// Reserve the array for one line fetch starting no earlier than now;
  /// returns the completion cycle.
  Cycle reserve_array();

  PFlashConfig config_;
  MemArray array_;
  Port code_port_;
  Port data_port_;
  Cycle now_ = 0;
  Cycle array_free_at_ = 0;
  Stats stats_;
  Strobes strobes_;
};

}  // namespace audo::mem
