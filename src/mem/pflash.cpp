#include "mem/pflash.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "mem/memory_map.hpp"
#include "telemetry/metrics.hpp"

namespace audo::mem {

void PFlash::register_metrics(telemetry::MetricsRegistry& registry,
                              std::string component) const {
  registry.counter(component, "code_accesses", &stats_.code_accesses);
  registry.counter(component, "code_buffer_hits", &stats_.code_buffer_hits);
  registry.counter(component, "data_accesses", &stats_.data_accesses);
  registry.counter(component, "data_buffer_hits", &stats_.data_buffer_hits);
  registry.counter(component, "array_fetches", &stats_.array_fetches);
  registry.counter(component, "prefetches_issued", &stats_.prefetches_issued);
  registry.counter(component, "prefetch_hits", &stats_.prefetch_hits);
  registry.counter(component, "port_conflict_cycles",
                   &stats_.port_conflict_cycles);
  registry.counter(std::move(component), "illegal_writes",
                   &stats_.illegal_writes);
}

PFlash::PFlash(const PFlashConfig& config)
    : config_(config),
      array_(config.size),
      code_port_(this, /*is_code=*/true, std::max(1u, config.code_buffers),
                 "PFlash.code"),
      data_port_(this, /*is_code=*/false, std::max(1u, config.data_buffers),
                 "PFlash.data") {
  assert(is_pow2(config.line_bytes));
  code_port_.buffers_.resize(std::max(1u, config.code_buffers));
  data_port_.buffers_.resize(std::max(1u, config.data_buffers));
}

void PFlash::tick(Cycle now) {
  now_ = now;
  strobes_ = Strobes{};
}

u32 PFlash::line_of(Addr addr) const {
  return pflash_offset(addr) / config_.line_bytes;
}

Cycle PFlash::reserve_array() {
  const Cycle start = std::max(now_, array_free_at_);
  const Cycle done = start + config_.wait_states;
  array_free_at_ = done;
  stats_.array_fetches++;
  if (start > now_) {
    stats_.port_conflict_cycles += start - now_;
    strobes_.array_conflict = true;
  }
  return done;
}

void PFlash::invalidate_buffers() {
  code_port_.invalidate();
  data_port_.invalidate();
  array_free_at_ = 0;
}

PFlash::BufferEntry* PFlash::Port::find(u32 line) {
  for (BufferEntry& e : buffers_) {
    if (e.valid && e.line == line) return &e;
  }
  return nullptr;
}

PFlash::BufferEntry& PFlash::Port::victim() {
  // Invalid first, then LRU.
  for (BufferEntry& e : buffers_) {
    if (!e.valid) return e;
  }
  return *std::min_element(buffers_.begin(), buffers_.end(),
                           [](const BufferEntry& a, const BufferEntry& b) {
                             return a.last_used < b.last_used;
                           });
}

void PFlash::Port::invalidate() {
  for (BufferEntry& e : buffers_) e = BufferEntry{};
  access_class_ = AccessClass::kNone;
}

unsigned PFlash::Port::start_access(const bus::BusRequest& req) {
  PFlash& f = *flash_;
  Stats& st = f.stats_;
  if (req.kind == bus::AccessKind::kWrite) {
    // Flash programming over the bus is a command sequence outside this
    // model's scope; drop the write but make it visible in stats.
    st.illegal_writes++;
    access_class_ = AccessClass::kBufferHit;  // single-cycle service
    return 1;
  }
  const u32 line = f.line_of(req.addr);
  if (is_code_) {
    st.code_accesses++;
    f.strobes_.code_access = true;
  } else {
    st.data_accesses++;
    f.strobes_.data_access = true;
  }

  unsigned latency;
  if (BufferEntry* hit = find(line)) {
    // Buffer hit: single cycle, or the remaining in-flight time for a
    // prefetched line still being read from the array.
    access_class_ = AccessClass::kBufferHit;
    latency = 1;
    if (hit->available_at > f.now_) {
      latency = static_cast<unsigned>(hit->available_at - f.now_) + 1;
    }
    hit->last_used = f.now_;
    if (is_code_) {
      st.code_buffer_hits++;
      f.strobes_.code_buffer_hit = true;
      if (hit->prefetched) {
        st.prefetch_hits++;
        hit->prefetched = false;  // count each prefetched line once
      }
    } else {
      st.data_buffer_hits++;
      f.strobes_.data_buffer_hit = true;
    }
  } else {
    access_class_ = f.array_free_at_ > f.now_ ? AccessClass::kConflict
                                              : AccessClass::kArrayFetch;
    const Cycle done = f.reserve_array();
    latency = static_cast<unsigned>(done - f.now_) + 1;
    BufferEntry& slot = victim();
    slot = BufferEntry{line, done, f.now_, true, false};

    // Sequential prefetch: after a demand miss on the code port the array
    // continues with the next line in the shadow of execution.
    if (is_code_ && f.config_.sequential_prefetch) {
      const u32 next = line + 1;
      if (static_cast<u64>(next + 1) * f.config_.line_bytes <= f.config_.size &&
          find(next) == nullptr) {
        BufferEntry& pf_slot = victim();
        // With a single buffer the prefetch would evict the demand line
        // before the CPU consumed it; real hardware gates this too.
        if (&pf_slot != &slot) {
          const Cycle pf_done = f.array_free_at_ + f.config_.wait_states;
          f.array_free_at_ = pf_done;
          pf_slot = BufferEntry{next, pf_done, f.now_, true, true};
          st.prefetches_issued++;
        }
      }
    }
  }
  return latency;
}

u32 PFlash::Port::complete_access(const bus::BusRequest& req) {
  if (req.kind == bus::AccessKind::kWrite) return 0;
  return flash_->array_.read(pflash_offset(req.addr), req.bytes);
}

}  // namespace audo::mem
