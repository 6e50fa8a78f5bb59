#include "soc/frame_digest.hpp"

#include <algorithm>

namespace audo::soc {

namespace {

// The component index order used by WindowedFrameDigest::components.
constexpr const char* kComponents[WindowedFrameDigest::kNumComponents] = {
    "tc", "pcp", "sri", "flash", "dma", "safety", "irq"};
enum Component : unsigned { kTc, kPcp, kSri, kFlash, kDma, kSafety, kIrq };

template <typename Visit>
void walk_core_fields(unsigned component, const mcds::CoreObservation& c,
                      Visit& visit) {
  const auto add = [&](const char* field, u64 v) { visit(component, field, v); };
  add("present", c.present);
  add("retired", c.retired);
  add("retire_pc", c.retire_pc);
  add("stall", static_cast<u64>(c.stall));
  add("attr.symptom", static_cast<u64>(c.attr.symptom));
  add("attr.root", static_cast<u64>(c.attr.root));
  add("attr.blocking_master", static_cast<u64>(c.attr.blocking_master));
  add("attr.blocking_slave", c.attr.blocking_slave);
  add("discontinuity", c.discontinuity);
  add("discontinuity_target", c.discontinuity_target);
  add("irq_entry", c.irq_entry);
  add("irq_prio", c.irq_prio);
  add("irq_exit", c.irq_exit);
  add("trap_entry", c.trap_entry);
  add("trap_class", c.trap_class);
  add("debug_marker", c.debug_marker);
  add("data_access", c.data_access);
  add("data_write", c.data_write);
  add("data_addr", c.data_addr);
  add("data_value", c.data_value);
  add("data_bytes", c.data_bytes);
  add("icache_access", c.icache_access);
  add("icache_hit", c.icache_hit);
  add("icache_miss", c.icache_miss);
  add("dcache_access", c.dcache_access);
  add("dcache_hit", c.dcache_hit);
  add("dcache_miss", c.dcache_miss);
  add("dspr_access", c.dspr_access);
  add("flash_data_access", c.flash_data_access);
  add("sram_data_access", c.sram_data_access);
  add("periph_data_access", c.periph_data_access);
}

/// Hand every architectural field of `f` except the cycle stamp to
/// `visit(component, field, value)`, in the fixed order that defines
/// every digest below. Walking instead of building a list keeps the
/// per-frame digests free of allocation.
template <typename Visit>
void walk_frame_fields(const mcds::ObservationFrame& f, Visit&& visit) {
  walk_core_fields(kTc, f.tc, visit);
  walk_core_fields(kPcp, f.pcp, visit);
  visit(kSri, "any_grant", f.sri.any_grant);
  visit(kSri, "granted_master", static_cast<u64>(f.sri.granted_master));
  visit(kSri, "granted_slave", f.sri.granted_slave);
  visit(kSri, "granted_addr", f.sri.granted_addr);
  visit(kSri, "granted_write", f.sri.granted_write);
  visit(kSri, "contention", f.sri.contention);
  visit(kSri, "waiting_masters", f.sri.waiting_masters);
  visit(kSri, "error_response", f.sri.error_response);
  visit(kSri, "error_master", static_cast<u64>(f.sri.error_master));
  visit(kSri, "completed_count", f.sri.completed_count);
  for (unsigned i = 0; i < f.sri.completed_count; ++i) {
    const bus::CompletedTransaction& t = f.sri.completed[i];
    visit(kSri, "completed.master", static_cast<u64>(t.master));
    visit(kSri, "completed.slave", t.slave);
    visit(kSri, "completed.addr", t.addr);
    visit(kSri, "completed.write", t.write);
    visit(kSri, "completed.fetch", t.fetch);
    visit(kSri, "completed.issued_at", t.issued_at);
    visit(kSri, "completed.granted_at", t.granted_at);
  }
  visit(kFlash, "code_access", f.flash.code_access);
  visit(kFlash, "code_buffer_hit", f.flash.code_buffer_hit);
  visit(kFlash, "data_access", f.flash.data_access);
  visit(kFlash, "data_buffer_hit", f.flash.data_buffer_hit);
  visit(kFlash, "array_conflict", f.flash.array_conflict);
  visit(kDma, "transfer", f.dma.transfer);
  visit(kDma, "channel", f.dma.channel);
  visit(kSafety, "ecc_corrected", f.safety.ecc_corrected);
  visit(kSafety, "ecc_uncorrectable", f.safety.ecc_uncorrectable);
  visit(kSafety, "bus_error", f.safety.bus_error);
  visit(kSafety, "wdt_timeout", f.safety.wdt_timeout);
  visit(kSafety, "cpu_trap", f.safety.cpu_trap);
  visit(kSafety, "alarm_irq", f.safety.alarm_irq);
  visit(kSafety, "halt_request", f.safety.halt_request);
  visit(kIrq, "count", f.irq.count);
  for (unsigned i = 0; i < f.irq.count; ++i) {
    visit(kIrq, "raised.priority", f.irq.raised[i].priority);
    visit(kIrq, "raised.target", f.irq.raised[i].target);
  }
}

/// FNV-1a of `f`'s fields continued from `h`.
u64 hash_fields(u64 h, const mcds::ObservationFrame& f) {
  walk_frame_fields(f, [&h](unsigned, const char*, u64 v) { h = fnv1a(h, v); });
  return h;
}

}  // namespace

std::vector<FrameField> enumerate_frame_fields(
    const mcds::ObservationFrame& f) {
  std::vector<FrameField> out;
  out.reserve(96);
  walk_frame_fields(f, [&out](unsigned component, const char* field, u64 v) {
    out.push_back(FrameField{kComponents[component], field, v});
  });
  return out;
}

u64 frame_fingerprint(const mcds::ObservationFrame& f) {
  return hash_fields(kFnvOffset, f);
}

// ---- FrameStreamHasher ---------------------------------------------------

void FrameStreamHasher::observe(const mcds::ObservationFrame& frame) {
  ++frames;
  hash = hash_fields(fnv1a(hash, frame.cycle), frame);
}

void FrameStreamHasher::skip_idle(const mcds::ObservationFrame& idle, u64 n) {
  frames += n;
  hash = hash_fields(fnv1a(fnv1a(hash, n), idle.cycle), idle);
}

// ---- WindowedFrameDigest -------------------------------------------------

WindowedFrameDigest::WindowedFrameDigest(u32 window_bits)
    : window_bits_(window_bits) {}

const char* WindowedFrameDigest::component_name(unsigned i) {
  return kComponents[i];
}

void WindowedFrameDigest::flush_run() {
  if (run_len_ == 0) return;
  window_hash_ = fnv1a(window_hash_, run_fp_);
  window_hash_ = fnv1a(window_hash_, run_len_);
  for (unsigned c = 0; c < kNumComponents; ++c) {
    component_hash_[c] = fnv1a(component_hash_[c], run_component_fp_[c]);
    component_hash_[c] = fnv1a(component_hash_[c], run_len_);
  }
  run_len_ = 0;
}

void WindowedFrameDigest::flush_window() {
  flush_run();
  if (!window_open_) return;
  Window w;
  w.index = window_index_;
  w.frames = window_frames_;
  w.digest = window_hash_;
  w.components = component_hash_;
  windows_.push_back(w);
  window_open_ = false;
  window_frames_ = 0;
  window_hash_ = kFnvOffset;
  component_hash_.fill(kFnvOffset);
}

void WindowedFrameDigest::add_run(const mcds::ObservationFrame& frame, u64 fp,
                                  u64 n) {
  // Frames arrive densely: this run covers [next_cycle_, next_cycle_+n).
  while (n > 0) {
    const u64 index = (next_cycle_ - 1) >> window_bits_;
    if (!window_open_) {
      window_open_ = true;
      window_index_ = index;
      window_hash_ = kFnvOffset;
      component_hash_.fill(kFnvOffset);
    } else if (index != window_index_) {
      flush_window();
      continue;
    }
    const u64 window_end = ((window_index_ + 1) << window_bits_) + 1;
    const u64 take = std::min<u64>(n, window_end - next_cycle_);
    if (run_len_ != 0 && run_fp_ != fp) flush_run();
    if (run_len_ == 0) {
      run_fp_ = fp;
      run_component_fp_.fill(kFnvOffset);
      walk_frame_fields(frame, [this](unsigned c, const char*, u64 v) {
        run_component_fp_[c] = fnv1a(run_component_fp_[c], v);
      });
    }
    run_len_ += take;
    window_frames_ += take;
    total_frames_ += take;
    next_cycle_ += take;
    n -= take;
  }
}

void WindowedFrameDigest::observe(const mcds::ObservationFrame& frame) {
  next_cycle_ = frame.cycle;  // tolerate the first frame starting past 1
  add_run(frame, frame_fingerprint(frame), 1);
}

void WindowedFrameDigest::skip_idle(const mcds::ObservationFrame& idle,
                                    u64 n) {
  add_run(idle, frame_fingerprint(idle), n);
}

const std::vector<WindowedFrameDigest::Window>& WindowedFrameDigest::finish() {
  flush_window();
  return windows_;
}

u64 WindowedFrameDigest::stream_digest() const {
  u64 h = kFnvOffset;
  for (const Window& w : windows_) {
    h = fnv1a(h, w.index);
    h = fnv1a(h, w.frames);
    h = fnv1a(h, w.digest);
  }
  return h;
}

}  // namespace audo::soc
