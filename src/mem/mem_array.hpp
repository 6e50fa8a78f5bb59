// Byte-addressable backing storage shared by all memory models.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace audo::mem {

/// Fault-injection tap on a MemArray (see fault/fault_injector.hpp).
/// on_read may rewrite the value returned to the device (ECC syndrome
/// evaluation); on_write observes stores so pending fault records can be
/// scrubbed. The hook must outlive the array or be detached first.
class MemFaultHook {
 public:
  virtual ~MemFaultHook() = default;
  virtual u32 on_read(usize offset, unsigned bytes, u32 raw) = 0;
  virtual void on_write(usize offset, unsigned bytes) = 0;
  /// Whether on_read(offset, bytes, ...) would act on a pending fault
  /// record (raise an alarm, consume the record). Side-effect free, so
  /// the superblock tier can ask before committing a read it cannot
  /// report on time.
  virtual bool pending(usize offset, unsigned bytes) const = 0;
};

/// Little-endian byte array with 1/2/4-byte accessors. Out-of-range
/// accesses are tolerated (reads return 0, writes are dropped) but
/// counted, so buggy workload software cannot crash the simulator yet
/// tests can assert cleanliness.
class MemArray {
 public:
  explicit MemArray(usize size) : bytes_(size, 0) {}

  usize size() const { return bytes_.size(); }

  u32 read(usize offset, unsigned bytes) const {
    assert(bytes == 1 || bytes == 2 || bytes == 4);
    if (offset + bytes > bytes_.size()) {
      ++violations_;
      return 0;
    }
    u32 value = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      value |= static_cast<u32>(bytes_[offset + i]) << (8 * i);
    }
    if (hook_ != nullptr) return hook_->on_read(offset, bytes, value);
    return value;
  }

  void write(usize offset, u32 value, unsigned bytes) {
    assert(bytes == 1 || bytes == 2 || bytes == 4);
    if (offset + bytes > bytes_.size()) {
      ++violations_;
      return;
    }
    for (unsigned i = 0; i < bytes; ++i) {
      bytes_[offset + i] = static_cast<u8>(value >> (8 * i));
    }
    if (hook_ != nullptr) hook_->on_write(offset, bytes);
  }

  /// Host-side backdoor access: bypasses the fault hook (and the
  /// violation counter). Fault injectors flip stored bits through poke();
  /// state-comparison code reads through peek() so inspecting memory
  /// cannot consume pending ECC fault records.
  u32 peek(usize offset, unsigned bytes) const {
    if (offset + bytes > bytes_.size()) return 0;
    u32 value = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      value |= static_cast<u32>(bytes_[offset + i]) << (8 * i);
    }
    return value;
  }

  /// The stored bytes, read-only and like peek(): no fault hook.
  std::span<const u8> bytes() const { return bytes_; }

  void poke(usize offset, u32 value, unsigned bytes) {
    if (offset + bytes > bytes_.size()) return;
    for (unsigned i = 0; i < bytes; ++i) {
      bytes_[offset + i] = static_cast<u8>(value >> (8 * i));
    }
  }

  /// Attach/detach a fault-injection hook. Null (the default) keeps the
  /// access paths on a single predicted branch.
  void set_fault_hook(MemFaultHook* hook) { hook_ = hook; }
  MemFaultHook* fault_hook() const { return hook_; }

  /// A read of [offset, offset + bytes) would hit a pending fault record
  /// (MemFaultHook::pending); false on the one branch when no hook is set.
  bool fault_pending(usize offset, unsigned bytes) const {
    return hook_ != nullptr && hook_->pending(offset, bytes);
  }

  u32 read32(usize offset) const { return read(offset, 4); }
  void write32(usize offset, u32 value) { write(offset, value, 4); }

  /// Bulk load (program image sections).
  void load(usize offset, const std::vector<u8>& data) {
    assert(offset + data.size() <= bytes_.size());
    std::copy(data.begin(), data.end(), bytes_.begin() + static_cast<long>(offset));
  }

  void fill(u8 value) { std::fill(bytes_.begin(), bytes_.end(), value); }

  /// Accesses outside the array since construction (sticky diagnostic).
  u64 violations() const { return violations_; }

  /// Snapshot support. The hook pointer is wiring, not state — it is
  /// untouched by restore; size is a structural invariant checked by the
  /// fixed-length read.
  void save_state(snapshot::Writer& w) const {
    w.put_bytes(bytes_.data(), bytes_.size());
    w.put_u64(violations_);
  }
  void restore_state(snapshot::Reader& r) {
    r.get_bytes_into(bytes_.data(), bytes_.size());
    violations_ = r.get_u64();
  }

  bool operator==(const MemArray& other) const { return bytes_ == other.bytes_; }

 private:
  std::vector<u8> bytes_;
  mutable u64 violations_ = 0;
  MemFaultHook* hook_ = nullptr;
};

}  // namespace audo::mem
