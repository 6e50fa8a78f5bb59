// Bit-granular writer/reader used by the MCDS trace-message encoder.
//
// Trace compression is the load-bearing claim of the paper's bandwidth
// argument (§5), so message sizes must be real: messages are packed to the
// bit, and the byte size reported to the DAP drain model is the exact
// ceil(bits/8) of the stream.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/types.hpp"

namespace audo {

class BitWriter {
 public:
  /// Pre-size the byte buffer for a unit of about `bytes` bytes.
  void reserve(usize bytes) { bytes_.reserve(bytes); }

  /// Append the low `count` bits of `value` (LSB first), up to 8 bits at
  /// a time: each step fills the free bits of the last byte.
  void write(u64 value, unsigned count) {
    assert(count >= 1 && count <= 64);
    total_bits_ += count;
    while (count > 0) {
      if (bit_pos_ == 0) bytes_.push_back(0);
      const unsigned take = std::min(count, 8 - bit_pos_);
      const unsigned mask = (1u << take) - 1;
      bytes_.back() |= static_cast<u8>((value & mask) << bit_pos_);
      value >>= take;
      count -= take;
      bit_pos_ = (bit_pos_ + take) % 8;
    }
  }

  /// Unsigned LEB-style variable-length quantity in 4-bit groups:
  /// each nibble holds 3 payload bits + 1 continuation bit. Small deltas
  /// (the common case for timestamps) cost 4 bits.
  void write_varint(u64 value) {
    do {
      const u64 payload = value & 0x7;
      value >>= 3;
      write(payload | (value != 0 ? 0x8 : 0x0), 4);
    } while (value != 0);
  }

  u64 bit_count() const { return total_bits_; }
  usize byte_count() const { return bytes_.size(); }
  const std::vector<u8>& bytes() const { return bytes_; }
  /// Move the bytes out, leaving the writer empty.
  std::vector<u8> take() {
    bit_pos_ = 0;
    total_bits_ = 0;
    return std::move(bytes_);
  }

  void clear() {
    bytes_.clear();
    bit_pos_ = 0;
    total_bits_ = 0;
  }

 private:
  std::vector<u8> bytes_;
  unsigned bit_pos_ = 0;  // next free bit within bytes_.back()
  u64 total_bits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<u8>& bytes) : bytes_(&bytes) {}

  /// Reads up to 8 bits per step: the rest of the current byte, or what
  /// the field still needs. Reads past the end return the bits gathered
  /// so far (zero-filled) and latch failed() instead of touching
  /// out-of-range memory, so a truncated stream is a reportable decode
  /// error in release builds rather than undefined behaviour.
  u64 read(unsigned count) {
    assert(count >= 1 && count <= 64);
    u64 value = 0;
    unsigned got = 0;
    while (got < count) {
      if (exhausted()) {
        failed_ = true;
        return value;
      }
      const unsigned bit = static_cast<unsigned>(pos_ % 8);
      const unsigned take = std::min(count - got, 8 - bit);
      const unsigned mask = (1u << take) - 1;
      const u64 chunk = ((*bytes_)[pos_ / 8] >> bit) & mask;
      value |= chunk << got;
      got += take;
      pos_ += take;
    }
    return value;
  }

  /// A varint whose payload does not fit 64 bits (more than 22 nibbles,
  /// or a 22nd nibble above bit 63) latches failed() and returns 0.
  u64 read_varint() {
    u64 value = 0;
    for (unsigned shift = 0;; shift += 3) {
      const u64 nibble = read(4);
      const u64 payload = nibble & 0x7;
      // The 22nd nibble (shift 63) has room for one payload bit; a 23rd
      // has none.
      if (shift > 63 || (shift == 63 && payload > 1)) {
        failed_ = true;
        return 0;
      }
      value |= payload << shift;
      if ((nibble & 0x8) == 0) return value;
    }
  }

  bool exhausted() const { return pos_ >= bytes_->size() * 8; }
  /// True when fewer than `count` bits remain.
  bool remaining_less_than(unsigned count) const {
    return pos_ + count > bytes_->size() * 8;
  }
  /// A read() ran past the end of the stream, or a varint overflowed 64
  /// bits.
  bool failed() const { return failed_; }

 private:
  const std::vector<u8>* bytes_;
  u64 pos_ = 0;
  bool failed_ = false;
};

}  // namespace audo
