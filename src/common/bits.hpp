// Bit-manipulation helpers used by the ISA encoder/decoder, cache indexing
// and the trace-message bit packer.
#pragma once

#include <bit>
#include <cassert>
#include <cstring>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace audo {

/// Extract `count` bits of `value` starting at bit `lsb` (0 = least
/// significant). count must be 1..32 for 32-bit, 1..64 for 64-bit values.
constexpr u32 bits(u32 value, unsigned lsb, unsigned count) {
  assert(lsb < 32 && count >= 1 && lsb + count <= 32);
  const u32 mask = (count == 32) ? ~u32{0} : ((u32{1} << count) - 1);
  return (value >> lsb) & mask;
}

/// Insert `count` bits of `field` into `target` at bit `lsb`.
constexpr u32 insert_bits(u32 target, unsigned lsb, unsigned count, u32 field) {
  assert(lsb < 32 && count >= 1 && lsb + count <= 32);
  const u32 mask = (count == 32) ? ~u32{0} : ((u32{1} << count) - 1);
  assert((field & ~mask) == 0 && "field does not fit");
  return (target & ~(mask << lsb)) | ((field & mask) << lsb);
}

/// Sign-extend the low `count` bits of `value` to 32 bits.
constexpr i32 sign_extend(u32 value, unsigned count) {
  assert(count >= 1 && count <= 32);
  const unsigned shift = 32 - count;
  return static_cast<i32>(value << shift) >> shift;
}

constexpr bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_exact(u64 v) {
  assert(is_pow2(v));
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Number of bits needed to represent `v` (0 -> 0 bits).
constexpr unsigned bit_width(u64 v) {
  return static_cast<unsigned>(std::bit_width(v));
}

/// Round `v` up to a multiple of `align` (align must be a power of two).
constexpr u64 align_up(u64 v, u64 align) {
  assert(is_pow2(align));
  return (v + align - 1) & ~(align - 1);
}

constexpr bool is_aligned(u64 v, u64 align) {
  assert(is_pow2(align));
  return (v & (align - 1)) == 0;
}

/// Incremental FNV-1a hashing — used for configuration fingerprints in
/// telemetry run reports (stable across runs and platforms).
inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr u64 kFnvPrime = 0x100000001b3ull;

constexpr u64 fnv1a(u64 hash, u64 value) {
  for (unsigned i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

constexpr u64 fnv1a(u64 hash, std::string_view s) {
  for (char c : s) {
    hash ^= static_cast<u8>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// `m` folds of fnv1a(hash, u64{0}) in O(log m): xor with a zero byte
/// changes nothing, so one fold multiplies by p^8 and m folds by
/// p^(8m) mod 2^64.
constexpr u64 fnv1a_zeros(u64 hash, u64 m) {
  u64 factor = 1;
  for (unsigned i = 0; i < 8; ++i) factor *= kFnvPrime;
  for (; m != 0; m >>= 1) {
    if ((m & 1) != 0) hash *= factor;
    factor *= factor;
  }
  return hash;
}

/// fnv1a(hash, u64{w}) folded over each little-endian 32-bit word w of
/// `bytes` in order (a trailing partial word is left out). Each run of
/// zero words is one fnv1a_zeros, so the cost is in the non-zero words.
inline u64 fnv1a_words(u64 hash, std::span<const u8> bytes) {
  u64 zeros = 0;
  for (usize off = 0; off + 4 <= bytes.size(); off += 4) {
    // One load tests for zero in either byte order.
    u32 raw = 0;
    std::memcpy(&raw, bytes.data() + off, 4);
    if (raw == 0) {
      ++zeros;
      continue;
    }
    const u32 word = u32{bytes[off]} | u32{bytes[off + 1]} << 8 |
                     u32{bytes[off + 2]} << 16 | u32{bytes[off + 3]} << 24;
    hash = fnv1a(fnv1a_zeros(hash, zeros), u64{word});
    zeros = 0;
  }
  return fnv1a_zeros(hash, zeros);
}

}  // namespace audo
