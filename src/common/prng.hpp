// Deterministic PRNG for workload generation and property tests.
//
// xoshiro256** — fast, high quality, and — critically for this project —
// fully deterministic across platforms so that cycle-count assertions in
// tests are stable.
#pragma once

#include <cassert>

#include "common/types.hpp"

namespace audo {

class Prng {
 public:
  explicit Prng(u64 seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    u64 x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      u64 z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  u32 next_u32() { return static_cast<u32>(next_u64() >> 32); }

  /// Uniform in [0, bound). bound must be > 0.
  u64 next_below(u64 bound) {
    assert(bound > 0);
    // Rejection-free Lemire reduction is overkill here; modulo bias is
    // negligible for simulation workloads but we keep determinism exact.
    return next_u64() % bound;
  }

  /// Uniform in [lo, hi] inclusive.
  i64 next_range(i64 lo, i64 hi) {
    assert(lo <= hi);
    return lo + static_cast<i64>(next_below(static_cast<u64>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool chance(double p) { return next_double() < p; }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  u64 state_[4];
};

}  // namespace audo
