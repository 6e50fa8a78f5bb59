#include "host_speed.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace perfbench {

using audo::u64;
using audo::usize;

namespace {

/// Nominal CPU time per iteration of each kernel: roughly what a quiet
/// core of a 2020s x86 server gives. Any fixed value would do; these keep
/// the normalised times close to the raw times on such a core.
constexpr double kNominalThroughputNs = 2.0;
constexpr double kNominalDispatchNs = 32.0;

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e9 * static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec);
}

/// Six independent integer chains: several instructions per cycle when
/// the core is the thread's own, fewer when a neighbour shares it.
double throughput_ns_per_iteration() {
  constexpr u64 kIterations = 2'000'000;
  const double t0 = thread_cpu_ns();
  u64 a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  for (u64 i = 0; i < kIterations; ++i) {
    a = (a ^ (a << 7)) + i;
    b = (b ^ (b >> 9)) + a;
    c = (c * 5) ^ i;
    d = (d + (d << 3)) ^ c;
    e = (e ^ (e >> 5)) + 3;
    f = (f + e) ^ (f >> 11);
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
  }
  const double ns = thread_cpu_ns() - t0;
  asm volatile("" : : "r"(a + b + c + d + e + f));
  return ns / static_cast<double>(kIterations);
}

// The dispatch kernel: 512 distinct small functions, called through a
// table in a pseudo-random order, each updating a 256 KiB table. Its code
// outgrows the L1 instruction cache and its branches the predictor, as a
// simulator's per-cycle work does.
constexpr unsigned kTableWords = 1u << 15;
std::array<u64, kTableWords> g_table;

template <unsigned N>
u64 dispatch_op(u64 v) {
  u64& t = g_table[(v * (N * 2 + 1) + N) & (kTableWords - 1)];
  t = t * (N | 1) + (v >> (N % 13));
  if ((t >> (N % 7)) & 1) return v ^ (t + N);
  return v + t * 3 - N;
}

using DispatchFn = u64 (*)(u64);

template <unsigned... I>
constexpr std::array<DispatchFn, sizeof...(I)> dispatch_table(
    std::integer_sequence<unsigned, I...>) {
  return {&dispatch_op<I>...};
}

constexpr unsigned kDispatchOps = 512;
constexpr auto kDispatch =
    dispatch_table(std::make_integer_sequence<unsigned, kDispatchOps>{});

double dispatch_ns_per_iteration() {
  constexpr u64 kIterations = 300'000;
  g_table.fill(0);  // the same work on every call
  const double t0 = thread_cpu_ns();
  u64 v = 12345, x = 777;
  for (u64 i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = kDispatch[(x ^ v) & (kDispatchOps - 1)](v);
  }
  const double ns = thread_cpu_ns() - t0;
  asm volatile("" : : "r"(v));
  return ns / static_cast<double>(kIterations);
}

void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

double host_slowdown() {
  return std::sqrt(throughput_ns_per_iteration() / kNominalThroughputNs *
                   (dispatch_ns_per_iteration() / kNominalDispatchNs));
}

CpuRotation::CpuRotation(unsigned width) {
  constexpr usize kMaxSets = 256;
  CPU_ZERO(&original_);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof original_, &original_) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus.push_back(c);
    }
  }
  if (cpus.size() <= width) {
    // Nothing to rotate over: one subset, every CPU the process may use.
    if (!cpus.empty()) sets_.push_back(cpus);
    return;
  }
  std::vector<bool> chosen(cpus.size(), false);
  std::fill(chosen.begin(), chosen.begin() + width, true);
  do {
    std::vector<int> set;
    for (usize i = 0; i < cpus.size(); ++i) {
      if (chosen[i]) set.push_back(cpus[i]);
    }
    sets_.push_back(std::move(set));
  } while (sets_.size() < kMaxSets &&
           std::prev_permutation(chosen.begin(), chosen.end()));
}

CpuRotation::~CpuRotation() {
  if (!sets_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::next() {
  if (sets_.empty()) return;
  current_ = (current_ + 1) % sets_.size();
  pin(sets_[current_]);
}

double CpuRotation::slowdown() const {
  if (sets_.empty()) return host_slowdown();
  double sum = 0.0;
  for (const int c : sets_[current_]) {
    pin({c});
    sum += host_slowdown();
  }
  pin(sets_[current_]);
  return sum / static_cast<double>(sets_[current_].size());
}

}  // namespace perfbench
