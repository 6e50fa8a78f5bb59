// Host speed on a shared machine.
//
// On a host shared with other tenants, each core runs this process slower
// or faster by up to about 1.8x, for seconds to minutes at a stretch, as
// its neighbours come and go. A raw host time then says as much about the
// neighbours as about the simulator. The benchmark measures a fixed
// reference loop on the same CPUs right before and after each repetition
// and divides the repetition's times by the slowdown it shows, which puts
// every time on one nominal host.
#pragma once

#include <sched.h>

#include <vector>

#include "common/types.hpp"

namespace perfbench {

/// How much slower than the nominal host the calling thread's CPU runs
/// right now: the CPU time of a fixed reference loop over its nominal CPU
/// time (1.0 on the nominal host, 1.5 when it runs 1.5x slower).
///
/// The loop is two kernels, a throughput-bound integer kernel and an
/// indirect-call kernel with a large code footprint, which a neighbour
/// slows the way it slows the simulator's instruction stream; the result
/// is the geometric mean of their two ratios. It costs about 20 ms.
double host_slowdown();

/// Pins the calling thread, and so the pool threads it starts later, to
/// the next `width`-CPU subset of the CPUs the process may use, one
/// subset per next() call, round robin. Each core is slowed at its own
/// times; spread over every core, no single slow core sets a run's figure.
/// The destructor restores the process's own mask.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

  /// host_slowdown() on each CPU of the current subset in turn, averaged;
  /// the subset's pinning holds again afterwards.
  double slowdown() const;

 private:
  cpu_set_t original_;
  std::vector<std::vector<int>> sets_;
  audo::usize current_ = 0;
};

}  // namespace perfbench
