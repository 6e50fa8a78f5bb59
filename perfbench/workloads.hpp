// The benchmark's four workloads behind one interface, plus the output
// checks and the named per-layer report they fill.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "traced.hpp"

namespace perfbench {

using audo::u64;

/// Every output check of a run; any failure fails the run.
struct Checks {
  u64 attempted = 0;
  u64 failed = 0;
  void expect(bool ok, const std::string& what);
};

/// One repetition: set-up, then the measured phase.
struct Rep {
  double setup_s = 0.0;  // host CPU seconds of set-up
  double wall_s = 0.0;   // wall seconds of the measured phase
  double cpu_s = 0.0;    // host CPU seconds of the measured phase, all threads
  u64 sim_cycles = 0;    // simulated cycles of the measured phase
};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

/// The end-to-end metrics every untraced run prints.
const std::vector<MetricSpec>& end_to_end_specs();

/// The per-layer metrics every traced run prints, in a fixed order; a
/// layer a workload does not exercise reads 0.
class LayerReport {
 public:
  LayerReport();

  static const std::vector<MetricSpec>& specs();

  void set(std::string_view name, double value);
  double get(std::string_view name) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;  // indexed like specs()
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Host threads the measured phase runs on.
  virtual unsigned threads() const { return 1; }

  /// Untimed expected values: an accurate-tier, fast-forward-off run of
  /// the same inputs. May check untimed passes of the default tier too.
  virtual void reference(Checks& checks) = 0;

  /// One set-up and measured phase, its outputs checked.
  virtual Rep run(Checks& checks) = 0;

  /// The traced pass: times every call into each layer from the
  /// benchmark's own loop, checks the traced run reproduces the untraced
  /// state exactly, and fills `out`. `untraced_ns_per_cycle` is the
  /// median raw (not host-speed normalised) cpu_ns_per_sim_cycle of this
  /// run's untraced repetitions; a
  /// workload whose traced pass replays other simulated work than its
  /// measured phase (the sweep, the campaign) times an untraced twin of
  /// that work instead.
  virtual void traced(Checks& checks, double untraced_ns_per_cycle,
                      const Calibration& calibration,
                      LayerReport& out) = 0;

  /// Make the main expected digest wrong, so its checks must fail (the
  /// self-test). Call before reference().
  void corrupt_expected() { corrupt_ = true; }

 protected:
  /// The reference's main digest, as the checks will expect it.
  u64 expected(u64 digest) const { return corrupt_ ? digest ^ 1 : digest; }

 private:
  bool corrupt_ = false;
};

/// Null when `name` is not a workload.
std::unique_ptr<Workload> make_workload(std::string_view name, u64 seed,
                                        bool smoke);

}  // namespace perfbench
