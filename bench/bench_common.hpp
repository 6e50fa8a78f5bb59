// Shared helpers for the experiment benches (E1..E10 in DESIGN.md):
// the common CLI (--cycles/--seed/--report/--perfetto), the engine
// workload builders, and the host-telemetry harness every bench can
// attach to its measured run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "ed/emulation_device.hpp"
#include "host/sim_pool.hpp"
#include "profiling/session.hpp"
#include "soc/tracer.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "workload/engine.hpp"
#include "workload/kernels.hpp"

namespace audo::bench {

// ---- shared CLI -----------------------------------------------------

struct BenchArgs {
  u64 cycles = 0;  // 0 = keep the bench's built-in default
  u64 seed = 0;
  /// Host workers for config sweeps; defaults to hardware concurrency.
  /// Any value produces bit-identical results (see host/sim_pool.hpp).
  unsigned jobs = host::SimPool::hardware_jobs();
  /// --no-fast-forward: step every idle cycle instead of skipping
  /// quiescent stretches. Bit-identical either way (the flag exists for
  /// cross-checking exactly that); apply via `args.apply(config)`.
  bool fast_forward = true;
  /// --exec-tier accurate|superblock: execution engine selection. Like
  /// fast_forward, bit-identical either way (the flag exists for
  /// cross-checking exactly that); apply via `args.apply(config)`.
  soc::SocConfig::ExecTier exec_tier = soc::SocConfig{}.exec_tier;
  std::string report_path;    // --report <path>: RunReport JSON
  std::string perfetto_path;  // --perfetto <path>: Chrome trace JSON

  /// Copy the host-side knobs this CLI controls into a SoC config.
  void apply(soc::SocConfig& config) const {
    config.fast_forward = fast_forward;
    config.exec_tier = exec_tier;
  }

  bool telemetry_requested() const {
    return !report_path.empty() || !perfetto_path.empty();
  }
};

inline void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cycles N] [--seed N] [--jobs N] "
               "[--no-fast-forward] [--report PATH] [--perfetto PATH]\n"
               "  --cycles N       override the bench's simulated-cycle "
               "budget\n"
               "  --seed N         workload seed (recorded in the report)\n"
               "  --jobs N         host threads for config sweeps "
               "(default: hardware concurrency; results are identical "
               "for any N)\n"
               "  --no-fast-forward  step every idle cycle instead of "
               "skipping quiescent stretches (bit-identical, slower)\n"
               "  --exec-tier T    execution engine: 'superblock' "
               "(default) or 'accurate' (bit-identical, slower)\n"
               "  --report PATH    write a structured RunReport JSON\n"
               "  --perfetto PATH  write a Chrome/Perfetto trace JSON\n",
               argv0);
}

/// Parse the shared flags; exits on --help or an unknown/malformed flag.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  auto value_of = [&](int& i, std::string_view flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%.*s needs a value\n",
                   static_cast<int>(flag.size()), flag.data());
      print_usage(argv[0]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--cycles") {
      args.cycles = parse_number<u64>(a.data(), value_of(i, a));
    } else if (a == "--seed") {
      args.seed = parse_number<u64>(a.data(), value_of(i, a));
    } else if (a == "--jobs") {
      args.jobs = parse_number<unsigned>(a.data(), value_of(i, a));
      if (args.jobs == 0) args.jobs = host::SimPool::hardware_jobs();
    } else if (a == "--no-fast-forward") {
      args.fast_forward = false;
    } else if (a == "--exec-tier") {
      const std::string_view tier = value_of(i, a);
      if (tier == "accurate") {
        args.exec_tier = soc::SocConfig::ExecTier::kAccurate;
      } else if (tier == "superblock") {
        args.exec_tier = soc::SocConfig::ExecTier::kSuperblock;
      } else {
        std::fprintf(stderr, "--exec-tier wants 'accurate' or 'superblock'\n");
        print_usage(argv[0]);
        std::exit(2);
      }
    } else if (a == "--report") {
      args.report_path = value_of(i, a);
    } else if (a == "--perfetto") {
      args.perfetto_path = value_of(i, a);
    } else if (a == "--help" || a == "-h") {
      print_usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      print_usage(argv[0]);
      std::exit(2);
    }
  }
  return args;
}

// ---- telemetry harness ----------------------------------------------

/// Owns the registry + tracer + host profiler for one measured run and
/// writes the --report/--perfetto artifacts at the end. When neither
/// flag was given, attach()/start()/finish() are no-ops and the run is
/// bit-identical to an unattached one.
class BenchTelemetry {
 public:
  BenchTelemetry(std::string bench_name, BenchArgs args)
      : bench_(std::move(bench_name)), args_(std::move(args)) {}

  bool enabled() const { return args_.telemetry_requested(); }
  const BenchArgs& args() const { return args_; }

  /// Attach to the SoC that will do the measured run (register every
  /// component's metrics; install the tracer for --perfetto and the phase
  /// probe for --report). The probe feeds only the report's host block,
  /// and while attached it closes the fast tier, so --perfetto alone keeps
  /// the shipped tier. Call before the run; the SoC must outlive this
  /// object.
  void attach(soc::Soc& soc) {
    if (!enabled()) return;
    soc_ = &soc;
    soc.register_metrics(registry_);
    if (!args_.perfetto_path.empty()) {
      soc.set_tracer(&tracer_);
    }
    if (!args_.report_path.empty()) soc.set_phase_probe(&profiler_.probe());
  }

  /// ED flavour: product chip plus the EEC side ("mcds", "emem", "dap").
  void attach(ed::EmulationDevice& ed) {
    if (!enabled()) return;
    soc_ = &ed.soc();
    ed.register_metrics(registry_);
    if (!args_.perfetto_path.empty()) {
      ed.soc().set_tracer(&tracer_);
    }
    if (!args_.report_path.empty()) {
      ed.soc().set_phase_probe(&profiler_.probe());
    }
  }

  /// Bracket the measured run (host wall-clock window).
  void start() {
    if (soc_ != nullptr) profiler_.start(soc_->cycle());
  }
  void stop() {
    if (soc_ != nullptr && !profiler_.stopped()) profiler_.stop(soc_->cycle());
  }

  /// Bench-specific headline numbers for the report's `extras` section.
  void add_extra(std::string name, double value) {
    if (enabled()) report_.add_extra(std::move(name), value);
  }

  /// Stop (if still running), then write the requested artifacts.
  void finish() {
    if (soc_ == nullptr) return;
    stop();
    const Cycle end = soc_->cycle();
    if (!args_.perfetto_path.empty()) {
      tracer_.finish(end);
      if (Status s = tracer_.write_chrome_json(args_.perfetto_path,
                                               soc_->config().clock_hz);
          s.is_ok()) {
        std::printf("perfetto trace: %s (%zu events, %zu tracks)\n",
                    args_.perfetto_path.c_str(), tracer_.timeline().event_count(),
                    tracer_.timeline().track_count());
      } else {
        std::fprintf(stderr, "perfetto write failed: %s\n",
                     s.to_string().c_str());
      }
    }
    if (!args_.report_path.empty()) {
      report_.bench = bench_;
      report_.config_name = soc_->config().name;
      report_.config_fingerprint = soc_->config().fingerprint();
      report_.seed = args_.seed;
      report_.jobs = args_.jobs;
      report_.metrics = registry_.collect(end);
      report_.set_host(profiler_);
      soc_->fill_run_report(report_);
      if (Status s = report_.write(args_.report_path); s.is_ok()) {
        std::printf("run report: %s (%zu metrics, %zu components, "
                    "%.0f sim cycles/s)\n",
                    args_.report_path.c_str(), report_.metrics.samples.size(),
                    report_.metrics.component_count(),
                    report_.sim_cycles_per_second);
      } else {
        std::fprintf(stderr, "report write failed: %s\n",
                     s.to_string().c_str());
      }
    }
    soc_ = nullptr;  // idempotent: a second finish() is a no-op
  }

 private:
  std::string bench_;
  BenchArgs args_;
  soc::Soc* soc_ = nullptr;
  telemetry::MetricsRegistry registry_;
  soc::SocTracer tracer_;
  telemetry::HostProfiler profiler_;
  telemetry::RunReport report_;
};

inline void header(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

inline workload::EngineWorkload default_engine(u32 halt_after_revs = 0) {
  workload::EngineOptions opt;
  opt.rpm = 4000;
  opt.crank_time_scale = 80;
  opt.table_dim = 64;          // 32 KiB of maps: real D-cache pressure
  opt.diag_words = 256;        // background sweeps a decent flash block
  opt.diag_uncached = true;    // integrity check reads the array itself
  opt.diag_stride_bytes = 36;  // defeats the read buffer (worst case)
  opt.halt_after_revs = halt_after_revs;
  auto w = workload::build_engine_workload(opt);
  if (!w.is_ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 w.status().to_string().c_str());
    std::abort();
  }
  return std::move(w).value();
}

/// Run the engine on a fresh SoC for `cycles`; returns the SoC.
inline std::unique_ptr<soc::Soc> run_engine(const workload::EngineWorkload& w,
                                            const soc::SocConfig& config,
                                            u64 cycles) {
  auto soc = std::make_unique<soc::Soc>(config);
  if (Status s = workload::install_engine(*soc, w); !s.is_ok()) {
    std::fprintf(stderr, "install failed: %s\n", s.to_string().c_str());
    std::abort();
  }
  soc->run(cycles);
  return soc;
}

using profiling::bucketize;

}  // namespace audo::bench
