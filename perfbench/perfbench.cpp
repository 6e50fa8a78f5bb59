// trisim benchmark binary: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--corrupt-expected] [--commit ID]
//   perfbench --list-metrics
//
// Untraced (--trace 0): an untimed reference run fixes the expected
// outputs, one warm-up repetition is discarded, then set-up + measured
// phase repeat for S seconds; every repetition's outputs are checked.
// Each repetition runs pinned to the next set of CPUs in turn, and its
// times are divided by the host slowdown measured on those CPUs right
// before and after it (host_speed.hpp). The end-to-end timings are the
// medians of these normalised times over the repetitions.
//
// Traced (--trace 1): the same untraced repetitions, then one traced pass
// that times every call into each layer from this benchmark's own loop
// (see traced.hpp) and prints the per-layer metrics instead.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace perfbench;
using audo::usize;

namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt_expected = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt-expected] [--commit ID]\n"
               "       perfbench --list-metrics\n",
               why);
  std::exit(2);
}

void print_specs(const char* key, const std::vector<MetricSpec>& specs,
                 bool last) {
  std::printf("  \"%s\": [\n", key);
  for (usize i = 0; i < specs.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                specs[i].name.c_str(), specs[i].unit.c_str(),
                specs[i].better.c_str(), i + 1 < specs.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 0);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace wants 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--list-metrics") {
      std::printf("{\n");
      print_specs("end_to_end", end_to_end_specs(), false);
      print_specs("per_layer", LayerReport::specs(), true);
      std::printf("}\n");
      std::exit(0);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const usize lo = static_cast<usize>(pos);
    const usize hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  s.min = v.front();
  s.max = v.back();
  return s;
}

/// Peak resident memory of this program: VmHWM, the high-water mark of
/// its address space. getrusage's ru_maxrss carries over exec, so it
/// would report the larger parent (run.py's Python) instead.
double peak_rss_mib() {
  double kib = -1.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib < 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);  // KiB
  }
  return kib / 1024.0;
}

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.smoke);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  std::printf("# run record: workload=%s seed=%llu seconds=%g trace=%d "
              "smoke=%d cores=%u compiler=\"%s\" build_type=%s commit=%s "
              "clocks=\"cpu: CLOCK_PROCESS_CPUTIME_ID (all threads); wall: "
              "std::chrono::steady_clock; spans: time-stamp counter on x86, "
              "calibrated against steady_clock\"\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, args.commit.c_str());

  Checks checks;
  if (args.corrupt_expected) workload->corrupt_expected();
  workload->reference(checks);

  std::vector<Rep> reps;
  std::vector<double> slowdowns;  // host slowdown around each repetition
  {
    CpuRotation rotation(workload->threads());
    // One warm-up repetition (caches, allocator, lazy set-up), not counted.
    rotation.next();
    workload->run(checks);

    const unsigned min_reps = args.smoke ? 1 : 5;
    const auto start = std::chrono::steady_clock::now();
    while (reps.size() < min_reps || elapsed_s(start) < args.seconds) {
      rotation.next();
      const double before = rotation.slowdown();
      reps.push_back(workload->run(checks));
      slowdowns.push_back(0.5 * (before + rotation.slowdown()));
    }
  }

  std::vector<double> raw_cpu_ns, cpu_ns, wall, setup;
  for (usize i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    raw_cpu_ns.push_back(1e9 * r.cpu_s /
                         static_cast<double>(std::max<u64>(r.sim_cycles, 1)));
    cpu_ns.push_back(raw_cpu_ns.back() / slowdowns[i]);
    wall.push_back(r.wall_s / slowdowns[i]);
    setup.push_back(r.setup_s / slowdowns[i]);
  }
  const Summary raw_cpu_sum = summarize(raw_cpu_ns);
  const Summary slowdown_sum = summarize(slowdowns);
  const Summary cpu_sum = summarize(cpu_ns);
  const Summary wall_sum = summarize(wall);
  const Summary setup_sum = summarize(setup);
  const auto print_summary = [&](const char* name, const Summary& s) {
    std::printf("# %-27s median %.6g  q1 %.6g  q3 %.6g  min %.6g  max %.6g  "
                "(n=%zu, warm-up excluded)\n",
                name, s.median, s.q1, s.q3, s.min, s.max, reps.size());
  };
  print_summary("host slowdown", slowdown_sum);
  print_summary("raw cpu_ns_per_sim_cycle", raw_cpu_sum);
  print_summary("cpu_ns_per_sim_cycle", cpu_sum);
  print_summary("wall_s", wall_sum);
  print_summary("setup_s", setup_sum);
  std::printf("# sim cycles per repetition: %llu\n",
              static_cast<unsigned long long>(reps.front().sim_cycles));

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (args.trace) {
    const Calibration calibration = calibrate();
    LayerReport layers;
    // The traced pass is raw host time, so it is compared with raw time.
    workload->traced(checks, raw_cpu_sum.median, calibration, layers);
    const std::vector<MetricSpec>& specs = LayerReport::specs();
    for (usize i = 0; i < specs.size(); ++i) {
      metrics.push_back({specs[i].name, {layers.values()[i], specs[i].unit}});
    }
    std::printf("# traced: layer sum %.4g ns/cycle vs untraced %.4g "
                "(gap %+.1f%%), tracing overhead %.4g ns/cycle, timer pair "
                "%.3g ns\n",
                layers.get("calib.layer_sum_ns_per_cycle"),
                layers.get("calib.untraced_ns_per_cycle"),
                100.0 * layers.get("calib.layer_sum_gap"),
                layers.get("trace.overhead_ns_per_cycle"),
                layers.get("calib.timer_pair_ns"));
  } else {
    metrics.push_back({"cpu_ns_per_sim_cycle", {cpu_sum.median, "ns/cycle"}});
    metrics.push_back({"wall_s", {wall_sum.median, "s"}});
    metrics.push_back({"setup_s", {setup_sum.median, "s"}});
    metrics.push_back({"peak_rss_mib", {peak_rss_mib(), "MiB"}});
  }
  std::printf("# ops_failed: %llu of %llu output checks failed\n",
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " +
            json_number(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.failed == 0 ? 0 : 1;
}
