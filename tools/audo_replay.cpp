// audo-replay: the differential replay oracle of the record/replay
// regression lab. Loads a golden ReplaySpec (recorded by audo-profile
// --record or audo-faultcamp --record), reconstructs the scenario from
// the JSON alone, re-runs it under any host configuration and verifies
// every recorded digest. On mismatch it bisects to the first divergent
// window, re-runs both sides cold up to its end and reports the first
// divergent cycle with per-field diffs and surrounding context.
//
//   audo-replay golden.json [options]
//     --exec-tier T        re-run under 'accurate' or 'superblock'
//                          (default: as recorded)
//     --fast-forward       force idle fast-forward on
//     --no-fast-forward    force idle fast-forward off
//     --jobs N             fault-campaign worker override
//     --mutate KNOB=VALUE  deliberately mutate the replayed architecture
//                          (flash_ws, lmu_latency, spr_latency,
//                          dflash_read, dflash_write, icache, dcache,
//                          issue_width);
//                          repeatable. The oracle is expected to FAIL
//                          and name the first divergent cycle.
//     --context N          context frames around the divergence (def. 8)
//     --divergence FILE    write the structured divergence report
//                          (trisim-divergence/2 JSON)
//
// Exit codes: 0 = bit-identical replay, 1 = divergence, 2 = usage (a
// numeric value that does not parse whole is one) or unloadable/corrupt
// golden.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/cli.hpp"
#include "replay/oracle.hpp"
#include "replay/replay.hpp"

using namespace audo;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: audo-replay golden.json [--exec-tier "
               "accurate|superblock]\n"
               "       [--fast-forward | --no-fast-forward] [--jobs N]\n"
               "       [--mutate KNOB=VALUE]... [--context N]\n"
               "       [--divergence FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* golden_path = nullptr;
  const char* divergence_path = nullptr;
  replay::OracleOptions options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--exec-tier") == 0) {
      options.exec_tier = next_value();
      if (options.exec_tier != "accurate" &&
          options.exec_tier != "superblock") {
        std::fprintf(stderr, "--exec-tier wants 'accurate' or 'superblock'\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--fast-forward") == 0) {
      options.fast_forward = 1;
    } else if (std::strcmp(arg, "--no-fast-forward") == 0) {
      options.fast_forward = 0;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = parse_number<unsigned>(arg, next_value());
    } else if (std::strcmp(arg, "--mutate") == 0) {
      const char* kv = next_value();
      const char* eq = std::strchr(kv, '=');
      if (eq == nullptr || eq == kv) {
        std::fprintf(stderr, "--mutate wants KNOB=VALUE, got '%s'\n", kv);
        return 2;
      }
      options.mutations.emplace_back(std::string(kv, eq),
                                     parse_number<u64>(arg, eq + 1));
    } else if (std::strcmp(arg, "--context") == 0) {
      options.context_frames = parse_number<unsigned>(arg, next_value());
    } else if (std::strcmp(arg, "--divergence") == 0) {
      divergence_path = next_value();
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
      return 2;
    } else if (golden_path == nullptr) {
      golden_path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (golden_path == nullptr) {
    usage();
    return 2;
  }

  auto spec = replay::ReplaySpec::from_file(golden_path);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", golden_path,
                 spec.status().to_string().c_str());
    return 2;
  }

  auto run = replay::run_replay(spec.value(), options);
  if (!run.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", golden_path,
                 run.status().to_string().c_str());
    return 2;
  }
  const replay::ReplayResult& result = run.value();
  std::printf("%s", result.format().c_str());

  if (divergence_path != nullptr) {
    std::ofstream out(divergence_path, std::ios::binary);
    if (!out || !(out << result.to_json())) {
      std::fprintf(stderr, "cannot write %s\n", divergence_path);
      return 2;
    }
    std::printf("divergence report: %s\n", divergence_path);
  }
  return result.passed ? 0 : 1;
}
