// audo-faultcamp: parallel fault-injection campaigns over the engine
// workload. Runs a fault-free golden reference, then N seeded fault
// scenarios through the SimPool, and classifies every run as
// masked / corrected / detected / sdc / hang (/ failed for scenarios the
// host could not complete).
//
// Every run boots cold from reset. Every completed scenario is journaled
// to an append-only manifest, so a campaign killed at any point —
// including kill -9 — can be resumed with --resume and reproduces the
// exact merged report and classification hash while skipping the
// scenarios already done. A journaled record whose outcome is not an
// outcome name fails the resume (exit 1) and names its manifest line.
//
//   audo-faultcamp [options]
//     --scenarios N             random scenarios to generate (default 16)
//     --seed S                  campaign seed (default 1)
//     --jobs N                  host threads (0 = hardware; default 0)
//     --scenario-budget N       per-run cycle budget (default 400000;
//                               --cycles is an alias)
//     --scenario-timeout-ms MS  per-run wall-clock limit (0 = none);
//                               runs over it are classified "hang"
//     --retries N               host-failure retries per scenario before
//                               quarantining it as "failed" (default 2)
//     --bg N                    engine background iterations to completion
//                               (default 300)
//     --idle-revs N             use the event-driven engine shape (WFI
//                               background park, halt after N crank
//                               revolutions) instead of the busy
//                               background loop
//     --demo                    run the five hand-aimed outcome-class
//                               scenarios instead of (or on top of) the
//                               random set
//     --no-ecc-sram             disable the RAM ECC model for random
//                               scenarios
//     --no-fast-forward         step every idle cycle instead of skipping
//                               quiescent stretches (bit-identical, slower)
//     --exec-tier T             execution engine: 'superblock' (default)
//                               or 'accurate'. Bit-identical either way;
//                               superblock windows stay open under the
//                               injector, bounded by its event cycles
//     --manifest FILE           journal completed scenarios to FILE (JSONL)
//     --resume FILE             resume a campaign from FILE: completed
//                               scenarios are replayed from the journal,
//                               the rest run and are appended to it
//     --report FILE             write a structured RunReport JSON
//     --record FILE             record a replay golden (trisim-replay/1):
//                               campaign identity, classification hash and
//                               per-scenario outcome rows, verifiable with
//                               audo-replay under any --jobs/--exec-tier,
//                               named faultcamp-idle under --idle-revs and
//                               faultcamp-engine otherwise.
//                               Incompatible with --demo and --resume (the
//                               oracle reconstructs seed-derived plans only)
//
// SIGINT/SIGTERM abort cooperatively: scenarios not yet started are
// skipped, the manifest stays intact (completed work is never lost), a
// partial report is still written, and the exit code is 130. A numeric
// value that does not parse whole or does not fit its option is a usage
// error (exit 2).
#include <csignal>
#include <cstdio>
#include <cstring>

#include <atomic>

#include "common/cli.hpp"
#include "host/campaign_manifest.hpp"
#include "host/sim_pool.hpp"
#include "mem/memory_map.hpp"
#include "optimize/fault_campaign.hpp"
#include "replay/replay.hpp"
#include "soc/soc.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "workload/engine.hpp"

using namespace audo;

namespace {

std::atomic<bool> g_abort{false};

void on_signal(int) { g_abort.store(true); }

void usage() {
  std::fprintf(
      stderr,
      "usage: audo-faultcamp [--scenarios N] [--seed S] [--jobs N]\n"
      "       [--scenario-budget N] [--scenario-timeout-ms MS] [--retries N]\n"
      "       [--bg N] [--idle-revs N] [--demo] [--no-ecc-sram]\n"
      "       [--no-fast-forward] [--exec-tier accurate|superblock]\n"
      "       [--manifest FILE] [--resume FILE] [--report FILE]\n"
      "       [--record FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  unsigned scenarios = 16;
  u64 seed = 1;
  unsigned jobs = 0;
  u64 budget = 400'000;
  u64 timeout_ms = 0;
  unsigned retries = 2;
  u32 bg_iterations = 300;
  u32 idle_revs = 0;
  bool demo = false;
  bool ecc_sram = true;
  bool fast_forward = true;
  soc::SocConfig::ExecTier exec_tier = soc::SocConfig{}.exec_tier;
  const char* manifest_path = nullptr;
  const char* resume_path = nullptr;
  const char* report_path = nullptr;
  const char* record_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--scenarios") == 0) {
      scenarios = parse_number<unsigned>(arg, next_value());
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = parse_number<u64>(arg, next_value());
    } else if (std::strcmp(arg, "--jobs") == 0) {
      jobs = parse_number<unsigned>(arg, next_value());
    } else if (std::strcmp(arg, "--scenario-budget") == 0 ||
               std::strcmp(arg, "--cycles") == 0) {
      budget = parse_number<u64>(arg, next_value());
    } else if (std::strcmp(arg, "--scenario-timeout-ms") == 0) {
      timeout_ms = parse_number<u64>(arg, next_value());
    } else if (std::strcmp(arg, "--retries") == 0) {
      retries = parse_number<unsigned>(arg, next_value());
    } else if (std::strcmp(arg, "--bg") == 0) {
      bg_iterations = parse_number<u32>(arg, next_value());
    } else if (std::strcmp(arg, "--idle-revs") == 0) {
      idle_revs = parse_number<u32>(arg, next_value());
    } else if (std::strcmp(arg, "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(arg, "--no-ecc-sram") == 0) {
      ecc_sram = false;
    } else if (std::strcmp(arg, "--no-fast-forward") == 0) {
      fast_forward = false;
    } else if (std::strcmp(arg, "--exec-tier") == 0) {
      const char* tier = next_value();
      if (std::strcmp(tier, "accurate") == 0) {
        exec_tier = soc::SocConfig::ExecTier::kAccurate;
      } else if (std::strcmp(tier, "superblock") == 0) {
        exec_tier = soc::SocConfig::ExecTier::kSuperblock;
      } else {
        std::fprintf(stderr, "--exec-tier wants 'accurate' or 'superblock'\n");
        usage();
        return 2;
      }
    } else if (std::strcmp(arg, "--manifest") == 0) {
      manifest_path = next_value();
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume_path = next_value();
    } else if (std::strcmp(arg, "--report") == 0) {
      report_path = next_value();
    } else if (std::strcmp(arg, "--record") == 0) {
      record_path = next_value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
      return 2;
    }
  }
  if (manifest_path != nullptr && resume_path != nullptr) {
    std::fprintf(stderr, "--manifest and --resume are mutually exclusive "
                         "(--resume appends to the resumed manifest)\n");
    return 2;
  }
  if (record_path != nullptr && (demo || resume_path != nullptr)) {
    std::fprintf(stderr,
                 "--record needs a pure seed-derived plan; it is incompatible "
                 "with --demo and --resume\n");
    return 2;
  }
  if (record_path != nullptr && scenarios == 0) {
    std::fprintf(stderr, "--record: nothing to record with --scenarios 0\n");
    return 2;
  }

  workload::EngineOptions opt;
  if (idle_revs > 0) {
    opt.idle_background = true;
    opt.halt_after_revs = idle_revs;
  } else {
    opt.halt_after_bg = bg_iterations;
  }
  auto engine = workload::build_engine_workload(opt);
  if (!engine.is_ok()) {
    std::fprintf(stderr, "engine workload: %s\n",
                 engine.status().to_string().c_str());
    return 1;
  }

  soc::SocConfig chip;
  chip.safety.ecc_sram = ecc_sram;
  chip.fast_forward = fast_forward;
  chip.exec_tier = exec_tier;

  optimize::WorkloadCase wc;
  wc.name = "engine";
  wc.program = engine.value().program;
  wc.tc_entry = engine.value().tc_entry;
  wc.pcp_entry = engine.value().pcp_entry;
  wc.configure = [options = engine.value().options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  wc.max_cycles = budget;

  optimize::FaultCampaign campaign(chip, std::move(wc));
  campaign.set_jobs(jobs);
  campaign.set_timeout_ms(timeout_ms);
  campaign.set_retries(retries);
  campaign.set_abort_flag(&g_abort);

  std::vector<optimize::FaultScenario> plan;
  if (demo) {
    optimize::FaultCampaign::DemoTargets targets;
    const Addr bg = engine.value().program.symbol_addr("_bg_loop").value();
    targets.hot_flash_offset = mem::pflash_offset(bg);
    targets.dead_flash_offset = chip.pflash.size - 0x100;
    targets.live_dspr_offset = chip.dspr_bytes - 0x40;
    soc::Soc probe(chip);
    targets.storm_src = probe.srcs().adc_done;
    auto demos = campaign.make_demo_scenarios(targets);
    plan.insert(plan.end(), demos.begin(), demos.end());
  }
  if (scenarios > 0) {
    auto random = campaign.make_scenarios(seed, scenarios);
    plan.insert(plan.end(), random.begin(), random.end());
  }
  if (plan.empty()) {
    std::fprintf(stderr, "nothing to run (use --scenarios or --demo)\n");
    return 2;
  }

  // Manifest journaling / resume. The header pins the campaign identity;
  // resuming under different parameters is refused.
  host::CampaignManifest manifest;
  host::CampaignHeader header;
  header.workload = campaign.workload().name;
  header.campaign_seed = seed;
  header.config_fingerprint = chip.fingerprint();
  header.scenario_count = plan.size();
  host::ManifestContents resumed;
  if (resume_path != nullptr) {
    auto loaded = host::CampaignManifest::load(resume_path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "--resume: %s\n",
                   loaded.status().to_string().c_str());
      return 1;
    }
    resumed = std::move(loaded).value();
    if (resumed.header.workload != header.workload ||
        resumed.header.campaign_seed != header.campaign_seed ||
        resumed.header.config_fingerprint != header.config_fingerprint ||
        resumed.header.scenario_count != header.scenario_count) {
      std::fprintf(stderr,
                   "--resume: manifest belongs to a different campaign "
                   "(workload/seed/config/scenario-count mismatch)\n");
      return 1;
    }
    if (Status s = campaign.set_resume_records(&resumed.records);
        !s.is_ok()) {
      std::fprintf(stderr, "--resume: %s: %s\n", resume_path,
                   s.message().c_str());
      return 1;
    }
    if (Status s = manifest.open_append(resume_path); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    campaign.set_manifest(&manifest);
    std::printf("resume: %zu of %zu scenarios journaled in %s\n",
                resumed.records.size(), plan.size(), resume_path);
  } else if (manifest_path != nullptr) {
    if (Status s = manifest.create(manifest_path, header); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    campaign.set_manifest(&manifest);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  telemetry::HostProfiler host;
  host.start(0);
  const optimize::CampaignSummary summary = campaign.run(plan);
  u64 total_cycles = summary.golden.cycles;
  for (const optimize::ScenarioResult& r : summary.runs) {
    total_cycles += r.cycles;
  }
  host.stop(total_cycles);
  manifest.close();

  const bool aborted = g_abort.load();
  if (aborted) {
    std::printf("aborted: %zu of %zu scenarios completed\n",
                summary.runs.size(), plan.size());
  }

  std::printf("%s", summary.format().c_str());
  std::printf("(%zu runs, %u jobs, %.2fs, classification 0x%llx)\n",
              summary.runs.size() + 1,
              jobs == 0 ? host::SimPool::hardware_jobs() : jobs,
              host.wall_seconds(),
              static_cast<unsigned long long>(summary.classification_hash()));

  if (report_path != nullptr) {
    telemetry::RunReport report;
    report.bench = "audo_faultcamp";
    report.config_name = chip.name;
    report.config_fingerprint = chip.fingerprint();
    report.seed = seed;
    report.jobs = jobs == 0 ? host::SimPool::hardware_jobs() : jobs;
    report.set_host(host);
    // Component metrics and the run block come from one instrumented
    // fault-free run (the campaign's workers are transient and keep no
    // registries); only its cycle count is the campaign's total. Skipped
    // on abort: flushing the classification data matters more than
    // burning seconds on a full metrics run after Ctrl-C.
    soc::Soc golden(chip);
    if (!aborted && workload::install_engine(golden, engine.value()).is_ok()) {
      telemetry::MetricsRegistry registry;
      golden.register_metrics(registry);
      golden.run(budget);
      report.metrics = registry.collect(golden.cycle());
      golden.fill_run_report(report);
    }
    report.cycles = total_cycles;
    summary.fill_report(report);
    report.add_extra("classification_hash",
                     static_cast<double>(summary.classification_hash()));
    report.add_extra("aborted", aborted ? 1.0 : 0.0);
    report.add_extra("scenarios_completed",
                     static_cast<double>(summary.runs.size()));
    report.add_extra("scenarios_planned", static_cast<double>(plan.size()));
    if (Status s = report.write(report_path); !s.is_ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path,
                   s.to_string().c_str());
      return 1;
    }
    std::printf("run report: %s\n", report_path);
  }
  if (record_path != nullptr && !aborted) {
    replay::ReplaySpec spec;
    spec.name = idle_revs > 0 ? "faultcamp-idle" : "faultcamp-engine";
    spec.scenario.kind = "engine";
    spec.scenario.run_cycles = budget;
    spec.scenario.engine = opt;
    spec.config = chip;
    spec.config_fingerprint = chip.fingerprint();
    spec.cycles = summary.golden.cycles;
    spec.campaign.enabled = true;
    spec.campaign.seed = seed;
    spec.campaign.scenarios = scenarios;
    spec.campaign.jobs = jobs == 0 ? host::SimPool::hardware_jobs() : jobs;
    spec.campaign.budget_cycles = budget;
    spec.campaign.classification_hash = summary.classification_hash();
    for (const optimize::ScenarioResult& r : summary.runs) {
      replay::CampaignSpec::Run row;
      row.name = r.name;
      row.outcome = optimize::to_string(r.outcome);
      row.cycles = r.cycles;
      row.signature = r.signature;
      row.task = r.task;
      spec.campaign.runs.push_back(std::move(row));
    }
    if (Status s = spec.to_file(record_path); !s.is_ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", record_path,
                   s.to_string().c_str());
      return 1;
    }
    std::printf("replay golden: %s (%zu scenario rows, classification "
                "0x%llx)\n",
                record_path, spec.campaign.runs.size(),
                static_cast<unsigned long long>(
                    spec.campaign.classification_hash));
  } else if (record_path != nullptr) {
    std::fprintf(stderr, "--record: campaign aborted, golden not written\n");
  }
  return aborted ? 130 : 0;
}
