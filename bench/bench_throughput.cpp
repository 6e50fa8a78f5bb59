// Host-throughput smoke: the numbers behind BENCH_throughput.json.
//
//   1. Single-run simulator speed (simulated cycles per host second) on
//      the engine workload, alone and with the execution-DAG observer
//      attached — measured with the existing HostProfiler, telemetry
//      detached.
//   2. A config sweep (the E6-style evaluator over the kernel suite) run
//      serially and with --jobs workers: wall-clock for each plus a
//      bit-identity check that the parallel sweep returned exactly the
//      serial result.
//   3. The idle fast-forward path (SocConfig::fast_forward) on an
//      event-driven engine build that parks in WFI between interrupts:
//      wall-clock with the skip on vs off plus a bit-identity check on
//      the final cycle/instruction counts.
//   4. Warm-forked fault campaign: the same campaign run with every
//      scenario cold-booted vs forked from one snapshot at the last
//      pre-fault quiescent cycle, plus a bit-identity check on the
//      classification hash.
//
// Output is the normal human-readable text plus `THROUGHPUT key=value`
// lines; tools/bench_throughput.py parses those into BENCH_throughput.json
// and applies the (core-count-aware) CI thresholds.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"

#include "optimize/evaluator.hpp"
#include "optimize/fault_campaign.hpp"
#include "profiling/dag.hpp"

using namespace audo;
using namespace audo::bench;

namespace {

optimize::ArchitectureEvaluator make_sweep_evaluator(unsigned jobs) {
  optimize::ArchitectureEvaluator evaluator{soc::SocConfig{}};
  evaluator.set_jobs(jobs);
  for (const auto& spec : workload::standard_suite()) {
    auto program = spec.build();
    if (!program.is_ok()) continue;
    optimize::WorkloadCase wc;
    wc.name = spec.name;
    wc.program = std::move(program).value();
    wc.tc_entry = wc.program.entry();
    evaluator.add_case(std::move(wc));
  }
  return evaluator;
}

u64 runs_checksum(const std::vector<optimize::OptionResult>& results) {
  // Order-sensitive digest over (option rank, per-case cycles/instructions)
  // — equal checksums on the serial and parallel sweep mean bit-identical
  // CaseRun vectors *and* ranking order.
  u64 h = kFnvOffset;
  for (const auto& r : results) {
    h = fnv1a(h, r.option);
    for (const auto& run : r.runs) {
      h = fnv1a(h, run.cycles);
      h = fnv1a(h, run.instructions);
      h = fnv1a(h, run.halted ? 1 : 0);
    }
  }
  return h;
}

double time_evaluate(optimize::ArchitectureEvaluator& evaluator,
                     const std::vector<optimize::ArchOption>& catalogue,
                     u64* checksum) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = evaluator.evaluate(catalogue);
  const auto t1 = std::chrono::steady_clock::now();
  *checksum = runs_checksum(results);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  BenchTelemetry telemetry("bench_throughput", args);

  header("Host throughput", "simulator speed: single-run hot path and the "
                            "parallel sweep engine");

  const u64 cycles = args.cycles != 0 ? args.cycles : 2'000'000;

  // --- 1. single-run cycles/sec, alone and with the DAG observer ------
  // The DAG run attaches the execution-DAG frame observer: the per-cycle
  // segmentation cost optimization consumers actually pay.
  auto single_run_cps = [&](bool dag_observer) {
    auto w = default_engine();
    soc::SocConfig config;
    args.apply(config);
    soc::Soc soc{config};
    profiling::ExecutionDag dag{isa::SymbolMap(w.program)};
    if (dag_observer) soc.set_frame_observer(&dag);
    if (Status s = workload::install_engine(soc, w); !s.is_ok()) {
      std::fprintf(stderr, "install failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    telemetry::HostProfiler host;
    host.start(soc.cycle());
    soc.run(cycles);
    host.stop(soc.cycle());
    return host.sim_cycles_per_second();
  };
  const double cps = single_run_cps(false);
  const double cps_dag = single_run_cps(true);
  std::printf("\nsingle run (%llu cycles, engine workload, telemetry "
              "detached):\n"
              "  engine alone:     %12.0f sim cycles/sec\n"
              "  + DAG observer:   %12.0f sim cycles/sec (%.1f%% slower)\n",
              static_cast<unsigned long long>(cycles), cps, cps_dag,
              cps > 0.0 ? 100.0 * (cps - cps_dag) / cps : 0.0);

  // --- 2. sweep wall-clock, serial vs --jobs --------------------------
  const auto catalogue = optimize::standard_catalogue();
  u64 serial_sum = 0;
  u64 parallel_sum = 0;
  auto serial_eval = make_sweep_evaluator(1);
  const double serial_s = time_evaluate(serial_eval, catalogue, &serial_sum);
  auto parallel_eval = make_sweep_evaluator(args.jobs);
  const double parallel_s =
      time_evaluate(parallel_eval, catalogue, &parallel_sum);
  const bool identical = serial_sum == parallel_sum;
  std::printf("\nE6-style sweep (%zu options x kernel suite):\n"
              "  serial (1 job):   %8.2f s\n"
              "  parallel (%u jobs): %6.2f s (%.2fx)\n"
              "  results: %s\n",
              catalogue.size(), serial_s, args.jobs, parallel_s,
              parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
              identical ? "bit-identical to serial" : "MISMATCH");

  // --- 3. idle-heavy workload, fast-forward on vs off -----------------
  const u64 ff_cycles = args.cycles != 0 ? args.cycles : 3'000'000;
  struct FfOutcome {
    double seconds = 0.0;
    u64 cycles = 0;
    u64 instructions = 0;
    bool halted = false;
    u64 skipped = 0;
    u64 wakeups = 0;
  };
  auto ff_run = [&](bool fast_forward) {
    workload::EngineOptions opt;
    opt.rpm = 3000;
    opt.crank_time_scale = 50;
    opt.idle_background = true;  // WFI between interrupts (see engine.hpp)
    auto w = workload::build_engine_workload(opt);
    if (!w.is_ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   w.status().to_string().c_str());
      std::exit(1);
    }
    soc::SocConfig config;
    config.fast_forward = fast_forward;
    soc::Soc soc{config};
    if (Status s = workload::install_engine(soc, w.value()); !s.is_ok()) {
      std::fprintf(stderr, "install failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    telemetry::HostProfiler host;
    host.start(soc.cycle());
    soc.run(ff_cycles);
    host.stop(soc.cycle());
    FfOutcome out;
    out.seconds = host.wall_seconds();
    out.cycles = soc.cycle();
    out.instructions = soc.tc().retired();
    out.halted = soc.tc().halted();
    out.skipped = soc.ff_stats().skipped_cycles;
    out.wakeups = soc.ff_stats().wakeups;
    return out;
  };
  const FfOutcome ff_on = ff_run(true);
  const FfOutcome ff_off = ff_run(false);
  const bool ff_identical = ff_on.cycles == ff_off.cycles &&
                            ff_on.instructions == ff_off.instructions &&
                            ff_on.halted == ff_off.halted;
  const double ff_speedup =
      ff_on.seconds > 0.0 ? ff_off.seconds / ff_on.seconds : 0.0;
  std::printf("\nidle fast-forward (%llu cycles, event-driven engine, "
              "%.0f%% skipped):\n"
              "  fast-forward on:  %8.3f s\n"
              "  fast-forward off: %8.3f s (%.1fx)\n"
              "  results: %s\n",
              static_cast<unsigned long long>(ff_cycles),
              ff_on.cycles > 0
                  ? 100.0 * static_cast<double>(ff_on.skipped) /
                        static_cast<double>(ff_on.cycles)
                  : 0.0,
              ff_on.seconds, ff_off.seconds, ff_speedup,
              ff_identical ? "bit-identical to stepped" : "MISMATCH");

  // --- 4. fault campaign, cold boots vs warm fork ---------------------
  workload::EngineOptions camp_opt;
  camp_opt.idle_background = true;
  camp_opt.halt_after_revs = 2;
  auto camp_w = workload::build_engine_workload(camp_opt);
  if (!camp_w.is_ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 camp_w.status().to_string().c_str());
    std::exit(1);
  }
  optimize::WorkloadCase camp_case;
  camp_case.name = "engine";
  camp_case.program = camp_w.value().program;
  camp_case.tc_entry = camp_w.value().tc_entry;
  camp_case.pcp_entry = camp_w.value().pcp_entry;
  camp_case.configure = [options = camp_w.value().options](soc::Soc& soc) {
    workload::configure_engine(soc, options);
  };
  camp_case.max_cycles = 400'000;
  optimize::FaultCampaign campaign{soc::SocConfig{}, std::move(camp_case)};
  campaign.set_jobs(1);  // serial, so the timing isolates the boot path
  const auto scenarios = campaign.make_scenarios(/*seed=*/9, /*count=*/16);
  auto time_campaign = [&](u64* hash) {
    const auto t0 = std::chrono::steady_clock::now();
    const optimize::CampaignSummary summary = campaign.run(scenarios);
    const auto t1 = std::chrono::steady_clock::now();
    *hash = summary.classification_hash();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  u64 cold_hash = 0;
  u64 warm_hash = 0;
  const double camp_cold_s = time_campaign(&cold_hash);
  campaign.prepare_warm_fork(scenarios);
  const double camp_warm_s = time_campaign(&warm_hash);
  const bool camp_identical =
      campaign.has_warm_fork() && warm_hash == cold_hash;
  std::printf("\nwarm-forked fault campaign (%zu scenarios + golden, fork "
              "at cycle %llu):\n"
              "  cold boots: %8.3f s\n"
              "  warm fork:  %8.3f s (%.2fx)\n"
              "  results: %s\n",
              scenarios.size(),
              static_cast<unsigned long long>(campaign.warm_fork_cycle()),
              camp_cold_s, camp_warm_s,
              camp_warm_s > 0.0 ? camp_cold_s / camp_warm_s : 0.0,
              camp_identical ? "classification bit-identical to cold"
                             : "MISMATCH");

  // --- 4b. campaign jobs scaling: 1 / 2 / 8 workers -------------------
  //
  // The same warm-forked campaign at three SimPool sizes. The merged
  // classification is job-count independent by construction; the timing
  // gives campaign scenarios/second at each width — the number a fault-
  // campaign user actually waits on.
  const unsigned scaling_jobs[] = {1, 2, 8};
  double scaling_seconds[3] = {0.0, 0.0, 0.0};
  bool scaling_identical = true;
  for (unsigned i = 0; i < 3; ++i) {
    campaign.set_jobs(scaling_jobs[i]);
    u64 hash = 0;
    scaling_seconds[i] = time_campaign(&hash);
    scaling_identical = scaling_identical && hash == cold_hash;
  }
  campaign.set_jobs(1);
  const double best_seconds =
      std::min({scaling_seconds[0], scaling_seconds[1], scaling_seconds[2]});
  const double scenarios_per_sec =
      best_seconds > 0.0
          ? static_cast<double>(scenarios.size() + 1) / best_seconds
          : 0.0;
  std::printf("\ncampaign jobs scaling (%zu scenarios + golden, warm fork):\n",
              scenarios.size());
  for (unsigned i = 0; i < 3; ++i) {
    std::printf("  %u jobs: %8.3f s (%.2fx)\n", scaling_jobs[i],
                scaling_seconds[i],
                scaling_seconds[i] > 0.0
                    ? scaling_seconds[0] / scaling_seconds[i]
                    : 0.0);
  }
  std::printf("  best: %.1f scenarios/s, classifications %s\n",
              scenarios_per_sec,
              scaling_identical ? "bit-identical at every width"
                                : "MISMATCH");

  // --- 5. dense kernels, superblock tier vs accurate stepper ----------
  //
  // The fast tier's target case: straight-line compute with scratchpad /
  // cache-hit memory traffic. Both tiers run each kernel to halt on a
  // fresh SoC; identity is checked on cycles, instructions and the
  // kernel's architectural result word.
  struct TierOutcome {
    double seconds = 0.0;
    u64 cycles = 0;
    u64 instructions = 0;
    u32 result = 0;
    bool halted = false;
  };
  struct DenseKernel {
    const char* name;
    Result<isa::Program> (*build)();
  };
  const DenseKernel dense_kernels[] = {
      {"matmul", [] { return workload::build_matmul(16); }},
      {"fir", [] { return workload::build_fir(24, 512); }},
  };
  const unsigned dense_reps = 6;
  auto tier_run = [&](const DenseKernel& k, soc::SocConfig::ExecTier tier) {
    auto program = k.build();
    if (!program.is_ok()) {
      std::fprintf(stderr, "kernel %s build failed: %s\n", k.name,
                   program.status().to_string().c_str());
      std::exit(1);
    }
    const auto result_sym = program.value().symbol_addr("result");
    const Addr result_addr = result_sym.is_ok() ? result_sym.value() : 0;
    TierOutcome out;
    for (unsigned rep = 0; rep < dense_reps; ++rep) {
      soc::SocConfig config;
      args.apply(config);
      config.exec_tier = tier;
      soc::Soc soc{config};
      if (Status s = soc.load(program.value()); !s.is_ok()) {
        std::fprintf(stderr, "load failed: %s\n", s.to_string().c_str());
        std::exit(1);
      }
      soc.reset(program.value().entry());
      const auto t0 = std::chrono::steady_clock::now();
      soc.run(20'000'000);
      const auto t1 = std::chrono::steady_clock::now();
      out.seconds += std::chrono::duration<double>(t1 - t0).count();
      out.cycles += soc.cycle();
      out.instructions += soc.tc().retired();
      out.result ^= soc.dspr().read(result_addr, 4);
      out.halted = soc.tc().halted();
    }
    return out;
  };
  std::printf("\ndense kernels (%u reps each, run to halt):\n", dense_reps);
  double dense_accurate_ns = 0.0;
  double dense_superblock_ns = 0.0;
  u64 dense_cycles = 0;
  bool dense_identical = true;
  for (const DenseKernel& k : dense_kernels) {
    const TierOutcome acc = tier_run(k, soc::SocConfig::ExecTier::kAccurate);
    const TierOutcome fast =
        tier_run(k, soc::SocConfig::ExecTier::kSuperblock);
    const bool same = acc.cycles == fast.cycles &&
                      acc.instructions == fast.instructions &&
                      acc.result == fast.result && acc.halted && fast.halted;
    dense_identical = dense_identical && same;
    dense_accurate_ns += 1e9 * acc.seconds;
    dense_superblock_ns += 1e9 * fast.seconds;
    dense_cycles += acc.cycles;
    std::printf("  %-8s %9llu cycles  accurate %6.1f ns/cyc  superblock "
                "%5.1f ns/cyc  (%.2fx)  %s\n",
                k.name, static_cast<unsigned long long>(acc.cycles / dense_reps),
                acc.cycles > 0 ? 1e9 * acc.seconds / static_cast<double>(acc.cycles) : 0.0,
                fast.cycles > 0 ? 1e9 * fast.seconds / static_cast<double>(fast.cycles) : 0.0,
                fast.seconds > 0.0 ? acc.seconds / fast.seconds : 0.0,
                same ? "identical" : "MISMATCH");
  }
  dense_accurate_ns /= static_cast<double>(dense_cycles);
  dense_superblock_ns /= static_cast<double>(dense_cycles);
  const double dense_speedup =
      dense_superblock_ns > 0.0 ? dense_accurate_ns / dense_superblock_ns : 0.0;
  std::printf("  overall: accurate %.2f ns/cyc, superblock %.2f ns/cyc "
              "(%.2fx), results %s\n",
              dense_accurate_ns, dense_superblock_ns, dense_speedup,
              dense_identical ? "bit-identical" : "MISMATCH");

  // Machine-readable tail for tools/bench_throughput.py.
  std::printf("\nTHROUGHPUT single_run_cycles=%llu\n",
              static_cast<unsigned long long>(cycles));
  std::printf("THROUGHPUT single_run_cps=%.0f\n", cps);
  std::printf("THROUGHPUT single_run_dag_cps=%.0f\n", cps_dag);
  std::printf("THROUGHPUT sweep_serial_seconds=%.4f\n", serial_s);
  std::printf("THROUGHPUT sweep_parallel_seconds=%.4f\n", parallel_s);
  std::printf("THROUGHPUT sweep_jobs=%u\n", args.jobs);
  std::printf("THROUGHPUT hardware_jobs=%u\n",
              host::SimPool::hardware_jobs());
  std::printf("THROUGHPUT sweep_identical=%d\n", identical ? 1 : 0);
  std::printf("THROUGHPUT ff_cycles=%llu\n",
              static_cast<unsigned long long>(ff_cycles));
  std::printf("THROUGHPUT ff_on_seconds=%.4f\n", ff_on.seconds);
  std::printf("THROUGHPUT ff_off_seconds=%.4f\n", ff_off.seconds);
  std::printf("THROUGHPUT ff_skipped_cycles=%llu\n",
              static_cast<unsigned long long>(ff_on.skipped));
  std::printf("THROUGHPUT ff_wakeups=%llu\n",
              static_cast<unsigned long long>(ff_on.wakeups));
  std::printf("THROUGHPUT ff_identical=%d\n", ff_identical ? 1 : 0);
  std::printf("THROUGHPUT warm_fork_runs=%zu\n", scenarios.size() + 1);
  std::printf("THROUGHPUT warm_fork_cycle=%llu\n",
              static_cast<unsigned long long>(campaign.warm_fork_cycle()));
  std::printf("THROUGHPUT warm_fork_cold_seconds=%.4f\n", camp_cold_s);
  std::printf("THROUGHPUT warm_fork_warm_seconds=%.4f\n", camp_warm_s);
  std::printf("THROUGHPUT warm_fork_identical=%d\n", camp_identical ? 1 : 0);
  std::printf("THROUGHPUT campaign_scenarios=%zu\n", scenarios.size() + 1);
  std::printf("THROUGHPUT campaign_jobs1_seconds=%.4f\n", scaling_seconds[0]);
  std::printf("THROUGHPUT campaign_jobs2_seconds=%.4f\n", scaling_seconds[1]);
  std::printf("THROUGHPUT campaign_jobs8_seconds=%.4f\n", scaling_seconds[2]);
  std::printf("THROUGHPUT campaign_jobs_identical=%d\n",
              scaling_identical ? 1 : 0);
  std::printf("THROUGHPUT campaign_scenarios_per_sec=%.2f\n",
              scenarios_per_sec);
  std::printf("THROUGHPUT dense_cycles=%llu\n",
              static_cast<unsigned long long>(dense_cycles));
  std::printf("THROUGHPUT dense_accurate_ns_per_cycle=%.3f\n",
              dense_accurate_ns);
  std::printf("THROUGHPUT dense_superblock_ns_per_cycle=%.3f\n",
              dense_superblock_ns);
  std::printf("THROUGHPUT dense_speedup=%.3f\n", dense_speedup);
  std::printf("THROUGHPUT dense_identical=%d\n", dense_identical ? 1 : 0);

  // Optional RunReport on one representative engine run.
  if (telemetry.enabled()) {
    auto w = default_engine();
    soc::SocConfig config;
    args.apply(config);
    soc::Soc soc{config};
    (void)workload::install_engine(soc, w);
    telemetry.attach(soc);
    telemetry.start();
    soc.run(200'000);
    telemetry.add_extra("single_run_cps", cps);
    telemetry.add_extra("single_run_dag_cps", cps_dag);
    telemetry.add_extra("sweep_speedup",
                        parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
    telemetry.add_extra("ff_speedup", ff_speedup);
    telemetry.add_extra("dense_speedup", dense_speedup);
    telemetry.add_extra("warm_fork_speedup",
                        camp_warm_s > 0.0 ? camp_cold_s / camp_warm_s : 0.0);
    telemetry.add_extra("campaign_scenarios_per_sec", scenarios_per_sec);
    telemetry.finish();
  }
  return identical && ff_identical && camp_identical && scaling_identical &&
                 dense_identical
             ? 0
             : 1;
}
