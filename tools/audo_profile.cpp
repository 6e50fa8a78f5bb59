// audo-profile: command-line driver for the Enhanced System Profiling
// methodology. Assembles a TRC program, runs it on a simulated Emulation
// Device, and reports the measured parameter series — plus optional
// function profiles, execution listings and CSV exports.
//
//   audo-profile program.s [options]
//   audo-profile --engine [options]
//   audo-profile --transmission [options]
//     --engine            profile the bundled engine-control workload
//                         instead of assembling a source file
//     --transmission      profile the bundled transmission-control
//                         workload (time-triggered task set)
//     --cycles N          simulation budget (default 2000000)
//     --resolution N      basis ticks per rate sample (default 1000)
//     --flow              program-flow trace (implied by --functions/--listing)
//     --data              data trace
//     --irq               interrupt trace
//     --cycle-accurate    per-cycle tick messages (expensive)
//     --functions         print the function-level profile
//     --cpi-stacks        per-function CPI stacks from the per-cycle
//                         stall attribution, plus the master×slave
//                         interference matrix
//     --top N             rows in the function/CPI tables (default 20)
//     --listing N         print the first N reconstructed instructions
//     --series-csv FILE   write the rate series as CSV
//     --events-csv FILE   write the decoded messages as CSV
//     --csv FILE          write the CPI-stack table as CSV (implies
//                         --cpi-stacks)
//     --interference-csv FILE   write the interference matrix as CSV
//     --dag               build the execution DAG (task/ISR activations,
//                         causal edges, critical path, per-task slack and
//                         bottleneck labels) and print the summary
//     --critical-path     print the full critical-path chain (implies
//                         --dag)
//     --dag-csv FILE      write the DAG node table as CSV (implies --dag)
//     --dag-dot FILE      write the DAG as Graphviz dot (implies --dag)
//     --no-icache / --no-dcache
//     --flash-ws N        flash wait states (default 5)
//     --emem-kib N        trace memory size (default 384 usable)
//     --jobs N            host threads (recorded in the report; a single
//                         profiling run is inherently serial)
//     --no-fast-forward   step every idle cycle instead of skipping
//                         quiescent stretches (bit-identical, slower)
//     --exec-tier T       execution engine: 'superblock' (default) or
//                         'accurate' (bit-identical, slower)
//     --tier-report       print the execution-tier coverage summary
//                         (fast windows, fast/stepped cycle split and
//                         the gate/bail decline reasons)
//     --report FILE       write a structured RunReport JSON
//     --perfetto FILE     write a Chrome/Perfetto trace JSON
//     --record FILE       record a replay golden (trisim-replay/1 JSON)
//                         for the regression lab; --engine or
//                         --transmission only (the workload recipe must
//                         be reconstructible from options alone)
//
// A numeric value that does not parse whole or does not fit its option
// is a usage error (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/cli.hpp"
#include "host/sim_pool.hpp"
#include "isa/assembler.hpp"
#include "profiling/export.hpp"
#include "profiling/function_profile.hpp"
#include "profiling/listing.hpp"
#include "profiling/session.hpp"
#include "replay/replay.hpp"
#include "soc/frame_digest.hpp"
#include "soc/tracer.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "workload/engine.hpp"
#include "workload/transmission.hpp"

using namespace audo;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: audo-profile {program.s | --engine | --transmission} "
               "[--cycles N] [--resolution N]\n"
               "       [--flow] [--data] [--irq] [--cycle-accurate]\n"
               "       [--functions] [--cpi-stacks] [--top N] [--listing N]\n"
               "       [--series-csv FILE] [--events-csv FILE] [--csv FILE]\n"
               "       [--interference-csv FILE] [--dag] [--critical-path]\n"
               "       [--dag-csv FILE] [--dag-dot FILE]\n"
               "       [--no-icache] [--no-dcache]\n"
               "       [--flash-ws N] [--emem-kib N] [--jobs N]\n"
               "       [--no-fast-forward] [--exec-tier accurate|superblock]\n"
               "       [--tier-report] [--report FILE] [--perfetto FILE]\n"
               "       [--record FILE]\n");
}

bool write_file(const char* path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const char* source_path = nullptr;
  bool engine = false;
  bool transmission = false;
  u64 cycles = 2'000'000;
  u32 resolution = 1000;
  bool functions = false;
  bool cpi_stacks = false;
  usize top_n = 20;
  usize listing_lines = 0;
  const char* series_csv = nullptr;
  const char* events_csv = nullptr;
  const char* cpi_csv = nullptr;
  const char* interference_csv = nullptr;
  bool critical_path = false;
  const char* dag_csv = nullptr;
  const char* dag_dot = nullptr;
  const char* report_path = nullptr;
  const char* perfetto_path = nullptr;
  const char* record_path = nullptr;
  bool tier_report = false;
  unsigned jobs = host::SimPool::hardware_jobs();

  soc::SocConfig chip;
  profiling::SessionOptions options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--engine") == 0) {
      engine = true;
    } else if (std::strcmp(arg, "--transmission") == 0) {
      transmission = true;
    } else if (std::strcmp(arg, "--cycles") == 0) {
      cycles = parse_number<u64>(arg, next_value());
    } else if (std::strcmp(arg, "--resolution") == 0) {
      resolution = parse_number<u32>(arg, next_value());
    } else if (std::strcmp(arg, "--flow") == 0) {
      options.program_trace = true;
    } else if (std::strcmp(arg, "--data") == 0) {
      options.data_trace = true;
    } else if (std::strcmp(arg, "--irq") == 0) {
      options.irq_trace = true;
    } else if (std::strcmp(arg, "--cycle-accurate") == 0) {
      options.cycle_accurate = true;
    } else if (std::strcmp(arg, "--functions") == 0) {
      functions = true;
      options.program_trace = true;
    } else if (std::strcmp(arg, "--cpi-stacks") == 0) {
      cpi_stacks = true;
      options.cpi_stacks = true;
    } else if (std::strcmp(arg, "--top") == 0) {
      top_n = parse_number<usize>(arg, next_value());
    } else if (std::strcmp(arg, "--csv") == 0) {
      cpi_csv = next_value();
      options.cpi_stacks = true;
    } else if (std::strcmp(arg, "--interference-csv") == 0) {
      interference_csv = next_value();
    } else if (std::strcmp(arg, "--dag") == 0) {
      options.dag = true;
    } else if (std::strcmp(arg, "--critical-path") == 0) {
      critical_path = true;
      options.dag = true;
    } else if (std::strcmp(arg, "--dag-csv") == 0) {
      dag_csv = next_value();
      options.dag = true;
    } else if (std::strcmp(arg, "--dag-dot") == 0) {
      dag_dot = next_value();
      options.dag = true;
    } else if (std::strcmp(arg, "--listing") == 0) {
      listing_lines = parse_number<usize>(arg, next_value());
      options.program_trace = true;
    } else if (std::strcmp(arg, "--series-csv") == 0) {
      series_csv = next_value();
    } else if (std::strcmp(arg, "--events-csv") == 0) {
      events_csv = next_value();
    } else if (std::strcmp(arg, "--jobs") == 0) {
      jobs = parse_number<unsigned>(arg, next_value());
      if (jobs == 0) jobs = host::SimPool::hardware_jobs();
    } else if (std::strcmp(arg, "--report") == 0) {
      report_path = next_value();
    } else if (std::strcmp(arg, "--perfetto") == 0) {
      perfetto_path = next_value();
    } else if (std::strcmp(arg, "--record") == 0) {
      record_path = next_value();
    } else if (std::strcmp(arg, "--tier-report") == 0) {
      tier_report = true;
    } else if (std::strcmp(arg, "--no-fast-forward") == 0) {
      chip.fast_forward = false;
    } else if (std::strcmp(arg, "--exec-tier") == 0) {
      const char* tier = next_value();
      if (std::strcmp(tier, "accurate") == 0) {
        chip.exec_tier = soc::SocConfig::ExecTier::kAccurate;
      } else if (std::strcmp(tier, "superblock") == 0) {
        chip.exec_tier = soc::SocConfig::ExecTier::kSuperblock;
      } else {
        std::fprintf(stderr, "--exec-tier wants 'accurate' or 'superblock'\n");
        usage();
        return 2;
      }
    } else if (std::strcmp(arg, "--no-icache") == 0) {
      chip.icache.enabled = false;
    } else if (std::strcmp(arg, "--no-dcache") == 0) {
      chip.dcache.enabled = false;
    } else if (std::strcmp(arg, "--flash-ws") == 0) {
      chip.pflash.wait_states = parse_number<unsigned>(arg, next_value());
    } else if (std::strcmp(arg, "--emem-kib") == 0) {
      options.ed.emem.size_bytes =
          parse_number<u32>(arg, next_value(),
                            std::numeric_limits<u32>::max() / 1024) *
          1024;
      options.ed.emem.overlay_bytes = 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
      return 2;
    } else {
      source_path = arg;
    }
  }
  if ((source_path == nullptr && !engine && !transmission) ||
      (engine && transmission)) {
    usage();
    return 2;
  }
  if (record_path != nullptr) {
    if (!engine && !transmission) {
      std::fprintf(stderr,
                   "--record needs --engine or --transmission (the golden "
                   "must be reconstructible from workload options alone)\n");
      return 2;
    }
    if (options.data_trace || options.cycle_accurate || options.cpi_stacks) {
      std::fprintf(stderr,
                   "--record does not support --data, --cycle-accurate or "
                   "--cpi-stacks (their trace streams are not part of the "
                   "replay schema)\n");
      return 2;
    }
  }

  isa::Program program;
  Addr tc_entry = 0;
  Addr pcp_entry = 0;
  workload::EngineOptions engine_options;
  workload::TransmissionOptions transmission_options;
  if (transmission) {
    source_path = "<transmission workload>";
    auto built = workload::build_transmission_workload(transmission_options);
    if (!built.is_ok()) {
      std::fprintf(stderr, "transmission workload: %s\n",
                   built.status().to_string().c_str());
      return 1;
    }
    transmission_options = built.value().options;
    tc_entry = built.value().tc_entry;
    program = std::move(built).value().program;
  } else if (engine) {
    source_path = "<engine workload>";
    auto built = workload::build_engine_workload(engine_options);
    if (!built.is_ok()) {
      std::fprintf(stderr, "engine workload: %s\n",
                   built.status().to_string().c_str());
      return 1;
    }
    engine_options = built.value().options;
    tc_entry = built.value().tc_entry;
    pcp_entry = built.value().pcp_entry;
    program = std::move(built).value().program;
  } else {
    std::ifstream in(source_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", source_path);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto assembled = isa::assemble(buffer.str());
    if (!assembled.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", source_path,
                   assembled.status().to_string().c_str());
      return 1;
    }
    program = std::move(assembled).value();
    tc_entry = program.entry();
  }

  options.resolution = resolution;
  profiling::ProfilingSession session(chip, options);
  if (Status s = session.load(program); !s.is_ok()) {
    std::fprintf(stderr, "load: %s\n", s.to_string().c_str());
    return 1;
  }
  if (engine) {
    workload::configure_engine(session.device().soc(), engine_options);
  } else if (transmission) {
    workload::configure_transmission(session.device().soc(),
                                     transmission_options);
  }
  // Golden recorder: canonical windowed frame digests, attached like any
  // other observer so recording never perturbs the run.
  soc::WindowedFrameDigest recorder;
  if (record_path != nullptr) {
    session.device().soc().add_frame_observer(&recorder);
  }
  session.reset(tc_entry, pcp_entry);

  // Host telemetry (null-cost when neither flag was given).
  telemetry::MetricsRegistry registry;
  soc::SocTracer tracer;
  telemetry::HostProfiler host;
  const bool telemetry_on = report_path != nullptr || perfetto_path != nullptr;
  if (telemetry_on) {
    session.device().register_metrics(registry);
    if (perfetto_path != nullptr) session.device().soc().set_tracer(&tracer);
    // The probe feeds only the report's host block, and while attached it
    // closes the fast tier, so --perfetto alone keeps the shipped tier.
    if (report_path != nullptr) {
      session.device().soc().set_phase_probe(&host.probe());
    }
    host.start(session.device().soc().cycle());
  }

  const profiling::SessionResult result = session.run(cycles);
  if (telemetry_on) {
    host.stop(session.device().soc().cycle());
    // After the run so the per-task slack gauges see the task list.
    if (session.dag() != nullptr) session.dag()->register_metrics(registry);
  }

  std::printf("%s: %llu cycles, %llu instructions, IPC %.3f%s\n", source_path,
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.tc_retired), result.ipc,
              session.device().soc().tc().halted() ? " (halted)" : "");
  std::printf("trace: %llu messages, %llu bytes (%.1f bytes/kcycle), "
              "%llu dropped\n\n",
              static_cast<unsigned long long>(result.trace_messages),
              static_cast<unsigned long long>(result.trace_bytes),
              result.bytes_per_kcycle,
              static_cast<unsigned long long>(result.dropped_messages));
  std::printf("%s", profiling::format_series_summary(result.series).c_str());

  if (tier_report) {
    auto& tr_soc = session.device().soc();
    const soc::ExecTierStats& es = tr_soc.exec_stats();
    const u64 ff_skipped = tr_soc.ff_stats().skipped_cycles;
    const u64 accelerated = es.fast_cycles + ff_skipped;
    const u64 stepped =
        tr_soc.cycle() > accelerated ? tr_soc.cycle() - accelerated : 0;
    std::printf("\n== exec tier ==\n"
                "%s: %llu fast windows, %llu fast cycles, "
                "%llu fast-forwarded, %llu stepped\n",
                tr_soc.config().exec_tier ==
                        soc::SocConfig::ExecTier::kSuperblock
                    ? "superblock"
                    : "accurate",
                static_cast<unsigned long long>(es.windows),
                static_cast<unsigned long long>(es.fast_cycles),
                static_cast<unsigned long long>(ff_skipped),
                static_cast<unsigned long long>(stepped));
    std::vector<std::pair<std::string, u64>> declines;
    for (unsigned g = 0; g < soc::kNumFastGates; ++g) {
      if (es.gates[g] == 0) continue;
      declines.emplace_back(
          std::string("gate.") +
              soc::to_string(static_cast<soc::FastGate>(g)),
          es.gates[g]);
    }
    for (unsigned b = 1; b < cpu::kNumFastBails; ++b) {
      if (es.bails[b] == 0) continue;
      declines.emplace_back(
          std::string("bail.") +
              cpu::to_string(static_cast<cpu::FastBail>(b)),
          es.bails[b]);
    }
    std::stable_sort(declines.begin(), declines.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (const auto& [reason, count] : declines) {
      std::printf("  %-24s %llu\n", reason.c_str(),
                  static_cast<unsigned long long>(count));
    }
    if (declines.empty()) std::printf("  (no declines)\n");
  }

  if (functions) {
    profiling::SystemProfiler profiler{isa::SymbolMap(program)};
    profiler.consume(result.messages);
    std::printf("\n== function profile ==\n%s",
                profiler.format_function_profile(top_n).c_str());
    if (options.data_trace) {
      std::printf("\n== data objects ==\n%s",
                  profiler.format_data_profile(top_n).c_str());
    }
  }
  if (cpi_stacks && session.cpi_builder() != nullptr) {
    std::printf("\n== CPI stacks ==\n%s",
                session.cpi_builder()->format(top_n).c_str());
    std::printf("\n== interference matrix ==\n%s",
                profiling::interference_to_text(session.device().soc().sri())
                    .c_str());
  }
  if (session.dag() != nullptr) {
    std::printf("\n== execution DAG ==\n%s",
                session.dag()->format(top_n).c_str());
    if (critical_path) {
      const profiling::DagAnalysis& a = session.dag()->analysis();
      std::printf("\n== critical path (%llu cycles, %zu activations) ==\n",
                  static_cast<unsigned long long>(a.critical_path_cycles),
                  a.critical_path.size());
      for (const u32 id : a.critical_path) {
        const profiling::DagNode& n = a.nodes[id];
        std::printf("  [%llu..%llu] %s %s (%llu cycles)\n",
                    static_cast<unsigned long long>(n.start),
                    static_cast<unsigned long long>(n.end),
                    to_string(n.kind), n.task.c_str(),
                    static_cast<unsigned long long>(n.cycles));
      }
    }
  }
  if (listing_lines > 0) {
    profiling::ListingOptions lo;
    lo.max_lines = listing_lines;
    std::printf("\n== execution listing ==\n%s",
                profiling::execution_listing(program, result.messages, lo)
                    .c_str());
  }
  if (series_csv != nullptr &&
      !write_file(series_csv, profiling::series_to_csv(result.series))) {
    std::fprintf(stderr, "cannot write %s\n", series_csv);
    return 1;
  }
  if (events_csv != nullptr &&
      !write_file(events_csv, profiling::messages_to_csv(result.messages))) {
    std::fprintf(stderr, "cannot write %s\n", events_csv);
    return 1;
  }
  if (cpi_csv != nullptr && session.cpi_builder() != nullptr &&
      !write_file(cpi_csv, session.cpi_builder()->to_csv())) {
    std::fprintf(stderr, "cannot write %s\n", cpi_csv);
    return 1;
  }
  if (dag_csv != nullptr && session.dag() != nullptr &&
      !write_file(dag_csv, session.dag()->to_csv())) {
    std::fprintf(stderr, "cannot write %s\n", dag_csv);
    return 1;
  }
  if (dag_dot != nullptr && session.dag() != nullptr &&
      !write_file(dag_dot, session.dag()->to_dot())) {
    std::fprintf(stderr, "cannot write %s\n", dag_dot);
    return 1;
  }

  auto& soc = session.device().soc();
  if (interference_csv != nullptr &&
      !write_file(interference_csv,
                  profiling::interference_to_csv(soc.sri()))) {
    std::fprintf(stderr, "cannot write %s\n", interference_csv);
    return 1;
  }
  if (perfetto_path != nullptr) {
    tracer.finish(soc.cycle());
    if (session.dag() != nullptr) {
      session.dag()->emit_timeline(tracer.timeline());
    }
    if (Status s = tracer.write_chrome_json(perfetto_path,
                                            soc.config().clock_hz);
        !s.is_ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", perfetto_path,
                   s.to_string().c_str());
      return 1;
    }
    std::printf("perfetto trace: %s (%zu events, %zu tracks)\n", perfetto_path,
                tracer.timeline().event_count(),
                tracer.timeline().track_count());
  }
  if (report_path != nullptr) {
    telemetry::RunReport report;
    report.bench = "audo_profile";
    report.config_name = soc.config().name;
    report.config_fingerprint = soc.config().fingerprint();
    report.cycles = soc.cycle();
    report.instructions = soc.tc().retired();
    report.sim_ipc = result.ipc;
    report.jobs = jobs;
    report.metrics = registry.collect(soc.cycle());
    report.set_host(host);
    report.fast_forward_enabled = soc.config().fast_forward;
    report.ff_skipped_cycles = soc.ff_stats().skipped_cycles;
    report.ff_wakeups = soc.ff_stats().wakeups;
    soc.fill_exec_tier_report(report);
    for (unsigned s = 0; s < soc::kNumWakeSources; ++s) {
      if (soc.ff_stats().wake_counts[s] == 0) continue;
      report.add_wake_source(soc::to_string(static_cast<soc::WakeSource>(s)),
                             soc.ff_stats().wake_counts[s]);
    }
    const auto add_stall_block = [&report](const char* core,
                                           const soc::StallTotals& totals) {
      for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
        report.add_stall_bucket(
            core, mcds::to_string(static_cast<mcds::StallRootCause>(r)),
            totals.cycles[r]);
      }
    };
    add_stall_block("tc", soc.tc_stall_totals());
    if (soc.pcp() != nullptr) add_stall_block("pcp", soc.pcp_stall_totals());
    for (unsigned s = 0; s < soc.sri().slave_count(); ++s) {
      for (unsigned w = 0; w < bus::kNumMasters; ++w) {
        for (unsigned h = 0; h < bus::kNumMasters; ++h) {
          const u64 c = soc.sri().interference(
              static_cast<bus::MasterId>(w), static_cast<bus::MasterId>(h), s);
          if (c == 0) continue;
          report.add_interference(
              std::string(soc.sri().slave_name(s)),
              bus::to_string(static_cast<bus::MasterId>(w)),
              bus::to_string(static_cast<bus::MasterId>(h)), c);
        }
      }
    }
    if (session.dag() != nullptr) session.dag()->fill_report(report);
    report.add_extra("trace_messages",
                     static_cast<double>(result.trace_messages));
    report.add_extra("bytes_per_kcycle", result.bytes_per_kcycle);
    if (Status s = report.write(report_path); !s.is_ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path,
                   s.to_string().c_str());
      return 1;
    }
    std::printf("run report: %s (%zu metrics, %zu components, "
                "%.0f sim cycles/s)\n",
                report_path, report.metrics.samples.size(),
                report.metrics.component_count(),
                report.sim_cycles_per_second);
  }
  if (record_path != nullptr) {
    recorder.finish();
    replay::ReplaySpec spec;
    // The name says which golden ran: the workload, the tier and the
    // session's trace flags.
    spec.scenario.kind = engine ? "engine" : "transmission";
    spec.name = spec.scenario.kind + "-" +
                (soc.config().exec_tier == soc::SocConfig::ExecTier::kSuperblock
                     ? "superblock"
                     : "accurate");
    if (options.program_trace) spec.name += "-flow";
    if (options.irq_trace) spec.name += "-irq";
    if (options.dag) spec.name += "-dag";
    spec.scenario.run_cycles = cycles;
    spec.scenario.engine = engine_options;
    spec.scenario.transmission = transmission_options;
    spec.scenario.session.enabled = true;
    spec.scenario.session.resolution = options.resolution;
    spec.scenario.session.program_trace = options.program_trace;
    spec.scenario.session.irq_trace = options.irq_trace;
    spec.scenario.session.dag = options.dag;
    spec.config = soc.config();
    spec.config_fingerprint = soc.config().fingerprint();
    spec.cycles = soc.cycle();
    spec.instructions = soc.tc().retired();
    spec.digests.window_bits = recorder.window_bits();
    spec.digests.total_frames = recorder.total_frames();
    spec.digests.stream = recorder.stream_digest();
    spec.digests.windows = recorder.windows();
    spec.digests.mcds_messages = result.messages.size();
    spec.digests.mcds_hash = replay::hash_messages(result.messages);
    if (session.dag() != nullptr) {
      spec.digests.dag_hash = session.dag()->analysis().hash;
    }
    if (Status s = spec.to_file(record_path); !s.is_ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", record_path,
                   s.to_string().c_str());
      return 1;
    }
    std::printf("replay golden: %s (%zu windows, %llu frames)\n", record_path,
                spec.digests.windows.size(),
                static_cast<unsigned long long>(spec.digests.total_frames));
  }
  return 0;
}
