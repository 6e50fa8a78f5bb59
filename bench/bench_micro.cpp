// Microbenchmarks of the infrastructure itself (google-benchmark):
// simulator throughput, trace codec throughput, assembler, cache model.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cache/cache.hpp"
#include "common/prng.hpp"
#include "isa/assembler.hpp"
#include "mcds/trace.hpp"
#include "profiling/session.hpp"
#include "workload/engine.hpp"
#include "workload/kernels.hpp"

namespace {

using namespace audo;

void BM_SocSimulation(benchmark::State& state) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 80;
  auto w = workload::build_engine_workload(opt);
  if (!w.is_ok()) {
    state.SkipWithError("engine build failed");
    return;
  }
  soc::Soc soc{soc::SocConfig{}};
  (void)workload::install_engine(soc, w.value());
  for (auto _ : state) {
    soc.step();
    benchmark::DoNotOptimize(soc.cycle());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
  state.SetLabel("simulated cycles/sec = items/sec");
}
BENCHMARK(BM_SocSimulation);

void BM_SocSimulationWithMcds(benchmark::State& state) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 80;
  auto w = workload::build_engine_workload(opt);
  if (!w.is_ok()) {
    state.SkipWithError("engine build failed");
    return;
  }
  profiling::SessionOptions so;
  so.resolution = 1000;
  so.program_trace = true;
  profiling::ProfilingSession session(soc::SocConfig{}, so);
  (void)session.load(w.value().program);
  workload::configure_engine(session.device().soc(), w.value().options);
  session.reset(w.value().tc_entry, w.value().pcp_entry);
  for (auto _ : state) {
    session.device().step();
    benchmark::DoNotOptimize(session.device().soc().cycle());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_SocSimulationWithMcds);

// The quiescence fast-forward on its natural prey: an event-driven
// engine build whose background parks in WFI, so nearly every cycle is
// skipped O(1) instead of stepped. items/sec here is *simulated*
// cycles/sec and should dwarf BM_SocSimulation.
void BM_SocIdleFastForward(benchmark::State& state) {
  workload::EngineOptions opt;
  opt.crank_time_scale = 50;
  opt.idle_background = true;
  auto w = workload::build_engine_workload(opt);
  if (!w.is_ok()) {
    state.SkipWithError("engine build failed");
    return;
  }
  soc::Soc soc{soc::SocConfig{}};  // fast_forward defaults on
  (void)workload::install_engine(soc, w.value());
  constexpr u64 kChunk = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.run(kChunk));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kChunk));
  state.SetLabel("simulated cycles/sec = items/sec");
}
BENCHMARK(BM_SocIdleFastForward);

// The other side of that bargain: a dense compute loop that never goes
// quiescent, run through Soc::run with fast-forward on (the default).
// The per-cycle quiescence probe is the only thing the feature adds to
// this path, so this number must stay within noise of the seed.
void BM_SocDenseKernelNoRegression(benchmark::State& state) {
  auto program = isa::assemble(R"(
    .text 0xC8000000
main:
    movd d0, 0
    movd d1, 1
loop:
    add  d0, d0, d1
    shli d2, d0, 3
    xor  d3, d2, d0
    or   d1, d3, d1
    j    loop
)");
  if (!program.is_ok()) {
    state.SkipWithError("assembly failed");
    return;
  }
  soc::Soc soc{soc::SocConfig{}};
  (void)soc.load(program.value());
  soc.reset(program.value().entry());
  constexpr u64 kChunk = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.run(kChunk));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kChunk));
  state.SetLabel("simulated cycles/sec = items/sec");
}
BENCHMARK(BM_SocDenseKernelNoRegression);

// The superblock fast tier on its target case: straight-line compute
// (matmul) through Soc::run. Arg(1) = superblock tier, Arg(0) = the
// accurate stepper on the identical workload; the ratio is the tier's
// dense-kernel speedup (tracked with a hard floor in
// tools/check_bench_trend.py).
void BM_SocSuperblockDense(benchmark::State& state) {
  auto program = workload::build_matmul(16);
  if (!program.is_ok()) {
    state.SkipWithError("matmul build failed");
    return;
  }
  u64 simulated = 0;
  for (auto _ : state) {
    state.PauseTiming();
    soc::SocConfig config;
    config.exec_tier = state.range(0) != 0
                           ? soc::SocConfig::ExecTier::kSuperblock
                           : soc::SocConfig::ExecTier::kAccurate;
    soc::Soc soc{config};
    (void)soc.load(program.value());
    soc.reset(program.value().entry());
    state.ResumeTiming();
    benchmark::DoNotOptimize(soc.run(20'000'000));
    simulated += soc.cycle();
  }
  state.SetItemsProcessed(static_cast<i64>(simulated));
  state.SetLabel(state.range(0) != 0 ? "superblock tier"
                                     : "accurate stepper");
}
BENCHMARK(BM_SocSuperblockDense)->Arg(1)->Arg(0);

// Worst case for the tier: a hot loop whose every iteration hits a bail
// op (DEBUG is SYS-pipe, so the window closes and the accurate stepper
// replays the cycle). Measures enter/plan/exit overhead when windows
// never get going; must stay within noise of the accurate stepper on
// the same loop (Arg(0)).
void BM_SocSuperblockBailout(benchmark::State& state) {
  auto program = isa::assemble(R"(
    .text 0xC8000000
main:
    movd d0, 0
    movd d1, 1
loop:
    add  d0, d0, d1
    debug
    xor  d3, d0, d1
    j    loop
)");
  if (!program.is_ok()) {
    state.SkipWithError("assembly failed");
    return;
  }
  soc::SocConfig config;
  config.exec_tier = state.range(0) != 0
                         ? soc::SocConfig::ExecTier::kSuperblock
                         : soc::SocConfig::ExecTier::kAccurate;
  soc::Soc soc{config};
  (void)soc.load(program.value());
  soc.reset(program.value().entry());
  constexpr u64 kChunk = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.run(kChunk));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kChunk));
  state.SetLabel(state.range(0) != 0 ? "superblock tier (bails every loop)"
                                     : "accurate stepper");
}
BENCHMARK(BM_SocSuperblockBailout)->Arg(1)->Arg(0);

void BM_TraceEncode(benchmark::State& state) {
  mcds::TraceEncoder encoder;
  mcds::TraceMessage sync;
  sync.kind = mcds::MsgKind::kSync;
  sync.source = mcds::MsgSource::kTcCore;
  sync.pc = 0x80001000;
  encoder.encode(sync);
  mcds::TraceMessage rate;
  rate.kind = mcds::MsgKind::kRate;
  rate.source = mcds::MsgSource::kChip;
  rate.group = 2;
  rate.basis = 1000;
  rate.counts = {12, 0, 997, 3, 55};
  Cycle cycle = 0;
  for (auto _ : state) {
    rate.cycle = (cycle += 1000);
    benchmark::DoNotOptimize(encoder.encode(rate));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
  state.SetBytesProcessed(static_cast<i64>(encoder.bytes_encoded()));
}
BENCHMARK(BM_TraceEncode);

void BM_TraceDecode(benchmark::State& state) {
  mcds::TraceEncoder encoder;
  std::vector<mcds::EncodedMessage> units;
  mcds::TraceMessage sync;
  sync.kind = mcds::MsgKind::kSync;
  sync.source = mcds::MsgSource::kTcCore;
  sync.pc = 0x80001000;
  units.push_back(encoder.encode(sync));
  Prng prng(5);
  Addr pc = 0x80001000;
  for (int i = 0; i < 999; ++i) {
    mcds::TraceMessage flow;
    flow.kind = mcds::MsgKind::kFlow;
    flow.source = mcds::MsgSource::kTcCore;
    flow.cycle = static_cast<Cycle>(i * 7);
    pc += static_cast<Addr>(prng.next_range(-64, 64)) * 4;
    flow.pc = pc;
    flow.instr_count = static_cast<u32>(prng.next_below(30));
    units.push_back(encoder.encode(flow));
  }
  for (auto _ : state) {
    auto decoded = mcds::TraceDecoder::decode(units);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1000);
}
BENCHMARK(BM_TraceDecode);

void BM_Assembler(benchmark::State& state) {
  workload::EngineOptions opt;
  auto w = workload::build_engine_workload(opt);
  if (!w.is_ok()) {
    state.SkipWithError("engine build failed");
    return;
  }
  const std::string source = w.value().source;
  for (auto _ : state) {
    auto program = isa::assemble(source);
    benchmark::DoNotOptimize(program);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(source.size()));
}
BENCHMARK(BM_Assembler);

void BM_CacheAccess(benchmark::State& state) {
  cache::Cache cache(cache::CacheConfig{
      true, 16 * 1024, static_cast<unsigned>(state.range(0)), 32,
      cache::Replacement::kLru});
  Prng prng(7);
  std::vector<Addr> addrs(4096);
  for (Addr& a : addrs) {
    a = 0x80000000 + static_cast<Addr>(prng.next_below(64 * 1024));
  }
  usize i = 0;
  for (auto _ : state) {
    const Addr a = addrs[i++ & 4095];
    if (!cache.access(a)) cache.fill(a);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the trisim-shared
// flags (--cycles/--seed/--jobs/--report/--perfetto, plus the valueless
// --no-fast-forward) so a harness can pass one uniform command line to
// every bench binary; everything else goes to google-benchmark unchanged.
int main(int argc, char** argv) {
  std::vector<char*> own_argv{argv[0]};
  std::vector<char*> bm_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--cycles" || a == "--seed" || a == "--jobs" ||
        a == "--report" || a == "--perfetto") {
      own_argv.push_back(argv[i]);
      if (i + 1 < argc) own_argv.push_back(argv[++i]);
    } else if (a == "--no-fast-forward") {
      own_argv.push_back(argv[i]);
    } else {
      bm_argv.push_back(argv[i]);
    }
  }
  const audo::bench::BenchArgs args = audo::bench::parse_args(
      static_cast<int>(own_argv.size()), own_argv.data());
  audo::bench::BenchTelemetry telemetry("bench_micro", args);

  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The google-benchmark cases own their fixtures; for --report /
  // --perfetto, observe one plain engine run.
  if (telemetry.enabled()) {
    audo::workload::EngineOptions opt;
    opt.crank_time_scale = 80;
    auto w = audo::workload::build_engine_workload(opt);
    if (w.is_ok()) {
      audo::soc::SocConfig config;
      args.apply(config);
      audo::soc::Soc soc{config};
      (void)audo::workload::install_engine(soc, w.value());
      telemetry.attach(soc);
      telemetry.start();
      soc.run(args.cycles != 0 ? args.cycles : 200'000);
      telemetry.finish();
    }
  }
  return 0;
}
