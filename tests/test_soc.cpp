// SoC integration tests: the kernel suite runs to completion with
// functionally correct results; architecture knobs have the expected
// directional effect; runs are deterministic.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mem/memory_map.hpp"
#include "workload/kernels.hpp"

namespace audo {
namespace {

u32 run_kernel(const isa::Program& program, const soc::SocConfig& config,
               u64* cycles_out = nullptr, u64 max_cycles = 30'000'000) {
  soc::Soc soc(config);
  EXPECT_TRUE(soc.load(program).is_ok());
  soc.reset(program.entry());
  const u64 cycles = soc.run(max_cycles);
  EXPECT_TRUE(soc.tc().halted()) << "kernel did not halt";
  if (cycles_out != nullptr) *cycles_out = cycles;
  const auto result_addr = program.symbol_addr("result");
  EXPECT_TRUE(result_addr.is_ok());
  return soc.dspr().read(result_addr.value(), 4);
}

TEST(SocKernels, AllSuiteKernelsHaltWithStableResults) {
  for (const auto& spec : workload::standard_suite()) {
    auto program = spec.build();
    ASSERT_TRUE(program.is_ok())
        << spec.name << ": " << program.status().to_string();
    u64 c1 = 0, c2 = 0;
    const u32 r1 = run_kernel(program.value(), test::small_config(), &c1);
    const u32 r2 = run_kernel(program.value(), test::small_config(), &c2);
    EXPECT_EQ(r1, r2) << spec.name;
    EXPECT_EQ(c1, c2) << spec.name << " not cycle-deterministic";
    EXPECT_GT(c1, 100u) << spec.name;
  }
}

TEST(SocKernels, SortActuallySorts) {
  // The sort result is a position-weighted sum: recompute it on the host
  // from the same LCG fill to verify functional correctness.
  auto program = workload::build_sort(32);
  ASSERT_TRUE(program.is_ok());
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());
  soc.run(10'000'000);
  ASSERT_TRUE(soc.tc().halted());
  // Read back the sorted array.
  const Addr arr = program.value().symbol_addr("arr").value();
  std::vector<u32> values;
  for (u32 i = 0; i < 32; ++i) {
    values.push_back(soc.dspr().read(arr + i * 4, 4));
  }
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  u32 expected = 0;
  for (u32 i = 0; i < 32; ++i) {
    expected += values[i] * (i + 1);
  }
  const Addr result = program.value().symbol_addr("result").value();
  EXPECT_EQ(soc.dspr().read(result, 4), expected);
}

TEST(SocKernels, MatmulMatchesHostComputation) {
  const u32 dim = 6;
  auto program = workload::build_matmul(dim);
  ASSERT_TRUE(program.is_ok());
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());
  soc.run(10'000'000);
  ASSERT_TRUE(soc.tc().halted());
  const Addr a = program.value().symbol_addr("mat_a").value();
  const Addr b = program.value().symbol_addr("mat_b").value();
  const Addr c = program.value().symbol_addr("mat_c").value();
  for (u32 i = 0; i < dim; ++i) {
    for (u32 j = 0; j < dim; ++j) {
      u32 acc = 0;
      for (u32 k = 0; k < dim; ++k) {
        acc += soc.dspr().read(a + (i * dim + k) * 4, 4) *
               soc.dspr().read(b + (k * dim + j) * 4, 4);
      }
      EXPECT_EQ(soc.dspr().read(c + (i * dim + j) * 4, 4), acc)
          << "C[" << i << "][" << j << "]";
    }
  }
}

TEST(SocKernels, ChecksumMatchesHostComputation) {
  auto program = workload::build_checksum(256);
  ASSERT_TRUE(program.is_ok());
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());
  soc.run(10'000'000);
  ASSERT_TRUE(soc.tc().halted());
  // Recompute from the flash image.
  u32 sum = 0;
  for (u32 i = 0; i < 256; ++i) {
    const u32 w = soc.pflash().array().read32(0x40000 + i * 4);
    sum ^= w;
    sum = (sum << 1) | (sum >> 31);
  }
  const Addr result = program.value().symbol_addr("result").value();
  EXPECT_EQ(soc.dspr().read(result, 4), sum);
}

TEST(SocArch, UncachedSequentialChecksumNoWorseThanCached) {
  // Sequential flash reads are served equally well by the data-port read
  // buffer and by the D-cache — the TriCore design rationale for read
  // buffers. The uncached path must not be *faster*.
  u64 cached = 0, uncached = 0;
  auto p1 = workload::build_checksum(2048, false);
  auto p2 = workload::build_checksum(2048, true);
  ASSERT_TRUE(p1.is_ok());
  ASSERT_TRUE(p2.is_ok());
  const u32 r1 = run_kernel(p1.value(), test::small_config(), &cached);
  const u32 r2 = run_kernel(p2.value(), test::small_config(), &uncached);
  EXPECT_EQ(r1, r2);  // same data, same function
  EXPECT_GE(uncached, cached);
}

TEST(SocArch, UncachedRandomLookupsClearlySlower) {
  // Random lookups are where the D-cache beats the single read buffer.
  u64 cached = 0, uncached = 0;
  auto p1 = workload::build_lookup_stress(2048, 2048, false);
  auto p2 = workload::build_lookup_stress(2048, 2048, true);
  ASSERT_TRUE(p1.is_ok());
  ASSERT_TRUE(p2.is_ok());
  const u32 r1 = run_kernel(p1.value(), test::small_config(), &cached);
  const u32 r2 = run_kernel(p2.value(), test::small_config(), &uncached);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(uncached, cached + cached / 20);
}

TEST(SocArch, FlashWaitStatesHurtLookups) {
  auto program = workload::build_lookup_stress(4096, 2048);
  ASSERT_TRUE(program.is_ok());
  auto fast_cfg = test::small_config();
  fast_cfg.pflash.wait_states = 2;
  auto slow_cfg = test::small_config();
  slow_cfg.pflash.wait_states = 8;
  u64 fast = 0, slow = 0;
  const u32 r1 = run_kernel(program.value(), fast_cfg, &fast);
  const u32 r2 = run_kernel(program.value(), slow_cfg, &slow);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(slow, fast + fast / 10);
}

TEST(SocArch, BiggerDcacheHelpsLookups) {
  auto program = workload::build_lookup_stress(8192, 4096);
  ASSERT_TRUE(program.is_ok());
  auto small_dc = test::small_config();
  small_dc.dcache.size_bytes = 1024;
  auto big_dc = test::small_config();
  big_dc.dcache.size_bytes = 32 * 1024;  // covers the whole table
  u64 small_cycles = 0, big_cycles = 0;
  const u32 r1 = run_kernel(program.value(), small_dc, &small_cycles);
  const u32 r2 = run_kernel(program.value(), big_dc, &big_cycles);
  EXPECT_EQ(r1, r2);
  EXPECT_LT(big_cycles, small_cycles);
}

TEST(SocArch, DisablingIcacheIsExpensive) {
  auto program = workload::build_fir(16, 128);
  ASSERT_TRUE(program.is_ok());
  auto with_ic = test::small_config();
  auto without_ic = test::small_config();
  without_ic.icache.enabled = false;
  u64 c_with = 0, c_without = 0;
  const u32 r1 = run_kernel(program.value(), with_ic, &c_with);
  const u32 r2 = run_kernel(program.value(), without_ic, &c_without);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(c_without, c_with);
}

TEST(SocObservation, FrameReflectsActivity) {
  auto program = workload::build_memcpy(64, 2);
  ASSERT_TRUE(program.is_ok());
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.reset(program.value().entry());
  u64 retired = 0;
  u64 data_accesses = 0;
  u64 flash_code = 0;
  while (!soc.tc().halted() && soc.cycle() < 1'000'000) {
    soc.step();
    retired += soc.frame().tc.retired;
    data_accesses += soc.frame().tc.data_access ? 1 : 0;
    flash_code += soc.frame().flash.code_access ? 1 : 0;
  }
  EXPECT_EQ(retired, soc.tc().retired());
  EXPECT_GT(data_accesses, 128u);  // 64 words x 2 passes, plus setup
  EXPECT_GT(flash_code, 0u);
}

TEST(SocLoad, RejectsUnmappedSection) {
  isa::Program program;
  isa::Section bogus;
  bogus.name = ".data";
  bogus.base = 0x40000000;  // nothing lives there
  bogus.bytes = {1, 2, 3, 4};
  program.add_section(bogus);
  soc::Soc soc(test::small_config());
  EXPECT_FALSE(soc.load(program).is_ok());
}

// A section must end inside the memory that holds its base, in every
// memory load() places sections in: one that runs 4 bytes past the end is
// rejected, one that ends exactly at the end loads.
TEST(SocLoad, RejectsSectionRunningPastItsMemory) {
  const soc::SocConfig config = test::small_config();
  ASSERT_TRUE(config.has_pcp);
  const struct {
    const char* name;
    Addr base;
    u32 bytes;
  } memories[] = {
      {"cached flash", mem::kPFlashCachedBase, config.pflash.size},
      {"uncached flash", mem::kPFlashUncachedBase, config.pflash.size},
      {"DSPR", mem::kDsprBase, config.dspr_bytes},
      {"PSPR", mem::kPsprBase, config.pspr_bytes},
      {"PCP PRAM", mem::kPcpPramBase, config.pcp_pram_bytes},
      {"PCP DRAM", mem::kPcpDramBase, config.pcp_dram_bytes},
      {"LMU", mem::kLmuBase, config.lmu_bytes},
      {"DFlash", mem::kDFlashBase, config.dflash.size},
  };
  for (const auto& memory : memories) {
    SCOPED_TRACE(memory.name);
    for (const u32 overrun : {0u, 4u}) {
      isa::Section section;
      section.name = ".edge";
      section.base = memory.base + memory.bytes - 8;
      section.bytes.assign(8 + overrun, 0xA5);
      isa::Program program;
      program.add_section(section);
      soc::Soc soc(config);
      const Status loaded = soc.load(program);
      if (overrun == 0) {
        EXPECT_TRUE(loaded.is_ok()) << loaded.to_string();
      } else {
        EXPECT_EQ(loaded.code(), StatusCode::kOutOfRange);
        EXPECT_NE(loaded.message().find("'.edge'"), std::string::npos)
            << loaded.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace audo
