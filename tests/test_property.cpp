// Property tests: the pipelined, multi-issue CPU model must be
// architecturally equivalent to an independent, timing-free reference
// interpreter on randomized programs; plus cross-cutting invariants
// (determinism under observation, trace reconstruction consistency).
#include <gtest/gtest.h>

#include <array>

#include "common/prng.hpp"
#include "helpers.hpp"
#include "isa/isa.hpp"
#include "mem/memory_map.hpp"
#include "profiling/spec.hpp"
#include "soc/frame_digest.hpp"

namespace audo {
namespace {

// ---------------------------------------------------------------------
// A deliberately naive reference interpreter: executes one instruction
// per step, flat memory, no pipeline/caches/bus. Written independently
// of cpu.cpp so bugs do not cancel out.
class ReferenceIss {
 public:
  std::array<u32, 16> d{};
  std::array<u32, 16> a{};
  Addr pc = 0;
  bool halted = false;

  // Flat views of the memories the generated programs touch.
  std::vector<u8> dspr = std::vector<u8>(64 * 1024, 0);
  std::vector<u8> flash = std::vector<u8>(512 * 1024, 0);
  std::vector<u8> lmu = std::vector<u8>(64 * 1024, 0);

  u32 load(Addr addr, unsigned bytes) {
    u8* base = backing(addr);
    if (base == nullptr) return 0;
    u32 v = 0;
    for (unsigned i = 0; i < bytes; ++i) v |= u32{base[i]} << (8 * i);
    return v;
  }
  void store(Addr addr, u32 value, unsigned bytes) {
    u8* base = backing(addr);
    if (base == nullptr) return;
    for (unsigned i = 0; i < bytes; ++i) {
      base[i] = static_cast<u8>(value >> (8 * i));
    }
  }

  void step() {
    const u32 word = load(pc, 4);
    const auto decoded = isa::decode(word);
    if (!decoded.is_ok()) {
      halted = true;
      return;
    }
    const isa::Instr in = decoded.value();
    const Addr next = pc + 4;
    const Addr target = next + static_cast<Addr>(in.imm * 4);
    pc = next;
    using enum isa::Opcode;
    switch (in.opcode) {
      case kNop: break;
      case kHalt: halted = true; break;
      case kAdd: d[in.rd] = d[in.ra] + d[in.rb]; break;
      case kSub: d[in.rd] = d[in.ra] - d[in.rb]; break;
      case kAnd: d[in.rd] = d[in.ra] & d[in.rb]; break;
      case kOr: d[in.rd] = d[in.ra] | d[in.rb]; break;
      case kXor: d[in.rd] = d[in.ra] ^ d[in.rb]; break;
      case kShl: d[in.rd] = d[in.ra] << (d[in.rb] & 31); break;
      case kShr: d[in.rd] = d[in.ra] >> (d[in.rb] & 31); break;
      case kSar:
        d[in.rd] = static_cast<u32>(static_cast<i32>(d[in.ra]) >>
                                    (d[in.rb] & 31));
        break;
      case kMul: d[in.rd] = d[in.ra] * d[in.rb]; break;
      case kMac: d[in.rd] += d[in.ra] * d[in.rb]; break;
      case kDiv: {
        const i32 den = static_cast<i32>(d[in.rb]);
        if (den == 0) {
          d[in.rd] = 0xFFFFFFFF;
        } else if (den == -1) {
          d[in.rd] = 0u - d[in.ra];
        } else {
          d[in.rd] = static_cast<u32>(static_cast<i32>(d[in.ra]) / den);
        }
        break;
      }
      case kMin:
        d[in.rd] = static_cast<i32>(d[in.ra]) < static_cast<i32>(d[in.rb])
                       ? d[in.ra] : d[in.rb];
        break;
      case kMax:
        d[in.rd] = static_cast<i32>(d[in.ra]) > static_cast<i32>(d[in.rb])
                       ? d[in.ra] : d[in.rb];
        break;
      case kAbs: {
        const i32 v = static_cast<i32>(d[in.ra]);
        d[in.rd] = static_cast<u32>(v < 0 ? -v : v);
        break;
      }
      case kAddi: d[in.rd] = d[in.ra] + static_cast<u32>(in.imm); break;
      case kAndi: d[in.rd] = d[in.ra] & (static_cast<u32>(in.imm) & 0xFFFF); break;
      case kOri: d[in.rd] = d[in.ra] | (static_cast<u32>(in.imm) & 0xFFFF); break;
      case kXori: d[in.rd] = d[in.ra] ^ (static_cast<u32>(in.imm) & 0xFFFF); break;
      case kShli: d[in.rd] = d[in.ra] << (in.imm & 31); break;
      case kShri: d[in.rd] = d[in.ra] >> (in.imm & 31); break;
      case kSari:
        d[in.rd] = static_cast<u32>(static_cast<i32>(d[in.ra]) >> (in.imm & 31));
        break;
      case kMovd: d[in.rd] = static_cast<u32>(in.imm); break;
      case kMovh: d[in.rd] = (static_cast<u32>(in.imm) & 0xFFFF) << 16; break;
      case kMovDA: d[in.rd] = a[in.ra]; break;
      case kMovAD: a[in.rd] = d[in.ra]; break;
      case kMovA: a[in.rd] = a[in.ra]; break;
      case kMovha: a[in.rd] = (static_cast<u32>(in.imm) & 0xFFFF) << 16; break;
      case kLea: a[in.rd] = a[in.ra] + static_cast<u32>(in.imm); break;
      case kAdda: a[in.rd] = a[in.ra] + a[in.rb]; break;
      case kLdW: d[in.rd] = load(a[in.ra] + static_cast<Addr>(in.imm), 4); break;
      case kLdH: {
        const u32 raw = load(a[in.ra] + static_cast<Addr>(in.imm), 2);
        d[in.rd] = static_cast<u32>(static_cast<i32>(static_cast<i16>(raw)));
        break;
      }
      case kLdB: {
        const u32 raw = load(a[in.ra] + static_cast<Addr>(in.imm), 1);
        d[in.rd] = static_cast<u32>(static_cast<i32>(static_cast<i8>(raw)));
        break;
      }
      case kLdA: a[in.rd] = load(a[in.ra] + static_cast<Addr>(in.imm), 4); break;
      case kStW: store(a[in.ra] + static_cast<Addr>(in.imm), d[in.rd], 4); break;
      case kStH: store(a[in.ra] + static_cast<Addr>(in.imm), d[in.rd], 2); break;
      case kStB: store(a[in.ra] + static_cast<Addr>(in.imm), d[in.rd], 1); break;
      case kStA: store(a[in.ra] + static_cast<Addr>(in.imm), a[in.rd], 4); break;
      case kJ: pc = target; break;
      case kJi: pc = a[in.ra]; break;
      case kCall: a[11] = next; pc = target; break;
      case kCalli: a[11] = next; pc = a[in.ra]; break;
      case kRet: pc = a[11]; break;
      case kJeq: if (d[in.rd] == d[in.ra]) pc = target; break;
      case kJne: if (d[in.rd] != d[in.ra]) pc = target; break;
      case kJlt:
        if (static_cast<i32>(d[in.rd]) < static_cast<i32>(d[in.ra])) pc = target;
        break;
      case kJge:
        if (static_cast<i32>(d[in.rd]) >= static_cast<i32>(d[in.ra])) pc = target;
        break;
      case kJltu: if (d[in.rd] < d[in.ra]) pc = target; break;
      case kJgeu: if (d[in.rd] >= d[in.ra]) pc = target; break;
      case kJz: if (d[in.rd] == 0) pc = target; break;
      case kJnz: if (d[in.rd] != 0) pc = target; break;
      case kLoop:
        a[in.rd] -= 1;
        if (a[in.rd] != 0) pc = target;
        break;
      default:
        // SYS instructions not generated by the random generator.
        break;
    }
  }

 private:
  u8* backing(Addr addr) {
    if (addr >= mem::kDsprBase && addr - mem::kDsprBase + 4 <= dspr.size()) {
      return dspr.data() + (addr - mem::kDsprBase);
    }
    if (mem::is_pflash(addr, static_cast<u32>(flash.size()))) {
      const u32 offset = mem::pflash_offset(addr);
      if (offset + 4 <= flash.size()) return flash.data() + offset;
    }
    if (addr >= mem::kLmuBase && addr - mem::kLmuBase + 4 <= lmu.size()) {
      return lmu.data() + (addr - mem::kLmuBase);
    }
    return nullptr;
  }
};

// ---------------------------------------------------------------------
// Random program generation: straight-line blocks of ALU + scratchpad
// memory ops with occasional bounded loops, terminated by HALT. Three
// variants mix more into the blocks:
//   * kFlashLoads: some memory ops become loads through the uncached
//     flash alias (a7), bus loads that end a fast window mid-group and
//     leave a live fetch queue behind them;
//   * kControlFlow: forward branches over 1-3 ops for every compare
//     opcode, forward `j` and `ji`, `call` and `calli` to a leaf
//     subroutine placed after the HALT, and the address-register ops
//     mov.a, lea, adda, ld.a and st.a;
//   * kBusLoads: every memory op goes over the bus: LMU loads and stores
//     through a7, or cached-flash loads through a8 anywhere in a 16 KiB
//     data section, so the 4 KiB D-cache misses, hits and evicts.
// The variants other than kBusLoads draw exactly the random numbers they
// always drew, so their programs never change.
enum class Variant { kDefault, kFlashLoads, kControlFlow, kBusLoads };

/// Base of the bus-load variant's flash data section (cached alias).
constexpr Addr kBusLoadData = 0x80010000;
constexpr u32 kBusLoadDataBytes = 16 * 1024;

isa::Program random_program(u64 seed, Variant variant = Variant::kDefault) {
  const bool flash_loads = variant == Variant::kFlashLoads;
  const bool control_flow = variant == Variant::kControlFlow;
  const bool bus_loads = variant == Variant::kBusLoads;
  Prng prng(seed);
  std::vector<isa::Instr> body;

  auto alu = [&]() {
    static constexpr isa::Opcode kAluOps[] = {
        isa::Opcode::kAdd,  isa::Opcode::kSub,  isa::Opcode::kAnd,
        isa::Opcode::kOr,   isa::Opcode::kXor,  isa::Opcode::kShl,
        isa::Opcode::kShr,  isa::Opcode::kSar,  isa::Opcode::kMul,
        isa::Opcode::kMac,  isa::Opcode::kDiv,  isa::Opcode::kMin,
        isa::Opcode::kMax,  isa::Opcode::kAddi, isa::Opcode::kAndi,
        isa::Opcode::kOri,  isa::Opcode::kXori, isa::Opcode::kShli,
        isa::Opcode::kShri, isa::Opcode::kSari, isa::Opcode::kMovd,
        isa::Opcode::kMovh, isa::Opcode::kAbs,  isa::Opcode::kMovDA,
    };
    isa::Instr in;
    in.opcode = kAluOps[prng.next_below(std::size(kAluOps))];
    in.rd = static_cast<u8>(prng.next_below(16));
    in.ra = static_cast<u8>(prng.next_below(16));
    if (isa::op_info(in.opcode).uses_rb) {
      in.rb = static_cast<u8>(prng.next_below(16));
    } else {
      in.imm = static_cast<i32>(prng.next_range(-32768, 32767));
    }
    return in;
  };

  // Setup: a2 points at the DSPR, a3..a6 at offsets inside it.
  auto emit_movha = [&](u8 areg, u16 hi) {
    isa::Instr in;
    in.opcode = isa::Opcode::kMovha;
    in.rd = areg;
    in.imm = hi;
    body.push_back(in);
  };
  for (u8 r = 2; r <= 6; ++r) emit_movha(r, 0xC000);
  if (flash_loads) emit_movha(7, 0xA000);
  if (bus_loads) {
    emit_movha(7, static_cast<u16>(mem::kLmuBase >> 16));
    emit_movha(8, static_cast<u16>(kBusLoadData >> 16));
  }

  // Control-flow variant. Its address-register ops write only registers
  // that neither the DSPR bases (a2..a6), the flash base (a7), the loop
  // counter (a9) nor the return address (a11) use; a15 holds computed
  // jump targets. Call sites are patched once the leaf's place is known.
  static constexpr u8 kFreeA[] = {0, 1, 8, 10, 12, 13, 14};
  auto free_a = [&] { return kFreeA[prng.next_below(std::size(kFreeA))]; };
  auto any_reg = [&] { return static_cast<u8>(prng.next_below(16)); };
  auto skip_block = [&](unsigned n) {
    for (unsigned k = 0; k < n; ++k) body.push_back(alu());
  };
  auto emit_target = [&] {  // a15 = text base; the lea adds the offset
    emit_movha(15, 0x8000);
    body.push_back(isa::Instr{isa::Opcode::kLea, 15, 15, 0, 0});
    return body.size() - 1;
  };
  std::vector<usize> call_sites;
  std::vector<usize> calli_leas;
  auto control_op = [&] {
    using enum isa::Opcode;
    const u64 pick = prng.next_below(10);
    if (pick < 4) {
      static constexpr isa::Opcode kCompareOps[] = {
          kJeq, kJne, kJlt, kJge, kJltu, kJgeu, kJz, kJnz,
      };
      const isa::Opcode op =
          kCompareOps[prng.next_below(std::size(kCompareOps))];
      const u8 rd = any_reg();
      const u8 ra = prng.chance(0.25) ? rd : any_reg();
      if (prng.chance(0.5)) {
        // Small operands make equal, negative and zero operands common.
        body.push_back(isa::Instr{kMovd, rd, 0, 0,
                                  static_cast<i32>(prng.next_range(-2, 2))});
        body.push_back(isa::Instr{kMovd, ra, 0, 0,
                                  static_cast<i32>(prng.next_range(-2, 2))});
      }
      const unsigned skip = 1 + static_cast<unsigned>(prng.next_below(3));
      const bool unary = op == kJz || op == kJnz;
      body.push_back(isa::Instr{op, rd, unary ? u8{0} : ra, 0,
                                static_cast<i32>(skip)});
      skip_block(skip);
    } else if (pick == 4) {
      const unsigned skip = 1 + static_cast<unsigned>(prng.next_below(3));
      body.push_back(isa::Instr{kJ, 0, 0, 0, static_cast<i32>(skip)});
      skip_block(skip);
    } else if (pick == 5) {
      call_sites.push_back(body.size());
      body.push_back(isa::Instr{kCall, 0, 0, 0, 0});
    } else if (pick == 6) {
      calli_leas.push_back(emit_target());
      body.push_back(isa::Instr{kCalli, 0, 15, 0, 0});
    } else if (pick == 7) {
      const usize lea = emit_target();
      body.push_back(isa::Instr{kJi, 0, 15, 0, 0});
      skip_block(1 + static_cast<unsigned>(prng.next_below(4)));
      body[lea].imm = static_cast<i32>(body.size() * isa::kInstrBytes);
    } else {
      isa::Instr in;
      switch (prng.next_below(6)) {
        case 0: in = {kMovAD, free_a(), any_reg(), 0, 0}; break;
        case 1: in = {kMovA, free_a(), any_reg(), 0, 0}; break;
        case 2:
          in = {kLea, free_a(), any_reg(), 0,
                static_cast<i32>(prng.next_range(-32768, 32767))};
          break;
        case 3: in = {kAdda, free_a(), any_reg(), any_reg(), 0}; break;
        case 4: in = {kLdA, free_a(), 0, 0, 0}; break;
        default: in = {kStA, any_reg(), 0, 0, 0}; break;
      }
      if (in.opcode == kLdA || in.opcode == kStA) {
        in.ra = static_cast<u8>(2 + prng.next_below(5));  // a2..a6
        in.imm = static_cast<i32>(prng.next_below(1024)) & ~3;
      }
      body.push_back(in);
    }
  };

  const unsigned blocks = 3 + static_cast<unsigned>(prng.next_below(4));
  for (unsigned b = 0; b < blocks; ++b) {
    const unsigned len = 8 + static_cast<unsigned>(prng.next_below(24));
    for (unsigned i = 0; i < len; ++i) {
      if (control_flow && prng.chance(0.3)) {
        control_op();
        continue;
      }
      static constexpr isa::Opcode kLoadOps[] = {
          isa::Opcode::kLdW, isa::Opcode::kLdH, isa::Opcode::kLdB,
      };
      static constexpr isa::Opcode kMemOps[] = {
          isa::Opcode::kLdW, isa::Opcode::kLdH, isa::Opcode::kLdB,
          isa::Opcode::kStW, isa::Opcode::kStH, isa::Opcode::kStB,
      };
      const u64 pick = prng.next_below(10);
      if (pick < 6) {
        body.push_back(alu());
      } else if (bus_loads) {
        isa::Instr in;
        if (prng.chance(0.5)) {
          in.opcode = kMemOps[prng.next_below(std::size(kMemOps))];
          in.ra = 7;  // the LMU
          in.imm = static_cast<i32>(prng.next_below(1024)) & ~3;
        } else {
          in.opcode = kLoadOps[prng.next_below(std::size(kLoadOps))];
          in.ra = 8;  // the flash data section, cached
          in.imm = static_cast<i32>(prng.next_below(kBusLoadDataBytes)) & ~3;
        }
        in.rd = static_cast<u8>(prng.next_below(16));
        body.push_back(in);
      } else if (flash_loads && prng.chance(0.4)) {
        // Uncached-flash load of a word of the program image.
        isa::Instr in;
        in.opcode = kLoadOps[prng.next_below(std::size(kLoadOps))];
        in.rd = static_cast<u8>(prng.next_below(16));
        in.ra = 7;
        in.imm = static_cast<i32>(prng.next_below(512)) & ~3;
        body.push_back(in);
      } else {
        // Scratchpad load/store with a safe base register and offset.
        isa::Instr in;
        in.opcode = kMemOps[prng.next_below(std::size(kMemOps))];
        in.rd = static_cast<u8>(prng.next_below(16));
        in.ra = static_cast<u8>(2 + prng.next_below(5));  // a2..a6
        in.imm = static_cast<i32>(prng.next_below(1024)) & ~3;
        body.push_back(in);
      }
    }
    // A bounded countdown loop over the last few instructions.
    if (prng.chance(0.6)) {
      isa::Instr init;
      init.opcode = isa::Opcode::kMovd;
      init.rd = 14;
      init.imm = static_cast<i32>(2 + prng.next_below(6));
      body.push_back(init);
      isa::Instr mov;
      mov.opcode = isa::Opcode::kMovAD;
      mov.rd = 9;
      mov.ra = 14;
      body.push_back(mov);
      isa::Instr work = alu();
      body.push_back(work);
      isa::Instr loop;
      loop.opcode = isa::Opcode::kLoop;
      loop.rd = 9;
      loop.imm = -2;  // back to `work`
      body.push_back(loop);
    }
  }
  body.push_back(isa::Instr{isa::Opcode::kHalt, 0, 0, 0, 0});
  if (control_flow) {
    // The leaf subroutine every call and calli enters.
    const usize leaf = body.size();
    for (const usize at : call_sites) {
      body[at].imm = static_cast<i32>(leaf - (at + 1));
    }
    for (const usize at : calli_leas) {
      body[at].imm = static_cast<i32>(leaf * isa::kInstrBytes);
    }
    skip_block(1 + static_cast<unsigned>(prng.next_below(3)));
    body.push_back(isa::Instr{isa::Opcode::kRet, 0, 0, 0, 0});
  }

  isa::Section text;
  text.name = ".text";
  text.base = 0x80000000;
  for (const isa::Instr& in : body) {
    const u32 word = isa::encode(in);
    for (int i = 0; i < 4; ++i) {
      text.bytes.push_back(static_cast<u8>(word >> (8 * i)));
    }
  }
  isa::Program program;
  program.set_entry(text.base);
  program.add_section(std::move(text));
  if (bus_loads) {
    // Its own generator, so the section adds no draws to the program's.
    Prng data_prng(~seed);
    isa::Section data;
    data.name = ".data";
    data.base = kBusLoadData;
    for (u32 i = 0; i < kBusLoadDataBytes; ++i) {
      data.bytes.push_back(static_cast<u8>(data_prng.next_u32()));
    }
    program.add_section(std::move(data));
  }
  return program;
}

class CpuVsReference : public ::testing::TestWithParam<u64> {};

void expect_matches_reference(const isa::Program& program, u64 seed) {
  // Pipelined model on the full SoC.
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program).is_ok());
  soc.reset(program.entry());
  soc.run(2'000'000);
  ASSERT_TRUE(soc.tc().halted()) << "seed " << seed;

  // Reference interpreter.
  ReferenceIss iss;
  for (const isa::Section& sec : program.sections()) {
    for (usize i = 0; i < sec.bytes.size(); ++i) {
      iss.flash[mem::pflash_offset(sec.base) + i] = sec.bytes[i];
    }
  }
  iss.pc = program.entry();
  for (u64 steps = 0; !iss.halted && steps < 1'000'000; ++steps) iss.step();
  ASSERT_TRUE(iss.halted) << "seed " << seed;

  for (unsigned r = 0; r < 16; ++r) {
    EXPECT_EQ(soc.tc().d(r), iss.d[r]) << "d" << r << " seed " << seed;
    EXPECT_EQ(soc.tc().a(r), iss.a[r]) << "a" << r << " seed " << seed;
  }
  // Scratchpad and LMU contents must match too.
  const auto expect_same = [seed](const mem::MemArray& model,
                                  const std::vector<u8>& ref,
                                  const char* name) {
    for (usize i = 0; i < ref.size(); i += 4) {
      u32 word = 0;
      for (int b = 0; b < 4; ++b) word |= u32{ref[i + b]} << (8 * b);
      ASSERT_EQ(model.read32(i), word) << name << "+" << i << " seed " << seed;
    }
  };
  expect_same(soc.dspr().array(), iss.dspr, "dspr");
  expect_same(soc.lmu().array(), iss.lmu, "lmu");
}

TEST_P(CpuVsReference, ArchitecturalStateMatches) {
  expect_matches_reference(random_program(GetParam()), GetParam());
}

TEST_P(CpuVsReference, ArchitecturalStateMatchesWithFlashLoads) {
  expect_matches_reference(random_program(GetParam(), Variant::kFlashLoads),
                           GetParam());
}

TEST_P(CpuVsReference, ArchitecturalStateMatchesWithControlFlow) {
  expect_matches_reference(random_program(GetParam(), Variant::kControlFlow),
                           GetParam());
}

TEST_P(CpuVsReference, ArchitecturalStateMatchesWithBusLoads) {
  expect_matches_reference(random_program(GetParam(), Variant::kBusLoads),
                           GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, CpuVsReference,
                         ::testing::Range<u64>(1, 41));

// ---------------------------------------------------------------------
// Execution-tier identity on generated programs: the superblock tier
// publishes the same frame stream as the accurate stepper, cycle for
// cycle, including around the bus loads of the flash-load variant, the
// calls and jumps of the control-flow variant, and the LMU loads and
// D-cache refills of the bus-load variant.
struct TierRun {
  u64 cycles = 0;
  u64 retired = 0;
  u64 frames = 0;
  u64 frame_hash = 0;
};

TierRun run_on_tier(const isa::Program& program,
                    soc::SocConfig::ExecTier tier) {
  soc::SocConfig config = test::small_config();
  config.exec_tier = tier;
  soc::Soc soc(config);
  soc::FrameStreamHasher hasher;
  soc.set_frame_observer(&hasher);
  EXPECT_TRUE(soc.load(program).is_ok());
  soc.reset(program.entry());
  soc.run(2'000'000);
  EXPECT_TRUE(soc.tc().halted());
  return TierRun{soc.cycle(), soc.tc().retired(), hasher.frames, hasher.hash};
}

class TierIdentity : public ::testing::TestWithParam<u64> {};

TEST_P(TierIdentity, GeneratedProgramsMatchAcrossTiers) {
  using ExecTier = soc::SocConfig::ExecTier;
  const struct {
    Variant variant;
    const char* name;
  } variants[] = {
      {Variant::kDefault, "default variant"},
      {Variant::kFlashLoads, "flash-load variant"},
      {Variant::kControlFlow, "control-flow variant"},
      {Variant::kBusLoads, "bus-load variant"},
  };
  for (const auto& [variant, name] : variants) {
    SCOPED_TRACE(name);
    const isa::Program program = random_program(GetParam(), variant);
    const TierRun accurate = run_on_tier(program, ExecTier::kAccurate);
    const TierRun fast = run_on_tier(program, ExecTier::kSuperblock);
    EXPECT_EQ(fast.cycles, accurate.cycles);
    EXPECT_EQ(fast.retired, accurate.retired);
    EXPECT_EQ(fast.frames, accurate.frames);
    EXPECT_EQ(fast.frame_hash, accurate.frame_hash);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, TierIdentity,
                         ::testing::Range<u64>(1, 41));

// ---------------------------------------------------------------------
// Flow-trace reconstruction property: replaying the decoded flow trace
// through the program image must reproduce the retired instruction count.
TEST(TraceReconstruction, FlowTraceInstructionCountsAreConsistent) {
  for (u64 seed : {7ull, 19ull, 23ull}) {
    const isa::Program program = random_program(seed);
    mcds::McdsConfig cfg;
    cfg.program_trace = true;
    cfg.sync_interval_cycles = 256;
    ed::EmulationDevice ed(test::small_config(), cfg, ed::EdConfig{});
    ASSERT_TRUE(ed.load(program).is_ok());
    ed.reset(program.entry());
    ed.run(2'000'000);
    ASSERT_TRUE(ed.soc().tc().halted());
    auto decoded = ed.download_trace();
    ASSERT_TRUE(decoded.is_ok());
    u64 traced = 0;
    for (const auto& m : decoded.value()) {
      if (m.source != mcds::MsgSource::kTcCore) continue;
      if (m.kind == mcds::MsgKind::kFlow || m.kind == mcds::MsgKind::kSync) {
        traced += m.instr_count;
      }
    }
    EXPECT_LE(traced, ed.soc().tc().retired());
    EXPECT_GE(traced + 300, ed.soc().tc().retired()) << "seed " << seed;
  }
}

// Determinism under full observation, across MCDS configurations.
TEST(ObservationInvariance, AnyMcdsConfigYieldsSameExecution) {
  const isa::Program program = random_program(12345);
  u64 reference_cycles = 0;
  std::array<u32, 16> reference_d{};
  {
    soc::Soc soc(test::small_config());
    ASSERT_TRUE(soc.load(program).is_ok());
    soc.reset(program.entry());
    soc.run(2'000'000);
    reference_cycles = soc.cycle();
    for (unsigned r = 0; r < 16; ++r) reference_d[r] = soc.tc().d(r);
  }
  for (int variant = 0; variant < 4; ++variant) {
    mcds::McdsConfig cfg;
    cfg.program_trace = variant & 1;
    cfg.data_trace = variant & 2;
    cfg.cycle_accurate = variant == 3;
    cfg.counter_groups = profiling::standard_groups(100);
    ed::EdConfig ed_cfg;
    ed_cfg.emem.size_bytes = 16 * 1024;  // will overflow: still invariant
    ed_cfg.emem.overlay_bytes = 0;
    ed::EmulationDevice ed(test::small_config(), cfg, ed_cfg);
    ASSERT_TRUE(ed.load(program).is_ok());
    ed.reset(program.entry());
    ed.run(2'000'000);
    EXPECT_EQ(ed.soc().cycle(), reference_cycles) << "variant " << variant;
    for (unsigned r = 0; r < 16; ++r) {
      EXPECT_EQ(ed.soc().tc().d(r), reference_d[r]);
    }
  }
}

}  // namespace
}  // namespace audo
