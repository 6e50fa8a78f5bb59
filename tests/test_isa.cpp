// Unit tests for the TRC ISA: encode/decode round trips, the assembler
// (directives, labels, expressions, errors) and the symbol map.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "isa/core_regs.hpp"
#include "isa/isa.hpp"
#include "isa/program.hpp"

namespace audo::isa {
namespace {

TEST(OpInfo, TableIsConsistent) {
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const OpInfo& info = op_info(op);
    EXPECT_NE(info.mnemonic, nullptr);
    EXPECT_GE(info.result_latency, 1);
    // The mnemonic maps back to the same opcode.
    const auto back = opcode_from_mnemonic(info.mnemonic);
    ASSERT_TRUE(back.has_value()) << info.mnemonic;
    EXPECT_EQ(*back, op);
  }
}

class EncodeDecodeRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(EncodeDecodeRoundTrip, AllFieldPatterns) {
  const auto op = static_cast<Opcode>(GetParam());
  const OpInfo& info = op_info(op);
  for (const i32 imm : {0, 1, -1, 42, -42, 32767, -32768}) {
    Instr in;
    in.opcode = op;
    in.rd = 5;
    in.ra = 10;
    if (info.uses_rb) {
      in.rb = 15;
      in.imm = 0;
    } else {
      in.imm = imm;
    }
    const u32 word = encode(in);
    const auto out = decode(word);
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), in) << info.mnemonic << " imm=" << imm;
    if (info.uses_rb) break;  // imm irrelevant
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeDecodeRoundTrip,
                         ::testing::Range(0u, kNumOpcodes));

TEST(Decode, RejectsUnknownOpcode) {
  const u32 bad = 0xFFu << 24;
  EXPECT_FALSE(decode(bad).is_ok());
}

TEST(Format, KnownShapes) {
  Instr add{Opcode::kAdd, 1, 2, 3, 0};
  EXPECT_EQ(format_instr(add), "add d1, d2, d3");
  Instr ld{Opcode::kLdW, 4, 2, 0, 8};
  EXPECT_EQ(format_instr(ld), "ld.w d4, [a2+8]");
  Instr st{Opcode::kStB, 4, 2, 0, -3};
  EXPECT_EQ(format_instr(st), "st.b d4, [a2-3]");
  Instr loop{Opcode::kLoop, 3, 0, 0, -5};
  EXPECT_EQ(format_instr(loop), "loop a3, -5");
}

// ---------------------------------------------------------------------
// Assembler.

TEST(Assembler, MinimalProgram) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    movd  d0, 7
    addi  d0, d0, 1
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const Program& p = prog.value();
  EXPECT_EQ(p.entry(), 0x80000000u);
  ASSERT_EQ(p.sections().size(), 1u);
  EXPECT_EQ(p.sections()[0].bytes.size(), 12u);
  // Decode the first instruction back.
  u32 w = 0;
  for (int i = 0; i < 4; ++i) w |= p.sections()[0].bytes[i] << (8 * i);
  const auto in = decode(w);
  ASSERT_TRUE(in.is_ok());
  EXPECT_EQ(in.value().opcode, Opcode::kMovd);
  EXPECT_EQ(in.value().imm, 7);
}

TEST(Assembler, LabelsAndBranches) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    movd d0, 3
loop_top:
    addi d0, d0, -1
    jnz  d0, loop_top
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const Program& p = prog.value();
  // jnz at offset 8, target at offset 4 -> disp = (4 - 12)/4 = -2.
  u32 w = 0;
  for (int i = 0; i < 4; ++i) w |= p.sections()[0].bytes[8 + i] << (8 * i);
  const auto in = decode(w);
  ASSERT_TRUE(in.is_ok());
  EXPECT_EQ(in.value().opcode, Opcode::kJnz);
  EXPECT_EQ(in.value().imm, -2);
}

TEST(Assembler, DataDirectivesAndSymbols) {
  auto prog = assemble(R"(
    .equ BASE, 0xC0000000
    .text 0x80000000
main:
    movh d1, hi(table)
    ori  d1, d1, lo(table)
    halt
    .data BASE
var1:
    .word 0x11223344
    .half 0x5566
    .byte 0x77
    .align 8
table:
    .word 1, 2, 3
    .space 8
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const Program& p = prog.value();
  auto table = p.symbol_addr("table");
  ASSERT_TRUE(table.is_ok());
  EXPECT_EQ(table.value(), 0xC0000008u);  // 4+2+1 aligned up to 8
  const Section& data = p.sections()[1];
  EXPECT_EQ(data.bytes[0], 0x44);
  EXPECT_EQ(data.bytes[3], 0x11);
  EXPECT_EQ(data.bytes[4], 0x66);
  EXPECT_EQ(data.bytes[6], 0x77);
  EXPECT_EQ(data.bytes[7], 0x00);  // align padding
  EXPECT_EQ(data.bytes[8], 1);
  EXPECT_EQ(data.bytes.size(), 8u + 12u + 8u);
}

TEST(Assembler, HiLoHia) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    movh  d0, hi(0x8004A123)
    ori   d0, d0, lo(0x8004A123)
    movha a2, hia(0x8004A123)
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const auto& bytes = prog.value().sections()[0].bytes;
  auto word_at = [&](usize i) {
    u32 w = 0;
    for (int b = 0; b < 4; ++b) w |= bytes[i * 4 + b] << (8 * b);
    return decode(w).value();
  };
  EXPECT_EQ(word_at(0).imm, 0x8004 - 0x10000);  // movh stores raw low 16 sign-extended
  EXPECT_EQ(static_cast<u16>(word_at(1).imm), 0xA123);
  // hia rounds up because bit 15 of the low half is set.
  EXPECT_EQ(static_cast<u16>(word_at(2).imm), 0x8005);
}

TEST(Assembler, ForwardReferences) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    j     end
    nop
end:
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
}

TEST(Assembler, MemoryOperandForms) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    ld.w d1, [a2]
    ld.w d1, [a2+4]
    ld.w d1, [a2-4]
    st.a a3, [a2+0x10]
    lea  a4, [a5+lo(0x12348)]
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
}

TEST(Assembler, CoreRegisterNames) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    mfcr d0, icr
    mtcr biv, d0
    mfcr d1, ccnt_lo
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const auto& bytes = prog.value().sections()[0].bytes;
  u32 w = 0;
  for (int b = 0; b < 4; ++b) w |= bytes[b] << (8 * b);
  EXPECT_EQ(decode(w).value().imm,
            static_cast<i32>(isa::CoreReg::kIcr));
}

struct AsmError {
  const char* source;
  const char* why;
};

// Print a case as its reason. The default printer dumps the two pointers'
// bytes, which differ on every load, so test names would never repeat.
void PrintTo(const AsmError& e, std::ostream* os) { *os << e.why; }

class AssemblerErrors : public ::testing::TestWithParam<AsmError> {};

TEST_P(AssemblerErrors, Rejected) {
  auto prog = assemble(GetParam().source);
  EXPECT_FALSE(prog.is_ok()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerErrors,
    ::testing::Values(
        AsmError{"    movd d0, 1\n", "instruction before section"},
        AsmError{"    .text 0x0\n    bogus d0\n", "unknown mnemonic"},
        AsmError{"    .text 0x0\n    movd a0, 1\n    halt\n",
                 "a-reg where d-reg required"},
        AsmError{"    .text 0x0\n    movd d0\n", "missing operand"},
        AsmError{"    .text 0x0\n    movd d0, 1, 2\n", "extra operand"},
        AsmError{"    .text 0x0\n    j nowhere\n", "undefined symbol"},
        AsmError{"    .text 0x0\nx:\nx:\n    halt\n", "duplicate label"},
        AsmError{"    .text 0x0\n    movd d0, 0x12345\n",
                 "immediate out of range"},
        AsmError{"    .text 0x0\n    ld.w d0, [d1+0]\n",
                 "d-reg as memory base"},
        AsmError{"    .text 0x0\n    .align 3\n", "non-pow2 align"},
        AsmError{"    .text 0x0\n    .word foo\n", "undefined data symbol"},
        AsmError{"    .text 0x0\n    movd d0, 36893488147419103233\n",
                 "decimal literal wider than 64 bits"},
        AsmError{"    .text 0x0\n    .word 0x10000000000000005\n",
                 "hex literal wider than 64 bits"},
        AsmError{"    .text 0x0\n"
                 "    movd d0, 0x7FFFFFFFFFFFFFFF + 0x7FFFFFFFFFFFFFFF + 3\n",
                 "sum wider than 64 bits"}));

TEST(Assembler, ExpressionNestingIsBounded) {
  const auto movd = [](const std::string& expr) {
    return assemble("    .text 0x0\n    movd d0, " + expr + "\n    halt\n");
  };
  const auto nested = [](unsigned depth, std::string_view atom) {
    return std::string(depth, '(') + std::string(atom) + std::string(depth, ')');
  };
  // The parser recurses once per unary sign or '('.
  for (const std::string& deep :
       {std::string(1'000, '-') + "1", nested(1'000, "1")}) {
    auto prog = movd(deep);
    ASSERT_FALSE(prog.is_ok());
    EXPECT_EQ(prog.status().code(), StatusCode::kParseError);
    EXPECT_NE(prog.status().message().find("nested too deeply"),
              std::string::npos)
        << prog.status().message();
  }
  for (const auto& [expr, want] :
       {std::pair{std::string(32, '-') + "5", 5},
        std::pair{nested(32, "7"), 7},
        std::pair{nested(16, std::string(16, '-') + "lo(9)"), 9}}) {
    auto prog = movd(expr);
    ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
    const auto& bytes = prog.value().sections()[0].bytes;
    u32 w = 0;
    for (int b = 0; b < 4; ++b) w |= bytes[b] << (8 * b);
    EXPECT_EQ(decode(w).value().imm, want);
  }
}

TEST(Assembler, ErrorsMentionLineNumbers) {
  auto prog = assemble("    .text 0x0\n    nop\n    frobnicate\n");
  ASSERT_FALSE(prog.is_ok());
  EXPECT_NE(prog.status().message().find("line 3"), std::string::npos)
      << prog.status().message();
}

TEST(Assembler, ErrorsQuoteTheOffendingSourceText) {
  auto prog = assemble("    .text 0x0\n    nop\n    frobnicate d9, [q0]\n");
  ASSERT_FALSE(prog.is_ok());
  const std::string msg = prog.status().message();
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  // The raw offending line rides along after the description.
  EXPECT_NE(msg.find("frobnicate d9, [q0]"), std::string::npos) << msg;
}

TEST(Assembler, OperandErrorsQuoteTheirLineToo) {
  auto prog = assemble("    .text 0x0\n    movd d0, 0x99999\n    halt\n");
  ASSERT_FALSE(prog.is_ok());
  const std::string msg = prog.status().message();
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("movd d0, 0x99999"), std::string::npos) << msg;
}


TEST(Assembler, ExpressionEdgeCases) {
  auto prog = assemble(R"(
    .equ A, 10
    .equ B, A + 5
    .equ C, (B - 3) + (2)
    .text 0x80000000
main:
    movd d0, C             ; 14
    movd d1, -A            ; -10
    movd d2, +7            ; unary plus
    movd d3, hia(0x12347FFF) ; no round-up (bit 15 clear)
    movd d4, hia(0x12348000) ; round-up
    halt
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const auto& bytes = prog.value().sections()[0].bytes;
  auto imm_at = [&](usize i) {
    u32 w = 0;
    for (int b = 0; b < 4; ++b) w |= bytes[i * 4 + b] << (8 * b);
    return decode(w).value().imm;
  };
  EXPECT_EQ(imm_at(0), 14);
  EXPECT_EQ(imm_at(1), -10);
  EXPECT_EQ(imm_at(2), 7);
  EXPECT_EQ(imm_at(3), 0x1234);
  EXPECT_EQ(imm_at(4), 0x1235);
}

TEST(Assembler, DotIsCurrentAddress) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    j .            ; infinite loop: branch to itself
)");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  u32 w = 0;
  for (int b = 0; b < 4; ++b) w |= prog.value().sections()[0].bytes[b] << (8 * b);
  EXPECT_EQ(decode(w).value().imm, -1);  // disp to self
}

TEST(Assembler, MultipleLabelsOnOneLine) {
  auto prog = assemble(R"(
    .text 0x80000000
a: b: c:
    halt
)");
  ASSERT_TRUE(prog.is_ok());
  EXPECT_EQ(prog.value().symbol_addr("a").value(),
            prog.value().symbol_addr("c").value());
}

// ---------------------------------------------------------------------
// Symbol map.

TEST(SymbolMap, FunctionAndDataRanges) {
  auto prog = assemble(R"(
    .text 0x80000000
main:
    nop
    nop
helper:
    nop
    halt
    .data 0xC0000000
tbl_a:
    .word 1, 2
tbl_b:
    .space 16
)");
  ASSERT_TRUE(prog.is_ok());
  SymbolMap map(prog.value());
  EXPECT_EQ(map.function_at(0x80000000), "main");
  EXPECT_EQ(map.function_at(0x80000004), "main");
  EXPECT_EQ(map.function_at(0x80000008), "helper");
  EXPECT_EQ(map.function_at(0x8000000C), "helper");
  EXPECT_EQ(map.function_at(0x80000010), "?");  // past section end
  EXPECT_EQ(map.function_at(0xC0000000), "?");  // data is not code
  EXPECT_EQ(map.data_symbol_at(0xC0000000), "tbl_a");
  EXPECT_EQ(map.data_symbol_at(0xC0000007), "tbl_a");
  EXPECT_EQ(map.data_symbol_at(0xC0000008), "tbl_b");
  EXPECT_EQ(map.data_symbol_at(0xC0000017), "tbl_b");
  EXPECT_EQ(map.data_symbol_at(0xC0000018), "?");
}

TEST(Program, EntryPrefersMain) {
  auto prog = assemble(R"(
    .text 0x80000000
start:
    nop
main:
    halt
)");
  ASSERT_TRUE(prog.is_ok());
  EXPECT_EQ(prog.value().entry(), 0x80000004u);
}

}  // namespace
}  // namespace audo::isa
