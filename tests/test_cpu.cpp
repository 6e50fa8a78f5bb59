// CPU model tests: architectural semantics of every instruction class,
// multi-issue grouping, hazards, memory routing and interrupts.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mem/memory_map.hpp"

namespace audo {
namespace {

using test::flash_text;
using test::pspr_text;
using test::run_program;
using test::small_config;

TEST(CpuArith, BasicAlu) {
  auto r = run_program(pspr_text(R"(
    movd d1, 20
    movd d2, 22
    add  d0, d1, d2
    sub  d3, d1, d2
    and  d4, d1, d2
    or   d5, d1, d2
    xor  d6, d1, d2
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(0), 42u);
  EXPECT_EQ(r.d(3), static_cast<u32>(-2));
  EXPECT_EQ(r.d(4), 20u & 22u);
  EXPECT_EQ(r.d(5), 20u | 22u);
  EXPECT_EQ(r.d(6), 20u ^ 22u);
}

TEST(CpuArith, ShiftsAndImmediates) {
  auto r = run_program(pspr_text(R"(
    movd d1, -8
    sari d2, d1, 2
    shri d3, d1, 28
    shli d4, d1, 1
    movd d5, 3
    movd d6, 1
    shl  d7, d5, d6
    andi d8, d1, 0xFF
    ori  d9, d5, 0xF0
    xori d10, d5, 0xFF
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(2), static_cast<u32>(-2));
  EXPECT_EQ(r.d(3), 0xFu);
  EXPECT_EQ(r.d(4), static_cast<u32>(-16));
  EXPECT_EQ(r.d(7), 6u);
  EXPECT_EQ(r.d(8), 0xF8u);
  EXPECT_EQ(r.d(9), 0xF3u);
  EXPECT_EQ(r.d(10), 0xFCu);
}

TEST(CpuArith, MulMacDivMinMaxAbs) {
  auto r = run_program(pspr_text(R"(
    movd d1, 6
    movd d2, 7
    mul  d0, d1, d2
    movd d3, 100
    mac  d3, d1, d2      ; 100 + 42
    movd d4, -20
    movd d5, 6
    div  d6, d4, d5      ; -3
    min  d7, d4, d5
    max  d8, d4, d5
    abs  d9, d4
    movd d10, 0
    div  d11, d1, d10    ; div by zero -> all ones
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(0), 42u);
  EXPECT_EQ(r.d(3), 142u);
  EXPECT_EQ(r.d(6), static_cast<u32>(-3));
  EXPECT_EQ(r.d(7), static_cast<u32>(-20));
  EXPECT_EQ(r.d(8), 6u);
  EXPECT_EQ(r.d(9), 20u);
  EXPECT_EQ(r.d(11), 0xFFFFFFFFu);
}

TEST(CpuArith, MovhBuildsConstants) {
  auto r = run_program(pspr_text(R"(
    movh d1, 0xDEAD
    ori  d1, d1, 0xBEEF
    movd d2, -1
    halt
)"));
  EXPECT_EQ(r.d(1), 0xDEADBEEFu);
  EXPECT_EQ(r.d(2), 0xFFFFFFFFu);
}

TEST(CpuBranch, ConditionalForms) {
  auto r = run_program(pspr_text(R"(
    movd d0, 0        ; result bitmask
    movd d1, 5
    movd d2, -3
    jlt  d2, d1, t1   ; signed: -3 < 5 -> taken
    halt
t1: ori  d0, d0, 1
    jltu d2, d1, t2   ; unsigned: 0xFFFF.. < 5 -> NOT taken
    ori  d0, d0, 2
t2: jge  d1, d2, t3   ; 5 >= -3 taken
    halt
t3: ori  d0, d0, 4
    jeq  d1, d1, t4
    halt
t4: ori  d0, d0, 8
    jne  d1, d2, t5
    halt
t5: ori  d0, d0, 16
    movd d3, 0
    jz   d3, t6
    halt
t6: ori  d0, d0, 32
    jnz  d1, t7
    halt
t7: ori  d0, d0, 64
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(0), 1u | 2u | 4u | 8u | 16u | 32u | 64u);
}

TEST(CpuBranch, LoopInstruction) {
  auto r = run_program(pspr_text(R"(
    movd d0, 0
    movd d1, 10
    mov.ad a2, d1
top:
    addi d0, d0, 1
    loop a2, top
    halt
)"));
  EXPECT_EQ(r.d(0), 10u);
  EXPECT_EQ(r.a(2), 0u);
}

TEST(CpuBranch, CallRetAndIndirect) {
  auto r = run_program(pspr_text(R"(
    movd d0, 1
    call sub1
    addi d0, d0, 100    ; executes after return
    movh d2, hi(sub2)
    ori  d2, d2, lo(sub2)
    mov.ad a4, d2
    calli a4
    halt
sub1:
    addi d0, d0, 10
    ret
sub2:
    addi d0, d0, 1000
    ret
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(0), 1111u);
}

TEST(CpuMem, ScratchpadLoadStoreAllWidths) {
  auto r = run_program(pspr_text(R"(
    movha a2, 0xC000
    movh d1, 0x8765
    ori  d1, d1, 0x4321
    st.w d1, [a2+0]
    ld.w d2, [a2+0]
    ld.h d3, [a2+0]     ; 0x4321 sign-extended (positive)
    ld.h d4, [a2+2]     ; 0x8765 sign-extended (negative)
    ld.b d5, [a2+0]     ; 0x21
    ld.b d6, [a2+3]     ; 0x87 -> negative
    movd d7, 0x7F
    st.b d7, [a2+4]
    ld.w d8, [a2+4]
    st.h d1, [a2+8]
    ld.w d9, [a2+8]
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(2), 0x87654321u);
  EXPECT_EQ(r.d(3), 0x4321u);
  EXPECT_EQ(r.d(4), 0xFFFF8765u);
  EXPECT_EQ(r.d(5), 0x21u);
  EXPECT_EQ(r.d(6), 0xFFFFFF87u);
  EXPECT_EQ(r.d(8), 0x7Fu);
  EXPECT_EQ(r.d(9), 0x4321u);
}

TEST(CpuMem, AddressRegisterLoadsStores) {
  auto r = run_program(pspr_text(R"(
    movha a2, 0xC000
    movha a3, 0x9000      ; LMU pointer value
    st.a a3, [a2+0]
    ld.a a4, [a2+0]
    movd d0, 77
    st.w d0, [a4+0]       ; store through loaded pointer (LMU)
    ld.w d1, [a4+0]
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.a(4), 0x90000000u);
  EXPECT_EQ(r.d(1), 77u);
}

TEST(CpuMem, LmuAndDflashThroughBus) {
  auto r = run_program(pspr_text(R"(
    movha a2, 0x9000      ; LMU
    movd d0, 1234
    st.w d0, [a2+16]
    ld.w d1, [a2+16]
    movha a3, 0xAF00      ; DFlash (erased to 0 initially; writes AND)
    ld.w d2, [a3+0]
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(1), 1234u);
  EXPECT_EQ(r.d(2), 0u);
}

TEST(CpuMem, FlashDataReadsCachedAndUncached) {
  auto r = run_program(R"(
    .text 0xC8000000
main:
    movh d1, hi(tbl)
    ori  d1, d1, lo(tbl)
    mov.ad a2, d1
    ld.w d2, [a2+0]       ; cached alias
    movh d3, 0x2000
    add  d1, d1, d3       ; + 0x20000000 -> uncached alias 0xA...
    mov.ad a3, d1
    ld.w d4, [a3+4]
    halt
    .data 0x80010000
tbl:
    .word 0xAAAA5555, 0x12345678
)");
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(2), 0xAAAA5555u);
  EXPECT_EQ(r.d(4), 0x12345678u);
  // The cached read allocated a D-cache line; the uncached one did not.
  EXPECT_EQ(r.soc->dcache().stats().accesses, 1u);
  EXPECT_EQ(r.soc->dcache().stats().misses, 1u);
}

TEST(CpuExec, RunsFromCachedFlash) {
  auto r = run_program(flash_text(R"(
    movd d0, 0
    movd d1, 100
    mov.ad a2, d1
top:
    addi d0, d0, 1
    loop a2, top
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_EQ(r.d(0), 100u);
  // The loop body hits the I-cache after the first iteration.
  EXPECT_GT(r.soc->icache().stats().hits, 50u);
}

TEST(CpuExec, UncachedFlashExecutionIsSlower) {
  // A loop body long enough to span several flash lines: the uncached
  // path fetches word-by-word over the bus while the cached path streams
  // 4-instruction blocks out of the I-cache.
  std::string body = R"(
    movd d0, 0
    movd d1, 50
    mov.ad a2, d1
top:
)";
  for (int i = 0; i < 16; ++i) body += "    addi d0, d0, 1\n";
  body += R"(
    loop a2, top
    halt
)";
  auto cached = run_program(flash_text(body));
  auto uncached = run_program("    .text 0xA0000000\nmain:\n" + body);
  ASSERT_TRUE(cached.halted());
  ASSERT_TRUE(uncached.halted());
  EXPECT_EQ(cached.d(0), uncached.d(0));
  // Prefetch buffers soften the uncached penalty; still clearly slower.
  EXPECT_GT(uncached.cycles * 2, cached.cycles * 3);
}

TEST(CpuIssue, TripleIssueBeatsSingleIssue) {
  // Independent IP + LS + LP work that can pair each cycle.
  const std::string body = pspr_text(R"(
    movha a2, 0xC000
    movd  d1, 0
    movd  d2, 200
    mov.ad a3, d2
top:
    addi  d1, d1, 3      ; IP
    st.w  d0, [a2+0]     ; LS
    loop  a3, top        ; LP
    halt
)");
  auto cfg3 = small_config();
  cfg3.tc_issue_width = 3;
  auto cfg1 = small_config();
  cfg1.tc_issue_width = 1;
  auto wide = run_program(body, cfg3);
  auto narrow = run_program(body, cfg1);
  ASSERT_TRUE(wide.halted());
  ASSERT_TRUE(narrow.halted());
  EXPECT_EQ(wide.d(1), narrow.d(1));
  EXPECT_LT(wide.cycles, narrow.cycles);
}

TEST(CpuIssue, DependentChainIsSerial) {
  // A dependent ALU chain cannot dual-issue: >= 1 cycle per instruction.
  auto r = run_program(pspr_text(R"(
    movd d0, 1
    add  d0, d0, d0
    add  d0, d0, d0
    add  d0, d0, d0
    add  d0, d0, d0
    halt
)"));
  EXPECT_EQ(r.d(0), 16u);
  EXPECT_GE(r.cycles, 5u);
}

TEST(CpuHazard, LoadUseStall) {
  // Using a loaded value immediately costs at least one bubble; the
  // result must still be correct.
  auto r = run_program(pspr_text(R"(
    movha a2, 0xC000
    movd d1, 41
    st.w d1, [a2+0]
    ld.w d2, [a2+0]
    addi d2, d2, 1
    halt
)"));
  EXPECT_EQ(r.d(2), 42u);
}

TEST(CpuHazard, BusLoadBlocksConsumerUntilData) {
  auto r = run_program(pspr_text(R"(
    movha a2, 0x9000      ; LMU: multi-cycle over the bus
    movd d1, 7
    st.w d1, [a2+0]
    ld.w d2, [a2+0]
    mul  d3, d2, d2       ; depends on in-flight load
    halt
)"));
  EXPECT_EQ(r.d(3), 49u);
}

TEST(CpuCsfr, CountersAndCoreId) {
  auto r = run_program(pspr_text(R"(
    mfcr d1, ccnt_lo
    nop
    nop
    nop
    nop
    mfcr d2, ccnt_lo
    mfcr d3, icnt
    mfcr d4, coreid
    movd d5, 0x1234
    mtcr scratch0, d5
    mfcr d6, scratch0
    halt
)"));
  ASSERT_TRUE(r.halted());
  EXPECT_GT(r.d(2), r.d(1));
  EXPECT_GE(r.d(3), 6u);
  EXPECT_EQ(r.d(4), 0u);
  EXPECT_EQ(r.d(6), 0x1234u);
}

TEST(CpuIrq, StmInterruptIsServiced) {
  // Program STM compare and count interrupt entries in d-regs via a
  // handler; run long enough for >= 3 periods.
  auto program = isa::assemble(R"(
    .text 0x80000140       ; vector for priority 10
    j isr
    .text 0x80001000
main:
    di
    movha a15, 0xC000
    movha a14, 0xF000
    movh  d0, 0x8000
    mtcr  biv, d0
    movd  d0, 500
    st.w  d0, [a14+8]      ; STM CMP0 = 500
    movd  d0, 1
    st.w  d0, [a14+16]     ; STM CTRL enable cmp0
    ei
wait:
    ld.w  d1, [a15+0]
    movd  d2, 3
    jlt   d1, d2, wait
    halt
isr:
    st.w  d8, [a15+4]
    ld.w  d8, [a15+0]
    addi  d8, d8, 1
    st.w  d8, [a15+0]
    ld.w  d8, [a15+4]
    rfe
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
  soc.reset(program.value().entry());
  soc.run(100'000);
  ASSERT_TRUE(soc.tc().halted());
  EXPECT_EQ(soc.dspr().read(0xC0000000, 4), 3u);
  EXPECT_EQ(soc.irq_router().node(soc.srcs().stm0).serviced, 3u);
}

TEST(CpuIrq, PriorityPreemption) {
  // A low-priority handler spins until a flag that only the high-priority
  // handler sets: requires preemption to terminate.
  auto program = isa::assemble(R"(
    .text 0x80000140       ; priority 10: low
    j isr_low
    .text 0x80000280       ; priority 20: high
    j isr_high
    .text 0x80001000
main:
    di
    movha a15, 0xC000
    movha a14, 0xF000
    movh  d0, 0x8000
    mtcr  biv, d0
    movd  d0, 400
    st.w  d0, [a14+8]      ; CMP0 period 400 -> prio 10
    movd  d0, 900
    st.w  d0, [a14+12]     ; CMP1 period 900 -> prio 20
    movd  d0, 3
    st.w  d0, [a14+16]     ; enable both
    ei
wait:
    ld.w  d1, [a15+0]
    jz    d1, wait
    halt
isr_low:
    st.w  d8, [a15+8]
spin:
    ld.w  d8, [a15+4]      ; wait for high-prio flag
    jz    d8, spin
    movd  d8, 1
    st.w  d8, [a15+0]      ; signal main
    ld.w  d8, [a15+8]
    rfe
isr_high:
    st.w  d8, [a15+12]
    movd  d8, 1
    st.w  d8, [a15+4]
    ld.w  d8, [a15+12]
    rfe
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
  soc.irq_router().configure(soc.srcs().stm1, 20, periph::IrqTarget::kTc);
  soc.reset(program.value().entry());
  soc.run(200'000);
  EXPECT_TRUE(soc.tc().halted()) << "low-prio handler was never preempted";
}

TEST(CpuIrq, WfiWakesOnInterrupt) {
  auto program = isa::assemble(R"(
    .text 0x80000140
    j isr
    .text 0x80001000
main:
    di
    movha a15, 0xC000
    movha a14, 0xF000
    movh  d0, 0x8000
    mtcr  biv, d0
    movd  d0, 300
    st.w  d0, [a14+8]
    movd  d0, 1
    st.w  d0, [a14+16]
    ei
    wfi
    halt                    ; reached only after the ISR returns
isr:
    movd  d8, 99
    st.w  d8, [a15+0]
    rfe
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
  soc.reset(program.value().entry());
  soc.run(50'000);
  EXPECT_TRUE(soc.tc().halted());
  EXPECT_EQ(soc.dspr().read(0xC0000000, 4), 99u);
}

TEST(CpuIrq, DisabledInterruptsAreHeldOff) {
  auto program = isa::assemble(R"(
    .text 0x80000140
    j isr
    .text 0x80001000
main:
    di
    movha a15, 0xC000
    movha a14, 0xF000
    movh  d0, 0x8000
    mtcr  biv, d0
    movd  d0, 100
    st.w  d0, [a14+8]
    movd  d0, 1
    st.w  d0, [a14+16]
    ; stay with interrupts disabled for a long time
    movd  d1, 2000
    mov.ad a2, d1
spin:
    loop  a2, spin
    ld.w  d2, [a15+0]      ; must still be 0
    ei
wait:
    ld.w  d3, [a15+0]
    jz    d3, wait
    halt
isr:
    movd  d8, 1
    st.w  d8, [a15+0]
    rfe
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  soc::Soc soc(test::small_config());
  ASSERT_TRUE(soc.load(program.value()).is_ok());
  soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
  soc.reset(program.value().entry());
  soc.run(100'000);
  ASSERT_TRUE(soc.tc().halted());
  EXPECT_EQ(soc.tc().d(2), 0u) << "interrupt taken while disabled";
}

// Counts interrupt entries taken in the cycle right after one where the
// oldest queued instruction waited for the busy LS port.
struct IrqAfterLsPortBusy final : soc::FrameObserver {
  bool prev_ls_busy = false;
  u64 entries = 0;
  void observe(const mcds::ObservationFrame& frame) override {
    if (frame.tc.irq_entry && prev_ls_busy) ++entries;
    prev_ls_busy = frame.tc.retired == 0 &&
                   frame.tc.stall == mcds::StallCause::kLsPortBusy;
  }
  void skip_idle(const mcds::ObservationFrame&, u64) override {
    prev_ls_busy = false;
  }
};

TEST(CpuIrq, EntryDuringLsPortWaitReturnsToWaitingLoad) {
  // The second uncached load waits for the LS port while the first one is
  // on the bus. An interrupt entered in that wait must return to the
  // waiting load: skipping it would leave d2 = 0 and d7 short of 4000.
  auto program = isa::assemble(R"(
    .text 0xC8000140       ; vector for priority 10
    j isr
    .text 0xC8001000
main:
    di
    movha a14, 0xF000
    movh  d0, 0xC800
    mtcr  biv, d0
    movd  d0, 101
    st.w  d0, [a14+8]      ; STM CMP0 period 101 -> prio 10
    movd  d0, 1
    st.w  d0, [a14+16]     ; enable cmp0
    movha a3, 0xA001       ; uncached alias of tbl
    movd  d7, 0
    movd  d6, 2000
    mov.ad a2, d6
    ei
body:
    movd  d2, 0
    ld.w  d1, [a3+0]
    ld.w  d2, [a3+256]
    add   d7, d7, d2
    loop  a2, body
    halt
isr:
    rfe
    .data 0x80010000
tbl:
    .word 1
    .space 252
    .word 2
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  for (const auto tier : {soc::SocConfig::ExecTier::kAccurate,
                          soc::SocConfig::ExecTier::kSuperblock}) {
    soc::SocConfig config = small_config();
    config.exec_tier = tier;
    soc::Soc soc(config);
    IrqAfterLsPortBusy probe;
    soc.add_frame_observer(&probe);
    ASSERT_TRUE(soc.load(program.value()).is_ok());
    soc.irq_router().configure(soc.srcs().stm0, 10, periph::IrqTarget::kTc);
    soc.reset(program.value().entry());
    soc.run(1'000'000);
    ASSERT_TRUE(soc.tc().halted());
    EXPECT_EQ(soc.tc().d(7), 4000u);
    // The case under test did occur.
    EXPECT_GE(probe.entries, 1u);
  }
}

TEST(CpuDeterminism, IdenticalRunsCycleExact) {
  const std::string body = flash_text(R"(
    movd d0, 0
    movd d1, 500
    mov.ad a2, d1
top:
    addi d0, d0, 1
    mul  d3, d0, d0
    loop a2, top
    halt
)");
  auto r1 = run_program(body);
  auto r2 = run_program(body);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.d(0), r2.d(0));
  EXPECT_EQ(r1.soc->tc().retired(), r2.soc->tc().retired());
}

}  // namespace
}  // namespace audo
