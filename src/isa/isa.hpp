// The TRC instruction set — a TriCore-flavoured 32-bit load/store ISA.
//
// The real TriCore 1.3.1 ISA is proprietary and far larger than the
// methodology needs. TRC keeps the properties the paper's profiling and
// optimization methodology actually observes:
//   * split data (d0..d15) / address (a0..a15) register files, which feed
//     the integer (IP) and load/store (LS) pipelines of the multi-issue
//     core — the basis of "up to 3 instructions within a clock cycle",
//   * a zero-overhead LOOP instruction (the third, loop pipeline),
//   * memory-mapped peripherals and distinct cached/non-cached flash
//     address aliases,
//   * priority-driven interrupt entry with a vector table (BIV).
//
// Encoding: fixed 32-bit words.
//   [31:24] opcode   [23:20] rd   [19:16] ra   [15:0] imm16
// Register-register ops carry rb in imm16[3:0]. Branch displacements are
// signed imm16 counted in 32-bit words relative to the *next* instruction.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::isa {

enum class Opcode : u8 {
  // System / control (issue alone, SYS pipe).
  kNop = 0,
  kHalt,   // stop the core (simulation end marker)
  kWfi,    // wait for interrupt
  kEi,     // set ICR.IE
  kDi,     // clear ICR.IE
  kRfe,    // return from exception/interrupt
  kMfcr,   // d[rd] = CR[imm16]
  kMtcr,   // CR[imm16] = d[ra]
  kDebug,  // software breakpoint / MCDS software trigger strobe

  // Integer pipeline (IP): data-register ALU.
  kAdd,   // d[rd] = d[ra] + d[rb]
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,   // d[rd] = d[ra] << (d[rb] & 31)
  kShr,   // logical
  kSar,   // arithmetic
  kMul,   // 32x32 -> low 32, 2-cycle result latency
  kMac,   // d[rd] += d[ra] * d[rb], 2-cycle result latency
  kDiv,   // signed divide, multi-cycle
  kMin,
  kMax,
  kAbs,   // d[rd] = |d[ra]|
  kAddi,  // d[rd] = d[ra] + sext(imm16)
  kAndi,  // zero-extended imm16
  kOri,
  kXori,
  kShli,  // shift by imm16[4:0]
  kShri,
  kSari,
  kMovd,  // d[rd] = sext(imm16)
  kMovh,  // d[rd] = imm16 << 16
  kMovDA, // d[rd] = a[ra]           (cross-file move, IP pipe)

  // Load/store pipeline (LS): address-register ops and memory.
  kMovAD,  // a[rd] = d[ra]
  kMovA,   // a[rd] = a[ra]
  kMovha,  // a[rd] = imm16 << 16
  kLea,    // a[rd] = a[ra] + sext(imm16)
  kAdda,   // a[rd] = a[ra] + a[rb]
  kLdW,    // d[rd] = mem32[a[ra] + sext(imm16)]
  kLdH,    // sign-extended halfword
  kLdB,    // sign-extended byte
  kLdA,    // a[rd] = mem32[a[ra] + sext(imm16)]
  kStW,    // mem32[a[ra] + sext(imm16)] = d[rd]
  kStH,
  kStB,
  kStA,    // mem32[a[ra] + sext(imm16)] = a[rd]

  // Loop/branch pipeline (LP).
  kJ,     // PC += disp
  kJi,    // PC = a[ra]
  kCall,  // a11 = return address; PC += disp
  kCalli, // a11 = return address; PC = a[ra]
  kRet,   // PC = a11
  kJeq,   // if d[rd] == d[ra]: PC += disp
  kJne,
  kJlt,   // signed
  kJge,   // signed
  kJltu,
  kJgeu,
  kJz,    // if d[rd] == 0
  kJnz,
  kLoop,  // if --a[rd] != 0: PC += disp (zero-overhead after 1st iteration)

  kOpcodeCount,
};

inline constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::kOpcodeCount);
inline constexpr unsigned kInstrBytes = 4;

/// Which core pipeline an instruction issues to. The TC core issues at
/// most one instruction per pipe per cycle (IP + LS + LP dual/triple
/// issue); SYS instructions issue alone.
enum class Pipe : u8 { kIp, kLs, kLp, kSys };

/// Decoded instruction.
struct Instr {
  Opcode opcode = Opcode::kNop;
  u8 rd = 0;    // destination / first source for stores & compares
  u8 ra = 0;    // base / source
  u8 rb = 0;    // second source (register-register forms)
  i32 imm = 0;  // sign- or zero-extended as the opcode requires

  bool operator==(const Instr&) const = default;
};

/// Static properties of an opcode, indexed once at decode.
struct OpInfo {
  const char* mnemonic;
  Pipe pipe;
  bool is_load;
  bool is_store;
  bool is_branch;       // any control transfer
  bool is_cond_branch;  // conditional (includes LOOP)
  bool uses_rb;         // register-register form (rb lives in imm[3:0])
  u8 result_latency;    // cycles until the result register is forwardable
};

const OpInfo& op_info(Opcode op);

/// Register operands of an instruction, as the scoreboard sees them. Each
/// entry encodes one register: `kAddrFile` selects the address file, the
/// low four bits the index. `kNoReg` ends `src` (at most three sources)
/// and marks an instruction without a destination.
struct Operands {
  static constexpr u8 kNoReg = 0xFF;
  static constexpr u8 kAddrFile = 0x80;
  std::array<u8, 3> src{kNoReg, kNoReg, kNoReg};
  u8 dest = kNoReg;
};

/// The registers `instr` reads and the one it writes: the operand table
/// behind both execution tiers' hazard checks.
Operands operands(const Instr& instr);

/// Bytes a load or store moves.
constexpr unsigned access_bytes(Opcode op) {
  switch (op) {
    case Opcode::kLdB: case Opcode::kStB: return 1;
    case Opcode::kLdH: case Opcode::kStH: return 2;
    default: return 4;
  }
}

/// The register value of a load that read `raw`: byte and halfword loads
/// sign-extend.
constexpr u32 extend_loaded(Opcode op, u32 raw) {
  switch (op) {
    case Opcode::kLdB: return static_cast<u32>(static_cast<i32>(static_cast<i8>(raw)));
    case Opcode::kLdH: return static_cast<u32>(static_cast<i32>(static_cast<i16>(raw)));
    default: return raw;
  }
}

/// Encode to the 32-bit instruction word.
u32 encode(const Instr& instr);

/// Decode a 32-bit word. Unknown opcodes decode to an error.
Result<Instr> decode(u32 word);

/// Disassemble for logs and trace dumps, e.g. "add d1, d2, d3".
std::string format_instr(const Instr& instr);

/// Look up an opcode by mnemonic ("ld.w", "jeq", ...).
std::optional<Opcode> opcode_from_mnemonic(const std::string& mnemonic);

}  // namespace audo::isa
