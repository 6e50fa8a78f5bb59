#include "isa/isa.hpp"

#include <array>
#include <cstdio>
#include <unordered_map>

#include "common/bits.hpp"

namespace audo::isa {
namespace {

constexpr OpInfo make_op(const char* mnemonic, Pipe pipe, bool load = false,
                         bool store = false, bool branch = false,
                         bool cond = false, bool uses_rb = false,
                         u8 latency = 1) {
  return OpInfo{mnemonic, pipe, load, store, branch, cond, uses_rb, latency};
}

// Table order must match the Opcode enum exactly; checked below.
constexpr std::array<OpInfo, kNumOpcodes> kOpTable = {{
    make_op("nop", Pipe::kSys),
    make_op("halt", Pipe::kSys),
    make_op("wfi", Pipe::kSys),
    make_op("ei", Pipe::kSys),
    make_op("di", Pipe::kSys),
    make_op("rfe", Pipe::kSys, false, false, /*branch=*/true),
    make_op("mfcr", Pipe::kSys),
    make_op("mtcr", Pipe::kSys),
    make_op("debug", Pipe::kSys),

    make_op("add", Pipe::kIp, false, false, false, false, true),
    make_op("sub", Pipe::kIp, false, false, false, false, true),
    make_op("and", Pipe::kIp, false, false, false, false, true),
    make_op("or", Pipe::kIp, false, false, false, false, true),
    make_op("xor", Pipe::kIp, false, false, false, false, true),
    make_op("shl", Pipe::kIp, false, false, false, false, true),
    make_op("shr", Pipe::kIp, false, false, false, false, true),
    make_op("sar", Pipe::kIp, false, false, false, false, true),
    make_op("mul", Pipe::kIp, false, false, false, false, true, 2),
    make_op("mac", Pipe::kIp, false, false, false, false, true, 2),
    make_op("div", Pipe::kIp, false, false, false, false, true, 8),
    make_op("min", Pipe::kIp, false, false, false, false, true),
    make_op("max", Pipe::kIp, false, false, false, false, true),
    make_op("abs", Pipe::kIp),
    make_op("addi", Pipe::kIp),
    make_op("andi", Pipe::kIp),
    make_op("ori", Pipe::kIp),
    make_op("xori", Pipe::kIp),
    make_op("shli", Pipe::kIp),
    make_op("shri", Pipe::kIp),
    make_op("sari", Pipe::kIp),
    make_op("movd", Pipe::kIp),
    make_op("movh", Pipe::kIp),
    make_op("mov.da", Pipe::kIp),

    make_op("mov.ad", Pipe::kLs),
    make_op("mov.a", Pipe::kLs),
    make_op("movha", Pipe::kLs),
    make_op("lea", Pipe::kLs),
    make_op("adda", Pipe::kLs, false, false, false, false, true),
    make_op("ld.w", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("ld.h", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("ld.b", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("ld.a", Pipe::kLs, /*load=*/true, false, false, false, false, 2),
    make_op("st.w", Pipe::kLs, false, /*store=*/true),
    make_op("st.h", Pipe::kLs, false, /*store=*/true),
    make_op("st.b", Pipe::kLs, false, /*store=*/true),
    make_op("st.a", Pipe::kLs, false, /*store=*/true),

    make_op("j", Pipe::kLp, false, false, true),
    make_op("ji", Pipe::kLp, false, false, true),
    make_op("call", Pipe::kLp, false, false, true),
    make_op("calli", Pipe::kLp, false, false, true),
    make_op("ret", Pipe::kLp, false, false, true),
    make_op("jeq", Pipe::kLp, false, false, true, true),
    make_op("jne", Pipe::kLp, false, false, true, true),
    make_op("jlt", Pipe::kLp, false, false, true, true),
    make_op("jge", Pipe::kLp, false, false, true, true),
    make_op("jltu", Pipe::kLp, false, false, true, true),
    make_op("jgeu", Pipe::kLp, false, false, true, true),
    make_op("jz", Pipe::kLp, false, false, true, true),
    make_op("jnz", Pipe::kLp, false, false, true, true),
    make_op("loop", Pipe::kLp, false, false, true, true),
}};

static_assert(kOpTable.size() == kNumOpcodes);

const std::unordered_map<std::string, Opcode>& mnemonic_map() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, Opcode>();
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
      (*m)[kOpTable[i].mnemonic] = static_cast<Opcode>(i);
    }
    return m;
  }();
  return *map;
}

}  // namespace

const OpInfo& op_info(Opcode op) {
  const auto index = static_cast<unsigned>(op);
  assert(index < kNumOpcodes);
  return kOpTable[index];
}

Operands operands(const Instr& in) {
  Operands ops;
  const OpInfo& info = op_info(in.opcode);
  const auto reg = [](bool addr_file, u8 idx) {
    return static_cast<u8>((addr_file ? Operands::kAddrFile : 0) |
                           (idx & 0xF));
  };
  unsigned n = 0;
  const auto src = [&](bool addr_file, u8 idx) {
    ops.src[n++] = reg(addr_file, idx);
  };
  const auto dest = [&](bool addr_file, u8 idx) {
    ops.dest = reg(addr_file, idx);
  };
  using enum Opcode;
  if (info.uses_rb) {
    const bool a = in.opcode == kAdda;
    src(a, in.ra);
    src(a, in.rb);
    if (in.opcode == kMac) src(false, in.rd);  // accumulator is a source
    dest(a, in.rd);
    return ops;
  }
  if (info.is_load) {
    src(true, in.ra);
    dest(in.opcode == kLdA, in.rd);
    return ops;
  }
  if (info.is_store) {
    src(in.opcode == kStA, in.rd);  // value
    src(true, in.ra);               // base
    return ops;
  }
  switch (in.opcode) {
    case kAbs: case kAddi: case kAndi: case kOri: case kXori:
    case kShli: case kShri: case kSari:
      src(false, in.ra);
      dest(false, in.rd);
      break;
    case kMovd: case kMovh: case kMfcr:
      dest(false, in.rd);
      break;
    case kMovDA:
      src(true, in.ra);
      dest(false, in.rd);
      break;
    case kMovAD:
      src(false, in.ra);
      dest(true, in.rd);
      break;
    case kMovA: case kLea:
      src(true, in.ra);
      dest(true, in.rd);
      break;
    case kMovha:
      dest(true, in.rd);
      break;
    case kMtcr:
      src(false, in.ra);
      break;
    case kJi:
      src(true, in.ra);
      break;
    case kCall:
      dest(true, 11);
      break;
    case kCalli:
      src(true, in.ra);
      dest(true, 11);
      break;
    case kRet:
      src(true, 11);
      break;
    case kJeq: case kJne: case kJlt: case kJge: case kJltu: case kJgeu:
      src(false, in.rd);
      src(false, in.ra);
      break;
    case kJz: case kJnz:
      src(false, in.rd);
      break;
    case kLoop:
      src(true, in.rd);
      dest(true, in.rd);
      break;
    default:
      break;
  }
  return ops;
}

u32 encode(const Instr& instr) {
  const OpInfo& info = op_info(instr.opcode);
  u32 word = 0;
  word = insert_bits(word, 24, 8, static_cast<u32>(instr.opcode));
  word = insert_bits(word, 20, 4, instr.rd & 0xF);
  word = insert_bits(word, 16, 4, instr.ra & 0xF);
  u32 imm_field;
  if (info.uses_rb) {
    imm_field = instr.rb & 0xF;
  } else {
    imm_field = static_cast<u32>(instr.imm) & 0xFFFF;
  }
  word = insert_bits(word, 0, 16, imm_field);
  return word;
}

Result<Instr> decode(u32 word) {
  const u32 op_field = bits(word, 24, 8);
  if (op_field >= kNumOpcodes) {
    return error(StatusCode::kDecodeError,
                 "unknown opcode " + std::to_string(op_field));
  }
  Instr instr;
  instr.opcode = static_cast<Opcode>(op_field);
  instr.rd = static_cast<u8>(bits(word, 20, 4));
  instr.ra = static_cast<u8>(bits(word, 16, 4));
  const OpInfo& info = op_info(instr.opcode);
  if (info.uses_rb) {
    instr.rb = static_cast<u8>(bits(word, 0, 4));
    instr.imm = 0;
  } else {
    instr.rb = 0;
    // Immediates are stored sign-extended; opcodes that need zero
    // extension (andi/ori/xori) mask at execute time.
    instr.imm = sign_extend(bits(word, 0, 16), 16);
  }
  return instr;
}

std::string format_instr(const Instr& instr) {
  const OpInfo& info = op_info(instr.opcode);
  char buf[64];
  const auto op = instr.opcode;
  if (info.uses_rb) {
    const char dst = (op == Opcode::kAdda) ? 'a' : 'd';
    std::snprintf(buf, sizeof buf, "%s %c%u, %c%u, %c%u", info.mnemonic, dst,
                  instr.rd, dst, instr.ra, dst, instr.rb);
  } else if (info.is_load || info.is_store) {
    const char reg = (op == Opcode::kLdA || op == Opcode::kStA) ? 'a' : 'd';
    std::snprintf(buf, sizeof buf, "%s %c%u, [a%u%+d]", info.mnemonic, reg,
                  instr.rd, instr.ra, instr.imm);
  } else if (info.is_cond_branch) {
    if (op == Opcode::kLoop) {
      std::snprintf(buf, sizeof buf, "loop a%u, %+d", instr.rd, instr.imm);
    } else if (op == Opcode::kJz || op == Opcode::kJnz) {
      std::snprintf(buf, sizeof buf, "%s d%u, %+d", info.mnemonic, instr.rd,
                    instr.imm);
    } else {
      std::snprintf(buf, sizeof buf, "%s d%u, d%u, %+d", info.mnemonic,
                    instr.rd, instr.ra, instr.imm);
    }
  } else {
    switch (op) {
      case Opcode::kJ:
      case Opcode::kCall:
        std::snprintf(buf, sizeof buf, "%s %+d", info.mnemonic, instr.imm);
        break;
      case Opcode::kJi:
      case Opcode::kCalli:
        std::snprintf(buf, sizeof buf, "%s a%u", info.mnemonic, instr.ra);
        break;
      case Opcode::kMovd:
        std::snprintf(buf, sizeof buf, "movd d%u, %d", instr.rd, instr.imm);
        break;
      case Opcode::kMovh:
        std::snprintf(buf, sizeof buf, "movh d%u, 0x%X", instr.rd,
                      static_cast<u32>(instr.imm) & 0xFFFF);
        break;
      case Opcode::kMovha:
        std::snprintf(buf, sizeof buf, "movha a%u, 0x%X", instr.rd,
                      static_cast<u32>(instr.imm) & 0xFFFF);
        break;
      case Opcode::kLea:
        std::snprintf(buf, sizeof buf, "lea a%u, [a%u%+d]", instr.rd, instr.ra,
                      instr.imm);
        break;
      case Opcode::kMovAD:
        std::snprintf(buf, sizeof buf, "mov.ad a%u, d%u", instr.rd, instr.ra);
        break;
      case Opcode::kMovDA:
        std::snprintf(buf, sizeof buf, "mov.da d%u, a%u", instr.rd, instr.ra);
        break;
      case Opcode::kMovA:
        std::snprintf(buf, sizeof buf, "mov.a a%u, a%u", instr.rd, instr.ra);
        break;
      case Opcode::kMfcr:
        std::snprintf(buf, sizeof buf, "mfcr d%u, %d", instr.rd, instr.imm);
        break;
      case Opcode::kMtcr:
        std::snprintf(buf, sizeof buf, "mtcr %d, d%u", instr.imm, instr.ra);
        break;
      case Opcode::kAbs:
        std::snprintf(buf, sizeof buf, "abs d%u, d%u", instr.rd, instr.ra);
        break;
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
        // Zero-extended at execute time: display the raw 16-bit pattern.
        std::snprintf(buf, sizeof buf, "%s d%u, d%u, 0x%X", info.mnemonic,
                      instr.rd, instr.ra,
                      static_cast<u32>(instr.imm) & 0xFFFF);
        break;
      case Opcode::kAddi:
      case Opcode::kShli:
      case Opcode::kShri:
      case Opcode::kSari:
        std::snprintf(buf, sizeof buf, "%s d%u, d%u, %d", info.mnemonic,
                      instr.rd, instr.ra, instr.imm);
        break;
      default:
        std::snprintf(buf, sizeof buf, "%s", info.mnemonic);
        break;
    }
  }
  return buf;
}

std::optional<Opcode> opcode_from_mnemonic(const std::string& mnemonic) {
  const auto& map = mnemonic_map();
  const auto it = map.find(mnemonic);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

}  // namespace audo::isa
