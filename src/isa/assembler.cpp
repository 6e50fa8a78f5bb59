#include "isa/assembler.hpp"

#include <cctype>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bits.hpp"
#include "isa/core_regs.hpp"
#include "isa/isa.hpp"

namespace audo::isa {
namespace {

struct Statement {
  int line = 0;
  Addr addr = 0;          // resolved in pass 1
  usize section = 0;      // index into sections
  std::string mnemonic;   // instruction mnemonic or directive (".word")
  std::vector<std::string> operands;
};

struct AsmError {
  int line;
  std::string message;
};

std::string trim(std::string_view s) {
  usize b = 0;
  usize e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Split on top-level commas (commas inside [...] or (...) do not split).
std::vector<std::string> split_operands(std::string_view s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : s) {
    if (c == '[' || c == '(') ++depth;
    if (c == ']' || c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  const std::string last = trim(cur);
  if (!last.empty()) out.push_back(last);
  return out;
}

struct Reg {
  bool is_addr = false;
  u8 index = 0;
};

std::optional<Reg> parse_reg(std::string_view s) {
  if (s.size() < 2 || s.size() > 3) return std::nullopt;
  const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(s[0])));
  if (kind != 'd' && kind != 'a') return std::nullopt;
  unsigned idx = 0;
  for (usize i = 1; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return std::nullopt;
    idx = idx * 10 + static_cast<unsigned>(s[i] - '0');
  }
  if (idx > 15) return std::nullopt;
  return Reg{kind == 'a', static_cast<u8>(idx)};
}

std::optional<u16> core_reg_by_name(const std::string& name) {
  static const std::map<std::string, CoreReg> kNames = {
      {"coreid", CoreReg::kCoreId},   {"icr", CoreReg::kIcr},
      {"biv", CoreReg::kBiv},         {"ccnt_lo", CoreReg::kCcntLo},
      {"ccnt_hi", CoreReg::kCcntHi},  {"icnt", CoreReg::kIcnt},
      {"irqn", CoreReg::kIrqn},       {"btv", CoreReg::kBtv},
      {"scratch0", CoreReg::kScratch0},
      {"scratch1", CoreReg::kScratch1}};
  const auto it = kNames.find(lower(name));
  if (it == kNames.end()) return std::nullopt;
  return static_cast<u16>(it->second);
}

/// Expression evaluator: chains of +/- over atoms; atoms are numbers,
/// symbols, '.', or lo()/hi()/hia() of a sub-expression.
class Evaluator {
 public:
  Evaluator(const std::map<std::string, i64>& symbols, Addr here)
      : symbols_(symbols), here_(here) {}

  Result<i64> eval(std::string_view expr) const {
    usize pos = 0;
    auto value = parse_sum(expr, pos, 0);
    if (!value.is_ok()) return value;
    skip_ws(expr, pos);
    if (pos != expr.size()) {
      return error(StatusCode::kParseError,
                   "trailing characters in expression: " + std::string(expr));
    }
    return value;
  }

 private:
  static void skip_ws(std::string_view s, usize& pos) {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
  }

  /// Unary signs and parentheses recurse once per level; the bound keeps
  /// a hostile operand from exhausting the stack.
  static constexpr unsigned kMaxNesting = 256;

  Result<i64> parse_sum(std::string_view s, usize& pos, unsigned depth) const {
    auto lhs = parse_atom(s, pos, depth);
    if (!lhs.is_ok()) return lhs;
    i64 acc = lhs.value();
    for (;;) {
      skip_ws(s, pos);
      if (pos >= s.size() || (s[pos] != '+' && s[pos] != '-')) break;
      const char op = s[pos++];
      auto rhs = parse_atom(s, pos, depth);
      if (!rhs.is_ok()) return rhs;
      if (op == '+' ? __builtin_add_overflow(acc, rhs.value(), &acc)
                    : __builtin_sub_overflow(acc, rhs.value(), &acc)) {
        return error(StatusCode::kParseError, "expression out of range");
      }
    }
    return acc;
  }

  Result<i64> parse_atom(std::string_view s, usize& pos, unsigned depth) const {
    if (depth > kMaxNesting) {
      return error(StatusCode::kParseError, "expression nested too deeply");
    }
    skip_ws(s, pos);
    if (pos >= s.size()) {
      return error(StatusCode::kParseError, "expected expression atom");
    }
    if (s[pos] == '-') {
      ++pos;
      auto inner = parse_atom(s, pos, depth + 1);
      if (!inner.is_ok()) return inner;
      if (inner.value() == std::numeric_limits<i64>::min()) {
        return error(StatusCode::kParseError, "expression out of range");
      }
      return -inner.value();
    }
    if (s[pos] == '+') {  // unary plus (e.g. the "+off" half of [aN+off])
      ++pos;
      return parse_atom(s, pos, depth + 1);
    }
    if (s[pos] == '(') {
      ++pos;
      auto inner = parse_sum(s, pos, depth + 1);
      if (!inner.is_ok()) return inner;
      skip_ws(s, pos);
      if (pos >= s.size() || s[pos] != ')') {
        return error(StatusCode::kParseError, "expected ')'");
      }
      ++pos;
      return inner;
    }
    if (s[pos] == '.') {
      // '.' = address of the current statement, unless part of an
      // identifier (mnemonics with '.' never reach the evaluator).
      ++pos;
      return static_cast<i64>(here_);
    }
    if (std::isdigit(static_cast<unsigned char>(s[pos]))) {
      return parse_number(s, pos);
    }
    // Identifier: symbol or function call.
    const usize start = pos;
    while (pos < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[pos])) || s[pos] == '_')) {
      ++pos;
    }
    if (start == pos) {
      return error(StatusCode::kParseError,
                   std::string("unexpected character '") + s[pos] + "'");
    }
    std::string ident(s.substr(start, pos - start));
    skip_ws(s, pos);
    if (pos < s.size() && s[pos] == '(') {
      ++pos;
      auto inner = parse_sum(s, pos, depth + 1);
      if (!inner.is_ok()) return inner;
      skip_ws(s, pos);
      if (pos >= s.size() || s[pos] != ')') {
        return error(StatusCode::kParseError, "expected ')' after " + ident);
      }
      ++pos;
      const u32 v = static_cast<u32>(inner.value());
      const std::string fn = lower(ident);
      if (fn == "lo") return static_cast<i64>(v & 0xFFFF);
      if (fn == "hi") return static_cast<i64>(v >> 16);
      if (fn == "hia") return static_cast<i64>((v + 0x8000u) >> 16);
      return error(StatusCode::kParseError, "unknown function: " + ident);
    }
    const auto it = symbols_.find(ident);
    if (it == symbols_.end()) {
      return error(StatusCode::kNotFound, "undefined symbol: " + ident);
    }
    return it->second;
  }

  static Result<i64> parse_number(std::string_view s, usize& pos) {
    const bool hex = pos + 1 < s.size() && s[pos] == '0' &&
                     (s[pos + 1] == 'x' || s[pos + 1] == 'X');
    if (hex) pos += 2;
    const i64 base = hex ? 16 : 10;
    const usize start = pos;
    i64 value = 0;
    while (pos < s.size()) {
      const auto c = static_cast<unsigned char>(s[pos]);
      if (!(hex ? std::isxdigit(c) : std::isdigit(c))) break;
      const i64 digit = std::isdigit(c) ? c - '0' : std::tolower(c) - 'a' + 10;
      if (value > (std::numeric_limits<i64>::max() - digit) / base) {
        return error(StatusCode::kParseError, "numeric literal out of range");
      }
      value = value * base + digit;
      ++pos;
    }
    if (hex && pos == start) {
      return error(StatusCode::kParseError, "malformed hex literal");
    }
    return value;
  }

  const std::map<std::string, i64>& symbols_;
  Addr here_;
};

class Assembler {
 public:
  Result<Program> run(std::string_view source) {
    if (Status s = pass1(source); !s.is_ok()) return s;
    if (Status s = pass2(); !s.is_ok()) return s;
    Program program;
    for (Section& sec : sections_) program.add_section(std::move(sec));
    for (const auto& [name, info] : labels_) {
      program.add_symbol(Symbol{name, info.addr, info.in_text});
    }
    if (auto main_addr = program.symbol_addr("main"); main_addr.is_ok()) {
      program.set_entry(main_addr.value());
    } else if (!program.sections().empty()) {
      for (const Section& sec : program.sections()) {
        if (sec.name == ".text") {
          program.set_entry(sec.base);
          break;
        }
      }
    }
    return program;
  }

 private:
  struct LabelInfo {
    Addr addr;
    bool in_text;
  };

  Status fail(int line, std::string message) {
    std::string text = "line " + std::to_string(line) + ": " + std::move(message);
    // Echo the offending source line so multi-file/macro-generated input
    // stays diagnosable without counting lines by hand.
    const auto idx = static_cast<usize>(line - 1);
    if (line >= 1 && idx < source_lines_.size() && !source_lines_[idx].empty()) {
      text += " | " + source_lines_[idx];
    }
    return error(StatusCode::kParseError, std::move(text));
  }

  Status pass1(std::string_view source) {
    std::istringstream stream{std::string(source)};
    std::string raw;
    int line_no = 0;
    bool have_section = false;
    while (std::getline(stream, raw)) {
      ++line_no;
      source_lines_.push_back(trim(raw));  // verbatim, for fail() context
      // Strip comments.
      for (usize i = 0; i < raw.size(); ++i) {
        if (raw[i] == ';' || raw[i] == '#') {
          raw.resize(i);
          break;
        }
      }
      std::string text = trim(raw);
      // Leading labels (possibly several on one line).
      while (!text.empty()) {
        const usize colon = text.find(':');
        if (colon == std::string::npos) break;
        const std::string head = trim(text.substr(0, colon));
        // A label must be a plain identifier.
        bool ident = !head.empty();
        for (char c : head) {
          if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') ident = false;
        }
        if (!ident) break;
        if (!have_section) {
          return fail(line_no, "label before any .text/.data section");
        }
        if (labels_.count(head) != 0) {
          return fail(line_no, "duplicate label: " + head);
        }
        const Section& sec = sections_[current_section_];
        labels_[head] = LabelInfo{lc_, sec.name == ".text"};
        symbols_[head] = static_cast<i64>(lc_);
        text = trim(text.substr(colon + 1));
      }
      if (text.empty()) continue;

      // Split mnemonic from operand list.
      usize sp = 0;
      while (sp < text.size() && !std::isspace(static_cast<unsigned char>(text[sp]))) ++sp;
      Statement st;
      st.line = line_no;
      st.mnemonic = lower(text.substr(0, sp));
      st.operands = split_operands(trim(text.substr(sp)));

      if (st.mnemonic[0] == '.') {
        if (Status s = pass1_directive(st, have_section); !s.is_ok()) return s;
        continue;
      }
      if (!have_section) {
        return fail(line_no, "instruction before any .text section");
      }
      st.addr = lc_;
      st.section = current_section_;
      statements_.push_back(std::move(st));
      lc_ += kInstrBytes;
      sections_[current_section_].bytes.resize(lc_ - sections_[current_section_].base);
    }
    return Status::ok();
  }

  Status pass1_directive(const Statement& st, bool& have_section) {
    const Evaluator eval(symbols_, lc_);
    auto eval_op = [&](usize i) -> Result<i64> {
      if (i >= st.operands.size()) {
        return error(StatusCode::kParseError, "missing operand");
      }
      return eval.eval(st.operands[i]);
    };

    if (st.mnemonic == ".text" || st.mnemonic == ".data") {
      if (st.operands.size() != 1) {
        return fail(st.line, st.mnemonic + " requires an address operand");
      }
      auto addr = eval_op(0);
      if (!addr.is_ok()) return fail(st.line, addr.status().message());
      Section sec;
      sec.name = st.mnemonic;
      sec.base = static_cast<Addr>(addr.value());
      sections_.push_back(std::move(sec));
      current_section_ = sections_.size() - 1;
      lc_ = sections_[current_section_].base;
      have_section = true;
      return Status::ok();
    }
    if (st.mnemonic == ".equ") {
      if (st.operands.size() != 2) {
        return fail(st.line, ".equ requires NAME, VALUE");
      }
      auto value = eval.eval(st.operands[1]);
      if (!value.is_ok()) return fail(st.line, value.status().message());
      symbols_[st.operands[0]] = value.value();
      return Status::ok();
    }
    if (!have_section) {
      return fail(st.line, st.mnemonic + " before any section");
    }
    // Data-emitting directives are stored for pass 2 (operand values may
    // use forward label references); pass 1 only sizes them.
    usize size = 0;
    if (st.mnemonic == ".word") {
      size = 4 * st.operands.size();
    } else if (st.mnemonic == ".half") {
      size = 2 * st.operands.size();
    } else if (st.mnemonic == ".byte") {
      size = st.operands.size();
    } else if (st.mnemonic == ".space") {
      auto n = eval_op(0);
      if (!n.is_ok()) return fail(st.line, n.status().message());
      if (n.value() < 0) return fail(st.line, ".space size must be >= 0");
      size = static_cast<usize>(n.value());
    } else if (st.mnemonic == ".align") {
      auto n = eval_op(0);
      if (!n.is_ok()) return fail(st.line, n.status().message());
      if (n.value() <= 0 || !is_pow2(static_cast<u64>(n.value()))) {
        return fail(st.line, ".align requires a power of two");
      }
      const Addr aligned =
          static_cast<Addr>(align_up(lc_, static_cast<u64>(n.value())));
      size = aligned - lc_;
    } else {
      return fail(st.line, "unknown directive: " + st.mnemonic);
    }
    Statement stored = st;
    stored.addr = lc_;
    stored.section = current_section_;
    statements_.push_back(std::move(stored));
    lc_ += static_cast<Addr>(size);
    sections_[current_section_].bytes.resize(lc_ - sections_[current_section_].base);
    return Status::ok();
  }

  Status pass2() {
    for (const Statement& st : statements_) {
      if (st.mnemonic[0] == '.') {
        if (Status s = emit_data(st); !s.is_ok()) return s;
      } else {
        if (Status s = emit_instr(st); !s.is_ok()) return s;
      }
    }
    return Status::ok();
  }

  void store(const Statement& st, usize offset, u64 value, usize bytes) {
    Section& sec = sections_[st.section];
    const usize base = st.addr - sec.base + offset;
    for (usize i = 0; i < bytes; ++i) {
      sec.bytes[base + i] = static_cast<u8>(value >> (8 * i));
    }
  }

  Status emit_data(const Statement& st) {
    const Evaluator eval(symbols_, st.addr);
    usize unit = 0;
    if (st.mnemonic == ".word") unit = 4;
    else if (st.mnemonic == ".half") unit = 2;
    else if (st.mnemonic == ".byte") unit = 1;
    else return Status::ok();  // .space/.align: zero fill already done
    for (usize i = 0; i < st.operands.size(); ++i) {
      auto v = eval.eval(st.operands[i]);
      if (!v.is_ok()) return fail(st.line, v.status().message());
      store(st, i * unit, static_cast<u64>(v.value()), unit);
    }
    return Status::ok();
  }

  Result<Reg> require_reg(const Statement& st, usize i, bool addr_reg) {
    if (i >= st.operands.size()) {
      return error(StatusCode::kParseError, "missing register operand");
    }
    const auto reg = parse_reg(st.operands[i]);
    if (!reg) {
      return error(StatusCode::kParseError,
                   "expected register, got '" + st.operands[i] + "'");
    }
    if (reg->is_addr != addr_reg) {
      return error(StatusCode::kParseError,
                   std::string("expected ") + (addr_reg ? "a" : "d") +
                       "-register, got '" + st.operands[i] + "'");
    }
    return *reg;
  }

  /// Parse "[aN]", "[aN+expr]", "[aN-expr]".
  Result<std::pair<u8, i64>> parse_mem(const Statement& st, usize i) {
    if (i >= st.operands.size()) {
      return error(StatusCode::kParseError, "missing memory operand");
    }
    const std::string& op = st.operands[i];
    if (op.size() < 4 || op.front() != '[' || op.back() != ']') {
      return error(StatusCode::kParseError, "expected [aN+off], got '" + op + "'");
    }
    std::string inner = trim(std::string_view(op).substr(1, op.size() - 2));
    usize split = inner.size();
    int depth = 0;
    for (usize p = 0; p < inner.size(); ++p) {
      if (inner[p] == '(') ++depth;
      if (inner[p] == ')') --depth;
      if (depth == 0 && (inner[p] == '+' || inner[p] == '-')) {
        split = p;
        break;
      }
    }
    const auto base = parse_reg(trim(inner.substr(0, split)));
    if (!base || !base->is_addr) {
      return error(StatusCode::kParseError, "memory base must be an a-register");
    }
    i64 offset = 0;
    if (split < inner.size()) {
      const Evaluator eval(symbols_, st.addr);
      // Keep the sign with the expression.
      auto v = eval.eval(std::string_view(inner).substr(split));
      if (!v.is_ok()) return v.status();
      offset = v.value();
    }
    if (offset < -32768 || offset > 32767) {
      return error(StatusCode::kOutOfRange, "memory offset out of 16-bit range");
    }
    return std::pair<u8, i64>{base->index, offset};
  }

  Result<i64> eval_operand(const Statement& st, usize i) {
    if (i >= st.operands.size()) {
      return error(StatusCode::kParseError, "missing operand");
    }
    const Evaluator eval(symbols_, st.addr);
    return eval.eval(st.operands[i]);
  }

  /// Branch displacement in words to a target-address operand.
  Result<i32> branch_disp(const Statement& st, usize i) {
    auto target = eval_operand(st, i);
    if (!target.is_ok()) return target.status();
    const i64 delta = target.value() - static_cast<i64>(st.addr) - kInstrBytes;
    if (delta % kInstrBytes != 0) {
      return error(StatusCode::kInvalidArgument, "branch target not word aligned");
    }
    const i64 disp = delta / kInstrBytes;
    if (disp < -32768 || disp > 32767) {
      return error(StatusCode::kOutOfRange, "branch displacement out of range");
    }
    return static_cast<i32>(disp);
  }

  Status emit_instr(const Statement& st) {
    const auto opcode = opcode_from_mnemonic(st.mnemonic);
    if (!opcode) return fail(st.line, "unknown mnemonic: " + st.mnemonic);
    const OpInfo& info = op_info(*opcode);
    Instr instr;
    instr.opcode = *opcode;

    auto check = [&](usize want) -> Status {
      if (st.operands.size() != want) {
        return fail(st.line, st.mnemonic + " expects " + std::to_string(want) +
                                 " operand(s)");
      }
      return Status::ok();
    };

    using enum Opcode;
    const Opcode op = *opcode;
    Status s = Status::ok();
    const bool a_regs = (op == kAdda);

    if (info.uses_rb) {
      if (s = check(3); !s.is_ok()) return s;
      auto rd = require_reg(st, 0, a_regs);
      auto ra = require_reg(st, 1, a_regs);
      auto rb = require_reg(st, 2, a_regs);
      if (!rd.is_ok()) return fail(st.line, rd.status().message());
      if (!ra.is_ok()) return fail(st.line, ra.status().message());
      if (!rb.is_ok()) return fail(st.line, rb.status().message());
      instr.rd = rd.value().index;
      instr.ra = ra.value().index;
      instr.rb = rb.value().index;
    } else if (info.is_load || info.is_store) {
      if (s = check(2); !s.is_ok()) return s;
      const bool a_target = (op == kLdA || op == kStA);
      auto reg = require_reg(st, 0, a_target);
      if (!reg.is_ok()) return fail(st.line, reg.status().message());
      auto mem = parse_mem(st, 1);
      if (!mem.is_ok()) return fail(st.line, mem.status().message());
      instr.rd = reg.value().index;
      instr.ra = mem.value().first;
      instr.imm = static_cast<i32>(mem.value().second);
    } else {
      switch (op) {
        case kNop: case kHalt: case kWfi: case kEi: case kDi:
        case kRfe: case kRet: case kDebug:
          if (s = check(0); !s.is_ok()) return s;
          break;
        case kAbs: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          auto ra = require_reg(st, 1, false);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          instr.rd = rd.value().index;
          instr.ra = ra.value().index;
          break;
        }
        case kAddi: case kAndi: case kOri: case kXori:
        case kShli: case kShri: case kSari: {
          if (s = check(3); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          auto ra = require_reg(st, 1, false);
          auto imm = eval_operand(st, 2);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          if (!imm.is_ok()) return fail(st.line, imm.status().message());
          if (imm.value() < -32768 || imm.value() > 65535) {
            return fail(st.line, "immediate out of 16-bit range");
          }
          instr.rd = rd.value().index;
          instr.ra = ra.value().index;
          instr.imm = static_cast<i32>(imm.value());
          break;
        }
        case kMovd: case kMovh: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          auto imm = eval_operand(st, 1);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!imm.is_ok()) return fail(st.line, imm.status().message());
          if (imm.value() < -32768 || imm.value() > 65535) {
            return fail(st.line, "immediate out of 16-bit range");
          }
          instr.rd = rd.value().index;
          instr.imm = static_cast<i32>(imm.value());
          break;
        }
        case kMovha: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, true);
          auto imm = eval_operand(st, 1);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!imm.is_ok()) return fail(st.line, imm.status().message());
          if (imm.value() < 0 || imm.value() > 65535) {
            return fail(st.line, "immediate out of 16-bit range");
          }
          instr.rd = rd.value().index;
          instr.imm = static_cast<i32>(imm.value());
          break;
        }
        case kLea: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, true);
          auto mem = parse_mem(st, 1);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!mem.is_ok()) return fail(st.line, mem.status().message());
          instr.rd = rd.value().index;
          instr.ra = mem.value().first;
          instr.imm = static_cast<i32>(mem.value().second);
          break;
        }
        case kMovAD: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, true);
          auto ra = require_reg(st, 1, false);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          instr.rd = rd.value().index;
          instr.ra = ra.value().index;
          break;
        }
        case kMovDA: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          auto ra = require_reg(st, 1, true);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          instr.rd = rd.value().index;
          instr.ra = ra.value().index;
          break;
        }
        case kMovA: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, true);
          auto ra = require_reg(st, 1, true);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          instr.rd = rd.value().index;
          instr.ra = ra.value().index;
          break;
        }
        case kJ: case kCall: {
          if (s = check(1); !s.is_ok()) return s;
          auto disp = branch_disp(st, 0);
          if (!disp.is_ok()) return fail(st.line, disp.status().message());
          instr.imm = disp.value();
          break;
        }
        case kJi: case kCalli: {
          if (s = check(1); !s.is_ok()) return s;
          auto ra = require_reg(st, 0, true);
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          instr.ra = ra.value().index;
          break;
        }
        case kJeq: case kJne: case kJlt: case kJge: case kJltu: case kJgeu: {
          if (s = check(3); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          auto ra = require_reg(st, 1, false);
          auto disp = branch_disp(st, 2);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          if (!disp.is_ok()) return fail(st.line, disp.status().message());
          instr.rd = rd.value().index;
          instr.ra = ra.value().index;
          instr.imm = disp.value();
          break;
        }
        case kJz: case kJnz: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          auto disp = branch_disp(st, 1);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!disp.is_ok()) return fail(st.line, disp.status().message());
          instr.rd = rd.value().index;
          instr.imm = disp.value();
          break;
        }
        case kLoop: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, true);
          auto disp = branch_disp(st, 1);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          if (!disp.is_ok()) return fail(st.line, disp.status().message());
          instr.rd = rd.value().index;
          instr.imm = disp.value();
          break;
        }
        case kMfcr: {
          if (s = check(2); !s.is_ok()) return s;
          auto rd = require_reg(st, 0, false);
          if (!rd.is_ok()) return fail(st.line, rd.status().message());
          instr.rd = rd.value().index;
          if (auto cr = core_reg_by_name(st.operands[1])) {
            instr.imm = *cr;
          } else {
            auto imm = eval_operand(st, 1);
            if (!imm.is_ok()) return fail(st.line, imm.status().message());
            instr.imm = static_cast<i32>(imm.value());
          }
          break;
        }
        case kMtcr: {
          if (s = check(2); !s.is_ok()) return s;
          if (auto cr = core_reg_by_name(st.operands[0])) {
            instr.imm = *cr;
          } else {
            auto imm = eval_operand(st, 0);
            if (!imm.is_ok()) return fail(st.line, imm.status().message());
            instr.imm = static_cast<i32>(imm.value());
          }
          auto ra = require_reg(st, 1, false);
          if (!ra.is_ok()) return fail(st.line, ra.status().message());
          instr.ra = ra.value().index;
          break;
        }
        default:
          return fail(st.line, "unhandled mnemonic: " + st.mnemonic);
      }
    }
    store(st, 0, encode(instr), kInstrBytes);
    return Status::ok();
  }

  std::vector<Section> sections_;
  std::vector<Statement> statements_;
  std::vector<std::string> source_lines_;
  std::map<std::string, LabelInfo> labels_;
  std::map<std::string, i64> symbols_;
  usize current_section_ = 0;
  Addr lc_ = 0;
};

}  // namespace

Result<Program> assemble(std::string_view source) {
  Assembler assembler;
  return assembler.run(source);
}

}  // namespace audo::isa
