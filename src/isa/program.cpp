#include "isa/program.hpp"

#include <algorithm>

namespace audo::isa {
namespace {
const std::string kUnknown = "?";
}

SymbolMap::SymbolMap(const Program& program) {
  // Collect symbols per kind, then close each range at the next symbol in
  // the same section (or at section end).
  auto build = [&](bool want_text, std::vector<Range>& out) {
    for (const Symbol& sym : program.symbols()) {
      if (sym.in_text != want_text) continue;
      // Convention: underscore-prefixed labels are local (loop tops,
      // save slots) and do not open a new function/data object range.
      if (!sym.name.empty() && sym.name[0] == '_') continue;
      // Find the containing section to bound the range.
      Addr section_end = sym.addr;
      for (const Section& sec : program.sections()) {
        if (sym.addr >= sec.base && sym.addr < sec.end()) {
          section_end = sec.end();
          break;
        }
      }
      out.push_back(Range{sym.addr, section_end, sym.name});
    }
    std::sort(out.begin(), out.end(),
              [](const Range& a, const Range& b) { return a.begin < b.begin; });
    for (usize i = 0; i + 1 < out.size(); ++i) {
      out[i].end = std::min(out[i].end, out[i + 1].begin);
    }
  };
  build(true, functions_);
  build(false, data_);
}

const SymbolMap::Range* SymbolMap::lookup(const std::vector<Range>& ranges,
                                          Addr addr) {
  // Binary search for the last range with begin <= addr.
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), addr,
      [](Addr a, const Range& r) { return a < r.begin; });
  if (it == ranges.begin()) return nullptr;
  --it;
  return addr >= it->begin && addr < it->end ? &*it : nullptr;
}

const SymbolMap::Range* SymbolMap::function_range(Addr pc) const {
  return lookup(functions_, pc);
}

const std::string& SymbolMap::function_at(Addr pc) const {
  const Range* range = function_range(pc);
  return range != nullptr ? range->name : kUnknown;
}

const std::string& SymbolMap::data_symbol_at(Addr addr) const {
  const Range* range = lookup(data_, addr);
  return range != nullptr ? range->name : kUnknown;
}

}  // namespace audo::isa
