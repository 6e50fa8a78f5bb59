// Program image: the output of the assembler and the input to SoC loading
// and to the function-level profiler (symbol map).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::isa {

/// A contiguous block of initialised bytes at a fixed physical address.
struct Section {
  std::string name;
  Addr base = 0;
  std::vector<u8> bytes;

  Addr end() const { return base + static_cast<Addr>(bytes.size()); }
};

/// A named address. Code labels double as function symbols for the
/// profiler; data labels mark profile-relevant data structures (lookup
/// tables, shared variables).
struct Symbol {
  std::string name;
  Addr addr = 0;
  bool in_text = false;
};

class Program {
 public:
  /// Entry point (first .text address unless a "main" label exists).
  Addr entry() const { return entry_; }
  void set_entry(Addr addr) { entry_ = addr; }

  const std::vector<Section>& sections() const { return sections_; }
  std::vector<Section>& sections() { return sections_; }

  const std::vector<Symbol>& symbols() const { return symbols_; }

  void add_section(Section section) { sections_.push_back(std::move(section)); }
  void add_symbol(Symbol symbol) { symbols_.push_back(std::move(symbol)); }

  /// Address of a named symbol.
  Result<Addr> symbol_addr(const std::string& name) const {
    for (const Symbol& s : symbols_) {
      if (s.name == name) return s.addr;
    }
    return error(StatusCode::kNotFound, "symbol not found: " + name);
  }

  /// Total initialised bytes across all sections.
  usize total_bytes() const {
    usize n = 0;
    for (const Section& s : sections_) n += s.bytes.size();
    return n;
  }

 private:
  Addr entry_ = 0;
  std::vector<Section> sections_;
  std::vector<Symbol> symbols_;
};

/// Maps program counters to function names. Built from a Program's text
/// labels: a function spans from its label to the next label in the same
/// section (or the section end).
class SymbolMap {
 public:
  SymbolMap() = default;
  explicit SymbolMap(const Program& program);

  struct Range {
    Addr begin;
    Addr end;
    std::string name;
  };

  /// The function range containing `pc`, or null if unmapped.
  const Range* function_range(Addr pc) const;

  /// Name of the function containing `pc`, or "?" if unmapped.
  const std::string& function_at(Addr pc) const;

  /// Name of the data symbol containing `addr` (data symbols span to the
  /// next data symbol or section end), or "?" if unmapped.
  const std::string& data_symbol_at(Addr addr) const;

  const std::vector<Range>& functions() const { return functions_; }

 private:
  static const Range* lookup(const std::vector<Range>& ranges, Addr addr);

  std::vector<Range> functions_;  // sorted by begin
  std::vector<Range> data_;       // sorted by begin
};

}  // namespace audo::isa
