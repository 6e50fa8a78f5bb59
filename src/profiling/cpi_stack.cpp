#include "profiling/cpi_stack.hpp"

#include <algorithm>
#include <cstdio>

namespace audo::profiling {

namespace {

const std::string kUnknown = "?";

/// Short column headers for the stall table, indexed by StallRootCause.
const char* short_name(mcds::StallRootCause root) {
  using mcds::StallRootCause;
  switch (root) {
    case StallRootCause::kNone: return "issue";
    case StallRootCause::kFrontend: return "front";
    case StallRootCause::kExec: return "exec";
    case StallRootCause::kFlashBuffer: return "fbuf";
    case StallRootCause::kFlashRead: return "fread";
    case StallRootCause::kFlashPortConflict: return "fconf";
    case StallRootCause::kBusArbitration: return "arb";
    case StallRootCause::kBusSlaveBusy: return "busy";
    case StallRootCause::kWfi: return "wfi";
    case StallRootCause::kHalted: return "halt";
    default: return "?";
  }
}

}  // namespace

CpiStackBuilder::CpiStackBuilder(isa::SymbolMap symbols)
    : symbols_(std::move(symbols)), current_(&kUnknown) {}

void CpiStackBuilder::charge(const mcds::CoreObservation& obs, u64 n) {
  // Track the executing function: a retire pins it exactly; a
  // no-retire discontinuity (irq/trap vectoring) redirects it to the
  // target so the entry bubble is charged to the handler.
  const std::string* function = current_;
  if (obs.retired > 0) {
    function = &symbols_.function_at(obs.retire_pc);
  } else if (obs.discontinuity) {
    function = &symbols_.function_at(obs.discontinuity_target);
  }
  // The map is looked up only when the function changes.
  if (entry_ == nullptr || function != current_) {
    current_ = function;
    entry_ = &functions_[*function];
    if (entry_->name.empty()) entry_->name = *function;
  }
  CpiStackEntry& e = *entry_;
  e.cycles += n;
  e.instructions += static_cast<u64>(obs.retired) * n;
  if (obs.attr.root == mcds::StallRootCause::kNone) {
    e.issue_cycles += n;
  } else {
    e.stall[static_cast<unsigned>(obs.attr.root)] += n;
  }
  observed_cycles_ += n;
}

void CpiStackBuilder::observe(const mcds::ObservationFrame& frame) {
  if (frame.tc.present) charge(frame.tc, 1);
}

void CpiStackBuilder::skip_idle(const mcds::ObservationFrame& idle, u64 n) {
  if (idle.tc.present) charge(idle.tc, n);
}

std::vector<CpiStackEntry> CpiStackBuilder::stacks() const {
  std::vector<CpiStackEntry> out;
  out.reserve(functions_.size());
  for (const auto& [name, entry] : functions_) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.cycles > b.cycles;
  });
  return out;
}

CpiStackEntry CpiStackBuilder::total() const {
  CpiStackEntry sum;
  sum.name = "*total*";
  for (const auto& [name, entry] : functions_) {
    sum.instructions += entry.instructions;
    sum.cycles += entry.cycles;
    sum.issue_cycles += entry.issue_cycles;
    for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
      sum.stall[r] += entry.stall[r];
    }
  }
  return sum;
}

std::string CpiStackBuilder::format(usize top_n) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-20s %10s %10s %6s", "function", "cycles",
                "instrs", "CPI");
  out += line;
  // One percentage column per decomposition bucket (issue + each root).
  for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
    std::snprintf(line, sizeof line, " %6s",
                  short_name(static_cast<mcds::StallRootCause>(r)));
    out += line;
  }
  out += '\n';

  const auto row = [&](const CpiStackEntry& e) {
    std::snprintf(line, sizeof line, "%-20s %10llu %10llu %6.2f",
                  e.name.c_str(), static_cast<unsigned long long>(e.cycles),
                  static_cast<unsigned long long>(e.instructions), e.cpi());
    out += line;
    const double cycles =
        e.cycles == 0 ? 1.0 : static_cast<double>(e.cycles);
    for (unsigned r = 0; r < mcds::kNumStallRootCauses; ++r) {
      const u64 c = r == 0 ? e.issue_cycles : e.stall[r];
      std::snprintf(line, sizeof line, " %5.1f%%",
                    100.0 * static_cast<double>(c) / cycles);
      out += line;
    }
    out += '\n';
  };

  usize n = 0;
  for (const CpiStackEntry& e : stacks()) {
    if (n++ >= top_n) break;
    row(e);
  }
  row(total());
  return out;
}

std::string CpiStackBuilder::to_csv() const {
  std::string out = "function,instructions,cycles,issue";
  for (unsigned r = 1; r < mcds::kNumStallRootCauses; ++r) {
    out += ',';
    out += mcds::to_string(static_cast<mcds::StallRootCause>(r));
  }
  out += '\n';
  const auto row = [&](const CpiStackEntry& e) {
    out += e.name;
    out += ',' + std::to_string(e.instructions);
    out += ',' + std::to_string(e.cycles);
    out += ',' + std::to_string(e.issue_cycles);
    for (unsigned r = 1; r < mcds::kNumStallRootCauses; ++r) {
      out += ',' + std::to_string(e.stall[r]);
    }
    out += '\n';
  };
  for (const CpiStackEntry& e : stacks()) row(e);
  row(total());
  return out;
}

}  // namespace audo::profiling
