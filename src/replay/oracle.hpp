// The differential replay oracle: re-run a ReplaySpec under any host
// configuration and diff every recorded digest; on mismatch, bisect to
// the first divergent cycle and name the component/field that differs.
//
// Verification runs in three granularities, degrading only when the
// finer one is impossible:
//  * frame  — a reference run under the *recorded* config reproduced the
//    golden window digest, so its frames are trustworthy per-cycle
//    expectations; the first cycle whose fingerprint differs from the
//    test run is reported with per-field diffs and +/-N context frames.
//  * window — the reference run itself no longer matches the golden
//    (the simulator's behaviour drifted since the golden was recorded),
//    or it does but no re-stepped frame differs; the report says which,
//    names the divergent window and the component sub-digests that
//    differ, and makes no per-cycle claims.
//  * campaign — fault-campaign goldens compare the classification hash
//    and per-scenario rows (outcome, cycles, signature, task); the first
//    differing scenario is reported.
//
// Every frame replay, with or without a profiling session, is one
// uninterrupted run whose windows are compared with the golden after it
// ends. Bisection re-runs both sides cold from reset through the same
// helper, each bounded at the divergent window's end: the reference
// under the recorded config, the test under the replayed one.
#pragma once

#include <string>
#include <vector>

#include "replay/replay.hpp"
#include "soc/soc_config.hpp"

namespace audo::replay {

inline constexpr const char* kDivergenceSchema = "trisim-divergence/2";

struct OracleOptions {
  /// Host-knob overrides; empty string / negative = replay as recorded.
  /// These never fail the config check — exec tier and fast-forward are
  /// host knobs, excluded from the fingerprint by design.
  std::string exec_tier;  // "", "accurate", "superblock"
  int fast_forward = -1;  // -1 recorded, 0 off, 1 on
  unsigned jobs = 0;      // campaign worker override; 0 = recorded

  /// Deliberate architecture mutations (knob=value) applied to the
  /// replayed config — the "seeded defect" the oracle must catch.
  std::vector<std::pair<std::string, u64>> mutations;

  /// Context frames reported on each side of the first divergent cycle.
  unsigned context_frames = 8;
};

/// One differing architectural field at the first divergent cycle.
struct FieldDiff {
  std::string component;
  std::string field;
  u64 expected = 0;
  u64 actual = 0;
};

/// One context row around the divergence: per-cycle fingerprints from
/// the reference (expected) and test (actual) runs.
struct ContextRow {
  u64 cycle = 0;
  u64 expected_fp = 0;
  u64 actual_fp = 0;
  bool match = false;
  bool missing = false;  // the test run produced no frame at this cycle
};

struct Divergence {
  bool found = false;
  std::string kind;  // "frame" | "window" | "campaign" | "summary"

  // Frame/window granularity.
  u64 window_index = 0;
  u64 window_start = 0;  // first cycle of the window
  u64 window_end = 0;    // one past the last cycle
  u64 cycle = 0;         // first divergent cycle (kind == "frame")
  bool frame_missing = false;
  /// The reference run under the recorded config reproduced the golden
  /// window (always so for "frame"; a "window" verdict blames the golden
  /// only when it did not).
  bool reference_matches = false;
  std::vector<std::string> components;  // divergent component sub-digests
  std::vector<FieldDiff> fields;
  std::vector<ContextRow> context;

  // Campaign granularity.
  std::string scenario;
  std::string expected_outcome;
  std::string actual_outcome;
  u64 expected_cycles = 0;
  u64 actual_cycles = 0;
  u64 expected_signature = 0;
  u64 actual_signature = 0;
  std::string expected_task;
  std::string actual_task;
};

struct ReplayResult {
  bool passed = false;
  std::string golden;     // spec name
  std::string exec_tier;  // tier the test run actually used
  bool fast_forward = true;
  u64 cycles = 0;          // test-run length (frame replays)
  u64 frames = 0;          // canonical frames digested
  u64 windows_checked = 0;
  u64 campaign_scenarios = 0;  // scenario rows verified (campaign goldens)
  /// Summary-level keys that mismatched ("stream", "total_frames",
  /// "cycles", "instructions", "mcds_hash", "mcds_messages", "dag_hash",
  /// "classification_hash", "windows").
  std::vector<std::string> mismatches;
  Divergence divergence;

  /// Structured divergence report (schema kDivergenceSchema).
  std::string to_json() const;
  /// Human-readable verdict for the CLI.
  std::string format() const;
};

/// Apply one mutation knob to a config. Knobs: flash_ws, lmu_latency,
/// spr_latency, dflash_read, dflash_write, icache, dcache, issue_width.
/// Rejects a value the knob's field cannot hold (above 2^32-1, or above 1
/// for the cache switches) and one that makes the config invalid.
Status apply_mutation(soc::SocConfig& config, const std::string& knob,
                      u64 value);

/// Re-run `spec` under `options` and verify every recorded digest.
/// Returns an error Status only when the scenario cannot be built at
/// all; a diverging replay returns a ReplayResult with passed == false.
Result<ReplayResult> run_replay(const ReplaySpec& spec,
                                const OracleOptions& options = {});

}  // namespace audo::replay
