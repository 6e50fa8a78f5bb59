// Crash-resilient campaign journal: an append-only JSONL manifest that
// records the identity of a fault campaign (workload, seed, configuration
// fingerprint, scenario count) followed by one line per completed
// scenario. Because every line is flushed and fsync()ed as it is
// appended, a campaign killed at any point — including kill -9 mid-write
// — leaves a manifest whose intact prefix is a faithful record of the
// work already done. `audo-faultcamp --resume <manifest>` replays that
// prefix instead of re-running it, skips completed scenarios, and merges
// journaled and fresh results into the same report and
// classification_hash an uninterrupted campaign would have produced.
//
// Lives in src/host (not src/optimize) because it is generic journaling
// infrastructure: records are plain data, and the optimize layer adapts
// its ScenarioResult to/from them.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::host {

/// Identity of the campaign a manifest belongs to. Resuming under a
/// different identity is refused — a manifest only makes sense for the
/// exact (workload, seed, configuration, scenario set) it was started
/// with.
struct CampaignHeader {
  std::string workload;
  u64 campaign_seed = 0;
  u64 config_fingerprint = 0;
  u64 scenario_count = 0;
};

/// One journaled scenario outcome. Mirrors optimize::ScenarioResult as
/// plain data (the outcome is its string name, arrays are vectors) so
/// the host layer needs no dependency on the optimize layer.
struct ScenarioRecord {
  std::string name;
  u64 seed = 0;
  std::string outcome;
  u64 cycles = 0;
  bool halted = false;
  u64 signature = 0;
  std::string task;
  std::vector<u64> injected;
  std::vector<u64> alarms;
  u64 budget_cycles = 0;
  u64 timeout_ms = 0;
  u32 attempts = 1;
  /// Manifest line the record was loaded from (0 when not loaded).
  usize line = 0;
};

/// Everything recoverable from a manifest file.
struct ManifestContents {
  CampaignHeader header;
  std::vector<ScenarioRecord> records;
};

/// Append-only JSONL journal. Thread-safe: scenario workers append from
/// pool threads. Each append is one complete line, flushed and fsynced
/// before returning, so the file never contains a torn record followed
/// by an intact one.
class CampaignManifest {
 public:
  CampaignManifest() = default;
  ~CampaignManifest() { close(); }
  CampaignManifest(const CampaignManifest&) = delete;
  CampaignManifest& operator=(const CampaignManifest&) = delete;

  /// Create/truncate `path` and write the header line.
  Status create(const std::string& path, const CampaignHeader& header);

  /// Open an existing manifest for appending further records (resume).
  Status open_append(const std::string& path);

  /// Journal one completed scenario (thread-safe, durable on return).
  Status append(const ScenarioRecord& record);

  void close();

  /// Parse a manifest. A torn trailing line (the crash happened
  /// mid-write) is silently dropped; a malformed line anywhere else is
  /// an error, and so is a header or record with a field missing or of
  /// the wrong type (the error names the line and the field). Missing
  /// header = error.
  static Result<ManifestContents> load(const std::string& path);

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace audo::host
