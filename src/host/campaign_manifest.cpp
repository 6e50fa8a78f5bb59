#include "host/campaign_manifest.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/json.hpp"

namespace audo::host {

namespace {

constexpr const char* kManifestKind = "audo-campaign-manifest";
constexpr u64 kManifestVersion = 1;

std::string header_line(const CampaignHeader& h) {
  json::JsonWriter w;
  w.begin_object();
  w.kv("kind", kManifestKind);
  w.kv("version", kManifestVersion);
  w.kv("workload", h.workload);
  w.kv("campaign_seed", h.campaign_seed);
  w.kv("config_fingerprint", h.config_fingerprint);
  w.kv("scenario_count", h.scenario_count);
  w.end_object();
  return std::move(w).str();
}

std::string record_line(const ScenarioRecord& r) {
  json::JsonWriter w;
  w.begin_object();
  w.kv("name", r.name);
  w.kv("seed", r.seed);
  w.kv("outcome", r.outcome);
  w.kv("cycles", r.cycles);
  w.kv("halted", r.halted);
  w.kv("signature", r.signature);
  w.kv("task", r.task);
  w.key("injected");
  w.begin_array();
  for (u64 v : r.injected) w.value(v);
  w.end_array();
  w.key("alarms");
  w.begin_array();
  for (u64 v : r.alarms) w.value(v);
  w.end_array();
  w.kv("budget_cycles", r.budget_cycles);
  w.kv("timeout_ms", r.timeout_ms);
  w.kv("attempts", u64{r.attempts});
  w.end_object();
  return std::move(w).str();
}

u64 get_u64(const json::JsonValue& obj, const std::string& key) {
  const json::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_u64() : 0;
}

std::string get_string(const json::JsonValue& obj, const std::string& key) {
  const json::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

std::vector<u64> get_u64_array(const json::JsonValue& obj,
                               const std::string& key) {
  std::vector<u64> out;
  const json::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_array()) return out;
  out.reserve(v->array.size());
  for (const json::JsonValue& e : v->array) {
    out.push_back(e.is_number() ? e.as_u64() : 0);
  }
  return out;
}

Status errno_error(const std::string& what, const std::string& path) {
  return error(StatusCode::kNotFound,
               what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

Status CampaignManifest::create(const std::string& path,
                                const CampaignHeader& header) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return errno_error("cannot create", path);
  const std::string line = header_line(header) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return errno_error("cannot write", path);
  }
  ::fsync(::fileno(file_));
  return Status::ok();
}

Status CampaignManifest::open_append(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return errno_error("cannot open", path);
  return Status::ok();
}

Status CampaignManifest::append(const ScenarioRecord& record) {
  const std::string line = record_line(record) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return error(StatusCode::kFailedPrecondition, "manifest is not open");
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return error(StatusCode::kResourceExhausted, "manifest append failed");
  }
  // Durability point: after this returns, a kill -9 cannot lose the
  // scenario (at worst the *next* one's line is torn, which load()
  // tolerates).
  ::fsync(::fileno(file_));
  return Status::ok();
}

void CampaignManifest::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<ManifestContents> CampaignManifest::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return errno_error("cannot read", path);
  std::string text;
  char buf[4096];
  usize n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  ManifestContents out;
  bool have_header = false;
  usize pos = 0;
  usize line_no = 0;
  while (pos < text.size()) {
    const usize eol = text.find('\n', pos);
    ++line_no;
    if (eol == std::string::npos) {
      // No terminating newline: the process died mid-append. The torn
      // tail is not a completed record — drop it.
      break;
    }
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    Result<json::JsonValue> parsed = json::json_parse(line);
    if (!parsed.is_ok()) {
      return error(StatusCode::kInvalidArgument,
                   path + ":" + std::to_string(line_no) +
                       ": malformed manifest line");
    }
    const json::JsonValue& obj = parsed.value();
    if (!have_header) {
      if (get_string(obj, "kind") != kManifestKind) {
        return error(StatusCode::kInvalidArgument,
                     path + ": not a campaign manifest");
      }
      if (get_u64(obj, "version") != kManifestVersion) {
        return error(StatusCode::kInvalidArgument,
                     path + ": unsupported manifest version");
      }
      out.header.workload = get_string(obj, "workload");
      out.header.campaign_seed = get_u64(obj, "campaign_seed");
      out.header.config_fingerprint = get_u64(obj, "config_fingerprint");
      out.header.scenario_count = get_u64(obj, "scenario_count");
      have_header = true;
      continue;
    }
    ScenarioRecord r;
    r.name = get_string(obj, "name");
    r.seed = get_u64(obj, "seed");
    r.outcome = get_string(obj, "outcome");
    r.cycles = get_u64(obj, "cycles");
    const json::JsonValue* halted = obj.find("halted");
    r.halted = halted != nullptr && halted->boolean;
    r.signature = get_u64(obj, "signature");
    r.task = get_string(obj, "task");
    r.injected = get_u64_array(obj, "injected");
    r.alarms = get_u64_array(obj, "alarms");
    r.budget_cycles = get_u64(obj, "budget_cycles");
    r.timeout_ms = get_u64(obj, "timeout_ms");
    r.attempts = static_cast<u32>(get_u64(obj, "attempts"));
    r.line = line_no;
    out.records.push_back(std::move(r));
  }
  if (!have_header) {
    return error(StatusCode::kInvalidArgument,
                 path + ": missing manifest header");
  }
  return out;
}

}  // namespace audo::host
