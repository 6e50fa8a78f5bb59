#include "host/campaign_manifest.hpp"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>

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

// Reads one manifest line's fields. Every field must be present with its
// type: a missing or mistyped one would otherwise load as 0, false or
// empty and change what a resumed scenario reports. The first bad field
// is kept for the error, which names the line and the field.
class FieldReader {
 public:
  explicit FieldReader(const json::JsonValue& obj) : obj_(obj) {}

  std::string string(const char* key) {
    const json::JsonValue* v = obj_.find(key);
    if (v != nullptr && v->is_string()) return v->string;
    fail(key, "a string");
    return {};
  }
  u64 number(const char* key) {
    const json::JsonValue* v = obj_.find(key);
    u64 out = 0;
    if (v == nullptr || !exact_u64(*v, out)) fail(key, "an unsigned integer");
    return out;
  }
  u32 number32(const char* key) {
    const u64 out = number(key);
    if (out <= std::numeric_limits<u32>::max()) return static_cast<u32>(out);
    fail(key, "a 32-bit unsigned integer");
    return 0;
  }
  bool boolean(const char* key) {
    const json::JsonValue* v = obj_.find(key);
    if (v != nullptr && v->kind == json::JsonValue::Kind::kBool) {
      return v->boolean;
    }
    fail(key, "true or false");
    return false;
  }
  std::vector<u64> numbers(const char* key) {
    const json::JsonValue* v = obj_.find(key);
    std::vector<u64> out;
    bool exact = v != nullptr && v->is_array();
    if (exact) {
      out.resize(v->array.size());
      for (usize i = 0; i < out.size() && exact; ++i) {
        exact = exact_u64(v->array[i], out[i]);
      }
    }
    if (!exact) fail(key, "an array of unsigned integers");
    return out;
  }

  /// OK, or an error naming `where` and the first bad field.
  Status status(const std::string& where) const {
    if (bad_key_ == nullptr) return Status::ok();
    return error(StatusCode::kInvalidArgument,
                 where + ": field \"" + bad_key_ + "\" is missing or not " +
                     bad_type_);
  }

 private:
  // A plain unsigned integer literal that fits in 64 bits: what the
  // writer emits for every number.
  static bool exact_u64(const json::JsonValue& v, u64& out) {
    const std::string& literal = v.number_literal;
    if (!v.is_number() || literal.empty() ||
        literal.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    const char* end = literal.data() + literal.size();
    const auto [ptr, ec] = std::from_chars(literal.data(), end, out);
    return ec == std::errc{} && ptr == end;
  }
  void fail(const char* key, const char* type) {
    if (bad_key_ != nullptr) return;
    bad_key_ = key;
    bad_type_ = type;
  }

  const json::JsonValue& obj_;
  const char* bad_key_ = nullptr;
  const char* bad_type_ = nullptr;
};

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
    const std::string where = path + ":" + std::to_string(line_no);
    FieldReader fields(parsed.value());
    if (!have_header) {
      if (fields.string("kind") != kManifestKind) {
        return error(StatusCode::kInvalidArgument,
                     path + ": not a campaign manifest");
      }
      if (fields.number("version") != kManifestVersion) {
        return error(StatusCode::kInvalidArgument,
                     path + ": unsupported manifest version");
      }
      out.header.workload = fields.string("workload");
      out.header.campaign_seed = fields.number("campaign_seed");
      out.header.config_fingerprint = fields.number("config_fingerprint");
      out.header.scenario_count = fields.number("scenario_count");
      if (Status s = fields.status(where); !s.is_ok()) return s;
      have_header = true;
      continue;
    }
    ScenarioRecord r;
    r.name = fields.string("name");
    r.seed = fields.number("seed");
    r.outcome = fields.string("outcome");
    r.cycles = fields.number("cycles");
    r.halted = fields.boolean("halted");
    r.signature = fields.number("signature");
    r.task = fields.string("task");
    r.injected = fields.numbers("injected");
    r.alarms = fields.numbers("alarms");
    r.budget_cycles = fields.number("budget_cycles");
    r.timeout_ms = fields.number("timeout_ms");
    r.attempts = fields.number32("attempts");
    if (Status s = fields.status(where); !s.is_ok()) return s;
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
