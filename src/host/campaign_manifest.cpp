#include "host/campaign_manifest.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/json.hpp"

namespace audo::host {

namespace {

constexpr const char* kManifestKind = "audo-campaign-manifest";
constexpr u64 kManifestVersion = 1;

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
  json::JsonWriter w;
  w.begin_object();
  w.kv("kind", kManifestKind);
  w.kv("version", kManifestVersion);
  json::write_fields(w, header);
  w.end_object();
  const std::string line = std::move(w).str() + "\n";
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
  json::JsonWriter w;
  w.begin_object();
  json::write_fields(w, record);
  w.end_object();
  const std::string line = std::move(w).str() + "\n";
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
    const json::JsonValue& fields = parsed.value();
    if (!have_header) {
      const json::JsonValue* kind = fields.find("kind");
      if (kind == nullptr || !kind->is_string() ||
          kind->string != kManifestKind) {
        return error(StatusCode::kInvalidArgument,
                     path + ": not a campaign manifest");
      }
      const json::JsonValue* version = fields.find("version");
      if (version == nullptr || version->as_u64() != kManifestVersion) {
        return error(StatusCode::kInvalidArgument,
                     path + ": unsupported manifest version");
      }
      if (Status s = json::read_fields(fields, out.header, where);
          !s.is_ok()) {
        return s;
      }
      have_header = true;
      continue;
    }
    ScenarioRecord r;
    if (Status s = json::read_fields(fields, r, where); !s.is_ok()) return s;
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
