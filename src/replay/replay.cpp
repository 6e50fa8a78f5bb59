#include "replay/replay.hpp"

#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace audo::replay {

std::string ReplaySpec::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.kv("schema", kReplaySchema);
  json::write_fields(w, *this);
  w.end_object();
  std::string out = std::move(w).str();
  out.push_back('\n');
  return out;
}

Result<ReplaySpec> ReplaySpec::from_json(std::string_view text) {
  auto parsed = json::json_parse(text);
  if (!parsed.is_ok()) {
    return error(StatusCode::kParseError,
                 "replay spec: " + parsed.status().message());
  }
  const json::JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return error(StatusCode::kParseError, "replay spec: not a JSON object");
  }
  const json::JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kReplaySchema) {
    return error(StatusCode::kParseError,
                 "replay spec: schema is not '" + std::string(kReplaySchema) +
                     "' (got '" +
                     (schema != nullptr ? schema->string : "<missing>") + "')");
  }

  ReplaySpec spec;
  if (Status s = json::read_fields(root, spec, "replay spec"); !s.is_ok()) {
    return s;
  }
  if (spec.scenario.kind != "engine" && spec.scenario.kind != "transmission") {
    return error(StatusCode::kParseError,
                 "replay spec: unknown scenario kind '" + spec.scenario.kind +
                     "'");
  }
  if (!spec.config.valid()) {
    return error(StatusCode::kParseError,
                 "replay spec: reconstructed SocConfig is invalid");
  }
  // The reconstructed config must hash back to the recorded fingerprint:
  // a spec whose knobs were edited by hand (or bit-rotted) is rejected
  // here, not mis-replayed. Oracle-applied mutations happen after load.
  if (spec.config.fingerprint() != spec.config_fingerprint) {
    return error(StatusCode::kParseError,
                 "replay spec: config fingerprint mismatch (file edited or "
                 "knob serialization drifted)");
  }
  return spec;
}

Status ReplaySpec::to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return error(StatusCode::kNotFound, "cannot open " + path + " for write");
  }
  out << to_json();
  if (!out) {
    return error(StatusCode::kResourceExhausted, "short write to " + path);
  }
  return Status::ok();
}

Result<ReplaySpec> ReplaySpec::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return error(StatusCode::kNotFound, "cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

u64 hash_messages(const std::vector<mcds::TraceMessage>& messages) {
  u64 h = kFnvOffset;
  for (const mcds::TraceMessage& m : messages) {
    h = fnv1a(h, static_cast<u64>(m.kind));
    h = fnv1a(h, static_cast<u64>(m.source));
    h = fnv1a(h, m.cycle);
    h = fnv1a(h, m.pc);
    h = fnv1a(h, u64{m.instr_count});
    h = fnv1a(h, m.addr);
    h = fnv1a(h, u64{m.value});
    h = fnv1a(h, u64{m.write});
    h = fnv1a(h, u64{m.bytes});
    h = fnv1a(h, u64{m.group});
    h = fnv1a(h, u64{m.basis});
    h = fnv1a(h, u64{m.counts.size()});
    for (const u32 c : m.counts) h = fnv1a(h, u64{c});
    h = fnv1a(h, u64{m.id});
    h = fnv1a(h, u64{m.irq_entry});
  }
  return h;
}

}  // namespace audo::replay
