#include "replay/replay.hpp"

#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace audo::replay {

namespace {

using json::JsonValue;
using json::JsonWriter;

// ---- writer helpers ------------------------------------------------------

void write_engine_options(JsonWriter& w, const workload::EngineOptions& o) {
  w.begin_object();
  w.kv("pcp_offload", o.pcp_offload);
  w.kv("use_dma_for_adc", o.use_dma_for_adc);
  w.kv("table_dim", u64{o.table_dim});
  w.kv("tables_in_dspr", o.tables_in_dspr);
  w.kv("interpolate", o.interpolate);
  w.kv("measure_latency", o.measure_latency);
  w.kv("diag_words", u64{o.diag_words});
  w.kv("diag_uncached", o.diag_uncached);
  w.kv("diag_stride_bytes", u64{o.diag_stride_bytes});
  w.kv("journal_every", u64{o.journal_every});
  w.kv("can_ring_in_lmu", o.can_ring_in_lmu);
  w.kv("halt_after_revs", u64{o.halt_after_revs});
  w.kv("halt_after_bg", u64{o.halt_after_bg});
  w.kv("idle_background", o.idle_background);
  w.kv("rpm", u64{o.rpm});
  w.kv("crank_time_scale", u64{o.crank_time_scale});
  w.kv("stm_period", u64{o.stm_period});
  w.kv("adc_period", u64{o.adc_period});
  w.kv("can_rx_period", u64{o.can_rx_period});
  w.kv("wdt_period", u64{o.wdt_period});
  w.kv("prio_stm", u64{o.prio_stm});
  w.kv("prio_dma_done", u64{o.prio_dma_done});
  w.kv("prio_can_rx", u64{o.prio_can_rx});
  w.kv("prio_adc", u64{o.prio_adc});
  w.kv("prio_tooth", u64{o.prio_tooth});
  w.kv("prio_sync", u64{o.prio_sync});
  w.end_object();
}

void write_transmission_options(JsonWriter& w,
                                const workload::TransmissionOptions& o) {
  w.begin_object();
  w.kv("map_dim", u64{o.map_dim});
  w.kv("rpm", u64{o.rpm});
  w.kv("time_scale", u64{o.time_scale});
  w.kv("stm_period", u64{o.stm_period});
  w.kv("can_rx_period", u64{o.can_rx_period});
  w.kv("adc_period", u64{o.adc_period});
  w.kv("wdt_period", u64{o.wdt_period});
  w.kv("halt_after_tasks", u64{o.halt_after_tasks});
  w.kv("prio_stm", u64{o.prio_stm});
  w.kv("prio_can_rx", u64{o.prio_can_rx});
  w.kv("prio_adc", u64{o.prio_adc});
  w.kv("prio_pulse", u64{o.prio_pulse});
  w.kv("prio_sync", u64{o.prio_sync});
  w.end_object();
}

void write_cache(JsonWriter& w, const cache::CacheConfig& c) {
  w.begin_object();
  w.kv("enabled", c.enabled);
  w.kv("size_bytes", u64{c.size_bytes});
  w.kv("ways", u64{c.ways});
  w.kv("line_bytes", u64{c.line_bytes});
  w.kv("replacement", static_cast<u64>(c.replacement));
  w.end_object();
}

void write_config(JsonWriter& w, const soc::SocConfig& c) {
  w.begin_object();
  w.kv("name", c.name);
  w.kv("clock_hz", c.clock_hz);
  w.key("pflash");
  w.begin_object();
  w.kv("size", u64{c.pflash.size});
  w.kv("wait_states", u64{c.pflash.wait_states});
  w.kv("line_bytes", u64{c.pflash.line_bytes});
  w.kv("code_buffers", u64{c.pflash.code_buffers});
  w.kv("data_buffers", u64{c.pflash.data_buffers});
  w.kv("sequential_prefetch", c.pflash.sequential_prefetch);
  w.end_object();
  w.key("dflash");
  w.begin_object();
  w.kv("size", u64{c.dflash.size});
  w.kv("read_latency", u64{c.dflash.read_latency});
  w.kv("write_latency", u64{c.dflash.write_latency});
  w.end_object();
  w.key("icache");
  write_cache(w, c.icache);
  w.key("dcache");
  write_cache(w, c.dcache);
  w.kv("dspr_bytes", u64{c.dspr_bytes});
  w.kv("pspr_bytes", u64{c.pspr_bytes});
  w.kv("lmu_bytes", u64{c.lmu_bytes});
  w.kv("lmu_latency", u64{c.lmu_latency});
  w.kv("has_pcp", c.has_pcp);
  w.kv("pcp_pram_bytes", u64{c.pcp_pram_bytes});
  w.kv("pcp_dram_bytes", u64{c.pcp_dram_bytes});
  w.kv("tc_issue_width", u64{c.tc_issue_width});
  w.kv("dma_channels", u64{c.dma_channels});
  w.kv("arbitration", static_cast<u64>(c.arbitration));
  w.kv("spr_slave_latency", u64{c.spr_slave_latency});
  w.key("safety");
  w.begin_object();
  w.kv("monitor_enabled", c.safety.monitor_enabled);
  w.kv("ecc_pflash", c.safety.ecc_pflash);
  w.kv("ecc_sram", c.safety.ecc_sram);
  w.key("reactions");
  w.begin_array();
  for (const fault::Reaction r : c.safety.reactions) {
    w.value(static_cast<u64>(r));
  }
  w.end_array();
  w.end_object();
  w.kv("fast_forward", c.fast_forward);
  w.kv("exec_tier", c.exec_tier == soc::SocConfig::ExecTier::kSuperblock
                        ? "superblock"
                        : "accurate");
  w.end_object();
}

// ---- strict parse helpers ------------------------------------------------
//
// Every accessor appends to `err` on shape violations; the caller checks
// once at the end of each section. This keeps the happy path linear while
// still naming the first offending key.

struct Parser {
  std::string err;

  const JsonValue* object(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (m == nullptr || !m->is_object()) {
      fail(key, "missing object");
      return nullptr;
    }
    return m;
  }
  const JsonValue* array(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (m == nullptr || !m->is_array()) {
      fail(key, "missing array");
      return nullptr;
    }
    return m;
  }
  u64 num(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (m == nullptr || !m->is_number()) {
      fail(key, "missing number");
      return 0;
    }
    return m->as_u64();
  }
  bool boolean(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (m == nullptr || m->kind != JsonValue::Kind::kBool) {
      fail(key, "missing bool");
      return false;
    }
    return m->boolean;
  }
  std::string str(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (m == nullptr || !m->is_string()) {
      fail(key, "missing string");
      return {};
    }
    return m->string;
  }
  void fail(const char* key, const char* what) {
    if (err.empty()) err = std::string(what) + ": '" + key + "'";
  }
};

void parse_engine_options(Parser& p, const JsonValue& v,
                          workload::EngineOptions& o) {
  o.pcp_offload = p.boolean(v, "pcp_offload");
  o.use_dma_for_adc = p.boolean(v, "use_dma_for_adc");
  o.table_dim = static_cast<u32>(p.num(v, "table_dim"));
  o.tables_in_dspr = p.boolean(v, "tables_in_dspr");
  o.interpolate = p.boolean(v, "interpolate");
  o.measure_latency = p.boolean(v, "measure_latency");
  o.diag_words = static_cast<u32>(p.num(v, "diag_words"));
  o.diag_uncached = p.boolean(v, "diag_uncached");
  o.diag_stride_bytes = static_cast<u32>(p.num(v, "diag_stride_bytes"));
  o.journal_every = static_cast<u32>(p.num(v, "journal_every"));
  o.can_ring_in_lmu = p.boolean(v, "can_ring_in_lmu");
  o.halt_after_revs = static_cast<u32>(p.num(v, "halt_after_revs"));
  o.halt_after_bg = static_cast<u32>(p.num(v, "halt_after_bg"));
  o.idle_background = p.boolean(v, "idle_background");
  o.rpm = static_cast<u32>(p.num(v, "rpm"));
  o.crank_time_scale = static_cast<u32>(p.num(v, "crank_time_scale"));
  o.stm_period = static_cast<u32>(p.num(v, "stm_period"));
  o.adc_period = static_cast<u32>(p.num(v, "adc_period"));
  o.can_rx_period = static_cast<u32>(p.num(v, "can_rx_period"));
  o.wdt_period = static_cast<u32>(p.num(v, "wdt_period"));
  o.prio_stm = static_cast<u8>(p.num(v, "prio_stm"));
  o.prio_dma_done = static_cast<u8>(p.num(v, "prio_dma_done"));
  o.prio_can_rx = static_cast<u8>(p.num(v, "prio_can_rx"));
  o.prio_adc = static_cast<u8>(p.num(v, "prio_adc"));
  o.prio_tooth = static_cast<u8>(p.num(v, "prio_tooth"));
  o.prio_sync = static_cast<u8>(p.num(v, "prio_sync"));
}

void parse_transmission_options(Parser& p, const JsonValue& v,
                                workload::TransmissionOptions& o) {
  o.map_dim = static_cast<u32>(p.num(v, "map_dim"));
  o.rpm = static_cast<u32>(p.num(v, "rpm"));
  o.time_scale = static_cast<u32>(p.num(v, "time_scale"));
  o.stm_period = static_cast<u32>(p.num(v, "stm_period"));
  o.can_rx_period = static_cast<u32>(p.num(v, "can_rx_period"));
  o.adc_period = static_cast<u32>(p.num(v, "adc_period"));
  o.wdt_period = static_cast<u32>(p.num(v, "wdt_period"));
  o.halt_after_tasks = static_cast<u32>(p.num(v, "halt_after_tasks"));
  o.prio_stm = static_cast<u8>(p.num(v, "prio_stm"));
  o.prio_can_rx = static_cast<u8>(p.num(v, "prio_can_rx"));
  o.prio_adc = static_cast<u8>(p.num(v, "prio_adc"));
  o.prio_pulse = static_cast<u8>(p.num(v, "prio_pulse"));
  o.prio_sync = static_cast<u8>(p.num(v, "prio_sync"));
}

void parse_cache(Parser& p, const JsonValue& v, cache::CacheConfig& c) {
  c.enabled = p.boolean(v, "enabled");
  c.size_bytes = static_cast<u32>(p.num(v, "size_bytes"));
  c.ways = static_cast<unsigned>(p.num(v, "ways"));
  c.line_bytes = static_cast<unsigned>(p.num(v, "line_bytes"));
  c.replacement = static_cast<cache::Replacement>(p.num(v, "replacement"));
}

void parse_config(Parser& p, const JsonValue& v, soc::SocConfig& c) {
  c.name = p.str(v, "name");
  c.clock_hz = p.num(v, "clock_hz");
  if (const JsonValue* f = p.object(v, "pflash")) {
    c.pflash.size = static_cast<u32>(p.num(*f, "size"));
    c.pflash.wait_states = static_cast<unsigned>(p.num(*f, "wait_states"));
    c.pflash.line_bytes = static_cast<unsigned>(p.num(*f, "line_bytes"));
    c.pflash.code_buffers = static_cast<unsigned>(p.num(*f, "code_buffers"));
    c.pflash.data_buffers = static_cast<unsigned>(p.num(*f, "data_buffers"));
    c.pflash.sequential_prefetch = p.boolean(*f, "sequential_prefetch");
  }
  if (const JsonValue* f = p.object(v, "dflash")) {
    c.dflash.size = static_cast<u32>(p.num(*f, "size"));
    c.dflash.read_latency = static_cast<unsigned>(p.num(*f, "read_latency"));
    c.dflash.write_latency = static_cast<unsigned>(p.num(*f, "write_latency"));
  }
  if (const JsonValue* f = p.object(v, "icache")) parse_cache(p, *f, c.icache);
  if (const JsonValue* f = p.object(v, "dcache")) parse_cache(p, *f, c.dcache);
  c.dspr_bytes = static_cast<u32>(p.num(v, "dspr_bytes"));
  c.pspr_bytes = static_cast<u32>(p.num(v, "pspr_bytes"));
  c.lmu_bytes = static_cast<u32>(p.num(v, "lmu_bytes"));
  c.lmu_latency = static_cast<unsigned>(p.num(v, "lmu_latency"));
  c.has_pcp = p.boolean(v, "has_pcp");
  c.pcp_pram_bytes = static_cast<u32>(p.num(v, "pcp_pram_bytes"));
  c.pcp_dram_bytes = static_cast<u32>(p.num(v, "pcp_dram_bytes"));
  c.tc_issue_width = static_cast<unsigned>(p.num(v, "tc_issue_width"));
  c.dma_channels = static_cast<unsigned>(p.num(v, "dma_channels"));
  c.arbitration = static_cast<bus::ArbitrationPolicy>(p.num(v, "arbitration"));
  c.spr_slave_latency =
      static_cast<unsigned>(p.num(v, "spr_slave_latency"));
  if (const JsonValue* s = p.object(v, "safety")) {
    c.safety.monitor_enabled = p.boolean(*s, "monitor_enabled");
    c.safety.ecc_pflash = p.boolean(*s, "ecc_pflash");
    c.safety.ecc_sram = p.boolean(*s, "ecc_sram");
    if (const JsonValue* r = p.array(*s, "reactions")) {
      if (r->array.size() != fault::kNumAlarmKinds) {
        p.fail("reactions", "wrong array length for");
      } else {
        for (usize i = 0; i < r->array.size(); ++i) {
          c.safety.reactions[i] =
              static_cast<fault::Reaction>(r->array[i].as_u64());
        }
      }
    }
  }
  c.fast_forward = p.boolean(v, "fast_forward");
  const std::string tier = p.str(v, "exec_tier");
  if (tier == "superblock") {
    c.exec_tier = soc::SocConfig::ExecTier::kSuperblock;
  } else if (tier == "accurate") {
    c.exec_tier = soc::SocConfig::ExecTier::kAccurate;
  } else if (p.err.empty()) {
    p.fail("exec_tier", "unknown value for");
  }
}

}  // namespace

std::string ReplaySpec::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kReplaySchema);
  w.kv("name", name);
  w.key("scenario");
  w.begin_object();
  w.kv("kind", scenario.kind);
  w.kv("run_cycles", scenario.run_cycles);
  w.key("engine");
  write_engine_options(w, scenario.engine);
  w.key("transmission");
  write_transmission_options(w, scenario.transmission);
  w.key("session");
  w.begin_object();
  w.kv("enabled", scenario.session.enabled);
  w.kv("resolution", u64{scenario.session.resolution});
  w.kv("program_trace", scenario.session.program_trace);
  w.kv("irq_trace", scenario.session.irq_trace);
  w.kv("dag", scenario.session.dag);
  w.end_object();
  w.end_object();
  w.key("config");
  write_config(w, config);
  w.kv("config_fingerprint", config_fingerprint);
  w.kv("cycles", cycles);
  w.kv("instructions", instructions);
  w.key("digests");
  w.begin_object();
  w.kv("window_bits", u64{digests.window_bits});
  w.kv("total_frames", digests.total_frames);
  w.kv("stream", digests.stream);
  w.kv("mcds_messages", digests.mcds_messages);
  w.kv("mcds_hash", digests.mcds_hash);
  w.kv("dag_hash", digests.dag_hash);
  w.key("windows");
  w.begin_array();
  for (const soc::WindowedFrameDigest::Window& win : digests.windows) {
    w.begin_object();
    w.kv("index", win.index);
    w.kv("frames", win.frames);
    w.kv("digest", win.digest);
    w.key("components");
    w.begin_array();
    for (const u64 c : win.components) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("campaign");
  w.begin_object();
  w.kv("enabled", campaign.enabled);
  w.kv("seed", campaign.seed);
  w.kv("scenarios", u64{campaign.scenarios});
  w.kv("jobs", u64{campaign.jobs});
  w.kv("budget_cycles", campaign.budget_cycles);
  w.kv("classification_hash", campaign.classification_hash);
  w.key("runs");
  w.begin_array();
  for (const CampaignSpec::Run& r : campaign.runs) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("outcome", r.outcome);
    w.kv("cycles", r.cycles);
    w.kv("signature", r.signature);
    w.kv("task", r.task);
    w.end_object();
  }
  w.end_array();
  w.end_object();
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
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return error(StatusCode::kParseError, "replay spec: not a JSON object");
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kReplaySchema) {
    return error(StatusCode::kParseError,
                 "replay spec: schema is not '" + std::string(kReplaySchema) +
                     "' (got '" +
                     (schema != nullptr ? schema->string : "<missing>") + "')");
  }

  Parser p;
  ReplaySpec spec;
  spec.name = p.str(root, "name");
  if (const JsonValue* s = p.object(root, "scenario")) {
    spec.scenario.kind = p.str(*s, "kind");
    if (spec.scenario.kind != "engine" && spec.scenario.kind != "transmission") {
      p.fail("scenario.kind", "unknown value for");
    }
    spec.scenario.run_cycles = p.num(*s, "run_cycles");
    if (const JsonValue* e = p.object(*s, "engine")) {
      parse_engine_options(p, *e, spec.scenario.engine);
    }
    if (const JsonValue* t = p.object(*s, "transmission")) {
      parse_transmission_options(p, *t, spec.scenario.transmission);
    }
    if (const JsonValue* sess = p.object(*s, "session")) {
      spec.scenario.session.enabled = p.boolean(*sess, "enabled");
      spec.scenario.session.resolution =
          static_cast<u32>(p.num(*sess, "resolution"));
      spec.scenario.session.program_trace = p.boolean(*sess, "program_trace");
      spec.scenario.session.irq_trace = p.boolean(*sess, "irq_trace");
      spec.scenario.session.dag = p.boolean(*sess, "dag");
    }
  }
  if (const JsonValue* c = p.object(root, "config")) {
    parse_config(p, *c, spec.config);
  }
  spec.config_fingerprint = p.num(root, "config_fingerprint");
  spec.cycles = p.num(root, "cycles");
  spec.instructions = p.num(root, "instructions");
  if (const JsonValue* d = p.object(root, "digests")) {
    spec.digests.window_bits = static_cast<u32>(p.num(*d, "window_bits"));
    spec.digests.total_frames = p.num(*d, "total_frames");
    spec.digests.stream = p.num(*d, "stream");
    spec.digests.mcds_messages = p.num(*d, "mcds_messages");
    spec.digests.mcds_hash = p.num(*d, "mcds_hash");
    spec.digests.dag_hash = p.num(*d, "dag_hash");
    if (const JsonValue* ws = p.array(*d, "windows")) {
      for (const JsonValue& wv : ws->array) {
        if (!wv.is_object()) {
          p.fail("windows", "non-object element in");
          break;
        }
        soc::WindowedFrameDigest::Window win;
        win.index = p.num(wv, "index");
        win.frames = p.num(wv, "frames");
        win.digest = p.num(wv, "digest");
        if (const JsonValue* comps = p.array(wv, "components")) {
          if (comps->array.size() != win.components.size()) {
            p.fail("components", "wrong array length for");
          } else {
            for (usize i = 0; i < comps->array.size(); ++i) {
              win.components[i] = comps->array[i].as_u64();
            }
          }
        }
        spec.digests.windows.push_back(win);
      }
    }
  }
  if (const JsonValue* c = p.object(root, "campaign")) {
    spec.campaign.enabled = p.boolean(*c, "enabled");
    spec.campaign.seed = p.num(*c, "seed");
    spec.campaign.scenarios = static_cast<unsigned>(p.num(*c, "scenarios"));
    spec.campaign.jobs = static_cast<unsigned>(p.num(*c, "jobs"));
    spec.campaign.budget_cycles = p.num(*c, "budget_cycles");
    spec.campaign.classification_hash = p.num(*c, "classification_hash");
    if (const JsonValue* rs = p.array(*c, "runs")) {
      for (const JsonValue& rv : rs->array) {
        if (!rv.is_object()) {
          p.fail("runs", "non-object element in");
          break;
        }
        CampaignSpec::Run r;
        r.name = p.str(rv, "name");
        r.outcome = p.str(rv, "outcome");
        r.cycles = p.num(rv, "cycles");
        r.signature = p.num(rv, "signature");
        r.task = p.str(rv, "task");
        spec.campaign.runs.push_back(std::move(r));
      }
    }
  }
  if (!p.err.empty()) {
    return error(StatusCode::kParseError, "replay spec: " + p.err);
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
