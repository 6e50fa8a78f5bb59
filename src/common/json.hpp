// Minimal JSON support for the host-side telemetry layer.
//
// Two halves, both deliberately tiny:
//  * JsonWriter — a streaming writer with automatic comma/indent handling,
//    used by the RunReport and Perfetto exporters. Numbers are emitted in
//    a locale-independent way; doubles round-trip via max_digits10.
//  * JsonValue / json_parse — a recursive-descent parser producing a plain
//    value tree. Used by tests (Perfetto/report validity checks) and the
//    report schema checker; not a hot path, clarity over speed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace audo::json {

/// Escape a string for inclusion in a JSON document (adds quotes).
std::string quote(std::string_view s);

/// Streaming JSON writer. Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("cycles"); w.value(u64{42});
///   w.key("series"); w.begin_array(); w.value(1.5); w.end_array();
///   w.end_object();
///   std::string doc = std::move(w).str();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit an object key; the next emitted value belongs to it.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v);
  void value(double v);
  void value(u64 v);
  void value(i64 v);
  void value(u32 v) { value(static_cast<u64>(v)); }
  void value(int v) { value(static_cast<i64>(v)); }

  /// Shorthand for key() + value().
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  void separator();

  std::string out_;
  // One level per open container: true when at least one element was
  // written (a comma is needed before the next one).
  std::vector<bool> wrote_element_;
  bool pending_key_ = false;
};

/// A parsed JSON value. Numbers are kept as double (sufficient for the
/// telemetry documents we validate; cycle counts below 2^53 are exact)
/// plus the raw source literal, so consumers that need full 64-bit
/// precision (hashes, fingerprints, signatures) can re-parse it exactly
/// via as_u64().
struct JsonValue {
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Verbatim number literal from the document ("" for non-numbers).
  std::string number_literal;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Exact unsigned 64-bit value of an integer literal (doubles round
  /// u64s above 2^53; this does not). Falls back to the double value for
  /// non-integer literals; 0 for non-numbers and for numbers outside
  /// [0, 2^64).
  u64 as_u64() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
};

/// Parse a complete JSON document (rejects trailing garbage, and arrays
/// and objects nested more than 256 deep).
Result<JsonValue> json_parse(std::string_view text);

}  // namespace audo::json
