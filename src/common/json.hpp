// Minimal JSON support for the host-side telemetry layer.
//
// Three parts, all deliberately small:
//  * JsonWriter — a streaming writer with automatic comma/indent handling,
//    used by the RunReport and Perfetto exporters. Numbers are emitted in
//    a locale-independent way; doubles round-trip via max_digits10.
//  * JsonValue / json_parse — a recursive-descent parser producing a plain
//    value tree. Used by tests (Perfetto/report validity checks) and the
//    report schema checker; not a hot path, clarity over speed.
//  * write_fields / read_fields — a persisted record's fields, named once
//    by its visit_fields (common/fields.hpp), written through JsonWriter
//    and read back strictly: replay goldens and campaign journals.
#pragma once

#include <array>
#include <limits>
#include <map>
#include <optional>
#include <ranges>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hpp"
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
/// precision (hashes, fingerprints, signatures) can read it exactly via
/// as_u64().
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

  /// Exact value of a plain unsigned integer literal below 2^64, as the
  /// writer emits every u64 (doubles round u64s above 2^53; this does
  /// not). Empty for non-numbers and for literals with a sign, fraction
  /// or exponent, or too large.
  std::optional<u64> as_u64() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
};

/// Parse a complete JSON document (rejects trailing garbage, and arrays
/// and objects nested more than 256 deep).
Result<JsonValue> json_parse(std::string_view text);

/// Writes the fields a record's visit_fields names as members of the
/// object open in a JsonWriter: numbers and enums as unsigned integers,
/// named enums as their names, nested records as objects.
class RecordWriter {
 public:
  explicit RecordWriter(JsonWriter& w) : w_(w) {}

  template <typename F>
  void operator()(std::string_view key, const F& field) {
    w_.key(key);
    write(field);
  }
  template <typename F, typename Last>
  void operator()(std::string_view key, const F& field, const Last&) {
    (*this)(key, field);
  }
  template <typename E, usize N>
  void operator()(std::string_view key, const E& field,
                  const std::array<const char*, N>& names) {
    w_.kv(key, names[static_cast<usize>(field)]);
  }
  template <typename... A>
  void host(std::string_view key, const A&... a) {
    (*this)(key, a...);
  }

 private:
  template <typename F>
  void write(const F& field) {
    if constexpr (std::is_same_v<F, std::string>) {
      w_.value(std::string_view(field));
    } else if constexpr (std::is_same_v<F, bool>) {
      w_.value(field);
    } else if constexpr (std::is_unsigned_v<F> || std::is_enum_v<F>) {
      w_.value(static_cast<u64>(field));
    } else if constexpr (std::ranges::range<F>) {
      w_.begin_array();
      for (const auto& element : field) write(element);
      w_.end_array();
    } else {
      w_.begin_object();
      visit_fields(field, *this);
      w_.end_object();
    }
  }

  JsonWriter& w_;
};

/// Reads the fields a record's visit_fields names from a parsed object,
/// strictly: every field must be present with its JSON type, and every
/// number must be a plain unsigned integer literal that fits the field's
/// width, bound or enum. Keys the record does not name are ignored. The
/// first bad field is kept for status(); later reads leave it.
class RecordReader {
 public:
  explicit RecordReader(const JsonValue& object)
      : object_(object), error_(own_error_) {}
  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  template <typename F>
  void operator()(const char* key, F& field) {
    const JsonValue* v = object_.find(key);
    if constexpr (std::is_same_v<F, std::string>) {
      if (v != nullptr && v->is_string()) {
        field = v->string;
      } else {
        fail(key, "a string");
      }
    } else if constexpr (std::is_same_v<F, bool>) {
      if (v != nullptr && v->kind == JsonValue::Kind::kBool) {
        field = v->boolean;
      } else {
        fail(key, "true or false");
      }
    } else if constexpr (std::is_unsigned_v<F>) {
      (*this)(key, field, std::numeric_limits<F>::max());
    } else if constexpr (std::ranges::range<F>) {
      using Element = std::ranges::range_value_t<F>;
      if constexpr (std::is_unsigned_v<Element>) {
        read_numbers(key, field, std::numeric_limits<Element>::max());
      } else if (v == nullptr || !v->is_array()) {
        fail(key, "an array of objects");
      } else {
        field.resize(v->array.size());
        for (usize i = 0; i < field.size(); ++i) {
          nested(std::string(key) + "[" + std::to_string(i) + "]",
                 &v->array[i], field[i], "an array of objects");
        }
      }
    } else {
      nested(key, v, field, "an object");
    }
  }
  template <typename F>
  void operator()(const char* key, F& field, F last) {
    if (const std::optional<u64> n = number(key, static_cast<u64>(last))) {
      field = static_cast<F>(*n);
    }
  }
  template <typename E, usize N>
  void operator()(const char* key, E (&field)[N], E last) {
    read_numbers(key, field, static_cast<u64>(last));
  }
  template <typename E, usize N>
  void operator()(const char* key, E& field,
                  const std::array<const char*, N>& names) {
    if (const std::optional<usize> i = name(key, names.data(), N)) {
      field = static_cast<E>(*i);
    }
  }
  template <typename... A>
  void host(const char* key, A&... a) {
    (*this)(key, a...);
  }

  /// OK, or an error naming `where` and the first bad field.
  Status status(const std::string& where) const;

 private:
  RecordReader(const JsonValue& object, std::string prefix, std::string& error)
      : object_(object), prefix_(std::move(prefix)), error_(error) {}

  template <typename R>
  void nested(const std::string& key, const JsonValue* v, R& record,
              const char* type) {
    if (v == nullptr || !v->is_object()) {
      fail(key, type);
      return;
    }
    RecordReader reader(*v, prefix_ + key + ".", error_);
    visit_fields(record, reader);
  }
  // An array of unsigned integers no greater than `last`: any length into
  // a vector, exactly its own length into an array.
  template <typename F>
  void read_numbers(const char* key, F& field, u64 last) {
    constexpr bool kVector = requires(F& f) { f.resize(0); };
    std::vector<u64> read;
    if (!numbers(key, kVector ? 0 : std::size(field), last, read)) return;
    if constexpr (kVector) field.resize(read.size());
    for (usize i = 0; i < read.size(); ++i) {
      field[i] = static_cast<std::ranges::range_value_t<F>>(read[i]);
    }
  }

  std::optional<u64> number(const char* key, u64 last);
  bool numbers(const char* key, usize size, u64 last, std::vector<u64>& out);
  std::optional<usize> name(const char* key, const char* const* names,
                            usize count);
  void fail(const std::string& key, const std::string& type);

  const JsonValue& object_;
  std::string prefix_;  // path of object_ in the document, "" at the top
  std::string own_error_;
  std::string& error_;  // the first bad field, "" while there is none
};

/// Writes `record`'s fields into the object open in `w` (RecordWriter).
template <typename T>
void write_fields(JsonWriter& w, const T& record) {
  RecordWriter writer(w);
  visit_fields(record, writer);
}

/// Reads `record`'s fields from `object` (RecordReader): OK, or an error
/// "<where>: field \"<name>\" is missing or not <type>".
template <typename T>
Status read_fields(const JsonValue& object, T& record,
                   const std::string& where) {
  RecordReader reader(object);
  visit_fields(record, reader);
  return reader.status(where);
}

}  // namespace audo::json
