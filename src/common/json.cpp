#include "common/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace audo::json {

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value right after its key: no comma
  }
  if (!wrote_element_.empty()) {
    if (wrote_element_.back()) out_.push_back(',');
    wrote_element_.back() = true;
  }
}

void JsonWriter::begin_object() {
  separator();
  out_.push_back('{');
  wrote_element_.push_back(false);
}

void JsonWriter::end_object() {
  wrote_element_.pop_back();
  out_.push_back('}');
}

void JsonWriter::begin_array() {
  separator();
  out_.push_back('[');
  wrote_element_.push_back(false);
}

void JsonWriter::end_array() {
  wrote_element_.pop_back();
  out_.push_back(']');
}

void JsonWriter::key(std::string_view k) {
  separator();
  out_ += quote(k);
  out_.push_back(':');
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  separator();
  out_ += quote(v);
}

void JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
}

void JsonWriter::value(double v) {
  separator();
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; clamp to null
    out_ += "null";
    return;
  }
  std::array<char, 40> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out_.append(buf.data(), res.ptr);
}

void JsonWriter::value(u64 v) {
  separator();
  out_ += std::to_string(v);
}

void JsonWriter::value(i64 v) {
  separator();
  out_ += std::to_string(v);
}

const JsonValue* JsonValue::find(const std::string& k) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(k);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<u64> JsonValue::as_u64() const {
  if (kind != Kind::kNumber || number_literal.empty() ||
      number_literal.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  u64 v = 0;
  const char* end = number_literal.data() + number_literal.size();
  const auto res = std::from_chars(number_literal.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return v;
}

Status RecordReader::status(const std::string& where) const {
  if (error_.empty()) return Status::ok();
  return error(StatusCode::kInvalidArgument, where + ": " + error_);
}

std::optional<u64> RecordReader::number(const char* key, u64 last) {
  const JsonValue* v = object_.find(key);
  const std::optional<u64> n =
      v != nullptr ? v->as_u64() : std::optional<u64>{};
  if (!n) {
    fail(key, "an unsigned integer");
    return std::nullopt;
  }
  if (*n <= last) return n;
  if (last == std::numeric_limits<u8>::max()) {
    fail(key, "an 8-bit unsigned integer");
  } else if (last == std::numeric_limits<u32>::max()) {
    fail(key, "a 32-bit unsigned integer");
  } else {
    fail(key, "an unsigned integer up to " + std::to_string(last));
  }
  return std::nullopt;
}

bool RecordReader::numbers(const char* key, usize size, u64 last,
                          std::vector<u64>& out) {
  const JsonValue* v = object_.find(key);
  bool exact = v != nullptr && v->is_array() &&
               (size == 0 || v->array.size() == size);
  for (usize i = 0; exact && i < v->array.size(); ++i) {
    const std::optional<u64> n = v->array[i].as_u64();
    exact = n.has_value() && *n <= last;
    if (exact) out.push_back(*n);
  }
  if (exact) return true;
  std::string type = "an array of ";
  if (size != 0) type += std::to_string(size) + " ";
  type += "unsigned integers";
  if (last != std::numeric_limits<u64>::max()) {
    type += " up to " + std::to_string(last);
  }
  fail(key, type);
  return false;
}

std::optional<usize> RecordReader::name(const char* key,
                                       const char* const* names,
                                       usize count) {
  const JsonValue* v = object_.find(key);
  for (usize i = 0; v != nullptr && v->is_string() && i < count; ++i) {
    if (v->string == names[i]) return i;
  }
  std::string type;
  for (usize i = 0; i < count; ++i) {
    type += (i == 0 ? "" : " or ") + quote(names[i]);
  }
  fail(key, type);
  return std::nullopt;
}

void RecordReader::fail(const std::string& key, const std::string& type) {
  if (error_.empty()) {
    error_ = "field \"" + prefix_ + key + "\" is missing or not " + type;
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> run() {
    JsonValue v;
    if (Status s = parse_value(v, 0); !s.is_ok()) return s;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status fail(const std::string& what) const {
    return error(StatusCode::kParseError,
                 what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Arrays and objects recurse once per level; the bound keeps a hostile
  /// document from exhausting the stack.
  static constexpr unsigned kMaxNesting = 256;

  /// Parse one value nested inside `depth` arrays and objects.
  Status parse_value(JsonValue& out, unsigned depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxNesting) {
      return fail("nesting too deep");
    }
    switch (c) {
      case '{': return parse_object(out, depth + 1);
      case '[': return parse_array(out, depth + 1);
      case '"': {
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      }
      case 't':
      case 'f': return parse_keyword(out);
      case 'n': return parse_keyword(out);
      default: return parse_number(out);
    }
  }

  Status parse_keyword(JsonValue& out) {
    auto match = [&](std::string_view kw) {
      return text_.substr(pos_, kw.size()) == kw;
    };
    if (match("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return Status::ok();
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      pos_ += 5;
      return Status::ok();
    }
    if (match("null")) {
      out.kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::ok();
    }
    return fail("invalid keyword");
  }

  Status parse_number(JsonValue& out) {
    const usize start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("invalid value");
    double v = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_) {
      return fail("invalid number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    out.number_literal.assign(text_.data() + start, pos_ - start);
    return Status::ok();
  }

  Status parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          const auto res = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (res.ec != std::errc{}) return fail("invalid \\u escape");
          pos_ += 4;
          // Telemetry documents are ASCII; keep non-ASCII as '?' rather
          // than pulling in full UTF-8 encoding.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  Status parse_array(JsonValue& out, unsigned depth) {
    consume('[');
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      JsonValue elem;
      if (Status s = parse_value(elem, depth); !s.is_ok()) return s;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (consume(']')) return Status::ok();
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  Status parse_object(JsonValue& out, unsigned depth) {
    consume('{');
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      std::string key;
      if (Status s = parse_string(key); !s.is_ok()) return s;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      JsonValue elem;
      if (Status s = parse_value(elem, depth); !s.is_ok()) return s;
      out.object.emplace(std::move(key), std::move(elem));
      skip_ws();
      if (consume('}')) return Status::ok();
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  usize pos_ = 0;
};

}  // namespace

Result<JsonValue> json_parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace audo::json
