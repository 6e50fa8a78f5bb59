// One field list per persisted record.
//
// Each struct that is written to disk or hashed names its fields once, in
// a `visit_fields(record, v)` function template beside the struct, found
// by argument-dependent lookup. The JSON writer and strict reader
// (common/json.hpp) and SocConfig::fingerprint() all run through that
// list, so a field is written and read, and a config field hashed, in
// the same order or not at all.
//
// The visitor `v` is called once per field, in the order the record is
// written:
//   v(key, field)         a bool, an unsigned integer, a std::string, a
//                         nested record, or a std::vector or std::array
//                         of unsigned integers or of records;
//   v(key, field, last)   an unsigned integer or enum no greater than
//                         `last`, or a C array of such enums;
//   v(key, field, names)  an enum persisted as its name, names[field];
//   v.host(key, field...) a host knob: persisted like any other field but
//                         left out of the fingerprint.
#pragma once

#include <concepts>
#include <type_traits>

namespace audo {

/// `Self` is `T` or `const T`: one visit_fields serves the writer and
/// the fingerprint (const) and the reader (mutable).
template <typename Self, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<Self>, T>;

}  // namespace audo
