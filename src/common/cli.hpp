// Numeric command-line values for the tools and benches: parsed whole,
// or the program stops with a usage error.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/types.hpp"

namespace audo {

/// Parse all of `text`, the value of `option`, as an unsigned number of
/// type T no larger than `max` (decimal, 0x hex or 0 octal). Trailing
/// text, a missing digit, overflow or a value above `max` print why and
/// exit 2.
template <typename T>
T parse_number(const char* option, const char* text,
               u64 max = std::numeric_limits<T>::max()) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v > max) {
    std::fprintf(stderr, "%s wants a number up to %llu, got '%s'\n", option,
                 static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return static_cast<T>(v);
}

}  // namespace audo
