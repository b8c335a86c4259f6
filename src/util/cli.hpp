// Command-line number parsing shared by the examples and the benches.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace acf::util {

/// Parses all of `text` as an unsigned number in [min, max]: decimal, or 0x
/// hex and leading-0 octal as strtoull reads them.  nullopt for anything
/// else, such as a sign, a trailing suffix ("2x", "1e3"), an empty string or
/// a value out of range.
inline std::optional<std::uint64_t> parse_number(const char* text, std::uint64_t min,
                                                 std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
      value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace acf::util
