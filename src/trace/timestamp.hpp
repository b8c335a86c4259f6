// Timestamp parsing for the candump log reader.
//
// Integer arithmetic end-to-end: parse∘print round-trips exactly, and
// hostile stamps ("inf", "1e308", 20-digit seconds) are rejected instead of
// flowing through a float→integer cast whose out-of-range behaviour is
// undefined.  The fuzz harnesses in src/selftest/ lean on this — every
// accepted stamp must survive a print/parse cycle byte-identically.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/time.hpp"

namespace acf::trace {

/// Largest whole-second value representable as int64 nanoseconds (~292 y).
inline constexpr std::uint64_t kMaxTimestampSecs = 9'223'372'035ULL;

/// Parses "secs[.frac]" into simulated time.  Fractional digits beyond
/// nanosecond resolution are truncated.  Returns nullopt for empty input,
/// non-digit characters (no signs, no exponents) or seconds past the int64
/// nanosecond range.
inline std::optional<sim::SimTime> parse_timestamp(std::string_view stamp) {
  const std::size_t dot = stamp.find('.');
  const std::string_view whole =
      stamp.substr(0, dot == std::string_view::npos ? stamp.size() : dot);
  const std::string_view frac =
      dot == std::string_view::npos ? std::string_view{} : stamp.substr(dot + 1);
  if (whole.empty() && frac.empty()) return std::nullopt;

  std::uint64_t secs = 0;
  if (!whole.empty()) {
    const auto [ptr, ec] = std::from_chars(whole.data(), whole.data() + whole.size(), secs);
    if (ec != std::errc{} || ptr != whole.data() + whole.size()) return std::nullopt;
  }
  if (secs > kMaxTimestampSecs) return std::nullopt;

  std::uint64_t frac_ns = 0;
  std::uint64_t scale = 100'000'000ULL;  // first fractional digit = 100 ms
  for (const char c : frac) {
    if (c < '0' || c > '9') return std::nullopt;
    if (scale != 0) {
      frac_ns += static_cast<std::uint64_t>(c - '0') * scale;
      scale /= 10;
    }
  }
  return sim::SimTime{static_cast<std::int64_t>(secs * 1'000'000'000ULL + frac_ns)};
}

}  // namespace acf::trace
