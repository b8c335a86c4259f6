// Hexadecimal formatting / parsing helpers shared by trace logs, the fuzzer
// output tables and the UDS layer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace acf::util {

/// "1C 21 17 71" style rendering (upper-case, space separated) as used by the
/// paper's capture tables (Table II / Table IV).
std::string hex_bytes(std::span<const std::uint8_t> bytes, char sep = ' ');

/// Fixed-width upper-case hex of an integer, e.g. hex_u32(0x43a, 4) == "043A".
std::string hex_u32(std::uint32_t value, int width);

/// Parses a whitespace- or separator-delimited hex byte string
/// ("1C 21 17" or "1C2117").  Returns nullopt on malformed input.
std::optional<std::vector<std::uint8_t>> parse_hex_bytes(std::string_view text);

/// Parses an unsigned hex integer (no 0x prefix required).
std::optional<std::uint32_t> parse_hex_u32(std::string_view text);

}  // namespace acf::util
