#include "util/hex.hpp"

#include <cctype>

namespace acf::util {

namespace {

constexpr char kDigits[] = "0123456789ABCDEF";

int nibble_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string hex_bytes(std::span<const std::uint8_t> bytes, char sep) {
  std::string out;
  if (bytes.empty()) return out;
  out.reserve(bytes.size() * 3);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0 && sep != '\0') out.push_back(sep);
    out.push_back(kDigits[bytes[i] >> 4]);
    out.push_back(kDigits[bytes[i] & 0xf]);
  }
  return out;
}

std::string hex_u32(std::uint32_t value, int width) {
  std::string out;
  for (int shift = (width - 1) * 4; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(value >> shift) & 0xf]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> parse_hex_bytes(std::string_view text) {
  std::vector<std::uint8_t> out;
  int pending = -1;  // high nibble awaiting its partner
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ':' || c == ',' || c == '.') {
      if (pending >= 0) return std::nullopt;  // odd nibble before separator
      continue;
    }
    const int nib = nibble_value(c);
    if (nib < 0) return std::nullopt;
    if (pending < 0) {
      pending = nib;
    } else {
      out.push_back(static_cast<std::uint8_t>(pending * 16 + nib));
      pending = -1;
    }
  }
  if (pending >= 0) return std::nullopt;
  return out;
}

std::optional<std::uint32_t> parse_hex_u32(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
  if (text.empty() || text.size() > 8) return std::nullopt;
  std::uint32_t value = 0;
  for (char c : text) {
    const int nib = nibble_value(c);
    if (nib < 0) return std::nullopt;
    value = (value << 4) | static_cast<std::uint32_t>(nib);
  }
  return value;
}

}  // namespace acf::util
