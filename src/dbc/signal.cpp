#include "dbc/signal.hpp"

#include <algorithm>
#include <cmath>

namespace acf::dbc {

namespace {

/// A little-endian signal read as one integer: it covers `bytes` payload
/// bytes from `first_byte` on, its LSB `shift` bits into the first one.  A
/// signal of up to 64 bits starting at bit 0..7 of a byte spans at most 9
/// bytes; the first 8 form a 64-bit word and the ninth, when present, holds
/// the raw value's top `shift` bits.
struct LittleEndianSpan {
  std::size_t first_byte;
  unsigned shift;
  std::size_t bytes;
  std::uint64_t mask;

  explicit LittleEndianSpan(const SignalDef& sig) noexcept
      : first_byte(sig.start_bit / 8u),
        shift(sig.start_bit % 8u),
        bytes((shift + sig.bit_length + 7u) / 8u),
        mask(sig.bit_length >= 64 ? ~0ULL : (1ULL << sig.bit_length) - 1) {}

  /// The first min(bytes, 8) covered bytes as one little-endian word.
  std::uint64_t load_word(std::span<const std::uint8_t> payload) const noexcept {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < word_bytes(); ++k) {
      word |= static_cast<std::uint64_t>(payload[first_byte + k]) << (8 * k);
    }
    return word;
  }

  void store_word(std::uint64_t word, std::span<std::uint8_t> payload) const noexcept {
    for (std::size_t k = 0; k < word_bytes(); ++k) {
      payload[first_byte + k] = static_cast<std::uint8_t>(word >> (8 * k));
    }
  }

  std::size_t word_bytes() const noexcept { return bytes < 8 ? bytes : 8; }
};

/// Successive bit positions of a big-endian signal in payload order: start
/// at the MSB, walk down within each byte, then to bit 7 of the next byte.
/// Parsed DBCs can declare such signals; the target vehicle has none.
struct BitWalker {
  const SignalDef& sig;

  /// Absolute bit position (byte*8 + bit_in_byte, bit_in_byte LSB=0) of the
  /// i-th signal bit, where i=0 is the raw MSB.
  std::size_t position(std::uint16_t i) const noexcept {
    std::size_t byte = sig.start_bit / 8;
    std::size_t bit = sig.start_bit % 8;  // 0..7, LSB=0
    for (std::uint16_t step = 0; step < i; ++step) {
      if (bit == 0) {
        ++byte;
        bit = 7;
      } else {
        --bit;
      }
    }
    return byte * 8 + bit;
  }

  std::size_t last_byte() const noexcept {
    std::size_t max_byte = 0;
    for (std::uint16_t i = 0; i < sig.bit_length; ++i) {
      max_byte = std::max(max_byte, position(i) / 8);
    }
    return max_byte;
  }
};

/// The largest double below 2^bits: 2^bits - 1 exactly up to 53 bits, the
/// next double down beyond that (2^bits - 1 would round up to 2^bits, which
/// wraps to raw 0 under the mask and overflows a 64-bit cast).
double largest_below_power_of_two(int bits) noexcept {
  const double power = std::ldexp(1.0, bits);
  return bits <= 53 ? power - 1 : std::nextafter(power, 0.0);
}

}  // namespace

double SignalDef::raw_to_physical(std::uint64_t raw) const noexcept {
  const double base = is_signed ? static_cast<double>(sign_extend(raw, bit_length))
                                : static_cast<double>(raw);
  return base * scale + offset;
}

std::uint64_t SignalDef::physical_to_raw(double physical) const noexcept {
  const double unscaled = scale != 0.0 ? (physical - offset) / scale : 0.0;
  const double rounded = std::nearbyint(unscaled);
  if (std::isnan(rounded)) return 0;  // no raw value is nearer than another
  const std::uint64_t mask =
      bit_length >= 64 ? ~0ULL : ((1ULL << bit_length) - 1);
  if (is_signed) {
    const double lo = -std::ldexp(1.0, bit_length - 1);
    const double hi = largest_below_power_of_two(bit_length - 1);
    const auto value = static_cast<std::int64_t>(std::clamp(rounded, lo, hi));
    return static_cast<std::uint64_t>(value) & mask;
  }
  const double hi = largest_below_power_of_two(bit_length);
  const auto value = static_cast<std::uint64_t>(std::clamp(rounded, 0.0, hi));
  return value & mask;
}

bool SignalDef::fits(std::size_t payload_bytes) const noexcept {
  if (bit_length == 0 || bit_length > 64) return false;
  if (byte_order == ByteOrder::kLittleEndian) {
    return static_cast<std::size_t>(start_bit) + bit_length <= payload_bytes * 8;
  }
  return BitWalker{*this}.last_byte() < payload_bytes;
}

bool SignalDef::in_declared_range(double physical) const noexcept {
  if (min == 0.0 && max == 0.0) return true;
  return physical >= min && physical <= max;
}

std::optional<std::uint64_t> extract_raw(const SignalDef& sig,
                                         std::span<const std::uint8_t> payload) noexcept {
  if (!sig.fits(payload.size())) return std::nullopt;
  if (sig.byte_order == ByteOrder::kLittleEndian) {
    const LittleEndianSpan le{sig};
    std::uint64_t raw = le.load_word(payload) >> le.shift;
    if (le.bytes == 9) {
      raw |= static_cast<std::uint64_t>(payload[le.first_byte + 8]) << (64 - le.shift);
    }
    return raw & le.mask;
  }
  const BitWalker walker{sig};
  std::uint64_t raw = 0;
  for (std::uint16_t i = 0; i < sig.bit_length; ++i) {
    const std::size_t pos = walker.position(i);
    const std::uint64_t bit = static_cast<std::uint64_t>(payload[pos / 8] >> (pos % 8)) & 1u;
    raw = (raw << 1) | bit;  // i=0 is the MSB
  }
  return raw;
}

bool insert_raw(const SignalDef& sig, std::uint64_t raw,
                std::span<std::uint8_t> payload) noexcept {
  if (!sig.fits(payload.size())) return false;
  if (sig.byte_order == ByteOrder::kLittleEndian) {
    const LittleEndianSpan le{sig};
    raw &= le.mask;
    const std::uint64_t word = le.load_word(payload);
    le.store_word((word & ~(le.mask << le.shift)) | (raw << le.shift), payload);
    if (le.bytes == 9) {
      // The ninth byte holds the raw value's top `shift` bits.
      const auto high_mask = static_cast<std::uint8_t>(le.mask >> (64 - le.shift));
      const auto high = static_cast<std::uint8_t>(raw >> (64 - le.shift));
      std::uint8_t& last = payload[le.first_byte + 8];
      last = static_cast<std::uint8_t>((last & ~high_mask) | high);
    }
    return true;
  }
  const BitWalker walker{sig};
  for (std::uint16_t i = 0; i < sig.bit_length; ++i) {
    const std::size_t pos = walker.position(i);
    const auto source_bit = static_cast<std::uint16_t>(sig.bit_length - 1 - i);
    const std::uint8_t bit = static_cast<std::uint8_t>((raw >> source_bit) & 1u);
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (pos % 8));
    if (bit != 0) {
      payload[pos / 8] = static_cast<std::uint8_t>(payload[pos / 8] | mask);
    } else {
      payload[pos / 8] = static_cast<std::uint8_t>(payload[pos / 8] & ~mask);
    }
  }
  return true;
}

std::optional<double> decode(const SignalDef& sig,
                             std::span<const std::uint8_t> payload) noexcept {
  const auto raw = extract_raw(sig, payload);
  if (!raw) return std::nullopt;
  return sig.raw_to_physical(*raw);
}

bool encode(const SignalDef& sig, double physical, std::span<std::uint8_t> payload) noexcept {
  return insert_raw(sig, sig.physical_to_raw(physical), payload);
}

std::int64_t sign_extend(std::uint64_t raw, std::uint16_t bits) noexcept {
  if (bits == 0 || bits >= 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t sign = 1ULL << (bits - 1);
  const std::uint64_t mask = (1ULL << bits) - 1;
  raw &= mask;
  if (raw & sign) raw |= ~mask;
  return static_cast<std::int64_t>(raw);
}

}  // namespace acf::dbc
