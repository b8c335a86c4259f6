// Signal packing/unpacking as defined by the DBC format used across the
// automotive industry: a signal is a bit slice of a CAN payload with byte
// order, signedness and a linear raw->physical mapping.
//
// The instrument cluster decoding a fuzzed frame through these definitions
// is what produces the paper's Fig. 8 "negative RPM" observable: random raw
// bits decode to physically implausible (but structurally valid) values.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace acf::dbc {

enum class ByteOrder : std::uint8_t {
  kLittleEndian,  // Intel, DBC "@1"
  kBigEndian,     // Motorola, DBC "@0"
};

struct SignalDef {
  std::string name;
  /// DBC start bit: for little-endian the LSB position; for big-endian the
  /// MSB position (bits within a byte numbered 7..0).
  std::uint16_t start_bit = 0;
  std::uint16_t bit_length = 1;  // 1..64
  ByteOrder byte_order = ByteOrder::kLittleEndian;
  bool is_signed = false;
  double scale = 1.0;
  double offset = 0.0;
  double min = 0.0;  // min==max==0 means "no declared range"
  double max = 0.0;
  std::string unit;

  /// Raw (on-wire integer) -> physical value.
  double raw_to_physical(std::uint64_t raw) const noexcept;
  /// Physical -> raw, clamped to the representable raw range (±inf clamp to
  /// its ends).  NaN, whether passed in or produced by a non-finite
  /// scale/offset, maps to raw 0.
  std::uint64_t physical_to_raw(double physical) const noexcept;

  /// True if the signal fits entirely inside a payload of `payload_bytes`.
  bool fits(std::size_t payload_bytes) const noexcept;

  /// True if `physical` lies inside the declared [min,max] (always true when
  /// no range is declared).  The plausibility oracle uses this.
  bool in_declared_range(double physical) const noexcept;
};

/// Extracts the raw value of `sig` from `payload`.  Returns nullopt if the
/// signal does not fit the payload.  A little-endian signal is read as one
/// integer (the at most 9 bytes it covers, shifted and masked); a big-endian
/// one bit by bit.  insert_raw() works the same way.
std::optional<std::uint64_t> extract_raw(const SignalDef& sig,
                                         std::span<const std::uint8_t> payload) noexcept;

/// Inserts `raw` (truncated to bit_length) into `payload` in place.
/// Returns false if the signal does not fit.
bool insert_raw(const SignalDef& sig, std::uint64_t raw,
                std::span<std::uint8_t> payload) noexcept;

/// extract + sign-extension + linear map.
std::optional<double> decode(const SignalDef& sig,
                             std::span<const std::uint8_t> payload) noexcept;

/// Linear map + insert.
bool encode(const SignalDef& sig, double physical, std::span<std::uint8_t> payload) noexcept;

/// Sign-extends a `bits`-wide raw value into int64.
std::int64_t sign_extend(std::uint64_t raw, std::uint16_t bits) noexcept;

}  // namespace acf::dbc
