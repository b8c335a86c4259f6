// CAN frame model: classic CAN 2.0A/B data and remote frames plus CAN FD
// (the paper's §VII lists CAN FD fuzzing as follow-on work; we implement it).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace acf::can {

/// Highest valid 11-bit (standard/base) identifier.
inline constexpr std::uint32_t kMaxStandardId = 0x7FF;
/// Highest valid 29-bit (extended) identifier.
inline constexpr std::uint32_t kMaxExtendedId = 0x1FFFFFFF;
/// Classic CAN payload limit.
inline constexpr std::size_t kMaxClassicPayload = 8;
/// CAN FD payload limit.
inline constexpr std::size_t kMaxFdPayload = 64;

/// Frame format: base (11-bit id) or extended (29-bit id).
enum class IdFormat : std::uint8_t { kStandard, kExtended };

/// Maps a CAN FD DLC code (0..15) to its payload length in bytes.
std::size_t fd_dlc_to_length(std::uint8_t dlc) noexcept;

/// Maps a payload length to the smallest DLC whose capacity fits it, i.e.
/// the DLC a conforming FD controller would transmit (lengths between code
/// points round up).  Returns nullopt for lengths > 64.
std::optional<std::uint8_t> fd_length_to_dlc(std::size_t length) noexcept;

/// True if `length` is directly expressible as an FD DLC (no padding).
bool is_valid_fd_length(std::size_t length) noexcept;

/// A CAN data or remote frame.
///
/// Invariants (enforced by the named constructors; default construction
/// yields an empty standard data frame):
///  - id fits the format (11 or 29 bits)
///  - classic frames carry 0..8 payload bytes, FD frames a valid FD length
///  - remote frames carry no data (their DLC requests a length)
class CanFrame {
 public:
  CanFrame() = default;

  /// Classic data frame.  Returns nullopt if id/payload violate the format.
  static std::optional<CanFrame> data(std::uint32_t id, std::span<const std::uint8_t> payload,
                                      IdFormat format = IdFormat::kStandard);
  static std::optional<CanFrame> data(std::uint32_t id,
                                      std::initializer_list<std::uint8_t> payload,
                                      IdFormat format = IdFormat::kStandard) {
    return data(id, std::span<const std::uint8_t>(payload.begin(), payload.size()), format);
  }

  /// Classic remote frame requesting `dlc` bytes (0..8).
  static std::optional<CanFrame> remote(std::uint32_t id, std::uint8_t dlc,
                                        IdFormat format = IdFormat::kStandard);

  /// CAN FD data frame (no remote frames exist in FD).  `brs` = bit-rate
  /// switch for the data phase.  Payload length must be a valid FD length.
  static std::optional<CanFrame> fd_data(std::uint32_t id, std::span<const std::uint8_t> payload,
                                         bool brs = true, IdFormat format = IdFormat::kStandard);

  /// Convenience for tests/examples: data frame from an initializer list;
  /// terminates on contract violation instead of returning nullopt.
  static CanFrame data_std(std::uint32_t id, std::initializer_list<std::uint8_t> payload);

  std::uint32_t id() const noexcept { return id_; }
  IdFormat format() const noexcept { return format_; }
  bool is_extended() const noexcept { return format_ == IdFormat::kExtended; }
  bool is_remote() const noexcept { return remote_; }
  bool is_fd() const noexcept { return fd_; }
  bool brs() const noexcept { return brs_; }

  /// Payload bytes (empty for remote frames — their DLC only *requests* a
  /// length; no data travels on the wire).  The span's data always points
  /// at kMaxFdPayload bytes of storage, zero past the payload, so a reader
  /// may load it in whole 8-byte words.
  std::span<const std::uint8_t> payload() const noexcept {
    return {data_.data(), remote_ ? 0 : length_};
  }
  std::size_t length() const noexcept { return length_; }

  /// The DLC field value on the wire: equals length for classic data frames,
  /// the requested length for remote frames, the FD code for FD frames.
  std::uint8_t dlc() const noexcept {
    if (!fd_) return static_cast<std::uint8_t>(length_);
    return fd_length_to_dlc(length_).value_or(0);
  }

  /// Arbitration priority: lower wins.  Captures the CAN rule that a base
  /// frame beats the extended frame sharing its 11-bit prefix (the base
  /// frame's RTR/SRR position is dominant where extended sends recessive).
  std::uint64_t arbitration_rank() const noexcept;

  /// "043A#1C2117..." compact rendering (candump style).
  std::string to_string() const;

  friend bool operator==(const CanFrame& a, const CanFrame& b) noexcept;

 private:
  std::uint32_t id_ = 0;
  IdFormat format_ = IdFormat::kStandard;
  bool remote_ = false;
  bool fd_ = false;
  bool brs_ = false;
  std::size_t length_ = 0;       // payload length (remote: requested length)
  std::array<std::uint8_t, kMaxFdPayload> data_{};
};

inline std::optional<CanFrame> CanFrame::data(std::uint32_t id,
                                              std::span<const std::uint8_t> payload,
                                              IdFormat format) {
  const std::uint32_t max_id = (format == IdFormat::kStandard) ? kMaxStandardId : kMaxExtendedId;
  if (id > max_id || payload.size() > kMaxClassicPayload) return std::nullopt;
  CanFrame f;
  f.id_ = id;
  f.format_ = format;
  f.length_ = payload.size();
  std::copy(payload.begin(), payload.end(), f.data_.begin());
  return f;
}

}  // namespace acf::can
