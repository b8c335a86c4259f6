// XCP-on-CAN (ASAM MCD-1 subset): the "Universal Measurement and Calibration
// Protocol that allows remote access to the internals of an ECU".
//
// The paper's oracle discussion cites XCP as a monitoring channel proposed
// in prior work — and immediately warns that "it provides another channel
// that may be exploited".  Both sides are modelled here: XcpPeekOracle (in
// the oracle layer) uses SHORT_UPLOAD to watch internal ECU state, and the
// attack library uses the *same* unauthenticated DOWNLOAD path to overwrite
// it.
//
// Commands (CTO, single CAN frame each):
//   0xFF CONNECT      0xFE DISCONNECT   0xFD GET_STATUS
//   0xF6 SET_MTA      0xF5 UPLOAD       0xF4 SHORT_UPLOAD
//   0xF0 DOWNLOAD
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "can/frame.hpp"
#include "sim/time.hpp"

namespace acf::xcp {

inline constexpr std::uint8_t kCmdConnect = 0xFF;
inline constexpr std::uint8_t kCmdDisconnect = 0xFE;
inline constexpr std::uint8_t kCmdGetStatus = 0xFD;
inline constexpr std::uint8_t kCmdSetMta = 0xF6;
inline constexpr std::uint8_t kCmdUpload = 0xF5;
inline constexpr std::uint8_t kCmdShortUpload = 0xF4;
inline constexpr std::uint8_t kCmdDownload = 0xF0;

inline constexpr std::uint8_t kPidPositive = 0xFF;
inline constexpr std::uint8_t kPidError = 0xFE;

inline constexpr std::uint8_t kErrCmdUnknown = 0x20;
inline constexpr std::uint8_t kErrCmdSyntax = 0x21;
inline constexpr std::uint8_t kErrOutOfRange = 0x22;
inline constexpr std::uint8_t kErrNotConnected = 0x24;  // session not open

/// Virtual address space backed by the ECU's live variables.
struct XcpMemoryMap {
  /// Reads one byte; nullopt for unmapped addresses.
  std::function<std::optional<std::uint8_t>(std::uint32_t)> read_byte =
      [](std::uint32_t) { return std::nullopt; };
  /// Writes one byte; false for unmapped/read-only addresses.
  std::function<bool(std::uint32_t, std::uint8_t)> write_byte =
      [](std::uint32_t, std::uint8_t) { return false; };
};

/// XCP slave endpoint (one per instrumented ECU).  Frames-in, frames-out;
/// the owner wires it to its bus node.
class XcpSlave {
 public:
  using SendFn = std::function<bool(const can::CanFrame&)>;

  /// `rx_id`/`tx_id`: the CTO/DTO id pair.
  XcpSlave(std::uint32_t rx_id, std::uint32_t tx_id, XcpMemoryMap memory, SendFn send);

  void handle_frame(const can::CanFrame& frame, sim::SimTime time);

  bool connected() const noexcept { return connected_; }
  std::uint64_t commands_served() const noexcept { return served_; }
  std::uint64_t errors_sent() const noexcept { return errors_; }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  void respond(std::vector<std::uint8_t> payload);
  void error(std::uint8_t code);

  std::uint32_t rx_id_;
  std::uint32_t tx_id_;
  XcpMemoryMap memory_;
  SendFn send_;
  bool connected_ = false;
  std::uint32_t mta_ = 0;  // memory transfer address
  std::uint64_t served_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// XCP master: issues commands and retains the last response.
class XcpMaster {
 public:
  using SendFn = std::function<bool(const can::CanFrame&)>;

  XcpMaster(std::uint32_t tx_id, std::uint32_t rx_id, SendFn send);

  void handle_frame(const can::CanFrame& frame, sim::SimTime time);

  bool connect();
  bool short_upload(std::uint32_t address, std::uint8_t length);  // length <= 7
  bool set_mta(std::uint32_t address);
  bool download(std::uint32_t address, std::span<const std::uint8_t> data);  // <= 5 bytes

  /// Last response payload (PID byte stripped); nullopt if error/none.
  const std::optional<std::vector<std::uint8_t>>& last_data() const noexcept { return data_; }
  std::optional<std::uint8_t> last_error() const noexcept { return error_; }

  /// Decodes the first 4 bytes of a response as little-endian u32.
  static std::optional<std::uint32_t> as_u32(
      const std::optional<std::vector<std::uint8_t>>& data);

 private:
  bool send_command(std::vector<std::uint8_t> payload);

  std::uint32_t tx_id_;
  std::uint32_t rx_id_;
  SendFn send_;
  std::optional<std::vector<std::uint8_t>> data_;
  std::optional<std::uint8_t> error_;
};

}  // namespace acf::xcp
