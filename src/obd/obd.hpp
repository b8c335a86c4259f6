// OBD-II (SAE J1979) emissions diagnostics: the service the open in-cabin
// port the paper plugs into actually speaks.  Runs over ISO-TP on the
// standard functional/physical ids (0x7DF broadcast request, 0x7E8+ replies).
//
// Implemented services:
//   Mode 01  current data (PID support bitmaps, RPM, speed, coolant, ...)
//   Mode 03  stored DTCs
//   Mode 04  clear DTCs
//   Mode 09  vehicle information (VIN)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isotp/isotp.hpp"
#include "sim/scheduler.hpp"

namespace acf::obd {

/// Functional (broadcast) OBD request id and the first physical response id.
inline constexpr std::uint32_t kObdFunctionalRequest = 0x7DF;
inline constexpr std::uint32_t kObdFirstResponse = 0x7E8;

// Modes.
inline constexpr std::uint8_t kModeCurrentData = 0x01;
inline constexpr std::uint8_t kModeStoredDtcs = 0x03;
inline constexpr std::uint8_t kModeClearDtcs = 0x04;
inline constexpr std::uint8_t kModeVehicleInfo = 0x09;

// Mode 01 PIDs.
inline constexpr std::uint8_t kPidSupported01To20 = 0x00;
inline constexpr std::uint8_t kPidCoolantTemp = 0x05;
inline constexpr std::uint8_t kPidEngineRpm = 0x0C;
inline constexpr std::uint8_t kPidVehicleSpeed = 0x0D;
inline constexpr std::uint8_t kPidThrottle = 0x11;
// Mode 09 info types.
inline constexpr std::uint8_t kInfoVin = 0x02;

/// Live-data source the server queries when answering Mode 01.
struct ObdDataSource {
  std::function<double()> rpm = [] { return 0.0; };
  std::function<double()> speed_kph = [] { return 0.0; };
  std::function<double()> coolant_c = [] { return 0.0; };
  std::function<double()> throttle_pct = [] { return 0.0; };
  /// 2-byte DTC codes for Mode 03 (P0xxx encoding).
  std::function<std::vector<std::uint16_t>()> dtcs = [] {
    return std::vector<std::uint16_t>{};
  };
  std::function<void()> clear_dtcs = [] {};
  std::string vin = "WVWZZZ1KZAW000017";
};

/// Encodes the standard PID scalings.
std::uint16_t encode_rpm(double rpm) noexcept;           // rpm * 4
std::uint8_t encode_temp(double celsius) noexcept;       // +40 offset
std::uint8_t encode_percent(double pct) noexcept;        // *255/100

/// OBD server: owns an ISO-TP endpoint answering both the functional id and
/// its physical request id (response id = request id + 8 per J1979).
///
/// A request the server cannot answer draws silence and counts in
/// malformed_requests(): an empty request, an unsupported OBD mode, a mode
/// 01 or 09 request naming nothing the server supports, a mode 01 request
/// of more than six PIDs (J1979's limit), and a request whose answer would
/// exceed isotp::kMaxPayload.  SIDs from 0x10 up belong to the UDS stack
/// sharing the ids and are ignored uncounted.  ISO-TP has one transmit
/// slot, so a request that arrives while the previous answer is still being
/// sent goes unanswered and counts in answers_dropped().
class ObdServer {
 public:
  ObdServer(sim::Scheduler& scheduler, isotp::IsoTpChannel::SendFn send,
            std::uint32_t physical_request_id, ObdDataSource source);

  /// Feed all received frames (functional and physical requests).
  void handle_frame(const can::CanFrame& frame, sim::SimTime time);

  std::uint64_t malformed_requests() const noexcept { return malformed_; }
  /// Answers lost because the previous answer was still being sent.
  std::uint64_t answers_dropped() const noexcept { return answers_dropped_; }

 private:
  void handle_request(const std::vector<std::uint8_t>& request);
  std::vector<std::uint8_t> mode01(std::span<const std::uint8_t> pids);
  std::vector<std::uint8_t> mode03();
  std::vector<std::uint8_t> mode09(std::span<const std::uint8_t> info_types);

  isotp::IsoTpChannel functional_rx_;
  isotp::IsoTpChannel physical_;
  ObdDataSource source_;
  std::uint64_t malformed_ = 0;
  std::uint64_t answers_dropped_ = 0;
};

}  // namespace acf::obd
