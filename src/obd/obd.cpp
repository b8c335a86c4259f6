#include "obd/obd.hpp"

#include <algorithm>
#include <cmath>

namespace acf::obd {

std::uint16_t encode_rpm(double rpm) noexcept {
  const double raw = std::clamp(rpm * 4.0, 0.0, 65535.0);
  return static_cast<std::uint16_t>(std::lround(raw));
}

std::uint8_t encode_temp(double celsius) noexcept {
  const double raw = std::clamp(celsius + 40.0, 0.0, 255.0);
  return static_cast<std::uint8_t>(std::lround(raw));
}

std::uint8_t encode_percent(double pct) noexcept {
  const double raw = std::clamp(pct * 255.0 / 100.0, 0.0, 255.0);
  return static_cast<std::uint8_t>(std::lround(raw));
}

namespace {

/// Most PIDs one mode 01 request may carry (J1979).
constexpr std::size_t kMaxPidsPerRequest = 6;

isotp::IsoTpConfig config_for(std::uint32_t rx, std::uint32_t tx) {
  isotp::IsoTpConfig config;
  config.rx_id = rx;
  config.tx_id = tx;
  return config;
}

/// PID-support bitmap for PIDs 0x01..0x20: bit 31 is PID 0x01.
std::uint32_t supported_bitmap() {
  std::uint32_t bits = 0;
  for (std::uint8_t pid : {kPidCoolantTemp, kPidEngineRpm, kPidVehicleSpeed, kPidThrottle}) {
    bits |= 1u << (32 - pid);
  }
  return bits;
}

}  // namespace

ObdServer::ObdServer(sim::Scheduler& scheduler, isotp::IsoTpChannel::SendFn send,
                     std::uint32_t physical_request_id, ObdDataSource source)
    : functional_rx_(scheduler, send,
                     config_for(kObdFunctionalRequest, physical_request_id + 8)),
      physical_(scheduler, std::move(send),
                config_for(physical_request_id, physical_request_id + 8)),
      source_(std::move(source)) {
  const auto handler = [this](const std::vector<std::uint8_t>& request, sim::SimTime) {
    handle_request(request);
  };
  functional_rx_.set_on_message(handler);
  physical_.set_on_message(handler);
}

void ObdServer::handle_frame(const can::CanFrame& frame, sim::SimTime time) {
  functional_rx_.handle_frame(frame, time);
  physical_.handle_frame(frame, time);
}

void ObdServer::handle_request(const std::vector<std::uint8_t>& request) {
  if (request.empty()) {
    ++malformed_;
    return;
  }
  const std::uint8_t mode = request[0];
  std::vector<std::uint8_t> response;
  switch (mode) {
    case kModeCurrentData:
      if (request.size() < 2 || request.size() - 1 > kMaxPidsPerRequest) {
        ++malformed_;
        return;
      }
      response = mode01({request.data() + 1, request.size() - 1});
      break;
    case kModeStoredDtcs:
      response = mode03();
      break;
    case kModeClearDtcs:
      source_.clear_dtcs();
      response = {static_cast<std::uint8_t>(mode + 0x40)};
      break;
    case kModeVehicleInfo:
      if (request.size() < 2) {
        ++malformed_;
        return;
      }
      response = mode09({request.data() + 1, request.size() - 1});
      break;
    default:
      // SIDs >= 0x10 belong to a UDS stack sharing the id pair: not ours.
      // Unsupported genuine OBD modes get silence (J1979 ECUs do not NRC);
      // count those for the fuzzing oracle.
      if (mode < 0x10) ++malformed_;
      return;
  }
  if (response.empty() || response.size() > isotp::kMaxPayload) {
    ++malformed_;
    return;
  }
  // Responses go out on the physical response id regardless of which
  // request id carried the query.  The size is checked above, so a refusal
  // means the previous answer is still being sent.
  if (!physical_.send(std::move(response))) ++answers_dropped_;
}

std::vector<std::uint8_t> ObdServer::mode01(std::span<const std::uint8_t> pids) {
  std::vector<std::uint8_t> out = {kModeCurrentData + 0x40};
  for (std::uint8_t pid : pids) {
    switch (pid) {
      case kPidSupported01To20: {
        const std::uint32_t bits = supported_bitmap();
        out.push_back(pid);
        out.push_back(static_cast<std::uint8_t>(bits >> 24));
        out.push_back(static_cast<std::uint8_t>(bits >> 16));
        out.push_back(static_cast<std::uint8_t>(bits >> 8));
        out.push_back(static_cast<std::uint8_t>(bits));
        break;
      }
      case kPidCoolantTemp:
        out.push_back(pid);
        out.push_back(encode_temp(source_.coolant_c()));
        break;
      case kPidEngineRpm: {
        const std::uint16_t raw = encode_rpm(source_.rpm());
        out.push_back(pid);
        out.push_back(static_cast<std::uint8_t>(raw >> 8));
        out.push_back(static_cast<std::uint8_t>(raw & 0xFF));
        break;
      }
      case kPidVehicleSpeed:
        out.push_back(pid);
        out.push_back(static_cast<std::uint8_t>(
            std::clamp(source_.speed_kph(), 0.0, 255.0)));
        break;
      case kPidThrottle:
        out.push_back(pid);
        out.push_back(encode_percent(source_.throttle_pct()));
        break;
      default:
        break;  // unsupported PIDs are simply omitted from the reply
    }
  }
  // A query consisting solely of unsupported PIDs yields no data: silent.
  return out.size() > 1 ? out : std::vector<std::uint8_t>{};
}

std::vector<std::uint8_t> ObdServer::mode03() {
  const auto dtcs = source_.dtcs();
  std::vector<std::uint8_t> out = {kModeStoredDtcs + 0x40,
                                   static_cast<std::uint8_t>(std::min<std::size_t>(
                                       dtcs.size(), 0xFF))};
  for (std::uint16_t dtc : dtcs) {
    out.push_back(static_cast<std::uint8_t>(dtc >> 8));
    out.push_back(static_cast<std::uint8_t>(dtc & 0xFF));
  }
  return out;
}

std::vector<std::uint8_t> ObdServer::mode09(std::span<const std::uint8_t> info_types) {
  std::vector<std::uint8_t> out = {kModeVehicleInfo + 0x40};
  for (std::uint8_t info : info_types) {
    if (info != kInfoVin) continue;
    out.push_back(info);
    out.push_back(1);  // record count
    out.insert(out.end(), source_.vin.begin(), source_.vin.end());
  }
  return out.size() > 1 ? out : std::vector<std::uint8_t>{};
}

}  // namespace acf::obd
