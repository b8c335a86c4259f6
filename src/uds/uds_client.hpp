// UDS tester/client: drives a UDS server over ISO-TP.  Used by the UDS
// discovery example and the security-access property tests, and as the
// legitimate counterpart the UDS fuzzer is compared against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "isotp/isotp.hpp"
#include "sim/scheduler.hpp"
#include "uds/security.hpp"

namespace acf::uds {

struct UdsResponse {
  std::vector<std::uint8_t> payload;  // full response including SID byte
  bool positive() const noexcept {
    return !payload.empty() && payload[0] != 0x7F;
  }
  std::optional<std::uint8_t> nrc() const noexcept {
    if (payload.size() >= 3 && payload[0] == 0x7F) return payload[2];
    return std::nullopt;
  }
};

class UdsClient {
 public:
  /// The client owns an ISO-TP channel built on `send`; feed incoming frames
  /// through handle_frame().
  UdsClient(sim::Scheduler& scheduler, isotp::IsoTpChannel::SendFn send,
            isotp::IsoTpConfig isotp_config);

  /// Sends a raw request.  The last completed response is retained.
  bool request(std::vector<std::uint8_t> payload);
  void handle_frame(const can::CanFrame& frame, sim::SimTime time);

  /// Most recent response, cleared by the next request().
  const std::optional<UdsResponse>& last_response() const noexcept { return response_; }
  bool awaiting_response() const noexcept { return awaiting_; }

  /// Convenience wrappers (send only; poll last_response afterwards).
  bool start_session(std::uint8_t session);
  bool request_seed(std::uint8_t level = 0x01);
  bool send_key(std::uint8_t level, const Key& key);
  bool read_did(std::uint16_t did);

  /// Extracts the 4-byte seed from a positive 0x67 response.
  static std::optional<Seed> seed_from_response(const UdsResponse& response);

  std::uint64_t requests_sent() const noexcept { return requests_; }
  std::uint64_t responses_received() const noexcept { return responses_; }

 private:
  isotp::IsoTpChannel channel_;
  std::optional<UdsResponse> response_;
  bool awaiting_ = false;
  std::uint64_t requests_ = 0;
  std::uint64_t responses_ = 0;
};

}  // namespace acf::uds
