#include "uds/uds_client.hpp"

#include "uds/uds_server.hpp"

namespace acf::uds {

UdsClient::UdsClient(sim::Scheduler& scheduler, isotp::IsoTpChannel::SendFn send,
                     isotp::IsoTpConfig isotp_config)
    : channel_(scheduler, std::move(send), isotp_config) {
  channel_.set_on_message([this](const std::vector<std::uint8_t>& payload, sim::SimTime) {
    // Response-pending (0x78) keeps the wait alive; anything else completes.
    if (payload.size() >= 3 && payload[0] == kNegativeResponse && payload[2] == 0x78) return;
    response_ = UdsResponse{payload};
    awaiting_ = false;
    ++responses_;
  });
}

bool UdsClient::request(std::vector<std::uint8_t> payload) {
  response_.reset();
  if (!channel_.send(std::move(payload))) return false;
  awaiting_ = true;
  ++requests_;
  return true;
}

void UdsClient::handle_frame(const can::CanFrame& frame, sim::SimTime time) {
  channel_.handle_frame(frame, time);
}

bool UdsClient::start_session(std::uint8_t session) {
  return request({kSidDiagnosticSessionControl, session});
}

bool UdsClient::request_seed(std::uint8_t level) { return request({kSidSecurityAccess, level}); }

bool UdsClient::send_key(std::uint8_t level, const Key& key) {
  std::vector<std::uint8_t> payload = {kSidSecurityAccess,
                                       static_cast<std::uint8_t>(level + 1)};
  payload.insert(payload.end(), key.begin(), key.end());
  return request(std::move(payload));
}

bool UdsClient::read_did(std::uint16_t did) {
  return request({kSidReadDataByIdentifier, static_cast<std::uint8_t>(did >> 8),
                  static_cast<std::uint8_t>(did & 0xFF)});
}

std::optional<Seed> UdsClient::seed_from_response(const UdsResponse& response) {
  if (!response.positive() || response.payload.size() < 6 ||
      response.payload[0] != kSidSecurityAccess + 0x40) {
    return std::nullopt;
  }
  Seed seed{};
  for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = response.payload[2 + i];
  return seed;
}

}  // namespace acf::uds
