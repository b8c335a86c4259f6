#include "dbc/message_def.hpp"

#include <array>
#include <vector>

namespace acf::dbc {

const SignalDef* MessageDef::signal(std::string_view sig_name) const noexcept {
  for (const auto& sig : signals) {
    if (sig.name == sig_name) return &sig;
  }
  return nullptr;
}

bool MessageDef::dlc_matches(const can::CanFrame& frame) const noexcept {
  return !frame.is_remote() && frame.dlc() == dlc;
}

std::optional<can::CanFrame> MessageDef::encode(std::span<const double> values) const {
  std::array<std::uint8_t, can::kMaxClassicPayload> buffer{};
  if (values.size() != signals.size() || dlc > buffer.size()) return std::nullopt;
  const std::span<std::uint8_t> payload(buffer.data(), dlc);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!dbc::encode(signals[i], values[i], payload)) return std::nullopt;
  }
  return can::CanFrame::data(id, payload, format);
}

std::optional<can::CanFrame> MessageDef::encode(
    const std::map<std::string, double>& values) const {
  std::vector<std::uint8_t> payload(dlc, 0);
  for (const auto& [sig_name, value] : values) {
    const SignalDef* sig = signal(sig_name);
    if (sig == nullptr) return std::nullopt;
    if (!dbc::encode(*sig, value, payload)) return std::nullopt;
  }
  return can::CanFrame::data(id, payload, format);
}

std::map<std::string, double> MessageDef::decode(const can::CanFrame& frame) const {
  std::map<std::string, double> out;
  for (const auto& sig : signals) {
    if (const auto value = dbc::decode(sig, frame.payload())) {
      out.emplace(sig.name, *value);
    }
  }
  return out;
}

}  // namespace acf::dbc
