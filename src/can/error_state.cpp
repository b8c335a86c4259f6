#include "can/error_state.hpp"

namespace acf::can {

const char* to_string(ErrorMode mode) noexcept {
  switch (mode) {
    case ErrorMode::kErrorActive: return "error-active";
    case ErrorMode::kErrorPassive: return "error-passive";
    case ErrorMode::kBusOff: return "bus-off";
  }
  return "?";
}

void ErrorState::on_tx_error() noexcept {
  ++tx_errors_;
  if (tec_ <= 255) {
    tec_ = static_cast<std::uint16_t>(tec_ + 8);
    if (tec_ > 255) ++bus_off_events_;  // just crossed the confinement line
  }
}

void ErrorState::on_rx_error() noexcept {
  ++rx_errors_;
  if (rec_ < 255) rec_ = static_cast<std::uint16_t>(rec_ + 1);
}

void ErrorState::on_rx_error_primary() noexcept {
  ++rx_errors_;
  rec_ = static_cast<std::uint16_t>(rec_ + 8 > 255 ? 255 : rec_ + 8);
}

void ErrorState::reset() noexcept {
  tec_ = 0;
  rec_ = 0;
}

}  // namespace acf::can
