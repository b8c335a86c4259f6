#include "vehicle/head_unit.hpp"

namespace acf::vehicle {

HeadUnit::HeadUnit(sim::Scheduler& scheduler, can::VirtualBus& bus)
    : Ecu(scheduler, bus, "IVI") {}

void HeadUnit::reset() {
  factory_reset();
  sequence_ = 0;
  acks_seen_ = 0;
  last_acked_command_ = 0;
  if (signer_ != nullptr) signer_->reset();
}

bool HeadUnit::send_command(std::uint8_t command) {
  if (signer_ != nullptr) {
    return send(signer_->sign_command(dbc::kMsgBodyCommand, command));
  }
  ++sequence_;
  // Matches the paper's app frame: <cmd> 5F 01 00 <seq> 20 00, DLC 7.
  const std::uint8_t bytes[7] = {command, 0x5F, 0x01, 0x00, sequence_, 0x20, 0x00};
  const auto frame = can::CanFrame::data(dbc::kMsgBodyCommand, bytes);
  return frame && send(*frame);
}

void HeadUnit::handle_frame(const can::CanFrame& frame, sim::SimTime) {
  if (frame.id() != dbc::kMsgBodyAck || frame.length() < 2) return;
  ++acks_seen_;
  last_acked_command_ = frame.payload()[0];
}

}  // namespace acf::vehicle
