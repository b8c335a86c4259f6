#include "attacks/attacks.hpp"

#include "can/error_state.hpp"

namespace acf::attacks {

// --------------------------------------------------------------- DoS ------

namespace {
constexpr std::uint32_t kFloodId = 0x000;
constexpr std::uint8_t kFloodDlc = 8;  // longest frames occupy the most bus time
}  // namespace

DosFlood::DosFlood(sim::Scheduler& scheduler, transport::CanTransport& transport,
                   DosFloodConfig config)
    : scheduler_(scheduler), transport_(transport), config_(config) {}

void DosFlood::start() {
  if (event_.valid()) return;
  const std::vector<std::uint8_t> payload(kFloodDlc, 0x00);
  const can::CanFrame flood_frame = *can::CanFrame::data(kFloodId, payload);
  event_ = scheduler_.schedule_every(config_.period, [this, flood_frame] {
    // Fault confinement applies to attackers too: a bus-off controller
    // cannot transmit, so the flood pauses instead of hammering a dead
    // queue, and resumes only once recovery restores error-active state.
    if (const can::ErrorState* errors = transport_.bus_error_state();
        errors != nullptr && errors->bus_off()) {
      ++ticks_silenced_;
      return;
    }
    if (transport_.send(flood_frame)) ++sent_;
  });
}

void DosFlood::stop() {
  scheduler_.cancel(event_);
  event_ = {};
}

// ------------------------------------------------------------- spoof ------

SpoofAttack::SpoofAttack(sim::Scheduler& scheduler, transport::CanTransport& transport,
                         can::CanFrame forged, sim::Duration period)
    : scheduler_(scheduler), transport_(transport), forged_(forged), period_(period) {}

void SpoofAttack::start() {
  if (event_.valid()) return;
  event_ = scheduler_.schedule_every(period_, [this] {
    if (transport_.send(forged_)) ++sent_;
  });
}

void SpoofAttack::stop() {
  scheduler_.cancel(event_);
  event_ = {};
}

// ------------------------------------------------------------ replay ------

ReplayAttack::ReplayAttack(sim::Scheduler& scheduler, can::VirtualBus& bus,
                           transport::CanTransport& transport, can::FilterBank record_filter)
    : scheduler_(scheduler), bus_(bus), transport_(transport),
      filter_(std::move(record_filter)) {
  node_ = bus_.attach(*this, "attacker-tap", {}, /*listen_only=*/true);
}

ReplayAttack::~ReplayAttack() { bus_.detach(node_); }

void ReplayAttack::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (recording_ && filter_.accepts(frame)) recording_buffer_.push_back({frame, time});
}

void ReplayAttack::record_for(sim::Duration window) {
  recording_ = true;
  scheduler_.schedule_after(window, [this] { recording_ = false; });
}

std::size_t ReplayAttack::recorded_frames() const { return recording_buffer_.size(); }

bool ReplayAttack::replay(std::uint32_t times) {
  if (recording_buffer_.empty()) return false;
  trace::ReplayOptions options;
  options.repeat = times;
  replayer_.emplace(scheduler_, transport_, recording_buffer_, options);
  replayer_->start();
  return true;
}

std::uint64_t ReplayAttack::frames_replayed() const {
  return replayer_ ? replayer_->frames_sent() : 0;
}

// --------------------------------------------------------------- XCP ------

XcpTamper::XcpTamper(sim::Scheduler& scheduler, transport::CanTransport& transport,
                     std::uint32_t slave_rx_id, std::uint32_t slave_tx_id)
    : scheduler_(scheduler),
      master_(slave_rx_id, slave_tx_id,
              [&transport](const can::CanFrame& frame) { return transport.send(frame); }) {
  transport.set_rx_callback([this](const can::CanFrame& frame, sim::SimTime time) {
    master_.handle_frame(frame, time);
  });
}

bool XcpTamper::await_response() {
  return scheduler_.run_until_condition(
      [this] { return master_.last_data().has_value() || master_.last_error().has_value(); },
      scheduler_.now() + std::chrono::milliseconds(100));
}

bool XcpTamper::overwrite(std::uint32_t address, std::span<const std::uint8_t> data) {
  master_.connect();
  if (!await_response() || !master_.last_data()) return false;
  master_.set_mta(address);
  if (!await_response() || !master_.last_data()) return false;
  master_.download(address, data);
  return await_response() && master_.last_data().has_value();
}

std::optional<std::vector<std::uint8_t>> XcpTamper::peek(std::uint32_t address,
                                                         std::uint8_t length) {
  master_.connect();
  if (!await_response() || !master_.last_data()) return std::nullopt;
  master_.short_upload(address, length);
  if (!await_response()) return std::nullopt;
  return master_.last_data();
}

}  // namespace acf::attacks
