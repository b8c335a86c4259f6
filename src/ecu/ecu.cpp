#include "ecu/ecu.hpp"

#include "util/log.hpp"

namespace acf::ecu {

Ecu::Ecu(sim::Scheduler& scheduler, can::VirtualBus& bus, std::string name)
    : scheduler_(scheduler), bus_(bus), name_(std::move(name)) {
  node_ = bus_.attach(*this, name_);
}

Ecu::~Ecu() { bus_.detach(node_); }

void Ecu::power_off() {
  if (!powered_) return;
  powered_ = false;
  bus_.set_power(node_, false);
}

void Ecu::power_on() {
  if (powered_) return;
  powered_ = true;
  bus_.set_power(node_, true);
  crashed_ = false;  // a power cycle recovers a crashed controller
  crash_reason_.clear();
  if (uds_server_) uds_server_->reset_state();
  on_power_on();
}

void Ecu::power_cycle(sim::Duration off_time) {
  power_off();
  scheduler_.schedule_after(off_time, [this] { power_on(); });
}

void Ecu::add_periodic(sim::Duration period,
                       std::function<std::optional<can::CanFrame>()> producer) {
  periodics_.push_back({period, std::move(producer)});
  const std::size_t index = periodics_.size() - 1;  // stable across reallocation
  // Messages sharing a period ride one scheduler event (tick group) instead
  // of one event each: an ECU with a dozen 100 ms messages costs the
  // scheduler one re-arm per cycle, not twelve.  Entries fire in
  // registration order, which is exactly the order the separate events would
  // have fired at a shared instant (FIFO seq tie-break), and arbitration
  // decides wire order anyway once all submissions are queued.
  for (std::size_t group = 0; group < tick_groups_.size(); ++group) {
    if (tick_groups_[group].period == period) {
      tick_groups_[group].entries.push_back(index);
      return;
    }
  }
  tick_groups_.push_back({period, {index}});
  arm_tick_group(tick_groups_.size() - 1);
}

void Ecu::arm_tick_group(std::size_t group) {
  scheduler_.schedule_every(tick_groups_[group].period, [this, group] {
    for (std::size_t entry : tick_groups_[group].entries) {
      // Re-checked per entry: a producer may crash or power down the ECU
      // mid-tick, which must silence the rest of the group this cycle.
      if (!powered_ || crashed_) return;
      if (const auto frame = periodics_[entry].producer()) bus_.submit(node_, *frame);
    }
  });
}

void Ecu::factory_reset() {
  powered_ = true;
  bus_.set_power(node_, true);
  crashed_ = false;
  crash_reason_.clear();
  crash_count_ = 0;
  dtcs_.clear_all();
  if (uds_server_) uds_server_->reset();
  if (uds_channel_) uds_channel_->reset();
  for (std::size_t group = 0; group < tick_groups_.size(); ++group) arm_tick_group(group);
}

bool Ecu::send(const can::CanFrame& frame) {
  if (!powered_ || crashed_) return false;
  return bus_.submit(node_, frame);
}

void Ecu::crash(std::string reason) {
  if (crashed_) return;
  crashed_ = true;
  crash_reason_ = std::move(reason);
  ++crash_count_;
  bus_.flush_tx_queue(node_);
  ACF_LOG(kInfo, "ecu") << name_ << " crashed: " << crash_reason_;
}

void Ecu::enable_uds(std::uint32_t request_id, std::uint32_t response_id) {
  uds_server_ = std::make_unique<uds::UdsServer>(scheduler_);
  uds_server_->set_dtc_provider([this] { return dtcs_.to_uds_bytes(); });

  isotp::IsoTpConfig isotp_config;
  isotp_config.rx_id = request_id;
  isotp_config.tx_id = response_id;
  uds_channel_ = std::make_unique<isotp::IsoTpChannel>(
      scheduler_, [this](const can::CanFrame& frame) { return send(frame); }, isotp_config);
  uds_channel_->set_on_message(
      [this](const std::vector<std::uint8_t>& request, sim::SimTime) {
        uds_server_->handle_request(request, [this](std::vector<std::uint8_t> response) {
          uds_channel_->send(std::move(response));
        });
      });
}

void Ecu::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (!powered_ || crashed_) return;
  if (uds_channel_) uds_channel_->handle_frame(frame, time);
  handle_frame(frame, time);
}

}  // namespace acf::ecu
