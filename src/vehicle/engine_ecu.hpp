// Engine control module (ECM) model: runs a repeating drive cycle (idle,
// acceleration, cruise, deceleration) and broadcasts the powertrain messages
// the instrument cluster consumes.  Consumes WHEEL_SPEEDS for its idle
// governor — which is the mechanism that makes fuzzed wheel-speed frames
// produce the "erratic engine idling RPM" the paper observed on the target
// vehicle.
#pragma once

#include <memory>
#include <vector>

#include "dbc/target_vehicle_db.hpp"
#include "ecu/ecu.hpp"
#include "obd/obd.hpp"

namespace acf::vehicle {

/// One phase of the repeating drive profile.
struct DrivePhase {
  sim::Duration duration;
  double target_rpm = 800.0;
  double target_speed_kph = 0.0;
  double throttle_pct = 5.0;
};

class EngineEcu final : public ecu::Ecu {
 public:
  /// Runs the standard profile the signal benches use: idle, accelerate,
  /// cruise, decelerate, idle (two minutes per lap).
  EngineEcu(sim::Scheduler& scheduler, can::VirtualBus& bus);

  double rpm() const noexcept { return rpm_; }
  double speed_kph() const noexcept { return speed_kph_; }
  double coolant_temp_c() const noexcept { return coolant_c_; }
  bool mil_on() const noexcept { return dtcs().mil_requested(); }

  /// Peak |rpm delta| between consecutive control ticks over the last
  /// second — the "erratic idle" observable.
  double idle_roughness() const noexcept { return idle_roughness_; }

  std::uint64_t implausible_inputs_seen() const noexcept { return implausible_inputs_; }

  /// The J1979 emissions-diagnostics endpoint behind the OBD port.
  obd::ObdServer& obd() noexcept { return *obd_; }

 private:
  void handle_frame(const can::CanFrame& frame, sim::SimTime time) override;
  void on_power_on() override;
  void control_tick();

  std::vector<DrivePhase> cycle_;
  sim::Duration cycle_length_{0};

  double rpm_ = 800.0;
  double speed_kph_ = 0.0;
  double throttle_pct_ = 5.0;
  double coolant_c_ = 20.0;
  double fuel_pct_ = 82.0;
  double odometer_km_ = 18'204.0;

  // Idle governor disturbance from (possibly fuzzed) wheel-speed inputs.
  double wheel_speed_avg_ = 0.0;
  double governor_disturbance_ = 0.0;
  double idle_roughness_ = 0.0;
  double last_rpm_ = 800.0;
  std::uint64_t implausible_inputs_ = 0;

  const dbc::Database& db_ = dbc::target_vehicle_database();
  std::unique_ptr<obd::ObdServer> obd_;
};

}  // namespace acf::vehicle
