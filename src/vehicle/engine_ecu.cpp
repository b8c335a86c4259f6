#include "vehicle/engine_ecu.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace acf::vehicle {

namespace {
constexpr auto kControlPeriod = std::chrono::milliseconds(10);
constexpr std::uint32_t kDtcImplausibleWheelSpeed = 0x0C0100;

std::vector<DrivePhase> default_drive_cycle() {
  using std::chrono::seconds;
  return {
      {seconds(20), 800.0, 0.0, 5.0},     // idle
      {seconds(15), 2800.0, 40.0, 45.0},  // accelerate
      {seconds(40), 2200.0, 70.0, 25.0},  // cruise
      {seconds(15), 3400.0, 95.0, 60.0},  // overtake
      {seconds(20), 2000.0, 60.0, 20.0},  // settle
      {seconds(10), 900.0, 0.0, 5.0},     // brake to stop
  };
}

}  // namespace

EngineEcu::EngineEcu(sim::Scheduler& scheduler, can::VirtualBus& bus)
    : Ecu(scheduler, bus, "ECM"), cycle_(default_drive_cycle()) {
  for (const auto& phase : cycle_) cycle_length_ += phase.duration;

  scheduler.schedule_every(kControlPeriod, [this] {
    if (!powered() || crashed()) return;
    control_tick();
  });

  // J1979 emissions diagnostics on the standard ids (also enables UDS on
  // the same physical pair; UDS and OBD modes do not collide: SIDs differ).
  enable_uds(dbc::kUdsEngineRequest, dbc::kUdsEngineResponse);
  obd::ObdDataSource source;
  source.rpm = [this] { return rpm_; };
  source.speed_kph = [this] { return speed_kph_; };
  source.coolant_c = [this] { return coolant_c_; };
  source.throttle_pct = [this] { return throttle_pct_; };
  source.dtcs = [this] {
    std::vector<std::uint16_t> out;
    for (const auto& dtc : dtcs().all()) {
      out.push_back(static_cast<std::uint16_t>(dtc.code & 0xFFFF));
    }
    return out;
  };
  source.clear_dtcs = [this] { dtcs().clear_all(); };
  obd_ = std::make_unique<obd::ObdServer>(
      scheduler, [this](const can::CanFrame& frame) { return send(frame); },
      dbc::kUdsEngineRequest, std::move(source));

  add_periodic(kControlPeriod, [this]() -> std::optional<can::CanFrame> {
    using S = dbc::EngineDataSignal;
    std::array<double, S::kCount> values{};
    values[S::kEngineRpm] = rpm_;
    values[S::kThrottlePct] = throttle_pct_;
    values[S::kCoolantTempC] = coolant_c_;
    values[S::kEngineRunning] = 1.0;
    values[S::kFuelRate] = 50.0 + rpm_ * 0.3;
    return db_.by_id(dbc::kMsgEngineData)->encode(values);
  });
  add_periodic(std::chrono::milliseconds(20), [this]() -> std::optional<can::CanFrame> {
    using S = dbc::VehicleSpeedSignal;
    const double gear = speed_kph_ < 1 ? 0 : std::clamp(speed_kph_ / 20.0 + 1.0, 1.0, 6.0);
    std::array<double, S::kCount> values{};
    values[S::kSpeedKph] = speed_kph_;
    values[S::kAccelPct] = throttle_pct_;
    values[S::kBrakeActive] = throttle_pct_ < 2.0 && speed_kph_ > 1.0 ? 1.0 : 0.0;
    values[S::kGearPosition] = std::floor(gear);
    values[S::kSpeedValid] = 1.0;
    values[S::kCruiseEngaged] = 0.0;
    return db_.by_id(dbc::kMsgVehicleSpeed)->encode(values);
  });
  add_periodic(std::chrono::milliseconds(100), [this]() -> std::optional<can::CanFrame> {
    using S = dbc::PowertrainStatusSignal;
    std::array<double, S::kCount> values{};
    values[S::kOilTempC] = coolant_c_ * 0.9;
    values[S::kOilPressureKpa] = 180.0 + rpm_ * 0.05;
    values[S::kIntakeTempC] = 23.0;
    values[S::kBatteryVolts] = 14.1;
    values[S::kFuelLevelPct] = fuel_pct_;
    values[S::kAmbientTempC] = 17.0;
    values[S::kReserved] = 65535.0;
    return db_.by_id(dbc::kMsgPowertrainStatus)->encode(values);
  });
  add_periodic(std::chrono::milliseconds(100), [this]() -> std::optional<can::CanFrame> {
    using S = dbc::TelltalesSignal;
    std::array<double, S::kCount> values{};
    values[S::kMilOn] = dtcs().mil_requested() ? 1.0 : 0.0;
    values[S::kOilWarning] = 0.0;
    values[S::kBatteryWarning] = 0.0;
    values[S::kCoolantWarning] = coolant_c_ > 115.0 ? 1.0 : 0.0;
    values[S::kAbsWarning] = 0.0;
    values[S::kAirbagWarning] = 0.0;
    values[S::kDtcCount] = static_cast<double>(dtcs().count());
    return db_.by_id(dbc::kMsgTelltales)->encode(values);
  });
}

void EngineEcu::on_power_on() {
  rpm_ = 800.0;
  speed_kph_ = 0.0;
  throttle_pct_ = 5.0;
  governor_disturbance_ = 0.0;
  idle_roughness_ = 0.0;
}

void EngineEcu::control_tick() {
  // Locate the current phase within the repeating cycle.
  const auto now = scheduler().now();
  auto offset = sim::Duration{now.count() % cycle_length_.count()};
  const DrivePhase* phase = &cycle_.front();
  for (const auto& p : cycle_) {
    if (offset < p.duration) {
      phase = &p;
      break;
    }
    offset -= p.duration;
  }

  // First-order tracking toward the phase targets.
  const double dt = sim::to_seconds(kControlPeriod);
  const double rpm_tau = 1.2;
  const double speed_tau = 4.0;
  double rpm_target = phase->target_rpm;

  // Idle governor: compensates engine load using wheel-speed feedback.  A
  // disturbance (e.g. fuzzed WHEEL_SPEEDS frames) shakes the idle target.
  rpm_target += governor_disturbance_;
  governor_disturbance_ *= std::exp(-dt / 0.5);  // decays in ~0.5 s

  // Small deterministic idle hunt (a positional oscillation of the target,
  // so idle traffic is not perfectly constant).
  const double t = sim::to_seconds(now);
  rpm_target += 8.0 * std::sin(t * 5.0);

  rpm_ += (rpm_target - rpm_) * (dt / rpm_tau);
  speed_kph_ += (phase->target_speed_kph - speed_kph_) * (dt / speed_tau);
  throttle_pct_ = phase->throttle_pct;

  coolant_c_ = std::min(92.0, coolant_c_ + dt * 0.4);
  fuel_pct_ = std::max(5.0, fuel_pct_ - dt * 0.0004 * (1.0 + rpm_ / 2000.0));
  odometer_km_ += speed_kph_ * dt / 3600.0;

  const double delta = std::fabs(rpm_ - last_rpm_);
  last_rpm_ = rpm_;
  // Peak-hold with ~1 s decay.
  idle_roughness_ = std::max(delta, idle_roughness_ * (1.0 - dt));
}

void EngineEcu::handle_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (obd_) obd_->handle_frame(frame, time);
  if (frame.id() != dbc::kMsgWheelSpeeds || frame.is_remote()) return;
  using S = dbc::WheelSpeedsSignal;
  const auto& signals = db_.by_id(dbc::kMsgWheelSpeeds)->signals;
  const auto fl = dbc::decode(signals[S::kWheelFl], frame.payload());
  const auto fr = dbc::decode(signals[S::kWheelFr], frame.payload());
  if (!fl || !fr) return;
  const double avg = (*fl + *fr) / 2.0;

  // Plausibility: wheel speed must roughly agree with our own road speed.
  const double discrepancy = std::fabs(avg - speed_kph_);
  if (discrepancy > 25.0) {
    ++implausible_inputs_;
    // The governor reacts before the plausibility monitor confirms the
    // fault — this transient reaction is the erratic idle the paper saw.
    governor_disturbance_ = std::clamp(discrepancy * 4.0, 0.0, 600.0);
    if (implausible_inputs_ % 16 == 0) {
      dtcs().raise(kDtcImplausibleWheelSpeed, "wheel speed implausible vs road speed");
    }
    return;
  }
  wheel_speed_avg_ = avg;
}

}  // namespace acf::vehicle
