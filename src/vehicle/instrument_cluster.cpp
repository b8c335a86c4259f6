#include "vehicle/instrument_cluster.hpp"

#include <cmath>

namespace acf::vehicle {

namespace {
constexpr std::uint32_t kDtcDisplayFault = 0x9A0200;
constexpr std::uint32_t kDtcImplausibleSignal = 0x9A0301;
// The legacy factory-test LUT has 16 entries; arguments are masked with 0x1F
// — the off-by-one mask is the injected defect (indices 16..31 read past the
// table and corrupt the adjacent NV-memory block).
constexpr std::uint8_t kFactoryTestModeBase = 0xF0;
constexpr std::size_t kFactoryLutSize = 16;
}  // namespace

InstrumentCluster::InstrumentCluster(sim::Scheduler& scheduler, can::VirtualBus& bus)
    : Ecu(scheduler, bus, "CLUSTER") {
  enable_uds(dbc::kUdsClusterRequest, dbc::kUdsClusterResponse);
  uds_server()->set_did(0xF190, {'W', 'V', 'W', 'Z', 'Z', 'Z', '1', 'K', 'Z', 'A',
                                 'W', '0', '0', '0', '0', '1', '7'});
  uds_server()->set_did(0xF195, {'1', '.', '4', '.', '2'});
  uds_server()->set_did(0x0200, {0x00}, /*writable=*/true);  // config block

  // XCP instrumentation (see the memory-map comment in the header).
  xcp::XcpMemoryMap memory;
  memory.read_byte = [this](std::uint32_t address) -> std::optional<std::uint8_t> {
    auto le_byte = [](std::int64_t value, std::uint32_t offset) {
      return static_cast<std::uint8_t>((static_cast<std::uint64_t>(value) >> (8 * offset)) &
                                       0xFF);
    };
    if (address >= kXcpAddrRpm && address < kXcpAddrRpm + 4) {
      return le_byte(std::llround(rpm_gauge_), address - kXcpAddrRpm);
    }
    if (address >= kXcpAddrSpeed && address < kXcpAddrSpeed + 4) {
      return le_byte(std::llround(speed_gauge_ * 10.0), address - kXcpAddrSpeed);
    }
    if (address == kXcpAddrFlags) {
      return static_cast<std::uint8_t>((mil_on_ ? 1 : 0) | (nv_crash_latched_ ? 2 : 0));
    }
    if (address >= kXcpAddrWarnCount && address < kXcpAddrWarnCount + 4) {
      return le_byte(static_cast<std::int64_t>(warning_sounds_),
                     address - kXcpAddrWarnCount);
    }
    return std::nullopt;
  };
  memory.write_byte = [this](std::uint32_t address, std::uint8_t value) {
    // Only the status-flag byte is calibration-writable; that is already
    // one bit too many from a security standpoint (an attacker can douse
    // the MIL remotely — see attacks::XcpTamper).
    if (address != kXcpAddrFlags) return false;
    mil_on_ = (value & 1) != 0;
    return true;
  };
  xcp_ = std::make_unique<xcp::XcpSlave>(
      kXcpRxId, kXcpTxId, std::move(memory),
      [this](const can::CanFrame& frame) { return send(frame); });
}

void InstrumentCluster::on_power_on() {
  // Volatile state resets; the NV crash latch deliberately does not (the
  // paper power-cycled the real cluster and the "crash" text remained).
  rpm_gauge_ = speed_gauge_ = coolant_gauge_ = fuel_gauge_ = 0.0;
  mil_on_ = coolant_warning_ = abs_warning_ = airbag_warning_ = false;
  oil_warning_ = battery_warning_ = false;
  display_text_ = nv_crash_latched_ ? "CrAsH" : "";
}

bool InstrumentCluster::any_warning_lit() const noexcept {
  return mil_on_ || coolant_warning_ || abs_warning_ || airbag_warning_ || oil_warning_ ||
         battery_warning_;
}

void InstrumentCluster::set_gauge(double& gauge, double value) {
  needle_travel_ += std::fabs(value - gauge);
  gauge = value;
}

void InstrumentCluster::note_implausible(const char* what) {
  ++implausible_values_;
  // The cluster reacts like the real one did: MIL on, audible warning.
  if (!mil_on_) ++warning_sounds_;
  mil_on_ = true;
  if (implausible_values_ % 32 == 1) {
    dtcs().raise(kDtcImplausibleSignal, std::string("implausible signal: ") + what);
  }
}

void InstrumentCluster::handle_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (frame.is_remote()) return;
  if (xcp_) xcp_->handle_frame(frame, time);

  const auto payload = frame.payload();
  switch (frame.id()) {
    case dbc::kMsgEngineData: {
      using S = dbc::EngineDataSignal;
      const auto& signals = db_.by_id(dbc::kMsgEngineData)->signals;
      if (const auto rpm = dbc::decode(signals[S::kEngineRpm], payload)) {
        // No plausibility gate: a negative or absurd RPM is displayed as-is.
        set_gauge(rpm_gauge_, *rpm);
        if (!signals[S::kEngineRpm].in_declared_range(*rpm)) note_implausible("EngineRPM");
      }
      if (const auto coolant = dbc::decode(signals[S::kCoolantTempC], payload)) {
        set_gauge(coolant_gauge_, *coolant);
      }
      break;
    }
    case dbc::kMsgVehicleSpeed: {
      using S = dbc::VehicleSpeedSignal;
      const auto& signals = db_.by_id(dbc::kMsgVehicleSpeed)->signals;
      if (const auto speed = dbc::decode(signals[S::kSpeedKph], payload)) {
        set_gauge(speed_gauge_, *speed);
        if (!signals[S::kSpeedKph].in_declared_range(*speed)) note_implausible("SpeedKph");
      }
      break;
    }
    case dbc::kMsgPowertrainStatus: {
      using S = dbc::PowertrainStatusSignal;
      const auto& signals = db_.by_id(dbc::kMsgPowertrainStatus)->signals;
      if (const auto fuel = dbc::decode(signals[S::kFuelLevelPct], payload)) {
        set_gauge(fuel_gauge_, *fuel);
      }
      break;
    }
    case dbc::kMsgTelltales: {
      using S = dbc::TelltalesSignal;
      const auto& signals = db_.by_id(dbc::kMsgTelltales)->signals;
      auto bit = [&](std::size_t position) {
        const auto value = dbc::decode(signals[position], payload);
        return value && *value >= 0.5;
      };
      const bool was_warning = any_warning_lit();
      mil_on_ = bit(S::kMilOn) || mil_on_;
      oil_warning_ = bit(S::kOilWarning);
      battery_warning_ = bit(S::kBatteryWarning);
      coolant_warning_ = bit(S::kCoolantWarning);
      abs_warning_ = bit(S::kAbsWarning);
      airbag_warning_ = bit(S::kAirbagWarning);
      if (!was_warning && any_warning_lit()) ++warning_sounds_;
      break;
    }
    case dbc::kMsgClusterDisplay:
      handle_display_command(frame);
      break;
    default:
      break;
  }
}

void InstrumentCluster::handle_display_command(const can::CanFrame& frame) {
  // Once the NV block is corrupted the display renders the corrupted
  // pattern regardless of incoming commands (power cycling recovers the
  // firmware — the Ecu crash flag — but not the display: paper Fig. 9).
  if (nv_crash_latched_) return;
  const auto payload = frame.payload();
  if (payload.empty()) return;
  const std::uint8_t mode = payload[0];

  if (mode < 0x06) {
    // Normal display modes: odometer / trip / text pages.
    const auto& odometer =
        db_.by_id(dbc::kMsgClusterDisplay)->signals[dbc::ClusterDisplaySignal::kOdometerKm];
    if (const auto km = dbc::decode(odometer, payload)) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.0f", *km);
      display_text_ = buf;
    }
    return;
  }

  if (mode >= kFactoryTestModeBase) {
    // Legacy factory-test handler (undocumented, exactly the kind of
    // untested code path §III-B3 of the paper warns about).
    if (payload.size() < 2) return;
    const std::size_t index = payload[1] & 0x1F;  // DEFECT: mask admits 0..31
    if (index >= kFactoryLutSize) {
      // Out-of-bounds LUT read corrupts the adjacent NV block: the firmware
      // wedges and the corrupted display pattern reads "CrAsH".  This
      // persists across power cycles.
      nv_crash_latched_ = true;
      display_text_ = "CrAsH";
      dtcs().raise(kDtcDisplayFault, "NV memory corrupted by factory-test handler");
      crash("factory-test LUT overrun: mode=" + std::to_string(mode) +
            " index=" + std::to_string(index));
      return;
    }
    display_text_ = "test" + std::to_string(index);
  }
  // Modes 0x06..0xEF are ignored (reserved).
}

}  // namespace acf::vehicle
