#include "dbc/target_vehicle_db.hpp"

#include "dbc/parser.hpp"

namespace acf::dbc {

namespace {

SignalDef sig(std::string name, std::uint16_t start, std::uint16_t length, double scale = 1.0,
              double offset = 0.0, bool is_signed = false, double min = 0.0, double max = 0.0,
              std::string unit = "") {
  SignalDef s;
  s.name = std::move(name);
  s.start_bit = start;
  s.bit_length = length;
  s.byte_order = ByteOrder::kLittleEndian;
  s.is_signed = is_signed;
  s.scale = scale;
  s.offset = offset;
  s.min = min;
  s.max = max;
  s.unit = std::move(unit);
  return s;
}

MessageDef message(std::uint32_t id, std::string name, std::uint8_t dlc, std::string sender,
                   std::uint32_t cycle_time_ms, std::size_t signal_count) {
  MessageDef m;
  m.id = id;
  m.name = std::move(name);
  m.dlc = dlc;
  m.sender = std::move(sender);
  m.cycle_time_ms = cycle_time_ms;
  m.signals.resize(signal_count);
  return m;
}

Database build_target_vehicle_database() {
  Database db;

  {
    using S = EngineDataSignal;
    MessageDef m = message(kMsgEngineData, "ENGINE_DATA", 8, "ECM", 10, S::kCount);
    // RPM is signed on purpose: several production gauges treat the raw
    // field as two's complement, which is exactly what lets a fuzzed frame
    // display a negative RPM (paper Fig. 8).
    m.signals[S::kEngineRpm] = sig("EngineRPM", 0, 16, 0.25, 0.0, true, 0, 8000, "rpm");
    m.signals[S::kThrottlePct] = sig("ThrottlePct", 16, 8, 0.4, 0.0, false, 0, 100, "%");
    m.signals[S::kCoolantTempC] =
        sig("CoolantTempC", 24, 8, 1.0, -40.0, false, -40, 215, "degC");
    m.signals[S::kEngineRunning] = sig("EngineRunning", 32, 1);
    m.signals[S::kFuelRate] = sig("FuelRate", 40, 16, 0.05, 0.0, false, 0, 3000, "mg/s");
    db.add(std::move(m));
  }
  {
    using S = VehicleSpeedSignal;
    MessageDef m = message(kMsgVehicleSpeed, "VEHICLE_SPEED", 8, "ECM", 20, S::kCount);
    m.signals[S::kSpeedKph] = sig("SpeedKph", 0, 16, 0.01, 0.0, false, 0, 300, "km/h");
    m.signals[S::kAccelPct] = sig("AccelPct", 16, 8, 0.4, 0.0, false, 0, 100, "%");
    m.signals[S::kBrakeActive] = sig("BrakeActive", 24, 1);
    m.signals[S::kGearPosition] = sig("GearPosition", 56, 4, 1.0, 0.0, false, 0, 8);
    m.signals[S::kSpeedValid] = sig("SpeedValid", 61, 1);
    m.signals[S::kCruiseEngaged] = sig("CruiseEngaged", 62, 1);
    db.add(std::move(m));
  }
  {
    using S = WheelSpeedsSignal;
    MessageDef m = message(kMsgWheelSpeeds, "WHEEL_SPEEDS", 8, "ABS", 20, S::kCount);
    m.signals[S::kWheelFl] = sig("WheelFL", 0, 16, 0.01, 0.0, false, 0, 300, "km/h");
    m.signals[S::kWheelFr] = sig("WheelFR", 16, 16, 0.01, 0.0, false, 0, 300, "km/h");
    m.signals[S::kWheelRl] = sig("WheelRL", 32, 16, 0.01, 0.0, false, 0, 300, "km/h");
    m.signals[S::kWheelRr] = sig("WheelRR", 48, 16, 0.01, 0.0, false, 0, 300, "km/h");
    db.add(std::move(m));
  }
  {
    using S = PowertrainStatusSignal;
    MessageDef m =
        message(kMsgPowertrainStatus, "POWERTRAIN_STATUS", 8, "ECM", 100, S::kCount);
    m.signals[S::kOilTempC] = sig("OilTempC", 0, 8, 1.0, -40.0, false, -40, 215, "degC");
    m.signals[S::kOilPressureKpa] =
        sig("OilPressureKpa", 8, 8, 4.0, 0.0, false, 0, 1000, "kPa");
    m.signals[S::kIntakeTempC] = sig("IntakeTempC", 16, 8, 1.0, -40.0, false, -40, 215, "degC");
    m.signals[S::kBatteryVolts] = sig("BatteryVolts", 24, 8, 0.1, 0.0, false, 0, 25.5, "V");
    m.signals[S::kFuelLevelPct] = sig("FuelLevelPct", 32, 8, 0.4, 0.0, false, 0, 100, "%");
    m.signals[S::kAmbientTempC] =
        sig("AmbientTempC", 40, 8, 1.0, -40.0, false, -40, 215, "degC");
    // Bytes 6..7 are reserved and transmitted as 0xFF by the ECM (matching
    // the "FF FF" tail visible in the paper's Table II capture of 0x43A).
    m.signals[S::kReserved] = sig("Reserved", 48, 16, 1.0, 0.0, false, 0, 65535);
    db.add(std::move(m));
  }
  {
    using S = ClusterDisplaySignal;
    MessageDef m = message(kMsgClusterDisplay, "CLUSTER_DISPLAY", 8, "BCM", 100, S::kCount);
    m.signals[S::kDisplayMode] = sig("DisplayMode", 0, 8);
    m.signals[S::kDisplayArg] = sig("DisplayArg", 8, 8);
    m.signals[S::kOdometerKm] = sig("OdometerKm", 16, 24, 0.1, 0.0, false, 0, 1677721, "km");
    m.signals[S::kTripKm] = sig("TripKm", 40, 16, 0.1, 0.0, false, 0, 6553.5, "km");
    db.add(std::move(m));
  }
  {
    using S = TelltalesSignal;
    MessageDef m = message(kMsgTelltales, "TELLTALES", 8, "ECM", 100, S::kCount);
    m.signals[S::kMilOn] = sig("MilOn", 0, 1);
    m.signals[S::kOilWarning] = sig("OilWarning", 1, 1);
    m.signals[S::kBatteryWarning] = sig("BatteryWarning", 2, 1);
    m.signals[S::kCoolantWarning] = sig("CoolantWarning", 3, 1);
    m.signals[S::kAbsWarning] = sig("AbsWarning", 4, 1);
    m.signals[S::kAirbagWarning] = sig("AirbagWarning", 5, 1);
    m.signals[S::kDtcCount] = sig("DtcCount", 8, 8, 1.0, 0.0, false, 0, 255);
    db.add(std::move(m));
  }
  {
    // The paper's lock/unlock app transmits DLC 7 on id 0x215; event-driven.
    using S = BodyCommandSignal;
    MessageDef m = message(kMsgBodyCommand, "BODY_COMMAND", 7, "IVI", 0, S::kCount);
    m.signals[S::kCommand] = sig("Command", 0, 8);
    m.signals[S::kSource] = sig("Source", 8, 8);
    m.signals[S::kSessionId] = sig("SessionId", 16, 16);
    m.signals[S::kSequenceNum] = sig("SequenceNum", 32, 8);
    db.add(std::move(m));
  }
  {
    using S = BodyAckSignal;
    MessageDef m = message(kMsgBodyAck, "BODY_ACK", 2, "BCM", 0, S::kCount);
    m.signals[S::kAckCommand] = sig("AckCommand", 0, 8);
    m.signals[S::kAckResult] = sig("AckResult", 8, 8);
    db.add(std::move(m));
  }
  {
    using S = DoorStatusSignal;
    MessageDef m = message(kMsgDoorStatus, "DOOR_STATUS", 4, "BCM", 100, S::kCount);
    m.signals[S::kLockState] = sig("LockState", 0, 1);  // 0 locked, 1 unlocked
    m.signals[S::kDriverDoorOpen] = sig("DriverDoorOpen", 1, 1);
    m.signals[S::kPassengerDoorOpen] = sig("PassengerDoorOpen", 2, 1);
    m.signals[S::kInteriorLight] = sig("InteriorLight", 8, 1);
    db.add(std::move(m));
  }
  return db;
}

}  // namespace

const Database& target_vehicle_database() {
  static const Database db = build_target_vehicle_database();
  return db;
}

std::string target_vehicle_dbc_text() {
  const std::string nodes[] = {"ECM", "ABS", "BCM", "IVI", "CLUSTER", "GATEWAY"};
  return to_dbc_text(target_vehicle_database(), nodes);
}

}  // namespace acf::dbc
