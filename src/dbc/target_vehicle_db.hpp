// The simulated target vehicle's signal database.
//
// The paper could not publish its target vehicle's proprietary message map
// (operational details of a vehicle's internals are commercial secrets); we
// define an equivalent one whose idle traffic resembles the captures shown
// in Table II (ids 0x215, 0x296, 0x43A, 0x4B0, 0x4F2 with the same DLCs).
// All ECU models, the targeted fuzzer and the plausibility oracle share
// these definitions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dbc/database.hpp"

namespace acf::dbc {

// Message ids (11-bit).  Powertrain bus unless noted.
inline constexpr std::uint32_t kMsgEngineData = 0x0A5;        // 10 ms
inline constexpr std::uint32_t kMsgVehicleSpeed = 0x296;      // 20 ms
inline constexpr std::uint32_t kMsgWheelSpeeds = 0x4B0;       // 20 ms
inline constexpr std::uint32_t kMsgPowertrainStatus = 0x43A;  // 100 ms
inline constexpr std::uint32_t kMsgClusterDisplay = 0x4F2;    // 100 ms
inline constexpr std::uint32_t kMsgTelltales = 0x420;         // 100 ms
inline constexpr std::uint32_t kMsgBodyCommand = 0x215;       // event (body bus)
inline constexpr std::uint32_t kMsgBodyAck = 0x216;           // event (body bus)
inline constexpr std::uint32_t kMsgDoorStatus = 0x21A;        // 100 ms (body bus)

// Signal positions: each signal's index in its message's
// MessageDef::signals, which is its declaration order; kCount is the
// message's signal count.  The ECU models encode a frame with one value per
// position (MessageDef::encode(span)) and decode only the signals they read
// (dbc::decode(signals[i], payload)), so no per-frame path looks a signal up
// by name and this header is the one place that knows each layout.
struct EngineDataSignal {
  enum : std::size_t { kEngineRpm, kThrottlePct, kCoolantTempC, kEngineRunning, kFuelRate, kCount };
};
struct VehicleSpeedSignal {
  enum : std::size_t {
    kSpeedKph, kAccelPct, kBrakeActive, kGearPosition, kSpeedValid, kCruiseEngaged, kCount
  };
};
struct WheelSpeedsSignal {
  enum : std::size_t { kWheelFl, kWheelFr, kWheelRl, kWheelRr, kCount };
};
struct PowertrainStatusSignal {
  enum : std::size_t {
    kOilTempC, kOilPressureKpa, kIntakeTempC, kBatteryVolts, kFuelLevelPct, kAmbientTempC,
    kReserved, kCount
  };
};
struct ClusterDisplaySignal {
  enum : std::size_t { kDisplayMode, kDisplayArg, kOdometerKm, kTripKm, kCount };
};
struct TelltalesSignal {
  enum : std::size_t {
    kMilOn, kOilWarning, kBatteryWarning, kCoolantWarning, kAbsWarning, kAirbagWarning,
    kDtcCount, kCount
  };
};
struct BodyCommandSignal {
  enum : std::size_t { kCommand, kSource, kSessionId, kSequenceNum, kCount };
};
struct BodyAckSignal {
  enum : std::size_t { kAckCommand, kAckResult, kCount };
};
struct DoorStatusSignal {
  enum : std::size_t { kLockState, kDriverDoorOpen, kPassengerDoorOpen, kInteriorLight, kCount };
};

// UDS diagnostic addressing (physical request/response pairs).
inline constexpr std::uint32_t kUdsEngineRequest = 0x7E0;
inline constexpr std::uint32_t kUdsEngineResponse = 0x7E8;
inline constexpr std::uint32_t kUdsClusterRequest = 0x726;
inline constexpr std::uint32_t kUdsClusterResponse = 0x72E;
inline constexpr std::uint32_t kUdsBcmRequest = 0x740;
inline constexpr std::uint32_t kUdsBcmResponse = 0x748;

// BODY_COMMAND command codes (byte 0), as in the paper's lock/unlock app
// (Fig. 13: byte0 = 16 decimal for lock, 32 decimal for unlock, DLC 7).
inline constexpr std::uint8_t kCmdLock = 0x10;
inline constexpr std::uint8_t kCmdUnlock = 0x20;

/// The target vehicle's database: one immutable instance per process, built
/// on first use (thread-safe).  Every world and ECU model reads this same
/// instance, so building a world never builds a database.
const Database& target_vehicle_database();

/// The same database as DBC text (exercises the parser; examples load it).
std::string target_vehicle_dbc_text();

}  // namespace acf::dbc
