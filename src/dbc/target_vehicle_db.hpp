// The simulated target vehicle's signal database.
//
// The paper could not publish its target vehicle's proprietary message map
// (operational details of a vehicle's internals are commercial secrets); we
// define an equivalent one whose idle traffic resembles the captures shown
// in Table II (ids 0x215, 0x296, 0x43A, 0x4B0, 0x4F2 with the same DLCs).
// All ECU models, the targeted fuzzer and the plausibility oracle share
// these definitions.
#pragma once

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
