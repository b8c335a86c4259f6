// Attack scenario configuration: the taxonomy of structured CAN attacks and
// their parameters.
//
// The paper's campaigns fuzz blindly; the catalog here adds the classic
// adversaries from the related literature (masquerade, suspension, bus-off
// forcing, replay, gateway probing, diagnostic-session abuse) so every
// detector earns a per-attack row instead of one aggregate number.  A spec
// is deliberately tiny and fully value-typed.  It never crosses the wire: a
// distributed fleet's workers rebuild their arms from
// standard_attack_arms(), and only the campaign fingerprint is exchanged.
#pragma once

#include <cstdint>

namespace acf::attacks {

/// The scenario families.
enum class AttackFamily : std::uint8_t {
  kFlood = 0,         // highest-priority-id flood at arbitration boundaries
  kSpoof = 1,         // out-cadence forged periodic signal
  kMasquerade = 2,    // period- and payload-matched clone of a live id
  kReplay = 3,        // record a command window, replay it later
  kSuspension = 4,    // power off a victim ECU, impersonate its traffic
  kBusOff = 5,        // drive a victim's TEC past 255, then take over its id
  kGatewayProbe = 6,  // sweep ids across the gateway from the exposed bus
  kUdsSession = 7,    // diagnostic session + security-access brute force
  kObdScan = 8,       // OBD-II functional-id PID/DTC sweep
  kXcpTamper = 9,     // XCP CONNECT/SET_MTA/DOWNLOAD memory writes
};

inline constexpr std::uint8_t kAttackFamilyCount = 10;

const char* to_string(AttackFamily family) noexcept;

/// Which of the vehicle's two buses the attacker injects on.
enum class AttackBus : std::uint8_t {
  kPowertrain = 0,
  kBody = 1,
};

const char* to_string(AttackBus bus) noexcept;

/// One attack scenario's parameters.  Field meaning varies slightly per
/// family (documented on each scenario).
struct AttackSpec {
  AttackFamily family = AttackFamily::kFlood;
  AttackBus bus = AttackBus::kBody;
  /// Victim / forged / probed CAN id (11-bit).
  std::uint32_t target_id = 0;
  /// Injection cadence in microseconds.
  std::uint32_t period_us = 1000;
  /// Repetitions per tick (flood frames, forced errors, replay loops...).
  std::uint16_t burst = 1;
};

}  // namespace acf::attacks
