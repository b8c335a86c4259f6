#include "attacks/config.hpp"

namespace acf::attacks {

const char* to_string(AttackFamily family) noexcept {
  switch (family) {
    case AttackFamily::kFlood: return "flood";
    case AttackFamily::kSpoof: return "spoof";
    case AttackFamily::kMasquerade: return "masquerade";
    case AttackFamily::kReplay: return "replay";
    case AttackFamily::kSuspension: return "suspension";
    case AttackFamily::kBusOff: return "bus-off";
    case AttackFamily::kGatewayProbe: return "gateway-probe";
    case AttackFamily::kUdsSession: return "uds-session";
    case AttackFamily::kObdScan: return "obd-scan";
    case AttackFamily::kXcpTamper: return "xcp-tamper";
  }
  return "unknown";
}

const char* to_string(AttackBus bus) noexcept {
  return bus == AttackBus::kPowertrain ? "powertrain" : "body";
}

}  // namespace acf::attacks
