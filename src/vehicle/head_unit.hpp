// Infotainment head unit (IVI): the in-vehicle endpoint of the remote
// smartphone-app unlock path (paper Figs. 10-13).  The app connection itself
// is out of band ("a secure connection — or should be"); the head unit's
// job on the CAN side is to translate app requests into BODY_COMMAND frames.
#pragma once

#include <cstdint>
#include <memory>

#include "dbc/target_vehicle_db.hpp"
#include "ecu/ecu.hpp"
#include "security/mac.hpp"

namespace acf::vehicle {

class HeadUnit final : public ecu::Ecu {
 public:
  HeadUnit(sim::Scheduler& scheduler, can::VirtualBus& bus);

  /// The smartphone/PC app proxy: issue lock / unlock.  Returns false if
  /// the frame could not be queued.
  bool request_unlock() { return send_command(dbc::kCmdUnlock); }
  bool request_lock() { return send_command(dbc::kCmdLock); }

  /// Acks observed from the BCM (app feedback path).
  std::uint64_t acks_seen() const noexcept { return acks_seen_; }
  std::uint8_t last_acked_command() const noexcept { return last_acked_command_; }

  /// Installs the shared key: commands are then MAC-signed (the BCM must
  /// hold the same key and an authenticated predicate).
  void install_auth_key(const security::Key128& key) {
    signer_ = std::make_unique<security::FrameAuthenticator>(key);
  }

  /// Back to the just-built state (Ecu::factory_reset), with the command
  /// sequence, the ack tally and the signer's counters restarted.  Keeps
  /// an installed key.
  void reset();

 private:
  void handle_frame(const can::CanFrame& frame, sim::SimTime time) override;
  bool send_command(std::uint8_t command);

  std::uint8_t sequence_ = 0;
  std::uint64_t acks_seen_ = 0;
  std::uint8_t last_acked_command_ = 0;
  std::unique_ptr<security::FrameAuthenticator> signer_;
};

}  // namespace acf::vehicle
