// Body Control Module: owns the door-lock actuator (the testbench's LED —
// off = locked, on = unlocked), answers BODY_COMMAND frames and emits the
// BODY_ACK unlock acknowledgement the paper added to its bench so the fuzzer
// could detect success.
//
// The unlock-match predicate is configurable because Table V is exactly a
// comparison of predicates: matching on id + command byte alone, versus also
// requiring the correct DLC, versus (the paper's §VII projection) further
// payload bytes.
#pragma once

#include <cstdint>
#include <memory>

#include "dbc/target_vehicle_db.hpp"
#include "ecu/ecu.hpp"
#include "security/mac.hpp"

namespace acf::vehicle {

/// How strictly BODY_COMMAND frames are validated before actuation.
struct UnlockPredicate {
  /// Number of payload bytes that must match the expected command prefix
  /// (1 = command byte only, as in the paper's first Table V row).
  std::uint8_t bytes_checked = 1;
  /// Require the exact DLC (7) — the paper's one-line hardening change.
  bool check_length = false;
  /// Require a valid truncated MAC + fresh rolling counter (the defense
  /// ablation; needs a shared key installed on BCM and head unit).
  bool require_auth = false;

  /// Canonical predicates from the paper.
  static UnlockPredicate single_id_and_byte() { return {1, false, false}; }
  static UnlockPredicate id_byte_and_length() { return {1, true, false}; }
  static UnlockPredicate authenticated() { return {1, true, true}; }
};

class BodyControlModule final : public ecu::Ecu {
 public:
  BodyControlModule(sim::Scheduler& scheduler, can::VirtualBus& bus,
                    UnlockPredicate predicate = UnlockPredicate::single_id_and_byte());

  /// Door state; the testbench LED: on (true) = unlocked.
  bool unlocked() const noexcept { return unlocked_; }
  bool lock_led_on() const noexcept { return unlocked_; }

  std::uint64_t unlock_events() const noexcept { return unlock_events_; }
  std::uint64_t lock_events() const noexcept { return lock_events_; }
  std::uint64_t rejected_commands() const noexcept { return rejected_commands_; }

  const UnlockPredicate& predicate() const noexcept { return predicate_; }

  /// Re-locks without emitting an ack (used between Table V trials).
  void force_lock() noexcept { unlocked_ = false; }

  /// Back to the just-built state (Ecu::factory_reset): locked, zeroed
  /// command counters and the verifier's counters restarted.  Keeps the
  /// predicate and an installed key.
  void reset();

  /// Installs the shared authentication key (enables require_auth
  /// predicates).  The head unit must hold the same key.
  void install_auth_key(const security::Key128& key) {
    verifier_ = std::make_unique<security::FrameAuthenticator>(key);
  }
  const security::FrameAuthenticator* verifier() const noexcept { return verifier_.get(); }

 private:
  void actuate(bool unlocked, std::uint8_t command);
  void handle_frame(const can::CanFrame& frame, sim::SimTime time) override;
  void on_power_on() override;
  bool matches(const can::CanFrame& frame, std::uint8_t command) const;
  void send_ack(std::uint8_t command, bool ok);

  const dbc::Database& db_ = dbc::target_vehicle_database();
  UnlockPredicate predicate_;
  bool unlocked_ = false;
  double odometer_km_ = 18'204.0;
  std::uint64_t unlock_events_ = 0;
  std::uint64_t lock_events_ = 0;
  std::uint64_t rejected_commands_ = 0;
  std::unique_ptr<security::FrameAuthenticator> verifier_;
};

}  // namespace acf::vehicle
