// UDS (ISO 14229) diagnostic server: the service endpoint every real ECU
// exposes over ISO-TP.  Covers the subset relevant to security testing:
// session control, ECU reset, security access with lockout, data identifier
// read/write, tester present and DTC reporting.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "isotp/isotp.hpp"
#include "sim/scheduler.hpp"
#include "uds/security.hpp"
#include "util/rng.hpp"

namespace acf::uds {

// Service ids.
inline constexpr std::uint8_t kSidDiagnosticSessionControl = 0x10;
inline constexpr std::uint8_t kSidEcuReset = 0x11;
inline constexpr std::uint8_t kSidReadDtcInformation = 0x19;
inline constexpr std::uint8_t kSidReadDataByIdentifier = 0x22;
inline constexpr std::uint8_t kSidSecurityAccess = 0x27;
inline constexpr std::uint8_t kSidWriteDataByIdentifier = 0x2E;
inline constexpr std::uint8_t kSidTesterPresent = 0x3E;
inline constexpr std::uint8_t kNegativeResponse = 0x7F;

// Negative response codes.
inline constexpr std::uint8_t kNrcServiceNotSupported = 0x11;
inline constexpr std::uint8_t kNrcSubFunctionNotSupported = 0x12;
inline constexpr std::uint8_t kNrcIncorrectLength = 0x13;
inline constexpr std::uint8_t kNrcConditionsNotCorrect = 0x22;
inline constexpr std::uint8_t kNrcRequestSequenceError = 0x24;
inline constexpr std::uint8_t kNrcRequestOutOfRange = 0x31;
inline constexpr std::uint8_t kNrcSecurityAccessDenied = 0x33;
inline constexpr std::uint8_t kNrcInvalidKey = 0x35;
inline constexpr std::uint8_t kNrcExceededAttempts = 0x36;
inline constexpr std::uint8_t kNrcTimeDelayNotExpired = 0x37;

enum class Session : std::uint8_t {
  kDefault = 0x01,
  kProgramming = 0x02,
  kExtended = 0x03,
};

/// The paper's "ECU operating modes": normal operation vs unlocked for
/// service/update.
enum class SecurityState : std::uint8_t { kLocked, kSeedIssued, kUnlocked };

struct UdsServerStats {
  std::uint64_t requests = 0;
  std::uint64_t positive_responses = 0;
  std::uint64_t negative_responses = 0;
  std::uint64_t resets = 0;
  std::uint64_t unlocks = 0;
  std::uint64_t failed_key_attempts = 0;
};

class UdsServer {
 public:
  using SendResponseFn = std::function<void(std::vector<std::uint8_t>)>;

  explicit UdsServer(sim::Scheduler& scheduler);

  /// Handles one complete (ISO-TP reassembled) request; the response is
  /// delivered through `respond`.
  void handle_request(std::span<const std::uint8_t> request, const SendResponseFn& respond);

  // --- application integration -------------------------------------------
  /// Backing store for ReadDataByIdentifier / WriteDataByIdentifier.
  void set_did(std::uint16_t did, std::vector<std::uint8_t> value, bool writable = false,
               bool write_needs_unlock = true);
  const std::vector<std::uint8_t>* did_value(std::uint16_t did) const;

  /// Supplies DTC bytes for ReadDTCInformation (3 bytes + status per DTC).
  void set_dtc_provider(std::function<std::vector<std::uint8_t>()> provider) {
    dtc_provider_ = std::move(provider);
  }
  /// Invoked on a positive ECUReset.
  void set_reset_handler(std::function<void()> handler) { reset_handler_ = std::move(handler); }

  Session session() const noexcept { return session_; }
  SecurityState security_state() const noexcept { return security_; }
  const UdsServerStats& stats() const noexcept { return stats_; }

  /// Drops to the default session and relocks (power-on state).
  void reset_state();

  /// Returns to the just-built state: reset_state() plus no lockout, the
  /// seed RNG re-seeded, zeroed stats and every DID back to the value
  /// set_did() installed.  Keeps the DID table, the providers and handlers,
  /// and every allocation.  (A seed left pending is never read again: only
  /// a new seed request leaves the locked state.)
  void reset();

 private:
  struct DidEntry {
    std::vector<std::uint8_t> installed;  // as set_did() gave it
    std::vector<std::uint8_t> written;    // WriteDataByIdentifier's value
    bool overwritten = false;             // `written` replaces `installed`
    bool writable = false;
    bool write_needs_unlock = true;

    const std::vector<std::uint8_t>& value() const noexcept {
      return overwritten ? written : installed;
    }
  };

  std::vector<std::uint8_t> dispatch(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> negative(std::uint8_t sid, std::uint8_t nrc);
  std::vector<std::uint8_t> handle_session_control(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> handle_ecu_reset(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> handle_read_did(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> handle_write_did(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> handle_security_access(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> handle_tester_present(std::span<const std::uint8_t> request);
  std::vector<std::uint8_t> handle_read_dtc(std::span<const std::uint8_t> request);
  void touch_s3_timer();

  sim::Scheduler& scheduler_;
  XorRotateAlgorithm algorithm_;
  util::Rng rng_;

  Session session_ = Session::kDefault;
  SecurityState security_ = SecurityState::kLocked;
  Seed pending_seed_{};
  std::uint8_t failed_attempts_ = 0;
  sim::SimTime lockout_until_{0};
  sim::EventId s3_timer_{};

  std::map<std::uint16_t, DidEntry> dids_;
  std::function<std::vector<std::uint8_t>()> dtc_provider_;
  std::function<void()> reset_handler_;
  UdsServerStats stats_;
};

}  // namespace acf::uds
