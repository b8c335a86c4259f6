// CAN message authentication: a truncated-MAC + rolling-counter scheme of
// the family surveyed by Nowdehi et al. (cited in the paper §IV as the
// state of the art that "no scheme meets all the criteria for deployment").
//
// Layout of an authenticated command frame (DLC 7, fits classic CAN):
//   byte 0      command
//   byte 1      rolling counter (low 8 bits of a 32-bit session counter)
//   bytes 2..5  32-bit truncated SipHash-2-4 over (id, counter32, command)
//   byte 6      reserved (0)
//
// The defense ablation (bench_ablation_auth) measures what this does to the
// paper's Table V attack: the fuzzer's per-frame success probability drops
// from 2^-19.2 to ~2^-51, i.e. from minutes to geological time.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "can/frame.hpp"

namespace acf::security {

using Key128 = std::array<std::uint8_t, 16>;

/// SipHash-2-4 (Aumasson & Bernstein), the reference short-input PRF.
std::uint64_t siphash24(const Key128& key, std::span<const std::uint8_t> data);

enum class VerifyResult : std::uint8_t {
  kOk,
  kBadLength,   // frame shape wrong
  kBadMac,      // MAC mismatch (forgery / fuzz)
  kReplayed,    // counter not ahead of the last accepted one
};

const char* to_string(VerifyResult result) noexcept;

struct AuthStats {
  std::uint64_t signed_frames = 0;
  std::uint64_t accepted = 0;
  std::uint64_t bad_length = 0;
  std::uint64_t bad_mac = 0;
  std::uint64_t replayed = 0;
};

/// Signs and verifies command frames.  Sender and receiver each hold one,
/// sharing the key; the receiver tracks the highest accepted counter and
/// accepts a bounded look-ahead window (lost frames must not wedge it).
class FrameAuthenticator {
 public:
  explicit FrameAuthenticator(Key128 key, std::uint8_t counter_window = 16)
      : key_(key), window_(counter_window) {}

  /// Builds a signed command frame on `id`, consuming one counter value.
  can::CanFrame sign_command(std::uint32_t id, std::uint8_t command);

  /// Verifies a received frame (shape, MAC, counter freshness) and, on
  /// success, advances the receive counter.
  VerifyResult verify_command(const can::CanFrame& frame);

  /// Command byte of a frame that verified kOk (call after verify).
  std::uint8_t last_command() const noexcept { return last_command_; }

  const AuthStats& stats() const noexcept { return stats_; }
  std::uint32_t tx_counter() const noexcept { return tx_counter_; }
  std::uint32_t rx_counter() const noexcept { return rx_counter_; }

  /// Restarts both counters and the stats; keeps the key and the window.
  void reset() noexcept {
    tx_counter_ = 0;
    rx_counter_ = 0;
    last_command_ = 0;
    stats_ = AuthStats{};
  }

  /// Expected MAC for a given (id, counter, command) — exposed for tests.
  std::uint32_t compute_mac(std::uint32_t id, std::uint32_t counter,
                            std::uint8_t command) const;

 private:
  Key128 key_;
  std::uint8_t window_;
  std::uint32_t tx_counter_ = 0;
  std::uint32_t rx_counter_ = 0;
  std::uint8_t last_command_ = 0;
  AuthStats stats_;
};

}  // namespace acf::security
