// ReconnectGate: the fleet worker's retry schedule for its coordinator
// connection, on the wall clock.  Transient socket faults — coordinator
// restarting, listen queue overflow, a dropped link — become jittered
// exponential backoff instead of an aborted campaign, and a genuinely dead
// coordinator trips a circuit breaker, so the worker fails fast through
// escalating open windows before giving up.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "util/rng.hpp"

namespace acf::fleet::remote {

struct ReconnectStats {
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_recoveries = 0;
};

/// The schedule is fixed (reconnect.cpp): the n-th consecutive failure waits
/// 200 us * 2^(n-1), capped at 50 ms and stretched by a uniform factor in
/// [1, 1.25], in whole microseconds.  The 8th consecutive failure trips the
/// breaker open.  The first open window is 100 ms; each window waited
/// doubles the next, up to 5 s, and a success restores 100 ms.
class ReconnectGate {
 public:
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// `jitter_seed` decorrelates gates that fail together: workers seed it
  /// with their random instance id, so they do not retry in lockstep.
  /// `give_up_after` bounds total consecutive failures (across breaker
  /// cycles) before next_delay() reports permanent failure; 0 = never.
  explicit ReconnectGate(std::uint64_t jitter_seed, std::uint32_t give_up_after = 0);

  /// Wall-clock time to wait before the next connection attempt, or nullopt
  /// when the gate has given up.  The first call (and the first after any
  /// success) returns zero delay.
  std::optional<std::chrono::microseconds> next_delay();

  void note_success() noexcept;
  void note_failure();

  BreakerState state() const noexcept { return state_; }
  std::uint32_t consecutive_failures() const noexcept { return consecutive_failures_; }
  const ReconnectStats& stats() const noexcept { return stats_; }

 private:
  std::chrono::microseconds backoff_for(std::uint32_t failures);
  void trip_breaker();

  std::uint32_t give_up_after_;
  util::Rng jitter_rng_;

  BreakerState state_ = BreakerState::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::chrono::milliseconds current_open_;
  ReconnectStats stats_;
};

}  // namespace acf::fleet::remote
