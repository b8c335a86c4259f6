#include "fleet/remote/reconnect.hpp"

#include <algorithm>

namespace acf::fleet::remote {

namespace {

constexpr std::chrono::microseconds kInitialBackoff{200};
constexpr std::chrono::milliseconds kMaxBackoff{50};
constexpr double kJitter = 0.25;
constexpr std::uint32_t kBreakerThreshold = 8;
constexpr std::chrono::milliseconds kOpenWindow{100};
constexpr std::chrono::milliseconds kMaxOpenWindow{5'000};

}  // namespace

ReconnectGate::ReconnectGate(std::uint64_t jitter_seed, std::uint32_t give_up_after)
    : give_up_after_(give_up_after), jitter_rng_(jitter_seed), current_open_(kOpenWindow) {}

std::chrono::microseconds ReconnectGate::backoff_for(std::uint32_t failures) {
  std::chrono::microseconds backoff = kInitialBackoff;
  for (std::uint32_t i = 1; i < failures && backoff < kMaxBackoff; ++i) backoff *= 2;
  backoff = std::min<std::chrono::microseconds>(backoff, kMaxBackoff);
  const double stretch = 1.0 + kJitter * jitter_rng_.next_double();
  // Whole microseconds keep the stretch even on sub-millisecond backoffs,
  // so gates seeded apart retry apart from their first failure on.
  return std::chrono::duration_cast<std::chrono::microseconds>(backoff * stretch);
}

std::optional<std::chrono::microseconds> ReconnectGate::next_delay() {
  if (give_up_after_ > 0 && consecutive_failures_ >= give_up_after_) return std::nullopt;
  ++stats_.attempts;
  if (consecutive_failures_ == 0) return std::chrono::microseconds(0);
  if (state_ == BreakerState::kOpen) {
    // Cool-down: wait out the open window, then half-open for one probe.
    // The window escalates only once it has been waited.
    state_ = BreakerState::kHalfOpen;
    const std::chrono::milliseconds window = current_open_;
    current_open_ = std::min(current_open_ * 2, kMaxOpenWindow);
    return window;
  }
  return backoff_for(consecutive_failures_);
}

void ReconnectGate::note_success() noexcept {
  consecutive_failures_ = 0;
  if (state_ != BreakerState::kClosed) ++stats_.breaker_recoveries;
  state_ = BreakerState::kClosed;
  current_open_ = kOpenWindow;
}

void ReconnectGate::trip_breaker() {
  state_ = BreakerState::kOpen;
  ++stats_.breaker_trips;
}

void ReconnectGate::note_failure() {
  ++consecutive_failures_;
  ++stats_.failures;
  if (state_ == BreakerState::kHalfOpen) {
    // Probe failed: re-open; the window was escalated when it was waited.
    trip_breaker();
    return;
  }
  if (state_ == BreakerState::kClosed && consecutive_failures_ >= kBreakerThreshold) {
    trip_breaker();
  }
}

}  // namespace acf::fleet::remote
