// CAN fault confinement (Bosch CAN 2.0 §8): every node keeps a transmit and
// a receive error counter and moves between error-active, error-passive and
// bus-off.  The paper observed real components failing under fuzz; modelling
// fault confinement lets the oracles detect a node that has been driven off
// the bus.
#pragma once

#include <cstdint>

namespace acf::can {

enum class ErrorMode : std::uint8_t {
  kErrorActive,   // normal operation, sends active error flags
  kErrorPassive,  // TEC or REC > 127; sends passive error flags
  kBusOff,        // TEC > 255; may not transmit at all
};

const char* to_string(ErrorMode mode) noexcept;

/// Transmit/receive error counters with the Bosch increment/decrement rules.
class ErrorState {
 public:
  ErrorMode mode() const noexcept {
    if (tec_ > 255) return ErrorMode::kBusOff;
    if (tec_ > 127 || rec_ > 127) return ErrorMode::kErrorPassive;
    return ErrorMode::kErrorActive;
  }
  std::uint16_t tec() const noexcept { return tec_; }
  std::uint16_t rec() const noexcept { return rec_; }
  bool bus_off() const noexcept { return mode() == ErrorMode::kBusOff; }

  /// Transmitter detected an error in its own frame: TEC += 8.
  void on_tx_error() noexcept;
  /// Receiver detected an error: REC += 1 (the +8 "primary detector" rule is
  /// folded into on_rx_error_primary).
  void on_rx_error() noexcept;
  void on_rx_error_primary() noexcept;
  /// Successful transmission: TEC -= 1 (floor 0).
  void on_tx_success() noexcept {
    if (tec_ > 0) --tec_;
  }
  /// Successful reception: REC -= 1 (floor 0; >127 resets into 119..127 band,
  /// we use 127).
  void on_rx_success() noexcept {
    if (rec_ > 127) {
      rec_ = 127;
    } else if (rec_ > 0) {
      --rec_;
    }
  }

  /// Bus-off recovery (128 × 11 recessive bits on a real bus; here the bus
  /// model invokes it after the equivalent idle time).
  void reset() noexcept;

  /// Total error events, for statistics.
  std::uint64_t tx_error_events() const noexcept { return tx_errors_; }
  std::uint64_t rx_error_events() const noexcept { return rx_errors_; }
  /// Times this controller entered bus-off.  Cumulative — reset() (recovery)
  /// does not clear it, so an observer polling slower than the recovery
  /// window still sees that fault confinement fired.
  std::uint64_t bus_off_events() const noexcept { return bus_off_events_; }

 private:
  std::uint16_t tec_ = 0;
  std::uint16_t rec_ = 0;
  std::uint64_t tx_errors_ = 0;
  std::uint64_t rx_errors_ = 0;
  std::uint64_t bus_off_events_ = 0;
};

}  // namespace acf::can
