// Frame capture: the "CAN bus traffic monitor" component of the paper's
// fuzzer.  A CaptureTap attaches to a bus and records timestamped frames for
// analysis, logging and replay.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "can/frame.hpp"
#include "sim/time.hpp"

namespace acf::trace {

struct TimestampedFrame {
  can::CanFrame frame;
  sim::SimTime time{0};
};

/// Records every frame seen on a bus (listen-only; never transmits, so it is
/// invisible to the system under test, like a wire tap on the OBD port).
class CaptureTap final : private can::BusListener {
 public:
  /// Attaches to `bus`.  `limit` bounds memory for long campaigns
  /// (oldest-first truncation is NOT applied; capture simply stops growing —
  /// analysis of "the first N frames" stays deterministic).
  explicit CaptureTap(can::VirtualBus& bus, std::string name = "tap",
                      std::size_t limit = std::numeric_limits<std::size_t>::max());
  ~CaptureTap() override;

  CaptureTap(const CaptureTap&) = delete;
  CaptureTap& operator=(const CaptureTap&) = delete;

  const std::vector<TimestampedFrame>& frames() const noexcept { return frames_; }
  std::size_t size() const noexcept { return frames_.size(); }
  std::uint64_t total_seen() const noexcept { return total_seen_; }
  void clear() noexcept { frames_.clear(); }
  /// clear() plus a zeroed total: the just-attached state.  Keeps the
  /// attachment, the limit and the frame buffer.
  void reset() noexcept {
    clear();
    total_seen_ = 0;
  }

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  can::VirtualBus& bus_;
  can::NodeId node_;
  std::size_t limit_;
  std::vector<TimestampedFrame> frames_;
  std::uint64_t total_seen_ = 0;
};

}  // namespace acf::trace
