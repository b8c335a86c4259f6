// Frame capture: the "CAN bus traffic monitor" component of the paper's
// fuzzer.  A CaptureTap attaches to a bus (or wraps a transport callback)
// and records timestamped frames for analysis, logging and replay.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Accessors drain the bus's delivery slab first, so a batched tap always
  /// reads a complete view of the traffic delivered so far.
  const std::vector<TimestampedFrame>& frames() const {
    bus_.flush_deliveries();
    return frames_;
  }
  std::size_t size() const {
    bus_.flush_deliveries();
    return frames_.size();
  }
  std::uint64_t total_seen() const {
    bus_.flush_deliveries();
    return total_seen_;
  }
  std::uint64_t error_frames_seen() const noexcept { return error_frames_; }
  void clear() {
    bus_.flush_deliveries();
    frames_.clear();
  }
  /// clear() plus zeroed totals: the just-attached state.  Keeps the
  /// attachment, the limit, the live callback and the frame buffer.
  void reset() {
    clear();
    total_seen_ = 0;
    error_frames_ = 0;
  }

  /// Optional live callback invoked for each frame as it is captured.
  /// Installing one switches the tap from slab (batched) to immediate
  /// delivery, so reactions fire at the frame's own simulated instant.
  void set_on_frame(std::function<void(const TimestampedFrame&)> callback) {
    bus_.flush_deliveries();
    on_frame_cb_ = std::move(callback);
    bus_.set_batched(node_, on_frame_cb_ == nullptr);
  }

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;
  void on_frame_batch(std::span<const can::BusDelivery> batch) override;
  void on_error_frame(sim::SimTime time) override;
  void record(const can::CanFrame& frame, sim::SimTime time);

  can::VirtualBus& bus_;
  can::NodeId node_;
  std::size_t limit_;
  std::vector<TimestampedFrame> frames_;
  std::uint64_t total_seen_ = 0;
  std::uint64_t error_frames_ = 0;
  std::function<void(const TimestampedFrame&)> on_frame_cb_;
};

}  // namespace acf::trace
