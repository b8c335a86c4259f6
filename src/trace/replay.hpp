// Replay: re-injects a captured trace onto a bus with its original relative
// timing.  This is how a recorded fuzz finding is reproduced (the paper's
// "the conditions that caused it are recorded and the system is reset"), and
// doubles as a background-traffic generator for realistic bus load.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/transport.hpp"

namespace acf::trace {

struct ReplayOptions {
  /// Multiplies inter-frame gaps (2.0 = half speed, 0.5 = double speed).
  double time_scale = 1.0;
  /// Replays the trace this many times end-to-end (0 = forever), 10 ms
  /// apart.
  std::uint32_t repeat = 1;
};

class Replayer {
 public:
  /// Replays `frames` through `transport` on `scheduler`.  Both must
  /// outlive the replayer.  Timing is taken relative to the first frame.
  Replayer(sim::Scheduler& scheduler, transport::CanTransport& transport,
           std::vector<TimestampedFrame> frames, ReplayOptions options = {});

  /// Arms the replay starting at the current simulated time.
  void start();
  void stop();

  bool running() const noexcept { return running_; }
  std::uint64_t frames_sent() const noexcept { return sent_; }
  std::uint32_t repetitions_completed() const noexcept { return repetitions_; }

  /// Invoked when the configured repetitions complete.
  void set_on_done(std::function<void()> callback) { on_done_ = std::move(callback); }

 private:
  void schedule_next();
  void send_current();

  sim::Scheduler& scheduler_;
  transport::CanTransport& transport_;
  std::vector<TimestampedFrame> frames_;
  ReplayOptions options_;
  std::size_t index_ = 0;
  std::uint32_t repetitions_ = 0;
  std::uint64_t sent_ = 0;
  bool running_ = false;
  sim::SimTime rep_start_{0};
  sim::EventId pending_{};
  std::function<void()> on_done_;
};

}  // namespace acf::trace
