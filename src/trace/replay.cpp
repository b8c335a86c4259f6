#include "trace/replay.hpp"

#include <cmath>
#include <limits>

namespace acf::trace {

namespace {
/// Gap inserted between repetitions.
constexpr sim::Duration kRepeatGap = std::chrono::milliseconds(10);
}  // namespace

Replayer::Replayer(sim::Scheduler& scheduler, transport::CanTransport& transport,
                   std::vector<TimestampedFrame> frames, ReplayOptions options)
    : scheduler_(scheduler), transport_(transport), frames_(std::move(frames)),
      options_(options) {}

void Replayer::start() {
  if (frames_.empty() || running_) return;
  running_ = true;
  index_ = 0;
  repetitions_ = 0;
  rep_start_ = scheduler_.now();
  schedule_next();
}

void Replayer::stop() {
  running_ = false;
  scheduler_.cancel(pending_);
  pending_ = {};
}

void Replayer::schedule_next() {
  if (!running_) return;
  const sim::Duration original_offset = frames_[index_].time - frames_.front().time;
  // Clamp before converting: llround past the int64 range is undefined, and
  // a hostile trace can put ~292 years between two frames.  Negative offsets
  // (out-of-order captures) and NaN scales replay immediately.
  constexpr double kMaxOffsetNs = 4.6e18;  // half the int64 ns range
  double scaled_d = static_cast<double>(original_offset.count()) * options_.time_scale;
  if (!(scaled_d >= 0.0)) scaled_d = 0.0;
  if (scaled_d > kMaxOffsetNs) scaled_d = kMaxOffsetNs;
  const auto scaled = static_cast<std::int64_t>(std::llround(scaled_d));
  constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
  const std::int64_t due_ns = rep_start_.count() > kMaxNs - scaled
                                  ? kMaxNs
                                  : rep_start_.count() + scaled;
  const sim::SimTime due{due_ns};
  pending_ = scheduler_.schedule_at(due, [this] { send_current(); });
}

void Replayer::send_current() {
  if (!running_) return;
  transport_.send(frames_[index_].frame);
  ++sent_;
  ++index_;
  if (index_ < frames_.size()) {
    schedule_next();
    return;
  }
  ++repetitions_;
  if (options_.repeat != 0 && repetitions_ >= options_.repeat) {
    running_ = false;
    if (on_done_) on_done_();
    return;
  }
  index_ = 0;
  rep_start_ = scheduler_.now() + kRepeatGap;
  schedule_next();
}

}  // namespace acf::trace
