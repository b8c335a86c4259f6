#include "fleet/remote/wire.hpp"

#include <algorithm>
#include <cmath>

#include "util/socket.hpp"

namespace acf::fleet::remote {

using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint8_t kMaxTrialStatus = static_cast<std::uint8_t>(TrialStatus::kSkipped);
constexpr std::uint8_t kMaxStopReason = fuzzer::kStopReasonCount - 1;

// Strings cross the wire length-prefixed and bounded; anything longer is
// truncated at encode time so a pathological finding cannot poison the
// channel (decode rejects oversized declarations outright).
std::string_view clamp(std::string_view s) {
  return s.substr(0, kMaxStringBytes);
}

// Heartbeat metrics bounds truncate, never reject: the first `max` entries.
template <typename T>
std::span<const T> bounded(const std::vector<T>& entries, std::size_t max) {
  return {entries.data(), std::min(entries.size(), max)};
}

std::string_view metric_name(std::string_view name) { return name.substr(0, kMaxNameBytes); }

// The snapshot minus meters and quantiles (see HeartbeatMsg::metrics).
void write_metrics(ByteWriter& w, const metrics::RegistrySnapshot& snap) {
  const auto counters = bounded(snap.counters, kMaxMetricsEntries);
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const metrics::CounterSnap& c : counters) {
    w.str(metric_name(c.name));
    w.u64(c.value);
  }
  const auto gauges = bounded(snap.gauges, kMaxMetricsEntries);
  w.u32(static_cast<std::uint32_t>(gauges.size()));
  for (const metrics::GaugeSnap& g : gauges) {
    w.str(metric_name(g.name));
    w.i64(g.value);
  }
  const auto timers = bounded(snap.timers, kMaxMetricsEntries);
  w.u32(static_cast<std::uint32_t>(timers.size()));
  for (const metrics::TimerSnap& t : timers) {
    w.str(metric_name(t.name));
    w.u64(t.count);
    w.f64(t.sum);
    w.f64(t.min);
    w.f64(t.max);
    const auto samples = bounded(t.samples, kMaxTimerSamples);
    w.u32(static_cast<std::uint32_t>(samples.size()));
    for (const metrics::CkmsQuantiles::Sample& s : samples) {
      w.f64(s.value);
      w.u64(s.g);
      w.u64(s.delta);
    }
  }
}

// Non-finite aggregates are hostile data: nothing in the repo records NaN or
// infinity, and letting one into a registry would poison every later merge.
bool finite(double v) noexcept { return std::isfinite(v); }

bool read_metrics(ByteReader& r, metrics::RegistrySnapshot& snap) {
  // Minimum entries: a counter or gauge is a 4-byte name length + 8-byte
  // value; a timer adds count, sum/min/max and its sample count.
  snap.counters.resize(r.count(12, kMaxMetricsEntries));
  for (metrics::CounterSnap& c : snap.counters) {
    c.name = r.str(kMaxNameBytes);
    c.value = r.u64();
  }
  snap.gauges.resize(r.count(12, kMaxMetricsEntries));
  for (metrics::GaugeSnap& g : snap.gauges) {
    g.name = r.str(kMaxNameBytes);
    g.value = r.i64();
  }
  snap.timers.resize(r.count(40, kMaxMetricsEntries));
  for (metrics::TimerSnap& t : snap.timers) {
    t.name = r.str(kMaxNameBytes);
    t.count = r.u64();
    t.sum = r.f64();
    t.min = r.f64();
    t.max = r.f64();
    if (!finite(t.sum) || !finite(t.min) || !finite(t.max)) return false;
    t.samples.resize(r.count(24, kMaxTimerSamples));
    for (metrics::CkmsQuantiles::Sample& sample : t.samples) {
      sample.value = r.f64();
      sample.g = r.u64();
      sample.delta = r.u64();
      if (!finite(sample.value)) return false;
    }
  }
  return r.ok();
}

}  // namespace

// ---------------------------------------------------------- outcome -------

void write_outcome(ByteWriter& w, const TrialOutcome& outcome) {
  w.u64(outcome.spec.trial_index);
  w.u64(outcome.spec.arm);
  w.u64(outcome.spec.replica);
  w.u64(outcome.spec.seed);
  w.i64(outcome.spec.sim_budget.count());
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.u8(static_cast<std::uint8_t>(outcome.stop_reason));
  w.u64(outcome.frames_sent);
  w.u64(outcome.send_failures);
  w.f64(outcome.sim_seconds);
  w.f64(outcome.time_to_failure);
  w.u32(static_cast<std::uint32_t>(outcome.findings.size()));
  for (const std::string& finding : outcome.findings) w.str(clamp(finding));
  w.str(clamp(outcome.error));
}

bool read_outcome(ByteReader& r, TrialOutcome& outcome) {
  outcome.spec.trial_index = r.u64();
  outcome.spec.arm = r.u64();
  outcome.spec.replica = r.u64();
  outcome.spec.seed = r.u64();
  outcome.spec.sim_budget = sim::Duration{r.i64()};
  const std::uint8_t status = r.u8();
  const std::uint8_t stop = r.u8();
  if (!r.ok() || status > kMaxTrialStatus || stop > kMaxStopReason) return false;
  outcome.status = static_cast<TrialStatus>(status);
  outcome.stop_reason = static_cast<fuzzer::StopReason>(stop);
  outcome.frames_sent = r.u64();
  outcome.send_failures = r.u64();
  outcome.sim_seconds = r.f64();
  outcome.time_to_failure = r.f64();
  // Each finding needs at least its 4-byte length prefix.
  outcome.findings.resize(r.count(4));
  for (std::string& finding : outcome.findings) finding = r.str(kMaxStringBytes);
  outcome.error = r.str(kMaxStringBytes);
  return r.ok();
}

// ----------------------------------------------------------- encode -------

std::vector<std::uint8_t> encode(const Message& message) {
  ByteWriter w;
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, HelloMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kHello));
          w.u32(msg.protocol_version);
          w.u64(msg.fingerprint);
          w.u64(msg.instance_id);
        } else if constexpr (std::is_same_v<T, WelcomeMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kWelcome));
          w.u64(msg.fingerprint);
          w.u64(msg.trial_count);
        } else if constexpr (std::is_same_v<T, LeaseRequestMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLeaseRequest));
          w.u32(msg.capacity);
        } else if constexpr (std::is_same_v<T, LeaseGrantMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLeaseGrant));
          w.u64(msg.lease_id);
          w.u32(static_cast<std::uint32_t>(msg.trials.size()));
          for (const std::uint64_t trial : msg.trials) w.u64(trial);
        } else if constexpr (std::is_same_v<T, LeaseResultMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLeaseResult));
          w.u64(msg.lease_id);
          write_outcome(w, msg.outcome);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
          w.u64(msg.lease_id);
          w.u8(msg.metrics.has_value() ? 1 : 0);
          if (msg.metrics) write_metrics(w, *msg.metrics);
        } else if constexpr (std::is_same_v<T, ShutdownMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kShutdown));
          w.u8(static_cast<std::uint8_t>(msg.reason));
        } else if constexpr (std::is_same_v<T, RejectedMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kRejected));
          w.str(clamp(msg.reason));
        }
      },
      message);
  return w.take();
}

// ----------------------------------------------------------- decode -------

std::optional<Message> decode(std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload.size() > kMaxFramePayload) return std::nullopt;
  ByteReader r(payload.subspan(1));
  Message out;
  switch (static_cast<MsgType>(payload[0])) {
    case MsgType::kHello: {
      HelloMsg msg;
      msg.protocol_version = r.u32();
      msg.fingerprint = r.u64();
      msg.instance_id = r.u64();
      out = msg;
      break;
    }
    case MsgType::kWelcome: {
      WelcomeMsg msg;
      msg.fingerprint = r.u64();
      msg.trial_count = r.u64();
      out = msg;
      break;
    }
    case MsgType::kLeaseRequest: {
      LeaseRequestMsg msg;
      msg.capacity = r.u32();
      out = msg;
      break;
    }
    case MsgType::kLeaseGrant: {
      LeaseGrantMsg msg;
      msg.lease_id = r.u64();
      msg.trials.resize(r.count(8, kMaxLeaseTrials));
      for (std::uint64_t& trial : msg.trials) trial = r.u64();
      out = std::move(msg);
      break;
    }
    case MsgType::kLeaseResult: {
      LeaseResultMsg msg;
      msg.lease_id = r.u64();
      if (!read_outcome(r, msg.outcome)) return std::nullopt;
      out = std::move(msg);
      break;
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg msg;
      msg.lease_id = r.u64();
      const std::uint8_t has_metrics = r.u8();
      if (!r.ok() || has_metrics > 1) return std::nullopt;
      if (has_metrics == 1) {
        msg.metrics.emplace();
        if (!read_metrics(r, *msg.metrics)) return std::nullopt;
      }
      out = std::move(msg);
      break;
    }
    case MsgType::kShutdown: {
      const std::uint8_t reason = r.u8();
      if (!r.ok() || reason > static_cast<std::uint8_t>(ShutdownReason::kCoordinatorPausing)) {
        return std::nullopt;
      }
      out = ShutdownMsg{static_cast<ShutdownReason>(reason)};
      break;
    }
    case MsgType::kRejected: {
      RejectedMsg msg;
      msg.reason = r.str(kMaxStringBytes);
      out = std::move(msg);
      break;
    }
    default:
      return std::nullopt;  // not a type of this protocol version
  }
  // Strict: the payload must parse cleanly and leave nothing over.
  if (!r.done()) return std::nullopt;
  return out;
}

std::vector<std::uint8_t> frame_message(const Message& message) {
  const std::vector<std::uint8_t> payload = encode(message);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  return w.take();
}

// ------------------------------------------------------- frame reader -----

bool FrameReader::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return false;
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the pending length prefix eagerly so an oversized declaration
  // poisons the stream before its payload is ever buffered in full.
  if (buffer_.size() - consumed_ >= 4) {
    ByteReader r(std::span<const std::uint8_t>(buffer_).subspan(consumed_, 4));
    const std::uint32_t declared = r.u32();
    if (declared == 0 || declared > max_payload_) {
      poisoned_ = true;
      buffer_.clear();
      consumed_ = 0;
      return false;
    }
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  if (poisoned_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  ByteReader r(std::span<const std::uint8_t>(buffer_).subspan(consumed_, 4));
  const std::uint32_t declared = r.u32();
  if (available < 4 + static_cast<std::size_t>(declared)) return std::nullopt;
  std::vector<std::uint8_t> payload(buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4),
                                    buffer_.begin() +
                                        static_cast<std::ptrdiff_t>(consumed_ + 4 + declared));
  consumed_ += 4 + declared;
  // The next pending prefix (if fully buffered) gets the same eager check
  // feed() applies, so a poisoned tail never yields another frame.
  if (buffer_.size() - consumed_ >= 4) {
    ByteReader peek(std::span<const std::uint8_t>(buffer_).subspan(consumed_, 4));
    const std::uint32_t next_len = peek.u32();
    if (next_len == 0 || next_len > max_payload_) {
      poisoned_ = true;
      buffer_.clear();
      consumed_ = 0;
    }
  }
  return payload;
}

bool read_until_blocked(int fd, FrameReader& reader) {
  std::uint8_t chunk[4096];
  for (;;) {
    const util::IoResult result = util::socket_read(fd, chunk);
    if (result.status == util::IoStatus::kWouldBlock) return false;
    if (result.status != util::IoStatus::kOk) return true;
    if (!reader.feed(std::span<const std::uint8_t>(chunk, result.bytes))) return false;
  }
}

// ------------------------------------------------------- fingerprint ------

std::uint64_t campaign_fingerprint(const TrialPlan& plan, std::string_view world_tag) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  };
  const auto mix_bytes = [&mix](std::string_view text) {
    for (const char c : text) mix(static_cast<std::uint8_t>(c));
    mix(0);  // separator: ("ab","c") must not collide with ("a","bc")
  };
  const auto mix_u64 = [&mix](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  mix_bytes(world_tag);
  for (const std::string& arm : plan.arms()) mix_bytes(arm);
  mix_u64(plan.replicas());
  mix_u64(plan.base_seed());
  mix_u64(static_cast<std::uint64_t>(plan.sim_budget().count()));
  return hash;
}

}  // namespace acf::fleet::remote
