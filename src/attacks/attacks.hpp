// Scripted CAN attacks.  The paper frames fuzzing as one member of a family
// of bus-level attacks ("for attackers seeking indiscriminate disruption,
// fuzzing is an effective attack by itself" — Koscher et al., quoted in
// §II); this library implements the classic neighbours for comparison and
// for exercising the oracles and defenses:
//
//   DosFlood     highest-priority-id flood: arbitration starvation
//   SpoofAttack  out-cadencing a legitimate periodic signal with forged data
//   ReplayAttack record a command window, replay it later (Hoppe & Dittman)
//   XcpTamper    overwrite ECU-internal state through the XCP channel
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "can/bus.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "trace/replay.hpp"
#include "transport/transport.hpp"
#include "xcp/xcp.hpp"

namespace acf::attacks {

/// Floods the bus with id-0 (maximum priority) frames.  Every arbitration
/// contest is lost by legitimate traffic; throughput collapses to whatever
/// fits between flood frames.
struct DosFloodConfig {
  /// Inter-frame period; ~230 us saturates a 500 kb/s bus.
  sim::Duration period{std::chrono::microseconds(230)};
};

class DosFlood {
 public:
  DosFlood(sim::Scheduler& scheduler, transport::CanTransport& transport,
           DosFloodConfig config = {});

  void start();
  void stop();
  bool running() const noexcept { return event_.valid(); }
  std::uint64_t frames_sent() const noexcept { return sent_; }
  /// Flood ticks skipped because fault confinement had silenced the
  /// attacker's controller (bus-off).  A babbling node cannot keep babbling:
  /// while its TEC is past 255 the flood pauses, and it resumes only if the
  /// controller recovers.
  std::uint64_t ticks_silenced() const noexcept { return ticks_silenced_; }

 private:
  sim::Scheduler& scheduler_;
  transport::CanTransport& transport_;
  DosFloodConfig config_;
  sim::EventId event_{};
  std::uint64_t sent_ = 0;
  std::uint64_t ticks_silenced_ = 0;
};

/// Transmits a forged frame at a multiple of the legitimate sender's rate —
/// consumers that take "last value wins" follow the attacker.
class SpoofAttack {
 public:
  SpoofAttack(sim::Scheduler& scheduler, transport::CanTransport& transport,
              can::CanFrame forged, sim::Duration period);

  void start();
  void stop();
  std::uint64_t frames_sent() const noexcept { return sent_; }

 private:
  sim::Scheduler& scheduler_;
  transport::CanTransport& transport_;
  can::CanFrame forged_;
  sim::Duration period_;
  sim::EventId event_{};
  std::uint64_t sent_ = 0;
};

/// Records frames matching a filter for a window, then replays the recording
/// (the window-lift attack of Hoppe & Dittman, the paper's ref [10]).  It
/// listens through its own listen-only node, "attacker-tap".
class ReplayAttack final : private can::BusListener {
 public:
  ReplayAttack(sim::Scheduler& scheduler, can::VirtualBus& bus,
               transport::CanTransport& transport, can::FilterBank record_filter = {});
  ~ReplayAttack() override;

  ReplayAttack(const ReplayAttack&) = delete;
  ReplayAttack& operator=(const ReplayAttack&) = delete;

  /// Captures matching traffic for `window`, then stops recording.
  void record_for(sim::Duration window);
  bool recording() const noexcept { return recording_; }
  std::size_t recorded_frames() const;

  /// Replays everything recorded, `times` repetitions.  Returns false if
  /// nothing was recorded.
  bool replay(std::uint32_t times = 1);
  std::uint64_t frames_replayed() const;

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  sim::Scheduler& scheduler_;
  can::VirtualBus& bus_;
  transport::CanTransport& transport_;
  can::NodeId node_;
  can::FilterBank filter_;
  bool recording_ = false;
  std::vector<trace::TimestampedFrame> recording_buffer_;
  std::optional<trace::Replayer> replayer_;
};

/// Connects to an XCP slave and writes attacker-chosen bytes into ECU
/// memory — the "extra monitoring capabilities may be used by the
/// attackers" scenario from the paper's oracle discussion.
class XcpTamper {
 public:
  XcpTamper(sim::Scheduler& scheduler, transport::CanTransport& transport,
            std::uint32_t slave_rx_id, std::uint32_t slave_tx_id);

  /// Runs the full sequence (CONNECT, SET_MTA, DOWNLOAD) synchronously on
  /// the simulated clock; returns true if the slave acknowledged the write.
  bool overwrite(std::uint32_t address, std::span<const std::uint8_t> data);

  /// Reads bytes back (CONNECT + SHORT_UPLOAD); nullopt on error.
  std::optional<std::vector<std::uint8_t>> peek(std::uint32_t address, std::uint8_t length);

 private:
  bool await_response();

  sim::Scheduler& scheduler_;
  xcp::XcpMaster master_;
};

}  // namespace acf::attacks
