// FuzzCampaign: the automation loop of the paper's fuzz-test definition —
// send fuzz at a fixed rate, monitor the target through oracles, record the
// conditions of any failure, repeat a large number of times.
//
// A send the transport refuses is counted in CampaignResult::send_failures
// and the loop goes on: a campaign ends only at its limits, on a failure
// verdict, when its generator runs dry or by stop().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fuzzer/finding.hpp"
#include "fuzzer/generator.hpp"
#include "oracle/oracle.hpp"
#include "sim/scheduler.hpp"
#include "transport/transport.hpp"
#include "util/ring_buffer.hpp"

namespace acf::fuzzer {

struct CampaignConfig {
  /// Frame transmission period (the paper's fuzzer: minimum 1 ms).
  sim::Duration tx_period{std::chrono::milliseconds(1)};
  /// Wall limit in simulated time; the campaign stops when it elapses.
  sim::Duration max_duration{std::chrono::seconds(60)};
  /// Stop after this many frames (0 = unlimited).
  std::uint64_t max_frames = 0;
  /// Oracle polling interval.
  sim::Duration oracle_period{std::chrono::milliseconds(10)};
  /// Stop at the first failure-verdict observation.
  bool stop_on_failure = true;
  /// Record suspicious (non-failure) observations as findings too.
  bool record_suspicious = true;
};

enum class StopReason : std::uint8_t {
  kStillRunning,
  kDurationElapsed,
  kFrameLimit,
  kGeneratorExhausted,
  kFailureDetected,
  kStoppedByUser,  // keep last: kStopReasonCount follows it
};

/// Number of StopReason values: wire decoders reject any byte at or above it.
inline constexpr std::uint8_t kStopReasonCount =
    static_cast<std::uint8_t>(StopReason::kStoppedByUser) + 1;

const char* to_string(StopReason reason) noexcept;

struct CampaignResult {
  std::uint64_t frames_sent = 0;
  std::uint64_t send_failures = 0;
  sim::Duration elapsed{0};
  StopReason reason = StopReason::kStillRunning;
  std::vector<Finding> findings;

  bool any_failure() const noexcept;
  /// First failure finding, or nullptr.
  const Finding* first_failure() const noexcept;
};

class FuzzCampaign {
 public:
  /// All references must outlive the campaign.  `oracle` may be null (pure
  /// disruption run, no monitoring).
  FuzzCampaign(sim::Scheduler& scheduler, transport::CanTransport& transport,
               FrameGenerator& generator, oracle::Oracle* oracle, CampaignConfig config);

  /// Arms the campaign events; the caller drives the scheduler.
  void start();
  void stop();  // StopReason::kStoppedByUser
  bool finished() const noexcept { return finished_; }

  /// start() + drive the scheduler until the campaign finishes.
  const CampaignResult& run();

  const CampaignResult& result() const noexcept { return result_; }

  /// Invoked on every finding as it is recorded.
  void set_on_finding(std::function<void(const Finding&)> callback) {
    on_finding_ = std::move(callback);
  }

 private:
  void tx_tick();
  void oracle_tick();
  void finish(StopReason reason);
  sim::Duration elapsed_now() const;

  sim::Scheduler& scheduler_;
  transport::CanTransport& transport_;
  FrameGenerator& generator_;
  oracle::Oracle* oracle_;
  CampaignConfig config_;

  CampaignResult result_;
  util::RingBuffer<trace::TimestampedFrame> recent_;
  sim::SimTime started_{0};
  sim::EventId tx_event_{};
  sim::EventId oracle_event_{};
  sim::EventId deadline_event_{};
  bool started_flag_ = false;
  bool finished_ = false;
  std::function<void(const Finding&)> on_finding_;
};

}  // namespace acf::fuzzer
