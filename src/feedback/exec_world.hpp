// ExecWorld: the discrete-event world a feedback execution runs in — a
// scheduler, the Table V unlock testbench, the attacker's transport, a
// capture tap and the unlock oracle — and the scoring of one execution
// into novelty features (DESIGN.md §16).
//
// A campaign builds one world and resets it in place before every later
// execution, the way AFL's persistent mode re-enters one target process
// instead of forking a new one per input.  reset() returns every piece to
// its just-built state while keeping its allocations and bus attachments,
// so an execution after a reset is exactly the execution a newly built
// world would run.  The FeedbackWorldReset property test and the
// world_reset self-fuzz target hold the world to that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "feedback/novelty.hpp"
#include "fuzzer/coverage.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::feedback {

/// What one execution did, scored for the campaign loop.
struct ExecOutcome {
  std::vector<Feature> features;  // sorted unique
  bool hot = false;               // touched ECU-state / oracle domains
  sim::Duration elapsed{0};
  std::uint64_t frames_sent = 0;
  std::uint64_t send_failures = 0;
  bool failure = false;
  oracle::Observation failure_observation;  // valid when failure
};

class ExecWorld {
 public:
  /// The gap between tx slots: slot i (from 1) sends frame i - 1.
  static constexpr sim::Duration kTxPeriod{std::chrono::milliseconds(1)};

  /// Builds the world around a BCM guarded by `predicate`.
  explicit ExecWorld(vehicle::UnlockPredicate predicate);

  ExecWorld(const ExecWorld&) = delete;
  ExecWorld& operator=(const ExecWorld&) = delete;

  /// Returns the scheduler, the testbench, the attacker's stats, the tap
  /// and the oracle to their just-built state.  Allocates nothing once the
  /// world has run.
  void reset();

  /// Replays `sequence` from the attacker, one frame per tx slot, runs the
  /// bounded window and scores what the bus, the ECUs and the oracle did.
  /// Every frame the attacker queued, and a failure verdict, also go into
  /// `coverage`.  Run it on a new or reset world.
  ExecOutcome execute(std::span<const can::CanFrame> sequence,
                      fuzzer::CoverageTracker& coverage);

  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  vehicle::UnlockTestbench& bench() noexcept { return bench_; }
  transport::VirtualBusTransport& attacker() noexcept { return attacker_; }
  trace::CaptureTap& tap() noexcept { return tap_; }
  oracle::UnlockOracle& oracle() noexcept { return oracle_; }

 private:
  sim::Scheduler scheduler_;
  vehicle::UnlockTestbench bench_;
  transport::VirtualBusTransport attacker_;
  trace::CaptureTap tap_;
  oracle::UnlockOracle oracle_;
  std::vector<std::uint64_t> cell_keys_;  // the tap's (id, dlc) keys, reused
};

}  // namespace acf::feedback
