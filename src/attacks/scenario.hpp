// Deterministic attack scenarios over the full target vehicle.
//
// An AttackScenario is the scripted adversary of one catalog family: given
// an AttackContext (scheduler, vehicle, one attacker transport per bus and
// the trial's RNG) it arms a set of scheduler events that carry out the
// attack, and afterwards reports its observable impact.  Scenarios never
// touch wall-clock state — every byte they emit is a pure function of the
// spec and the RNG seed, which is what lets attack arms run through
// `run_trial_pool` with byte-identical results at any thread count and on
// remote workers.
//
// Frame labeling is NOT the scenario's job: the world hands it transports
// that stamp every successfully queued frame into the ground-truth labeler
// (see attack_world.cpp), so a scenario just sends.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "attacks/config.hpp"
#include "oracle/oracle.hpp"
#include "sim/scheduler.hpp"
#include "transport/transport.hpp"
#include "util/rng.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::attacks {

/// Everything a scenario may touch.  All references outlive the scenario.
struct AttackContext {
  sim::Scheduler& scheduler;
  vehicle::Vehicle& vehicle;
  /// Attacker nodes, one per bus; sends are stamped into the ground-truth
  /// labeler by the owning world.
  transport::CanTransport& powertrain;
  transport::CanTransport& body;
  util::Rng& rng;
};

class AttackScenario {
 public:
  explicit AttackScenario(const AttackSpec& spec) : spec_(spec) {}
  virtual ~AttackScenario() = default;

  AttackScenario(const AttackScenario&) = delete;
  AttackScenario& operator=(const AttackScenario&) = delete;

  const AttackSpec& spec() const noexcept { return spec_; }

  /// Called once before the benign/training window: install taps, record
  /// baselines.  The scenario must stay passive (no injection) until arm().
  virtual void prepare(AttackContext&) {}

  /// Starts the attack: schedules the injection events.
  virtual void arm(AttackContext& ctx) = 0;

  /// Stops the attack (cancels this scenario's scheduled events).
  virtual void disarm(AttackContext& ctx);

  /// Deterministic post-attack impact assessment, polled once at trial end.
  /// kFailure observations become the trial's time-to-failure finding.
  virtual std::optional<oracle::Observation> impact(AttackContext&) const {
    return std::nullopt;
  }

 protected:
  /// The transport the spec's `bus` field selects.
  transport::CanTransport& injection_transport(AttackContext& ctx) const;

  /// schedule_every wrapper that records the event for disarm().
  template <typename F>
  void schedule(AttackContext& ctx, sim::Duration period, F&& action) {
    events_.push_back(ctx.scheduler.schedule_every(period, std::forward<F>(action)));
  }

  sim::Duration period() const noexcept {
    return std::chrono::microseconds(spec_.period_us);
  }

  AttackSpec spec_;
  std::vector<sim::EventId> events_;
};

/// Builds the scenario for `spec.family`.  Throws std::invalid_argument on
/// an out-of-range family.
std::unique_ptr<AttackScenario> make_scenario(const AttackSpec& spec);

/// The bus the IDS observes for this spec: the injection bus, except for
/// gateway probes where the interesting traffic is what traverses to the
/// other side.
AttackBus observed_bus(const AttackSpec& spec) noexcept;

}  // namespace acf::attacks
