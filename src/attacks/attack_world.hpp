// Attack fleet worlds: one fleet trial = one attack scenario against one
// isolated full vehicle, with an IDS pipeline tapped onto the observed bus
// and ground-truth labeling of every injected frame.
//
// The trial script: build vehicle + pipeline, run a benign window (drive
// cycle plus a scripted unlock/lock, the replay family's capture material)
// while the pipeline trains, freeze the models, arm the scenario, run the
// attack window, then assess impact.  The evaluation leaves the world as
// marker-tagged finding strings (ids/eval_codec.hpp), so the per-(attack,
// detector) matrix is a pure function of the TrialOutcome list — identical
// whether the outcomes came from the in-process executor at any thread
// count or from remote workers.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "attacks/config.hpp"
#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"
#include "ids/ids_world.hpp"
#include "trace/capture.hpp"

namespace acf::attacks {

/// One attack arm: the scenario spec plus the evaluation windows and the
/// detector set it is scored against.
struct AttackArm {
  std::string label;
  AttackSpec spec;
  /// Benign window the pipeline trains on before the attack starts.
  sim::Duration train_window{std::chrono::seconds(2)};
  /// Attack window when the TrialPlan imposes no sim budget.
  sim::Duration attack_window{std::chrono::seconds(3)};
  /// Empty => standard_detectors(target_vehicle_database()).
  ids::DetectorSetFactory detectors;
};

/// The standard catalog: one arm per attack family, parameterised for the
/// target vehicle (live ids, matched periods).  Labels are unique and
/// stable — they are the rows of the evaluation matrix.
std::vector<AttackArm> standard_attack_arms();

/// One fully-run attack trial (the body of the fleet world, exposed so the
/// golden-trace tests replay the exact per-trial script).
struct AttackTrialResult {
  fuzzer::CampaignResult result;
  ids::TrialEval eval;
  /// When the attack was armed (end of the benign window).
  sim::SimTime attack_start{0};
  /// Observed-bus traffic; captured only when `capture_observed` was set.
  std::vector<trace::TimestampedFrame> observed;
};

AttackTrialResult run_attack_trial(const AttackArm& arm, const fleet::TrialSpec& spec,
                                   metrics::Registry* registry = nullptr,
                                   bool capture_observed = false);

/// WorldFactory running attack arms through run_trial_pool.  When
/// `registry` is non-null each world publishes its scheduler/bus totals,
/// the pipeline counters and per-detector `ids.latency.*` samples at trial
/// end, like the IDS unlock worlds.
fleet::WorldFactory attack_world_factory(std::vector<AttackArm> arms,
                                         metrics::Registry* registry = nullptr);

/// Rebuilds per-arm evaluation reports from outcome findings (the digest
/// lines run_attack_trial emitted), folding in trial-index order — the
/// same merged matrix whatever executor, thread count or wire produced the
/// outcomes.
std::vector<ids::ArmIdsReport> merge_outcome_evals(
    const fleet::TrialPlan& plan, std::span<const fleet::TrialOutcome> outcomes);

}  // namespace acf::attacks
