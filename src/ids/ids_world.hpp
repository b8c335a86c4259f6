// Fleet-scale detector evaluation: detector arms as trial matrices.
//
// An IdsArm describes one experimental condition — which unlock predicate
// guards the bench, what fuzz space the attacker draws from, how long the
// clean training window runs, and which detectors the pipeline carries.
// ids_unlock_world_factory builds one isolated Table V world per trial with
// a pipeline tapped onto the bench bus: the world trains on clean ECU
// traffic, freezes the models, then fuzzes with ground-truth labeling.  Each
// trial's TrialEval lands in the slot of a pre-sized sink vector owned by
// the caller (slot-per-trial, the executor's own outcome pattern — no locks,
// and the merged report is a pure function of the plan).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"
#include "fleet/worlds.hpp"
#include "ids/evaluation.hpp"
#include "ids/pipeline.hpp"
#include "util/stats.hpp"

namespace acf::ids {

/// Builds the detector set for one trial world (called on the worker
/// thread; must not capture mutable shared state).  Default: the standard
/// four detectors over the target-vehicle database.
using DetectorSetFactory = std::function<std::vector<std::unique_ptr<Detector>>()>;

struct IdsArm {
  vehicle::UnlockPredicate predicate = vehicle::UnlockPredicate::single_id_and_byte();
  fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::full_random();
  /// Clean-traffic training window before the attack starts.
  sim::Duration train_window{std::chrono::seconds(30)};
  /// Empty => standard_detectors(target_vehicle_database()).
  DetectorSetFactory detectors;
};

/// Per-trial evaluation slots, one per TrialPlan index.  Create with
/// make_eval_sink(plan) and pass to the factory; read after Executor::run
/// returns (the join gives the happens-before edge).
using EvalSink = std::shared_ptr<std::vector<TrialEval>>;

EvalSink make_eval_sink(const fleet::TrialPlan& plan);

/// WorldFactory for the detector-evaluation unlock worlds.  The campaign
/// stops at the first unlock (the Table V endpoint); detector metrics cover
/// every frame scored until then.
///
/// When `registry` is non-null each world publishes, once at trial end:
/// its scheduler/bus totals (`sim.scheduler.*`, `can.bus.*`), the
/// pipeline's counters (`ids.pipeline.*`, `ids.alerts.<detector>`), and one
/// `ids.latency.<detector>` timer sample per detector that fired on attack
/// traffic — so the registry's p99 is the fleet-wide detection-latency
/// quantile.  The registry must outlive every world.
fleet::WorldFactory ids_unlock_world_factory(std::vector<IdsArm> arms, EvalSink sink,
                                             metrics::Registry* registry = nullptr);

/// Merged per-arm, per-detector fleet report.
struct ArmIdsReport {
  struct PerDetector {
    /// Counts and histograms summed over the arm's trials.
    DetectorEval merged;
    /// Per-trial detection latencies (Welford; CI via Student-t).
    util::RunningStats latency;
    /// Trials in which the detector raised at least one true positive.
    std::size_t trials_detected = 0;

    /// Wilson 95% interval for the per-trial detection rate.
    util::Interval detection_rate_ci(std::size_t trials) const {
      return util::wilson_interval_95(trials_detected, trials);
    }
  };

  std::string label;
  std::size_t trials = 0;  // trials with a valid evaluation
  std::uint64_t attack_frames = 0;
  std::uint64_t legit_frames = 0;
  /// Pipeline-side counters summed over the arm's trials; cross-checks the
  /// evaluation-side tallies (see TrialEval).
  PipelineCounters pipeline;
  std::vector<PerDetector> detectors;
};

/// Folds the sink's evaluations in trial-index order — byte-identical
/// whatever thread count produced them.
std::vector<ArmIdsReport> merge_evals(const fleet::TrialPlan& plan,
                                      std::span<const TrialEval> evals);

}  // namespace acf::ids
