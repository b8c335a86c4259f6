#include "ids/ids_world.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "dbc/target_vehicle_db.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detectors.hpp"
#include "metrics/metrics.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::ids {

EvalSink make_eval_sink(const fleet::TrialPlan& plan) {
  return std::make_shared<std::vector<TrialEval>>(plan.trial_count());
}

namespace {

/// The fuzz budget when the TrialPlan does not impose one.
constexpr sim::Duration kDefaultBudget = std::chrono::hours(24);

/// One detector-evaluation trial: the Table V bench plus a tapped pipeline.
/// Train on clean traffic, freeze, fuzz with labeling, deposit the eval.
class IdsUnlockWorld final : public fleet::World {
 public:
  IdsUnlockWorld(const IdsArm& arm, const fleet::TrialSpec& spec, EvalSink sink,
                 metrics::Registry* registry)
      : registry_(registry), bench_(scheduler_, arm.predicate),
        attacker_(bench_.bus(), "attacker"),
        sink_(std::move(sink)), spec_(spec), train_window_(arm.train_window) {
    auto detectors = arm.detectors ? arm.detectors()
                                   : standard_detectors(dbc::target_vehicle_database());
    for (auto& detector : detectors) pipeline_.add(std::move(detector));
    pipeline_.attach(bench_.bus(), "ids-tap");
    evaluator_ = std::make_unique<PipelineEvaluator>(pipeline_);
    labeled_attacker_.emplace(attacker_, evaluator_->labeler());

    oracles_.add(std::make_unique<oracle::UnlockOracle>(bench_.bus(), &bench_.bcm()));
    fuzzer::FuzzConfig fuzz = arm.fuzz;
    fuzz.seed = spec.seed;
    generator_ = std::make_unique<fuzzer::RandomGenerator>(fuzz);
    fuzzer::CampaignConfig config;
    config.tx_period = fuzz.tx_period;
    config.max_duration =
        spec.sim_budget.count() > 0 ? spec.sim_budget : kDefaultBudget;
    config.oracle_period = std::chrono::milliseconds(10);
    config.record_suspicious = false;
    campaign_ = std::make_unique<fuzzer::FuzzCampaign>(scheduler_, *labeled_attacker_,
                                                       *generator_, &oracles_, config);
  }

  fuzzer::CampaignResult run() override {
    // Clean training window: only the bench's own ECUs are transmitting.
    pipeline_.begin_training();
    scheduler_.run_for(train_window_);
    pipeline_.begin_detection();
    const fuzzer::CampaignResult result = campaign_->run();
    TrialEval eval = evaluator_->take();
    eval.pipeline = pipeline_.counters();
    if (registry_) {
      // Per-trial totals published exactly once, at trial end, so the
      // shared registry's counters are order-independent sums.
      scheduler_.publish_metrics(*registry_);
      bench_.bus().publish_metrics(*registry_);
      registry_->absorb(pipeline_.registry().snapshot());
      for (const DetectorEval& det : eval.detectors) {
        if (det.detection_latency >= 0.0) {
          registry_->timer("ids.latency." + det.name).record(det.detection_latency);
        }
      }
    }
    if (spec_.trial_index < sink_->size()) {
      (*sink_)[spec_.trial_index] = std::move(eval);
    }
    return result;
  }

 private:
  metrics::Registry* registry_ = nullptr;
  // Pre-sized like fleet::UnlockWorld: per-trial construction stays
  // allocation-flat across a sweep's thousands of worlds.
  sim::Scheduler scheduler_{256};
  vehicle::UnlockTestbench bench_;
  transport::VirtualBusTransport attacker_;
  Pipeline pipeline_;
  EvalSink sink_;
  fleet::TrialSpec spec_;
  sim::Duration train_window_;
  std::unique_ptr<PipelineEvaluator> evaluator_;
  std::optional<LabelingTransport> labeled_attacker_;
  oracle::CompositeOracle oracles_;
  std::unique_ptr<fuzzer::RandomGenerator> generator_;
  std::unique_ptr<fuzzer::FuzzCampaign> campaign_;
};

}  // namespace

fleet::WorldFactory ids_unlock_world_factory(std::vector<IdsArm> arms, EvalSink sink,
                                             metrics::Registry* registry) {
  if (arms.empty()) throw std::invalid_argument("ids_unlock_world_factory: no arms");
  if (!sink) throw std::invalid_argument("ids_unlock_world_factory: null sink");
  auto shared = std::make_shared<const std::vector<IdsArm>>(std::move(arms));
  return [shared, sink, registry](const fleet::TrialSpec& spec)
             -> std::unique_ptr<fleet::World> {
    return std::make_unique<IdsUnlockWorld>(shared->at(spec.arm), spec, sink, registry);
  };
}

std::vector<ArmIdsReport> merge_evals(const fleet::TrialPlan& plan,
                                      std::span<const TrialEval> evals) {
  std::vector<ArmIdsReport> reports(plan.arm_count());
  for (std::size_t arm = 0; arm < plan.arm_count(); ++arm) {
    reports[arm].label = plan.arm_label(arm);
  }
  for (std::size_t index = 0; index < evals.size() && index < plan.trial_count(); ++index) {
    const TrialEval& eval = evals[index];
    if (!eval.valid()) continue;  // failed or skipped trial left its slot empty
    ArmIdsReport& report = reports[plan.spec(index).arm];
    if (report.detectors.empty()) report.detectors.resize(eval.detectors.size());
    ++report.trials;
    report.attack_frames += eval.attack_frames;
    report.legit_frames += eval.legit_frames;
    report.pipeline.frames_trained += eval.pipeline.frames_trained;
    report.pipeline.frames_scored += eval.pipeline.frames_scored;
    report.pipeline.alerts_raised += eval.pipeline.alerts_raised;
    report.pipeline.alerts_suppressed += eval.pipeline.alerts_suppressed;
    report.pipeline.alerts_dropped += eval.pipeline.alerts_dropped;
    for (std::size_t d = 0; d < eval.detectors.size() && d < report.detectors.size(); ++d) {
      ArmIdsReport::PerDetector& per = report.detectors[d];
      per.merged.merge_counts(eval.detectors[d]);
      if (eval.detectors[d].tp > 0) {
        ++per.trials_detected;
        if (eval.detectors[d].detection_latency >= 0.0) {
          per.latency.add(eval.detectors[d].detection_latency);
        }
      }
    }
  }
  return reports;
}

}  // namespace acf::ids
