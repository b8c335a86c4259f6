#include "feedback/worlds.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "metrics/metrics.hpp"

namespace acf::feedback {

namespace {

/// A trial's total simulated-time budget when the TrialPlan sets none.
constexpr sim::Duration kDefaultBudget = std::chrono::seconds(600);

class FeedbackWorld final : public fleet::World {
 public:
  FeedbackWorld(const FeedbackArm& arm, const fleet::TrialSpec& spec,
                metrics::Registry* registry, const std::string& corpus_dir)
      : registry_(registry), corpus_dir_(corpus_dir), trial_index_(spec.trial_index) {
    FeedbackConfig config = arm.config;
    config.seed = spec.seed;
    config.max_total_sim =
        spec.sim_budget.count() > 0 ? spec.sim_budget : kDefaultBudget;
    campaign_ = std::make_unique<FeedbackCampaign>(config);
    if (!corpus_dir_.empty()) {
      if (auto seeds = Corpus::load(corpus_dir_ + "/seed.corpus")) {
        campaign_->seed_corpus(*seeds);
      }
    }
  }

  fuzzer::CampaignResult run() override {
    fuzzer::CampaignResult result = campaign_->run();
    if (!corpus_dir_.empty()) {
      // A corpus that never reached the disk fails the trial: the run's
      // product is lost, and the fleet reports the trial as an error.
      const std::string path =
          corpus_dir_ + "/trial-" + std::to_string(trial_index_) + ".corpus";
      if (!campaign_->corpus().save(path)) {
        throw std::runtime_error("feedback: cannot write corpus " + path);
      }
    }
    if (registry_ != nullptr) publish();
    return result;
  }

 private:
  void publish() const {
    metrics::Registry& reg = *registry_;
    const FeedbackStats& stats = campaign_->stats();
    reg.counter("feedback.executions").add(stats.executions);
    reg.counter("feedback.novel_inputs").add(stats.novel_inputs);
    reg.counter("feedback.trim_executions").add(stats.trim_executions);
    reg.counter("feedback.seeds_dropped").add(stats.seeds_dropped);
    reg.counter("feedback.seeds_refused").add(stats.seeds_refused);
    reg.counter("feedback.frames_sent").add(stats.frames_sent);
    // Watermarks: per-trial corpora/maps do not sum meaningfully, so these
    // merge by max across trials and workers (`*_max` semantics).
    reg.counter("feedback.corpus.size_max").bump_to(campaign_->corpus().size());
    reg.counter("feedback.map.occupied_max").bump_to(campaign_->map().occupied());
    reg.counter("feedback.map.cells_max").bump_to(campaign_->map().cells());
    campaign_->coverage().publish_metrics(reg);
  }

  metrics::Registry* registry_ = nullptr;
  std::string corpus_dir_;
  std::size_t trial_index_ = 0;
  std::unique_ptr<FeedbackCampaign> campaign_;
};

}  // namespace

fleet::WorldFactory feedback_world_factory(std::vector<FeedbackArm> arms,
                                           metrics::Registry* registry,
                                           std::string corpus_dir) {
  if (arms.empty()) throw std::invalid_argument("feedback_world_factory: no arms");
  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);  // best-effort
  }
  auto shared = std::make_shared<const std::vector<FeedbackArm>>(std::move(arms));
  return [shared, registry, corpus_dir](const fleet::TrialSpec& spec)
             -> std::unique_ptr<fleet::World> {
    return std::make_unique<FeedbackWorld>(shared->at(spec.arm), spec, registry,
                                           corpus_dir);
  };
}

}  // namespace acf::feedback
