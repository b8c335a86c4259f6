// FeedbackCampaign: the coverage-guided loop — pick a seed by energy,
// mutate it, run it in an isolated world, keep it if it reached
// novel behaviour.  The AFL recipe, with the NoveltyMap standing in for
// branch coverage (DESIGN.md §16).
//
// Every execution replays one frame sequence at ExecWorld::kTxPeriod in
// a discrete-event ExecWorld (scheduler, unlock testbench, attacker
// transport, capture tap, unlock oracle).  The campaign builds that world on
// its first execution and resets it in place before each later one; a reset
// world runs exactly as a newly built one, so executions stay isolated and
// the whole campaign is a pure function of its 64-bit seed.  Simulated time
// is accounted honestly: every execution (including AFL-tmin style seed
// trimming) adds its scheduler time to the campaign's elapsed total, which
// is what the feedback-vs-random bench compares.
//
// The campaign returns a fuzzer::CampaignResult, as the blind FuzzCampaign
// does, so a fleet world (feedback/worlds.hpp) can run it as one trial,
// in-process or distributed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "feedback/corpus.hpp"
#include "feedback/exec_world.hpp"
#include "feedback/novelty.hpp"
#include "feedback/sequence_mutator.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/coverage.hpp"
#include "vehicle/body_control.hpp"

namespace acf::feedback {

struct FeedbackConfig {
  /// Campaign seed; the whole run is a pure function of it.
  std::uint64_t seed = 0xFEED;
  /// Total simulated-time budget across all executions (the comparable
  /// quantity against a blind campaign's max_duration).
  sim::Duration max_total_sim{std::chrono::seconds(600)};
  /// The unlock predicate guarding the testbench's BCM.
  vehicle::UnlockPredicate predicate = vehicle::UnlockPredicate::single_id_and_byte();
};

struct FeedbackStats {
  std::uint64_t executions = 0;
  std::uint64_t novel_inputs = 0;   // executions that hit a fresh map cell
  std::uint64_t trim_executions = 0;
  std::uint64_t seeds_dropped = 0;  // by corpus minimisation
  std::uint64_t frames_sent = 0;
  std::uint64_t seeds_refused = 0;  // novel inputs Corpus::add turned away (full)
};

class FeedbackCampaign {
 public:
  explicit FeedbackCampaign(FeedbackConfig config);

  /// Pre-populates the corpus (e.g. from a --corpus-dir seed file) before
  /// run(); every seed's features are folded into the novelty map.
  void seed_corpus(const Corpus& corpus);

  /// Drives the loop until the budget is spent or the first failure.
  const fuzzer::CampaignResult& run();

  const fuzzer::CampaignResult& result() const noexcept { return result_; }
  const Corpus& corpus() const noexcept { return corpus_; }
  const NoveltyMap& map() const noexcept { return map_; }
  const FeedbackStats& stats() const noexcept { return stats_; }
  const fuzzer::CoverageTracker& coverage() const noexcept { return coverage_; }

 private:
  ExecOutcome execute(const std::vector<can::CanFrame>& sequence);
  void record_failure(const std::vector<can::CanFrame>& sequence,
                      const ExecOutcome& outcome);
  void trim_seed(std::vector<can::CanFrame>& sequence, ExecOutcome& outcome);

  FeedbackConfig config_;
  util::Rng rng_;
  SequenceMutator mutator_;
  NoveltyMap map_;
  Corpus corpus_;
  FeedbackStats stats_;
  fuzzer::CoverageTracker coverage_;
  fuzzer::CampaignResult result_;
  sim::Duration total_sim_{0};
  std::uint32_t additions_since_minimize_ = 0;
  bool finished_ = false;
  // trim_seed's buffers, kept across seeds so they grow once instead of
  // being allocated for every candidate.
  std::vector<Feature> trim_keep_;
  std::vector<can::CanFrame> trim_candidate_;
  std::unique_ptr<ExecWorld> world_;  // built by the first execution
};

}  // namespace acf::feedback
