#include "feedback/campaign.hpp"

#include <algorithm>

namespace acf::feedback {

namespace {

constexpr char kGeneratorName[] = "feedback";
/// AFL-tmin style seed trimming: when a novel seed is kept, up to this many
/// candidates with a chunk removed are re-executed (cost counted), so the
/// corpus stays short.
constexpr std::uint32_t kTrimBudget = 12;
/// Corpus minimisation (greedy set cover) runs after this many additions.
constexpr std::uint32_t kMinimizeInterval = 32;
/// Chance (1 in N) of a fresh random sequence instead of mutating a corpus
/// seed, keeping exploration alive.
constexpr std::uint64_t kFreshOneIn = 16;

/// True when `haystack` (sorted unique) contains every element of `needles`
/// (sorted unique) — the trim acceptance test.
bool covers(const std::vector<Feature>& haystack, const std::vector<Feature>& needles) {
  return std::includes(haystack.begin(), haystack.end(), needles.begin(), needles.end());
}

}  // namespace

FeedbackCampaign::FeedbackCampaign(FeedbackConfig config)
    : config_(config), rng_(util::SplitMix64(config.seed).next()) {}

void FeedbackCampaign::seed_corpus(const Corpus& corpus) {
  for (const Seed& seed : corpus.seeds()) {
    if (seed.frames.empty()) continue;
    Seed copy = seed;
    if (!corpus_.add(std::move(copy))) break;
    map_.observe_all(seed.features);
  }
}

ExecOutcome FeedbackCampaign::execute(const std::vector<can::CanFrame>& sequence) {
  if (world_ == nullptr) {
    world_ = std::make_unique<ExecWorld>(config_.predicate);
  } else {
    world_->reset();
  }
  return world_->execute(sequence, coverage_);
}

void FeedbackCampaign::record_failure(const std::vector<can::CanFrame>& sequence,
                                      const ExecOutcome& outcome) {
  fuzzer::Finding finding;
  finding.observation = outcome.failure_observation;
  // Within-execution instant -> cumulative campaign time, so means and CIs
  // over time-to-failure compare directly against a blind campaign.
  finding.observation.time = sim::SimTime{total_sim_ + outcome.failure_observation.time};
  // The triggering sequence makes the finding's signature distinct across
  // trials (the bench deduplicates on it).
  finding.observation.detail += " via";
  for (const can::CanFrame& frame : sequence) {
    finding.observation.detail += ' ';
    finding.observation.detail += frame.to_string();
  }
  finding.frames_sent = result_.frames_sent + outcome.frames_sent;
  finding.recent_frames.reserve(sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    finding.recent_frames.push_back(
        {sequence[i], sim::SimTime{total_sim_ + ExecWorld::kTxPeriod * (i + 1)}});
  }
  finding.generator = kGeneratorName;
  finding.seed = config_.seed;
  result_.findings.push_back(std::move(finding));
  result_.reason = fuzzer::StopReason::kFailureDetected;
  finished_ = true;
}

void FeedbackCampaign::trim_seed(std::vector<can::CanFrame>& sequence,
                                 ExecOutcome& outcome) {
  // AFL-tmin, honestly costed: every candidate replay is a full execution
  // that burns simulated budget and counts in the stats.  The acceptance
  // test is "the trimmed sequence still produces every feature that made
  // the original novel" — tracked via `outcome.features` superset checks
  // against the fresh subset, taken before the caller observes them.
  trim_keep_.clear();
  for (const Feature f : outcome.features) {
    if (!map_.seen(f)) trim_keep_.push_back(f);
  }
  std::uint32_t budget = kTrimBudget;
  for (std::size_t chunk = sequence.size() / 2; chunk >= 1 && budget > 0; chunk /= 2) {
    std::size_t pos = 0;
    while (pos + chunk <= sequence.size() && sequence.size() > chunk && budget > 0 &&
           !finished_) {
      trim_candidate_.assign(sequence.begin(),
                             sequence.begin() + static_cast<std::ptrdiff_t>(pos));
      trim_candidate_.insert(trim_candidate_.end(),
                             sequence.begin() + static_cast<std::ptrdiff_t>(pos + chunk),
                             sequence.end());
      ExecOutcome trial = execute(trim_candidate_);
      --budget;
      ++stats_.trim_executions;
      if (trial.failure) record_failure(trim_candidate_, trial);
      total_sim_ += trial.elapsed;
      result_.frames_sent += trial.frames_sent;
      result_.send_failures += trial.send_failures;
      stats_.frames_sent += trial.frames_sent;
      ++stats_.executions;
      if (covers(trial.features, trim_keep_)) {
        sequence.swap(trim_candidate_);  // both buffers keep their capacity
        outcome = std::move(trial);  // the seed's recorded behaviour is the trimmed run's
      } else {
        pos += chunk;
      }
    }
    if (finished_) break;
  }
}

const fuzzer::CampaignResult& FeedbackCampaign::run() {
  std::vector<can::CanFrame> sequence;  // a corpus pick copies into its capacity
  while (!finished_) {
    if (total_sim_ >= config_.max_total_sim) {
      result_.reason = fuzzer::StopReason::kDurationElapsed;
      break;
    }
    // --- pick ------------------------------------------------------------
    if (corpus_.empty() || rng_.next_below(kFreshOneIn) == 0) {
      sequence = mutator_.fresh(rng_);
    } else {
      const std::size_t index = corpus_.pick(rng_);
      sequence = corpus_.at(index).frames;
      const std::vector<can::CanFrame>* donor = nullptr;
      if (corpus_.size() >= 2 && rng_.next_bool()) {
        const std::size_t donor_index = corpus_.pick(rng_);
        if (donor_index != index) donor = &corpus_.at(donor_index).frames;
      }
      mutator_.mutate(rng_, sequence, donor);
    }
    // --- run -------------------------------------------------------------
    ExecOutcome outcome = execute(sequence);
    const bool novel = std::any_of(outcome.features.begin(), outcome.features.end(),
                                   [this](Feature f) { return !map_.seen(f); });
    if (outcome.failure) record_failure(sequence, outcome);
    total_sim_ += outcome.elapsed;
    result_.frames_sent += outcome.frames_sent;
    result_.send_failures += outcome.send_failures;
    stats_.frames_sent += outcome.frames_sent;
    ++stats_.executions;
    // --- keep if novel ---------------------------------------------------
    if (novel) {
      ++stats_.novel_inputs;
      if (sequence.size() > 1 && !finished_) trim_seed(sequence, outcome);
      map_.observe_all(outcome.features);
      Seed seed;
      seed.frames = sequence;
      seed.features = std::move(outcome.features);
      seed.hot = outcome.hot;
      seed.found_at_exec = stats_.executions;
      seed.exec_cost_ns = static_cast<std::uint64_t>(outcome.elapsed.count());
      if (!corpus_.add(std::move(seed))) {
        ++stats_.seeds_refused;
      } else if (++additions_since_minimize_ >= kMinimizeInterval) {
        stats_.seeds_dropped += corpus_.minimize();
        additions_since_minimize_ = 0;
      }
    }
  }
  result_.elapsed = total_sim_;
  return result_;
}

}  // namespace acf::feedback
