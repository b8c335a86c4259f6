#include "feedback/campaign.hpp"

#include <algorithm>

namespace acf::feedback {

namespace {

constexpr char kGeneratorName[] = "feedback";
constexpr std::uint64_t kStateVersion = 2;

/// True when `haystack` (sorted unique) contains every element of `needles`
/// (sorted unique) — the trim acceptance test.
bool covers(const std::vector<Feature>& haystack, const std::vector<Feature>& needles) {
  return std::includes(haystack.begin(), haystack.end(), needles.begin(), needles.end());
}

void pack_bytes(std::vector<std::uint64_t>& state, const std::vector<std::uint8_t>& bytes) {
  state.push_back(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 8 && i + j < bytes.size(); ++j) {
      word |= static_cast<std::uint64_t>(bytes[i + j]) << (8 * j);
    }
    state.push_back(word);
  }
}

}  // namespace

FeedbackCampaign::FeedbackCampaign(FeedbackConfig config)
    : config_(config), rng_(util::SplitMix64(config.seed).next()),
      mutator_(config.mutator), map_(config.map_cells) {}

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
    world_ = std::make_unique<ExecWorld>(config_.predicate, config_.tx_period, config_.settle);
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
        {sequence[i], sim::SimTime{total_sim_ + config_.tx_period * (i + 1)}});
  }
  finding.generator = kGeneratorName;
  finding.seed = config_.seed;
  result_.findings.push_back(std::move(finding));
  if (config_.stop_on_failure) {
    result_.reason = fuzzer::StopReason::kFailureDetected;
    finished_ = true;
  }
}

void FeedbackCampaign::trim_seed(std::vector<can::CanFrame>& sequence,
                                 ExecOutcome& outcome) {
  // AFL-tmin, honestly costed: every candidate replay is a full execution
  // that burns simulated budget and counts in the stats.  The acceptance
  // test is "the trimmed sequence still produces every feature that made
  // the original novel" — tracked via `outcome.features` superset checks
  // against the fresh subset the caller computed before observing.
  std::vector<Feature> must_keep;
  for (const Feature f : outcome.features) {
    if (!map_.seen(f)) must_keep.push_back(f);  // caller has not observed yet
  }
  std::uint32_t budget = config_.trim_budget;
  for (std::size_t chunk = sequence.size() / 2; chunk >= 1 && budget > 0; chunk /= 2) {
    std::size_t pos = 0;
    while (pos + chunk <= sequence.size() && sequence.size() > chunk && budget > 0 &&
           !finished_) {
      std::vector<can::CanFrame> candidate;
      candidate.reserve(sequence.size() - chunk);
      candidate.insert(candidate.end(), sequence.begin(),
                       sequence.begin() + static_cast<std::ptrdiff_t>(pos));
      candidate.insert(candidate.end(),
                       sequence.begin() + static_cast<std::ptrdiff_t>(pos + chunk),
                       sequence.end());
      ExecOutcome trial = execute(candidate);
      --budget;
      ++stats_.trim_executions;
      if (trial.failure) record_failure(candidate, trial);
      total_sim_ += trial.elapsed;
      result_.frames_sent += trial.frames_sent;
      result_.send_failures += trial.send_failures;
      stats_.frames_sent += trial.frames_sent;
      ++stats_.executions;
      if (covers(trial.features, must_keep)) {
        sequence = std::move(candidate);
        outcome = std::move(trial);  // the seed's recorded behaviour is the trimmed run's
      } else {
        pos += chunk;
      }
    }
    if (finished_) break;
  }
}

bool FeedbackCampaign::budget_exhausted() const noexcept {
  if (total_sim_ >= config_.max_total_sim) return true;
  return config_.max_executions != 0 && stats_.executions >= config_.max_executions;
}

const fuzzer::CampaignResult& FeedbackCampaign::run() {
  while (!finished_) {
    if (budget_exhausted()) {
      // Not a terminal state: a checkpoint taken here restores into a
      // campaign whose config may carry a larger budget and continues.
      result_.reason = total_sim_ >= config_.max_total_sim
                           ? fuzzer::StopReason::kDurationElapsed
                           : fuzzer::StopReason::kFrameLimit;
      break;
    }
    // --- pick ------------------------------------------------------------
    std::vector<can::CanFrame> sequence;
    if (corpus_.empty() ||
        (config_.fresh_one_in != 0 && rng_.next_below(config_.fresh_one_in) == 0)) {
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
    std::vector<Feature> fresh;
    for (const Feature f : outcome.features) {
      if (!map_.seen(f)) fresh.push_back(f);
    }
    if (outcome.failure) record_failure(sequence, outcome);
    total_sim_ += outcome.elapsed;
    result_.frames_sent += outcome.frames_sent;
    result_.send_failures += outcome.send_failures;
    stats_.frames_sent += outcome.frames_sent;
    ++stats_.executions;
    // --- keep if novel ---------------------------------------------------
    if (!fresh.empty()) {
      ++stats_.novel_inputs;
      if (config_.trim && sequence.size() > 1 && !finished_) {
        trim_seed(sequence, outcome);
      }
      map_.observe_all(outcome.features);
      Seed seed;
      seed.frames = std::move(sequence);
      seed.features = std::move(outcome.features);
      seed.hot = outcome.hot;
      seed.found_at_exec = stats_.executions;
      seed.exec_cost_ns = static_cast<std::uint64_t>(outcome.elapsed.count());
      if (corpus_.add(std::move(seed))) {
        if (++additions_since_minimize_ >= config_.minimize_interval) {
          stats_.seeds_dropped += corpus_.minimize();
          additions_since_minimize_ = 0;
        }
      }
    }
  }
  result_.elapsed = total_sim_;
  return result_;
}

fuzzer::CampaignCheckpoint FeedbackCampaign::checkpoint() const {
  fuzzer::CampaignCheckpoint cp;
  cp.frames_sent = result_.frames_sent;
  cp.send_failures = result_.send_failures;
  cp.elapsed = total_sim_;
  cp.generator_name = kGeneratorName;
  cp.findings = result_.findings;

  std::vector<std::uint64_t>& state = cp.generator_state;
  state.push_back(kStateVersion);
  for (const std::uint64_t word : rng_.state()) state.push_back(word);
  state.push_back(stats_.executions);
  state.push_back(stats_.novel_inputs);
  state.push_back(stats_.trim_executions);
  state.push_back(stats_.seeds_dropped);
  state.push_back(stats_.frames_sent);
  state.push_back(additions_since_minimize_);
  state.push_back(finished_ ? 1 : 0);
  state.push_back(static_cast<std::uint64_t>(result_.reason));
  coverage_.append_state(state);
  const auto words = map_.words();
  state.push_back(words.size());
  state.insert(state.end(), words.begin(), words.end());
  pack_bytes(state, corpus_.encode());
  return cp;
}

bool FeedbackCampaign::restore(const fuzzer::CampaignCheckpoint& checkpoint) {
  if (checkpoint.generator_name != kGeneratorName) return false;
  const std::vector<std::uint64_t>& state = checkpoint.generator_state;
  std::size_t pos = 0;
  const auto next = [&](std::uint64_t& out) {
    if (pos >= state.size()) return false;
    out = state[pos++];
    return true;
  };
  std::uint64_t version = 0;
  if (!next(version) || version != kStateVersion) return false;
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) {
    if (!next(word)) return false;
  }
  FeedbackStats stats;
  std::uint64_t additions = 0, finished = 0, reason = 0;
  if (!next(stats.executions) || !next(stats.novel_inputs) ||
      !next(stats.trim_executions) || !next(stats.seeds_dropped) ||
      !next(stats.frames_sent) || !next(additions) || !next(finished) || !next(reason)) {
    return false;
  }
  fuzzer::CoverageTracker coverage;
  if (state.size() - pos < fuzzer::CoverageTracker::kStateWords ||
      !coverage.restore_state({state.data() + pos, fuzzer::CoverageTracker::kStateWords})) {
    return false;
  }
  pos += fuzzer::CoverageTracker::kStateWords;
  std::uint64_t word_count = 0;
  if (!next(word_count) || word_count > state.size() - pos) return false;
  const std::span<const std::uint64_t> map_words(state.data() + pos,
                                                 static_cast<std::size_t>(word_count));
  pos += static_cast<std::size_t>(word_count);
  std::uint64_t byte_count = 0;
  if (!next(byte_count) || byte_count > 8 * (state.size() - pos)) return false;
  const std::size_t packed_words = (static_cast<std::size_t>(byte_count) + 7) / 8;
  if (pos + packed_words != state.size()) return false;
  std::vector<std::uint8_t> corpus_bytes;
  corpus_bytes.reserve(static_cast<std::size_t>(byte_count));
  for (std::size_t i = 0; i < byte_count; ++i) {
    corpus_bytes.push_back(
        static_cast<std::uint8_t>(state[pos + i / 8] >> (8 * (i % 8))));
  }
  auto corpus = Corpus::decode(corpus_bytes);
  if (!corpus) return false;

  NoveltyMap map(config_.map_cells);
  if (!map.restore_words(map_words)) return false;

  // All parsed and validated; commit.
  rng_.set_state(rng_state);
  stats_ = stats;
  additions_since_minimize_ = static_cast<std::uint32_t>(additions);
  finished_ = finished != 0;
  coverage_ = coverage;
  map_ = std::move(map);
  corpus_ = std::move(*corpus);
  total_sim_ = checkpoint.elapsed;
  result_.frames_sent = checkpoint.frames_sent;
  result_.send_failures = checkpoint.send_failures;
  result_.findings = checkpoint.findings;
  result_.elapsed = total_sim_;
  result_.reason = finished_ ? static_cast<fuzzer::StopReason>(reason)
                             : fuzzer::StopReason::kStillRunning;
  return true;
}

}  // namespace acf::feedback
