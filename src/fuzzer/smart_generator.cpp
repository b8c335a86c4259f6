#include "fuzzer/smart_generator.hpp"

#include <algorithm>
#include <limits>

namespace acf::fuzzer {

namespace {
constexpr std::uint8_t kBoundaryBytes[] = {0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF};
/// Weight multiplier applied to an id on reward (clamped to max_weight).
constexpr double kRewardFactor = 8.0;
}  // namespace

// -------------------------------------------------------------- boundary --

BoundaryGenerator::BoundaryGenerator(FuzzConfig config, BoundaryPlan plan)
    : config_(std::move(config)), plan_(std::move(plan)), rng_(plan_.seed) {
  pool_.assign(std::begin(kBoundaryBytes), std::end(kBoundaryBytes));
  pool_.insert(pool_.end(), plan_.dictionary.begin(), plan_.dictionary.end());
}

void BoundaryGenerator::rewind() {
  rng_ = util::Rng(plan_.seed);
  generated_ = 0;
}

std::uint8_t BoundaryGenerator::draw_byte(const ByteRange& range) {
  if (rng_.next_bool(plan_.boundary_bias)) {
    // Try a few pool draws for one inside the configured range; fall back
    // to uniform if the range excludes the whole pool.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint8_t candidate = rng_.pick(pool_);
      if (range.contains(candidate)) return candidate;
    }
  }
  return static_cast<std::uint8_t>(rng_.next_in(range.lo, range.hi));
}

std::optional<can::CanFrame> BoundaryGenerator::next() {
  ++generated_;
  std::uint32_t id;
  if (!config_.id_set.empty()) {
    id = config_.id_set[static_cast<std::size_t>(rng_.next_below(config_.id_set.size()))];
  } else {
    id = static_cast<std::uint32_t>(rng_.next_in(config_.id_min, config_.id_max));
  }
  const auto dlc = static_cast<std::uint8_t>(rng_.next_in(config_.dlc_min, config_.dlc_max));
  std::array<std::uint8_t, can::kMaxClassicPayload> bytes{};
  for (std::uint8_t i = 0; i < dlc && i < bytes.size(); ++i) {
    bytes[i] = draw_byte(config_.byte_ranges[i]);
  }
  return can::CanFrame::data(id, {bytes.data(), dlc}).value_or(can::CanFrame{});
}

// -------------------------------------------------------------- feedback --

FeedbackGenerator::FeedbackGenerator(FuzzConfig config, FeedbackPlan plan)
    : config_(std::move(config)), plan_(plan), rng_(plan.seed) {
  weights_.assign(static_cast<std::size_t>(config_.id_space()), 1.0);
  total_weight_ = static_cast<double>(weights_.size());
}

void FeedbackGenerator::rewind() {
  rng_ = util::Rng(plan_.seed);
  std::fill(weights_.begin(), weights_.end(), 1.0);
  total_weight_ = static_cast<double>(weights_.size());
  generated_ = 0;
}

std::uint32_t FeedbackGenerator::index_to_id(std::size_t index) const {
  if (!config_.id_set.empty()) return config_.id_set[index];
  return config_.id_min + static_cast<std::uint32_t>(index);
}

std::size_t FeedbackGenerator::id_to_index(std::uint32_t id) const {
  if (!config_.id_set.empty()) {
    const auto it = std::find(config_.id_set.begin(), config_.id_set.end(), id);
    return it == config_.id_set.end()
               ? std::numeric_limits<std::size_t>::max()
               : static_cast<std::size_t>(it - config_.id_set.begin());
  }
  if (id < config_.id_min || id > config_.id_max) {
    return std::numeric_limits<std::size_t>::max();
  }
  return id - config_.id_min;
}

void FeedbackGenerator::reward(std::uint32_t id) {
  const std::size_t index = id_to_index(id);
  if (index >= weights_.size()) return;
  const double boosted = std::min(weights_[index] * kRewardFactor, plan_.max_weight);
  total_weight_ += boosted - weights_[index];
  weights_[index] = boosted;
}

double FeedbackGenerator::weight_of(std::uint32_t id) const {
  const std::size_t index = id_to_index(id);
  return index < weights_.size() ? weights_[index] : 0.0;
}

std::vector<std::uint32_t> FeedbackGenerator::hot_ids(std::size_t limit) const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (weights_[i] > 1.0) indices.push_back(i);
  }
  std::sort(indices.begin(), indices.end(),
            [this](std::size_t a, std::size_t b) { return weights_[a] > weights_[b]; });
  if (indices.size() > limit) indices.resize(limit);
  std::vector<std::uint32_t> out;
  out.reserve(indices.size());
  for (std::size_t index : indices) out.push_back(index_to_id(index));
  return out;
}

std::uint32_t FeedbackGenerator::draw_id() {
  if (weights_.empty()) return config_.id_min;
  if (rng_.next_bool(plan_.explore_fraction)) {
    return index_to_id(static_cast<std::size_t>(rng_.next_below(weights_.size())));
  }
  double target = rng_.next_double() * total_weight_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    target -= weights_[i];
    if (target <= 0.0) return index_to_id(i);
  }
  return index_to_id(weights_.size() - 1);
}

std::optional<can::CanFrame> FeedbackGenerator::next() {
  ++generated_;
  const std::uint32_t id = draw_id();
  const auto dlc = static_cast<std::uint8_t>(rng_.next_in(config_.dlc_min, config_.dlc_max));
  std::array<std::uint8_t, can::kMaxClassicPayload> bytes{};
  for (std::uint8_t i = 0; i < dlc && i < bytes.size(); ++i) {
    const ByteRange& range = config_.byte_ranges[i];
    bytes[i] = static_cast<std::uint8_t>(rng_.next_in(range.lo, range.hi));
  }
  return can::CanFrame::data(id, {bytes.data(), dlc}).value_or(can::CanFrame{});
}

}  // namespace acf::fuzzer
