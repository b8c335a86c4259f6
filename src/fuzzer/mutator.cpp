#include "fuzzer/mutator.hpp"

#include <algorithm>

#include "fuzzer/mutation_core.hpp"

namespace acf::fuzzer {

namespace {
/// Relative operator weights: bit flip, byte randomize, id jitter, resize.
constexpr double kWeightBitFlip = 4.0;
constexpr double kWeightByteRandomize = 3.0;
constexpr double kWeightIdJitter = 1.0;
constexpr double kWeightResize = 1.0;
/// Seed of the generator's draw stream (rewind() restarts it).
constexpr std::uint64_t kSeed = 0xACF1;
}  // namespace

namespace mutations {

can::CanFrame flip_random_bit(const can::CanFrame& frame, util::Rng& rng) {
  if (frame.length() == 0) return frame;
  std::vector<std::uint8_t> bytes(frame.payload().begin(), frame.payload().end());
  mutcore::flip_bit(rng, bytes);
  return can::CanFrame::data(frame.id(), bytes, frame.format()).value_or(frame);
}

can::CanFrame randomize_byte(const can::CanFrame& frame, util::Rng& rng) {
  if (frame.length() == 0) return frame;
  std::vector<std::uint8_t> bytes(frame.payload().begin(), frame.payload().end());
  mutcore::overwrite_byte(rng, bytes);
  return can::CanFrame::data(frame.id(), bytes, frame.format()).value_or(frame);
}

can::CanFrame jitter_id(const can::CanFrame& frame, util::Rng& rng, std::uint32_t radius) {
  if (radius == 0) return frame;
  const auto max_id = frame.is_extended() ? can::kMaxExtendedId : can::kMaxStandardId;
  const std::int64_t offset =
      static_cast<std::int64_t>(rng.next_in(0, 2 * radius)) - static_cast<std::int64_t>(radius);
  std::int64_t id = static_cast<std::int64_t>(frame.id()) + offset;
  id = std::clamp<std::int64_t>(id, 0, max_id);
  return can::CanFrame::data(static_cast<std::uint32_t>(id), frame.payload(), frame.format())
      .value_or(frame);
}

can::CanFrame resize_payload(const can::CanFrame& frame, util::Rng& rng) {
  std::vector<std::uint8_t> bytes(frame.payload().begin(), frame.payload().end());
  const auto new_len = static_cast<std::size_t>(rng.next_in(0, can::kMaxClassicPayload));
  while (bytes.size() < new_len) bytes.push_back(rng.next_byte());
  bytes.resize(new_len);
  return can::CanFrame::data(frame.id(), bytes, frame.format()).value_or(frame);
}

}  // namespace mutations

MutationGenerator::MutationGenerator(std::vector<can::CanFrame> corpus, MutationPlan plan)
    : corpus_(std::move(corpus)), plan_(plan), rng_(kSeed) {
  if (corpus_.empty()) corpus_.push_back(can::CanFrame{});
}

MutationGenerator MutationGenerator::from_capture(
    const std::vector<trace::TimestampedFrame>& capture, MutationPlan plan) {
  std::vector<can::CanFrame> corpus;
  corpus.reserve(capture.size());
  for (const auto& entry : capture) corpus.push_back(entry.frame);
  return MutationGenerator(std::move(corpus), plan);
}

void MutationGenerator::rewind() {
  rng_ = util::Rng(kSeed);
  generated_ = 0;
}

std::optional<can::CanFrame> MutationGenerator::next() {
  ++generated_;
  can::CanFrame frame = rng_.pick(corpus_);
  const auto count = static_cast<std::uint8_t>(
      rng_.next_in(plan_.min_mutations, std::max(plan_.min_mutations, plan_.max_mutations)));
  for (std::uint8_t i = 0; i < count; ++i) frame = mutate_once(frame);
  return frame;
}

can::CanFrame MutationGenerator::mutate_once(const can::CanFrame& frame) {
  constexpr double kTotal = kWeightBitFlip + kWeightByteRandomize + kWeightIdJitter + kWeightResize;
  double pick = rng_.next_double() * kTotal;
  if ((pick -= kWeightBitFlip) < 0) return mutations::flip_random_bit(frame, rng_);
  if ((pick -= kWeightByteRandomize) < 0) return mutations::randomize_byte(frame, rng_);
  if ((pick -= kWeightIdJitter) < 0) {
    return mutations::jitter_id(frame, rng_, plan_.id_radius);
  }
  return mutations::resize_payload(frame, rng_);
}

}  // namespace acf::fuzzer
