// Smarter generation strategies on top of the plain uniform fuzzer:
//
//  - BoundaryGenerator: classic boundary-value fuzzing.  Payload bytes are
//    drawn mostly from the values that break narrow parsers (0x00, 0x01,
//    0x7F, 0x80, 0xFE, 0xFF) plus a caller-supplied dictionary (e.g. known
//    command bytes harvested from a capture) — the "informed from the
//    design" approach of the paper's Table I.
//
//  - FeedbackGenerator: adaptive id scheduling.  Ids that coincided with
//    oracle events get geometrically more weight, so the campaign converges
//    onto reactive message ids — a lightweight answer to the combinatorial
//    explosion of §V without requiring a DBC.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzzer/generator.hpp"

namespace acf::fuzzer {

struct BoundaryPlan {
  /// Probability a byte comes from the boundary set rather than uniform.
  double boundary_bias = 0.7;
  /// Extra interesting bytes (e.g. harvested command codes).
  std::vector<std::uint8_t> dictionary;
  std::uint64_t seed = 0xB0DD;
};

class BoundaryGenerator final : public FrameGenerator {
 public:
  BoundaryGenerator(FuzzConfig config, BoundaryPlan plan = {});

  std::string_view name() const override { return "boundary"; }
  std::optional<can::CanFrame> next() override;
  void rewind() override;

 private:
  std::uint8_t draw_byte(const ByteRange& range);

  FuzzConfig config_;
  BoundaryPlan plan_;
  std::vector<std::uint8_t> pool_;  // boundary set + dictionary
  util::Rng rng_;
};

struct FeedbackPlan {
  /// Cap on an id's weight; each reward multiplies it by 8 up to this.
  double max_weight = 512.0;
  /// Exploration floor: fraction of frames that ignore the weights.
  double explore_fraction = 0.25;
  std::uint64_t seed = 0xFEED;
};

/// Wraps the uniform generator; the campaign owner calls reward() with the
/// ids in flight when an oracle event landed.
class FeedbackGenerator final : public FrameGenerator {
 public:
  FeedbackGenerator(FuzzConfig config, FeedbackPlan plan = {});

  std::string_view name() const override { return "feedback"; }
  std::optional<can::CanFrame> next() override;
  void rewind() override;

  /// Boosts the weight of `id` (call for the ids recently transmitted when
  /// an oracle observation fired).
  void reward(std::uint32_t id);

  double weight_of(std::uint32_t id) const;
  /// Ids whose weight has been boosted at least once, hottest first.
  std::vector<std::uint32_t> hot_ids(std::size_t limit = 8) const;

 private:
  std::uint32_t draw_id();

  FuzzConfig config_;
  FeedbackPlan plan_;
  util::Rng rng_;
  std::vector<double> weights_;  // per id in the config space
  double total_weight_ = 0.0;

  std::uint32_t index_to_id(std::size_t index) const;
  std::size_t id_to_index(std::uint32_t id) const;  // SIZE_MAX if outside
};

}  // namespace acf::fuzzer
