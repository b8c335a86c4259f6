// Mutation-based generation: fuzzing "in a specific message space, close to
// known messages, whether determined from design or data traffic capture" —
// the targeted mode the paper concludes is where automotive fuzzing earns
// its keep.  Mutates frames from a captured corpus instead of drawing
// uniformly.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzzer/generator.hpp"
#include "trace/capture.hpp"
#include "util/rng.hpp"

namespace acf::fuzzer {

/// Individual mutation operators (also usable directly in tests).
namespace mutations {
can::CanFrame flip_random_bit(const can::CanFrame& frame, util::Rng& rng);
can::CanFrame randomize_byte(const can::CanFrame& frame, util::Rng& rng);
can::CanFrame jitter_id(const can::CanFrame& frame, util::Rng& rng, std::uint32_t radius);
can::CanFrame resize_payload(const can::CanFrame& frame, util::Rng& rng);
}  // namespace mutations

struct MutationPlan {
  /// Mutations applied per emitted frame: uniform in [min, max].
  std::uint8_t min_mutations = 1;
  std::uint8_t max_mutations = 3;
  /// Id jitter radius.
  std::uint32_t id_radius = 8;
};

/// Draws a corpus frame uniformly and applies 1..N weighted mutations.
class MutationGenerator final : public FrameGenerator {
 public:
  /// `corpus` must be non-empty; typically the payload frames of a capture.
  MutationGenerator(std::vector<can::CanFrame> corpus, MutationPlan plan = {});

  /// Convenience: corpus from a capture tap's recorded frames.
  static MutationGenerator from_capture(const std::vector<trace::TimestampedFrame>& capture,
                                        MutationPlan plan = {});

  std::string_view name() const override { return "mutation"; }
  std::optional<can::CanFrame> next() override;
  void rewind() override;

  std::size_t corpus_size() const noexcept { return corpus_.size(); }

 private:
  can::CanFrame mutate_once(const can::CanFrame& frame);

  std::vector<can::CanFrame> corpus_;
  MutationPlan plan_;
  util::Rng rng_;
};

}  // namespace acf::fuzzer
