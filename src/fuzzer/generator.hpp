// Frame generators: the interface every fuzzing strategy implements, and
// the "random bytes generator for the fuzzed CAN messages" at the heart of
// the paper's fuzzer.  The boundary and feedback strategies live in
// smart_generator.hpp, the mutation strategy in mutator.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "can/frame.hpp"
#include "fuzzer/config.hpp"
#include "util/rng.hpp"

namespace acf::fuzzer {

class FrameGenerator {
 public:
  virtual ~FrameGenerator() = default;

  virtual std::string_view name() const = 0;

  /// Produces the next frame.  Returns nullopt when the strategy is
  /// exhausted (never, for random generators).
  virtual std::optional<can::CanFrame> next() = 0;

  /// Restarts the stream from the beginning (same seed => same stream).
  virtual void rewind() = 0;

  std::uint64_t generated() const noexcept { return generated_; }

 protected:
  std::uint64_t generated_ = 0;
};

/// Uniform random frames over the FuzzConfig space.  Deterministic in the
/// config seed; frame N of a given (config, seed) is reproducible, which is
/// what makes findings replayable.
class RandomGenerator final : public FrameGenerator {
 public:
  explicit RandomGenerator(FuzzConfig config);

  std::string_view name() const override { return "random"; }
  std::optional<can::CanFrame> next() override;
  void rewind() override;

  /// Regenerates frame `index` of the stream without disturbing this
  /// generator (used by finding replay).
  static can::CanFrame frame_at(const FuzzConfig& config, std::uint64_t index);

 private:
  std::optional<can::CanFrame> generate();

  FuzzConfig config_;
  util::Rng rng_;
};

}  // namespace acf::fuzzer
