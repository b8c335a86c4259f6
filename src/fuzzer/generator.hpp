// Frame generators: the "random bytes generator for the fuzzed CAN
// messages" at the heart of the paper's fuzzer, plus the two systematic
// strategies its UI supports — exhaustive sweep ("iterative testing") and
// bit-granular variation of a base message ("a single bit in a single
// message, to every bit in every message").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

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

  const FuzzConfig& config() const noexcept { return config_; }

  /// Regenerates frame `index` of the stream without disturbing this
  /// generator (used by finding replay).
  static can::CanFrame frame_at(const FuzzConfig& config, std::uint64_t index);

 private:
  can::CanFrame generate();

  FuzzConfig config_;
  util::Rng rng_;
};

/// Exhaustive enumeration of the configured space in lexicographic
/// (id, dlc, payload) order.  Practical only for small spaces — the
/// combinatorial-explosion lesson of the paper's §V.
class SweepGenerator final : public FrameGenerator {
 public:
  explicit SweepGenerator(FuzzConfig config);

  std::string_view name() const override { return "sweep"; }
  std::optional<can::CanFrame> next() override;
  void rewind() override;

  std::uint64_t space() const noexcept { return config_.frame_space(); }

 private:
  bool advance();

  FuzzConfig config_;
  std::size_t id_index_ = 0;       // index into id list / range
  std::uint8_t dlc_ = 0;
  std::array<std::uint8_t, can::kMaxClassicPayload> bytes_{};
  bool done_ = false;
  bool primed_ = false;
};

/// All single-bit variations of a base frame under a mutable-bit mask, in
/// position order; optionally continues with 2-bit combinations.
class BitFlipGenerator final : public FrameGenerator {
 public:
  /// `payload_mask[i]` selects which bits of payload byte i may be flipped
  /// (0xFF = all).  `include_id_bits` also walks the 11 id bits.
  BitFlipGenerator(can::CanFrame base, std::array<std::uint8_t, 8> payload_mask,
                   bool include_id_bits = false);

  std::string_view name() const override { return "bitflip"; }
  std::optional<can::CanFrame> next() override;
  void rewind() override;

  /// Number of mutable bit positions.
  std::size_t positions() const noexcept { return positions_.size(); }

 private:
  struct BitRef {
    bool in_id = false;
    std::uint8_t byte = 0;
    std::uint8_t bit = 0;
  };

  can::CanFrame apply(const BitRef& ref) const;

  can::CanFrame base_;
  std::vector<BitRef> positions_;
  std::size_t cursor_ = 0;
};

}  // namespace acf::fuzzer
