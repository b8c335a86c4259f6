// Campaign checkpointing: the paper's headline experiments are hours-long
// endurance runs, and a harness that loses all state on interruption cannot
// scale to them.  A checkpoint captures everything the campaign needs to
// resume deterministically — generator position (RNG state), frame counter,
// elapsed simulated time and the findings so far — in a versioned binary
// record (util::ByteWriter, the codec the fleet wire and the feedback corpus
// use).  A resumed campaign emits the byte-identical frame stream the
// uninterrupted run would have.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fuzzer/finding.hpp"
#include "sim/time.hpp"

namespace acf::fuzzer {

struct CampaignCheckpoint {
  /// Bumped whenever the record layout changes; decode rejects any other
  /// version instead of misreading it.
  /// v2: percent-escaped text.  v3: binary record.
  static constexpr std::uint32_t kVersion = 3;

  std::uint64_t frames_sent = 0;
  std::uint64_t send_failures = 0;
  sim::Duration elapsed{0};
  /// Name of the generator the state belongs to; restore refuses a
  /// mismatched generator rather than silently diverging.
  std::string generator_name;
  std::vector<std::uint64_t> generator_state;
  std::vector<Finding> findings;
  /// The campaign's bounded window of recently injected frames, so a
  /// finding recorded just after resume carries the same reproduction
  /// window it would have in the uninterrupted run.
  std::vector<trace::TimestampedFrame> recent_frames;

  std::vector<std::uint8_t> encode() const;
  /// Strict decode: magic and version first, every declared count checked
  /// against the bytes left, the whole input consumed.  For every accepted
  /// input, decode(bytes)->encode() == bytes.
  static std::optional<CampaignCheckpoint> decode(std::span<const std::uint8_t> bytes);

  /// File wrappers; save is true only once every byte reached the file
  /// (write-then-rename is overkill for a single-writer campaign).
  bool save(const std::string& path) const;
  static std::optional<CampaignCheckpoint> load(const std::string& path);
};

}  // namespace acf::fuzzer
