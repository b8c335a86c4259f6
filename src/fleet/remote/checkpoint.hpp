// FleetCheckpoint: durable progress of a distributed campaign, as a
// versioned util::ByteWriter record decoded with the same discipline as the
// fuzzer checkpoint and the feedback corpus (magic and version first, every
// declared count checked against the bytes left, the whole input consumed).
// Each finished trial is stored as the wire's own TrialOutcome record
// (write_outcome/read_outcome), so a restarted coordinator resumes
// mid-campaign without recomputing a single finished trial; the trial ids
// that were leased-but-unfinished at save time are stored too, so resume
// re-issues exactly those first instead of rescanning the whole TrialPlan.
//
// The fingerprint refuses to resume a checkpoint against a different plan,
// and the coordinator checks every stored spec against the plan's.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fleet/trial.hpp"

namespace acf::fleet::remote {

struct FleetCheckpoint {
  /// Bumped whenever the record layout changes; decode rejects any other
  /// version instead of misreading it.  v1: hex text.  v2: binary record.
  static constexpr std::uint32_t kVersion = 2;

  /// campaign_fingerprint() of the plan this progress belongs to.
  std::uint64_t fingerprint = 0;
  std::uint64_t trial_count = 0;
  /// Finished trials, strictly ascending by spec.trial_index.
  std::vector<TrialOutcome> completed;
  /// Trials under a live lease at save time, ascending; a resuming
  /// coordinator pushes these to the front of the issue queue.
  std::vector<std::size_t> leased;

  std::vector<std::uint8_t> encode() const;
  /// Strict decode; also rejects indices outside the plan, out of order, or
  /// both completed and leased.  For every accepted input,
  /// decode(bytes)->encode() == bytes.
  static std::optional<FleetCheckpoint> decode(std::span<const std::uint8_t> bytes);

  /// Write-then-rename so a coordinator killed mid-save leaves the previous
  /// checkpoint intact rather than a torn file.
  bool save(const std::string& path) const;
  static std::optional<FleetCheckpoint> load(const std::string& path);
};

}  // namespace acf::fleet::remote
