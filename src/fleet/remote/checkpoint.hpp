// FleetCheckpoint: durable progress of a distributed campaign, as a
// versioned util::ByteWriter record decoded with the same discipline as the
// fuzzer checkpoint and the feedback corpus (magic and version first, every
// declared count checked against the bytes left, the whole input consumed).
// Each finished trial is stored as the wire's own TrialOutcome record
// (write_outcome/read_outcome), so a restarted coordinator resumes
// mid-campaign without recomputing a single finished trial.  Nothing else is
// stored: the trials in flight at save time are the lowest unfinished
// indices (leases go out in index order), and a resumed lease table issues
// the unfinished trials in ascending order, so it re-issues those first.
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
  /// version instead of misreading it.  v1: hex text.  v2: binary record
  /// with the in-flight trial list.  v3: the finished trials alone.
  static constexpr std::uint32_t kVersion = 3;

  /// campaign_fingerprint() of the plan this progress belongs to.
  std::uint64_t fingerprint = 0;
  std::uint64_t trial_count = 0;
  /// Finished trials, strictly ascending by spec.trial_index.
  std::vector<TrialOutcome> completed;

  std::vector<std::uint8_t> encode() const;
  /// Strict decode; also rejects indices outside the plan or out of order.
  /// For every accepted input, decode(bytes)->encode() == bytes.
  static std::optional<FleetCheckpoint> decode(std::span<const std::uint8_t> bytes);
  /// The format version `bytes` declares when they start with this record's
  /// magic; nullopt for anything else.  Names the version of a checkpoint
  /// this build cannot read.
  static std::optional<std::uint32_t> version_of(std::span<const std::uint8_t> bytes);

  /// Write-then-rename so a coordinator killed mid-save leaves the previous
  /// checkpoint intact rather than a torn file.
  bool save(const std::string& path) const;
  static std::optional<FleetCheckpoint> load(const std::string& path);
};

}  // namespace acf::fleet::remote
