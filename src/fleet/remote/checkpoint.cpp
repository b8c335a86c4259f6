#include "fleet/remote/checkpoint.hpp"

#include "fleet/remote/wire.hpp"
#include "util/file.hpp"

namespace acf::fleet::remote {

using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint32_t kMagic = 0x41434646;  // "ACFF"

// A hostile header cannot demand unbounded memory: the trial count itself is
// capped (a campaign of 16M trials checkpoints fine; beyond that, shard),
// and every declared count is checked against the bytes left.
constexpr std::uint64_t kMaxTrials = 1u << 24;
// Smallest TrialOutcome record: spec (5 × 8), status + stop reason, two
// counters, two doubles, the finding count and the error's length prefix.
constexpr std::size_t kMinOutcomeBytes = 5 * 8 + 2 + 2 * 8 + 2 * 8 + 4 + 4;

}  // namespace

std::vector<std::uint8_t> FleetCheckpoint::encode() const {
  ByteWriter out;
  out.u32(kMagic);
  out.u32(kVersion);
  out.u64(fingerprint);
  out.u64(trial_count);
  out.u32(static_cast<std::uint32_t>(completed.size()));
  for (const TrialOutcome& outcome : completed) write_outcome(out, outcome);
  return out.take();
}

std::optional<FleetCheckpoint> FleetCheckpoint::decode(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  if (in.u32() != kMagic || in.u32() != kVersion || !in.ok()) return std::nullopt;
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = in.u64();
  checkpoint.trial_count = in.u64();
  if (!in.ok() || checkpoint.trial_count > kMaxTrials) return std::nullopt;
  const auto trials = static_cast<std::size_t>(checkpoint.trial_count);

  checkpoint.completed.resize(in.count(kMinOutcomeBytes, trials));
  for (std::size_t i = 0; i < checkpoint.completed.size(); ++i) {
    if (!read_outcome(in, checkpoint.completed[i])) return std::nullopt;
    // Strictly ascending indices inside the plan: the canonical layout, and
    // it rejects duplicate records in one pass.
    const std::size_t index = checkpoint.completed[i].spec.trial_index;
    if (index >= trials || (i > 0 && index <= checkpoint.completed[i - 1].spec.trial_index)) {
      return std::nullopt;
    }
  }
  if (!in.done()) return std::nullopt;  // truncated, or trailing bytes
  return checkpoint;
}

std::optional<std::uint32_t> FleetCheckpoint::version_of(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  if (in.u32() != kMagic) return std::nullopt;
  const std::uint32_t version = in.u32();
  if (!in.ok()) return std::nullopt;
  return version;
}

bool FleetCheckpoint::save(const std::string& path) const {
  // Write-then-rename: a coordinator SIGKILLed mid-save must leave the
  // previous checkpoint readable, or the crash the checkpoint exists to
  // survive would destroy it.
  return util::replace_file(path, encode());
}

std::optional<FleetCheckpoint> FleetCheckpoint::load(const std::string& path) {
  const auto bytes = util::read_file(path);
  if (!bytes) return std::nullopt;
  return decode(*bytes);
}

}  // namespace acf::fleet::remote
