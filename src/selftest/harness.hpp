// Deterministic in-repo fuzz harness: points the project's own mutation
// machinery at the project's own input surfaces.
//
// The paper's thesis is that blind malformed input finds real defects fast;
// a fuzzing toolchain that has never fuzzed itself is asking its users to
// trust parsers nobody hammered.  Each FuzzTarget wraps one byte-consuming
// surface together with its invariants (round-trip identity, "malformed
// input returns nullopt instead of throwing/UB", bounded allocation) and the
// harness drives it with a seeded, budgeted stream of corpus mutations —
// no external toolchain, reproducible from a single 64-bit seed.  Optional
// libFuzzer entrypoints (ACF_LIBFUZZER=ON) reuse the same targets for
// coverage-guided runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace acf::selftest {

struct FuzzTarget {
  /// Stable identifier; doubles as the corpus subdirectory name under
  /// tests/corpus/ and the fuzz_<name> libFuzzer binary suffix.
  std::string name;
  /// One-line description for --list output and reports.
  std::string description;
  /// Feeds one input through the surface and checks every invariant.
  /// Returns nullopt when all invariants held, an explanation otherwise.
  /// Must never throw and never crash, whatever the bytes.
  std::function<std::optional<std::string>(std::span<const std::uint8_t>)> run;
};

struct HarnessOptions {
  /// Generated (non-corpus) inputs to run.  The smoke budget is fixed in
  /// the ctest leg so CI time stays bounded; local runs crank it up.
  std::uint64_t iterations = 2000;
  std::uint64_t seed = 0xACF5EEDULL;
  std::size_t max_input_bytes = 1024;
  /// When non-empty, each failing input is written here as
  /// <target>-<ordinal>.bin for artifact upload / local triage.
  std::string failure_dir;
};

struct FuzzFailure {
  std::vector<std::uint8_t> input;
  std::string message;
  /// Corpus index (when < corpus size) or generated-iteration ordinal.
  std::uint64_t ordinal = 0;
  bool from_corpus = false;
};

struct HarnessResult {
  std::uint64_t corpus_inputs = 0;
  std::uint64_t generated_inputs = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const noexcept { return failures.empty(); }
};

/// Replays every corpus input, then runs the generated-input budget:
/// mutations of corpus seeds interleaved with fresh random inputs.
/// Deterministic for a fixed (corpus, options) pair.
HarnessResult run_harness(const FuzzTarget& target,
                          std::span<const std::vector<std::uint8_t>> corpus,
                          const HarnessOptions& options = {});

/// Loads every regular file in `dir`, sorted by filename for determinism.
/// Missing directory is an empty corpus, not an error.
std::vector<std::vector<std::uint8_t>> load_corpus_dir(const std::string& dir);

/// "DEADBEEF…" preview of an input for failure messages.
std::string hex_preview(std::span<const std::uint8_t> bytes, std::size_t max_bytes = 64);

}  // namespace acf::selftest
