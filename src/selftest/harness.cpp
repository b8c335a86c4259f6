#include "selftest/harness.hpp"

#include <algorithm>
#include <filesystem>

#include "selftest/mutator.hpp"
#include "util/file.hpp"
#include "util/hex.hpp"

namespace acf::selftest {

namespace {

/// A run stops after this many failures (each one is a bug; no point
/// drowning).
constexpr std::size_t kMaxFailures = 8;

void record_failure(HarnessResult& result, const HarnessOptions& options,
                    const FuzzTarget& target, std::span<const std::uint8_t> input,
                    std::string message, std::uint64_t ordinal, bool from_corpus) {
  FuzzFailure failure;
  failure.input.assign(input.begin(), input.end());
  failure.message = std::move(message);
  failure.ordinal = ordinal;
  failure.from_corpus = from_corpus;
  if (!options.failure_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.failure_dir, ec);
    const auto path = std::filesystem::path(options.failure_dir) /
                      (target.name + "-" + std::to_string(result.failures.size()) + ".bin");
    util::write_file(path.string(), failure.input);
  }
  result.failures.push_back(std::move(failure));
}

}  // namespace

HarnessResult run_harness(const FuzzTarget& target,
                          std::span<const std::vector<std::uint8_t>> corpus,
                          const HarnessOptions& options) {
  HarnessResult result;

  // Corpus replay first: committed seeds include one reproducer per fixed
  // bug, so a regression fails deterministically before any random input.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ++result.corpus_inputs;
    if (auto error = target.run(corpus[i])) {
      record_failure(result, options, target, corpus[i], std::move(*error), i, true);
      if (result.failures.size() >= kMaxFailures) return result;
    }
  }

  ByteMutator mutator(options.seed);
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    std::vector<std::uint8_t> input;
    // Three-way mix: mutate a corpus seed (structure-aware reach), mutate
    // the previous input (random walk), or start fresh (plain blind noise).
    const auto mode = mutator.rng().next_below(4);
    if (mode == 0 || corpus.empty()) {
      input = mutator.fresh(options.max_input_bytes);
    } else {
      const auto& seed_input =
          corpus[static_cast<std::size_t>(mutator.rng().next_below(corpus.size()))];
      input = seed_input;
      mutator.mutate(input, options.max_input_bytes);
    }
    ++result.generated_inputs;
    if (auto error = target.run(input)) {
      record_failure(result, options, target, input, std::move(*error), i, false);
      if (result.failures.size() >= kMaxFailures) return result;
    }
  }
  return result;
}

std::vector<std::vector<std::uint8_t>> load_corpus_dir(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.reserve(paths.size());
  for (const auto& path : paths) {
    corpus.push_back(util::read_file(path.string()).value_or(std::vector<std::uint8_t>{}));
  }
  return corpus;
}

std::string hex_preview(std::span<const std::uint8_t> bytes, std::size_t max_bytes) {
  const auto shown = bytes.subspan(0, std::min(bytes.size(), max_bytes));
  std::string out = util::hex_bytes(shown, '\0');
  if (bytes.size() > max_bytes) {
    out += "... (" + std::to_string(bytes.size()) + " bytes)";
  }
  return out;
}

}  // namespace acf::selftest
