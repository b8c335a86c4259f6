// FuzzSmoke: the self-fuzz harness as a ctest leg.  Every registered target
// replays its committed corpus (one deterministic reproducer per fixed bug)
// and then runs a fixed generated-input budget.  The budget is sized so the
// whole suite stays in the fast label; CI additionally runs this leg under
// ASan/UBSan and TSan, where "no invariant failures" also means "no UB".
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "selftest/harness.hpp"
#include "selftest/targets.hpp"

namespace acf::selftest {
namespace {

#ifndef ACF_CORPUS_DIR
#define ACF_CORPUS_DIR ""
#endif
#ifndef ACF_FUZZ_CMAKELISTS
#define ACF_FUZZ_CMAKELISTS ""
#endif

class FuzzSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzSmoke, CorpusAndBudgetClean) {
  const FuzzTarget* target = find_target(GetParam());
  ASSERT_NE(target, nullptr);

  const auto corpus = load_corpus_dir(std::string(ACF_CORPUS_DIR) + "/" + target->name);
  EXPECT_FALSE(corpus.empty()) << "no committed seeds for " << target->name;

  HarnessOptions options;
  options.iterations = 1500;
  // Failing inputs land next to the test binary for CI artifact upload.
  options.failure_dir = "fuzz_failures";
  const HarnessResult result = run_harness(*target, corpus, options);

  EXPECT_EQ(result.corpus_inputs, corpus.size());
  for (const FuzzFailure& failure : result.failures) {
    ADD_FAILURE() << target->name << " [" << (failure.from_corpus ? "corpus" : "generated")
                  << " #" << failure.ordinal << "] " << failure.message
                  << "\n  input: " << hex_preview(failure.input);
  }
}

std::vector<std::string> target_names() {
  std::vector<std::string> names;
  for (const FuzzTarget& target : all_targets()) names.push_back(target.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllTargets, FuzzSmoke, ::testing::ValuesIn(target_names()),
                         [](const auto& param_info) { return param_info.param; });

// The harness itself must be deterministic: same corpus + options => same
// inputs, so a CI failure is reproducible locally from the printed ordinal.
TEST(FuzzHarness, DeterministicForFixedSeed) {
  std::uint64_t runs[2] = {0, 0};
  std::vector<std::vector<std::uint8_t>> inputs[2];
  for (int round = 0; round < 2; ++round) {
    FuzzTarget probe{"probe", "records inputs",
                     [&, round](std::span<const std::uint8_t> input) -> std::optional<std::string> {
                       ++runs[round];
                       inputs[round].emplace_back(input.begin(), input.end());
                       return std::nullopt;
                     }};
    HarnessOptions options;
    options.iterations = 64;
    const auto result = run_harness(probe, {}, options);
    EXPECT_TRUE(result.ok());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(inputs[0], inputs[1]);
}

TEST(FuzzHarness, FailingInputIsReportedWithOrdinal) {
  FuzzTarget probe{"probe", "fails on inputs starting with 0xAB",
                   [](std::span<const std::uint8_t> input) -> std::optional<std::string> {
                     if (!input.empty() && input[0] == 0xAB) return "tripped";
                     return std::nullopt;
                   }};
  const std::vector<std::vector<std::uint8_t>> corpus = {{0xAB, 0xCD}};
  HarnessOptions options;
  options.iterations = 0;
  const auto result = run_harness(probe, corpus, options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(result.failures[0].from_corpus);
  EXPECT_EQ(result.failures[0].ordinal, 0u);
  EXPECT_EQ(result.failures[0].message, "tripped");
  EXPECT_EQ(result.failures[0].input, corpus[0]);
}

TEST(FuzzHarness, EveryTargetHasUniqueName) {
  const auto& targets = all_targets();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_NE(find_target(targets[i].name), nullptr);
    for (std::size_t j = i + 1; j < targets.size(); ++j) {
      EXPECT_NE(targets[i].name, targets[j].name);
    }
  }
  EXPECT_EQ(find_target("no-such-target"), nullptr);
}

// The libFuzzer binaries build only with Clang, so no GCC leg would notice a
// target missing from fuzz/CMakeLists.txt's ACF_FUZZ_TARGETS; this test does.
TEST(FuzzHarness, LibFuzzerListNamesEveryTarget) {
  std::ifstream file(ACF_FUZZ_CMAKELISTS);
  ASSERT_TRUE(file.is_open()) << "cannot read " << ACF_FUZZ_CMAKELISTS;
  std::stringstream text;
  text << file.rdbuf();
  const std::string cmake = text.str();
  const std::string opening = "set(ACF_FUZZ_TARGETS";
  const std::size_t begin = cmake.find(opening);
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = cmake.find(')', begin);
  ASSERT_NE(end, std::string::npos);
  std::istringstream list(cmake.substr(begin + opening.size(), end - begin - opening.size()));
  std::vector<std::string> listed;
  for (std::string name; list >> name;) listed.push_back(name);

  std::vector<std::string> registered = target_names();
  std::sort(listed.begin(), listed.end());
  std::sort(registered.begin(), registered.end());
  EXPECT_EQ(listed, registered);
}

}  // namespace
}  // namespace acf::selftest
