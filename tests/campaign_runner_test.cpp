// Process-level tests of fleet::run_campaign through the benches that use
// it: a bench run with `--distributed` must give exactly what the same run
// gives in-process, every side effect its flags ask for included.  Forked
// workers are exec'd with the parent's own command line, so no flag can be
// lost on the way to them.  A bench refuses, before forking anything and
// before printing a byte on stdout, a malformed number, an option that
// cannot take effect, or more workers than trials.
#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& stem) {
  const fs::path dir = fs::path(testing::TempDir()) / (stem + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

int run(const std::string& command) {
  const int status = std::system((command + " 2> /dev/null").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every trial-*.corpus file in `dir`: name -> bytes.
std::map<std::string, std::string> trial_corpora(const fs::path& dir) {
  std::map<std::string, std::string> corpora;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("trial-", 0) == 0) corpora[name] = slurp(entry.path());
  }
  return corpora;
}

TEST(CampaignRunner, FeedbackCorpusDirIsIdenticalInProcessAndDistributed) {
  const fs::path root = fresh_dir("runner_corpus");
  const std::string bench = std::string(ACF_BENCH_FEEDBACK_BIN) + " --runs 2 --threads 1";
  // A corpus from a first run seeds both runs under test: with it the
  // feedback arm unlocks several times faster, so a worker that never saw
  // --corpus-dir shows up in the JSON as well as in the missing files.
  ASSERT_EQ(run(bench + " --corpus-dir " + (root / "first").string() + " > /dev/null"), 0);
  const std::map<std::string, std::string> first = trial_corpora(root / "first");
  ASSERT_FALSE(first.empty());
  for (const char* mode : {"local", "dist"}) {
    fs::create_directories(root / mode);
    std::ofstream(root / mode / "seed.corpus", std::ios::binary) << first.begin()->second;
  }

  ASSERT_EQ(run(bench + " --corpus-dir " + (root / "local").string() + " --json " +
                (root / "local.json").string() + " > /dev/null"),
            0);
  ASSERT_EQ(run(bench + " --distributed 2 --corpus-dir " + (root / "dist").string() +
                " --json " + (root / "dist.json").string() + " > /dev/null"),
            0);
  const std::string local_json = slurp(root / "local.json");
  ASSERT_FALSE(local_json.empty());
  EXPECT_EQ(local_json, slurp(root / "dist.json"));
  const std::map<std::string, std::string> local = trial_corpora(root / "local");
  EXPECT_FALSE(local.empty());
  EXPECT_EQ(local, trial_corpora(root / "dist"));
  fs::remove_all(root);
}

TEST(CampaignRunner, RateAblationStreamsMetricsAndPrintsTheSameTableDistributed) {
  const fs::path root = fresh_dir("runner_rate");
  const std::string bench = std::string(ACF_BENCH_RATE_BIN) + " --runs 1 --threads 1";
  ASSERT_EQ(run(bench + " > " + (root / "local.txt").string()), 0);
  ASSERT_EQ(run(bench + " --metrics-out " + (root / "metrics.jsonl").string() +
                " --distributed 2 > " + (root / "dist.txt").string()),
            0);
  const std::string table = slurp(root / "local.txt");
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(table, slurp(root / "dist.txt"));
  // The stream's final line carries the campaign totals: six periods, one
  // replica each.
  const std::string metrics = slurp(root / "metrics.jsonl");
  EXPECT_NE(metrics.find("\"fleet.trial.completed\":6"), std::string::npos) << metrics;
  fs::remove_all(root);
}

/// A worker per trial is the most a campaign can use, so asking for more
/// exits 2 before anything is forked.  A malformed number exits 2 too, never
/// read as its leading digits ("2x" as 2) or as 0, and so does an option
/// that cannot take effect.  None of them prints anything on stdout: a fleet
/// bench prints its header only once the campaign is accepted.
TEST(CampaignRunner, TooManyWorkersAndMalformedNumbersExitTwoAtOnce) {
  const fs::path out = fresh_dir("runner_refused") / "stdout.txt";
  const std::string rate = ACF_BENCH_RATE_BIN;
  // `--runs 1` is six trials, one per period: seven workers are one too many.
  // Table V's `--runs 1` is two trials.  `--metrics-interval` needs
  // `--metrics-out`.
  for (const std::string& command :
       {rate + " --runs 1 --threads 1 --distributed 7", rate + " --runs 2x", rate + " 2x",
        rate + " --runs 0", rate + " --threads 1x", rate + " --seed -1",
        rate + " --metrics-out /dev/null --metrics-interval x",
        std::string(ACF_BENCH_TABLE5_BIN) + " --runs 1 --distributed 3",
        std::string(ACF_BENCH_HARDENING_BIN) + " --runs 1 --metrics-interval 5",
        std::string(ACF_BENCH_FEEDBACK_BIN) + " --runs 1 --metrics-interval 5",
        std::string(ACF_BENCH_IDS_ROC_BIN) + " --runs 1 --metrics-interval 5",
        std::string(ACF_BENCH_IDS_ROC_BIN) + " --runs 1 --attacks --metrics-interval 5",
        std::string(ACF_BENCH_AUTH_BIN) + " 2x", std::string(ACF_BENCH_SMARTFUZZ_BIN) + " 0",
        std::string(ACF_BENCH_TARGETED_BIN) + " 2 3"}) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(run(command + " > " + out.string()), 2) << command;
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1)) << command;
    EXPECT_EQ(slurp(out), "") << command;
  }
  fs::remove_all(out.parent_path());
}

}  // namespace
