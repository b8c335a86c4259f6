// Process-level tests of fleet::run_campaign through the benches that use
// it: a bench run with `--distributed` must give exactly what the same run
// gives in-process, every side effect its flags ask for included.  Forked
// workers are exec'd with the parent's own command line, so no flag can be
// lost on the way to them.
#include <sys/wait.h>

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

}  // namespace
