// Fleet orchestrator tests: deterministic sharding (thread-count-invariant
// seeds, aggregates and JSONL), crash isolation of throwing trials, and
// separation of timeouts from the time-to-failure sample.  All suites are
// named Fleet* so the TSan CI leg can select them with `ctest -R '^Fleet'`.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fleet/aggregator.hpp"
#include "fleet/executor.hpp"
#include "fleet/jsonl.hpp"
#include "fleet/worlds.hpp"
#include "metrics/snapshot.hpp"
#include "util/log.hpp"

namespace acf::fleet {
namespace {

// ---------------------------------------------------------- TrialPlan -----

TEST(FleetTrialPlan, RoundRobinLayoutAndDerivedSeeds) {
  TrialPlan plan({"a", "b", "c"}, 4, 0xBA5E, std::chrono::seconds(30));
  EXPECT_EQ(plan.trial_count(), 12u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < plan.trial_count(); ++i) {
    const TrialSpec spec = plan.spec(i);
    EXPECT_EQ(spec.trial_index, i);
    EXPECT_EQ(spec.arm, i % 3);
    EXPECT_EQ(spec.replica, i / 3);
    EXPECT_EQ(spec.seed, TrialPlan::seed_for(0xBA5E, i));
    EXPECT_EQ(spec.sim_budget, std::chrono::seconds(30));
    seeds.insert(spec.seed);
  }
  EXPECT_EQ(seeds.size(), plan.trial_count());  // no seed collisions
  EXPECT_THROW(plan.spec(12), std::out_of_range);
  EXPECT_THROW(TrialPlan({}, 1, 0), std::invalid_argument);
}

TEST(FleetTrialPlan, SeedForIsPureFunctionOfBaseAndIndex) {
  EXPECT_EQ(TrialPlan::seed_for(1, 7), TrialPlan::seed_for(1, 7));
  EXPECT_NE(TrialPlan::seed_for(1, 7), TrialPlan::seed_for(1, 8));
  EXPECT_NE(TrialPlan::seed_for(1, 7), TrialPlan::seed_for(2, 7));
}

// ------------------------------------------------- executor + worlds ------

/// Fast unlock fleet: reduced id window at 4 kHz hits in simulated seconds,
/// so a 12-trial fleet finishes in well under a second of wall time.
WorldFactory fast_unlock_factory() {
  fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
  fast.tx_period = std::chrono::microseconds(250);
  return unlock_world_factory(
      {{vehicle::UnlockPredicate::single_id_and_byte(), fast, std::chrono::minutes(5)},
       {vehicle::UnlockPredicate::id_byte_and_length(), fast, std::chrono::minutes(5)}});
}

TrialPlan fast_plan(std::size_t replicas = 6) {
  return TrialPlan({"weak", "hardened"}, replicas, 0xACF17EE7ULL);
}

std::string jsonl_of(const TrialPlan& plan, const std::vector<TrialOutcome>& outcomes) {
  std::ostringstream out;
  JsonlExporter(out).write_all(plan, outcomes);
  return out.str();
}

TEST(FleetDeterminism, ThreadCountInvariant) {
  const TrialPlan plan = fast_plan();
  std::string reference_jsonl;
  FleetReport reference;
  for (const unsigned threads : {1u, 4u, 8u}) {
    ExecutorConfig config;
    config.threads = threads;
    Executor executor(config);
    const auto outcomes = executor.run(plan, fast_unlock_factory());
    ASSERT_EQ(outcomes.size(), plan.trial_count());
    const FleetReport report = aggregate(plan, outcomes);
    const std::string jsonl = jsonl_of(plan, outcomes);
    if (threads == 1) {
      reference = report;
      reference_jsonl = jsonl;
      // The fast window must actually detect unlocks for the test to bite.
      EXPECT_GT(report.arms[0].detected, 0u);
      continue;
    }
    // Byte-identical trajectory regardless of scheduling order...
    EXPECT_EQ(jsonl, reference_jsonl) << "threads=" << threads;
    // ...and identical aggregate statistics.
    ASSERT_EQ(report.arms.size(), reference.arms.size());
    for (std::size_t arm = 0; arm < report.arms.size(); ++arm) {
      const ArmReport& a = report.arms[arm];
      const ArmReport& b = reference.arms[arm];
      EXPECT_EQ(a.detected, b.detected);
      EXPECT_EQ(a.timeouts, b.timeouts);
      EXPECT_EQ(a.frames_sent, b.frames_sent);
      EXPECT_EQ(a.time_to_failure.count(), b.time_to_failure.count());
      EXPECT_DOUBLE_EQ(a.time_to_failure.mean(), b.time_to_failure.mean());
      EXPECT_DOUBLE_EQ(a.time_to_failure.variance(), b.time_to_failure.variance());
      EXPECT_DOUBLE_EQ(a.median(), b.median());
      EXPECT_DOUBLE_EQ(a.ci95().lo, b.ci95().lo);
      EXPECT_DOUBLE_EQ(a.ci95().hi, b.ci95().hi);
      EXPECT_EQ(a.findings, b.findings);
    }
  }
}

TEST(FleetExecutor, SurvivesThrowingTrials) {
  const TrialPlan plan({"arm"}, 8, 42);
  // Every odd replica throws; even replicas complete a tiny frame-limited
  // campaign via the callable-world adapter.
  WorldFactory factory = world_from([](const TrialSpec& spec) -> fuzzer::CampaignResult {
    if (spec.replica % 2 == 1) throw std::runtime_error("diverged world");
    fuzzer::CampaignResult result;
    result.reason = fuzzer::StopReason::kFrameLimit;
    result.frames_sent = 10;
    return result;
  });
  ExecutorConfig config;
  config.threads = 4;
  Executor executor(config);
  metrics::Registry registry;
  ProgressReporter progress(registry);
  const auto outcomes = executor.run(plan, factory, &progress);
  ASSERT_EQ(outcomes.size(), 8u);
  for (const TrialOutcome& outcome : outcomes) {
    if (outcome.spec.replica % 2 == 1) {
      EXPECT_EQ(outcome.status, TrialStatus::kFailed);
      EXPECT_EQ(outcome.error, "diverged world");
    } else {
      EXPECT_EQ(outcome.status, TrialStatus::kCompleted);
      EXPECT_EQ(outcome.stop_reason, fuzzer::StopReason::kFrameLimit);
      EXPECT_EQ(outcome.frames_sent, 10u);
    }
  }
  EXPECT_EQ(registry.counter("fleet.progress.completed").value(), 8u);
  EXPECT_EQ(registry.counter("fleet.progress.errors").value(), 4u);
  const FleetReport report = aggregate(plan, outcomes);
  EXPECT_EQ(report.errors, 4u);
  EXPECT_EQ(report.arms[0].timeouts, 4u);  // completed, oracle never fired
}

TEST(FleetExecutor, CancelBeforeRunSkipsEverything) {
  const TrialPlan plan({"arm"}, 4, 7);
  Executor executor({.threads = 2});
  executor.cancel();
  std::atomic<int> built{0};
  WorldFactory factory = world_from([&](const TrialSpec&) -> fuzzer::CampaignResult {
    ++built;
    return {};
  });
  const auto outcomes = executor.run(plan, factory);
  EXPECT_EQ(built.load(), 0);
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, TrialStatus::kSkipped);
    EXPECT_EQ(outcomes[i].spec.trial_index, i);  // specs still resolved
  }
  const FleetReport report = aggregate(plan, outcomes);
  EXPECT_EQ(report.skipped, 4u);
}

// Concurrent trials may log (and even retune the level); the atomic
// threshold + serialised sink must hold up under TSan.
TEST(FleetExecutor, WorkersCanLogConcurrently) {
  const util::LogLevel before = util::log_level();
  const TrialPlan plan({"arm"}, 16, 3);
  WorldFactory factory = world_from([](const TrialSpec& spec) -> fuzzer::CampaignResult {
    util::set_log_level(spec.replica % 2 ? util::LogLevel::kWarn : util::LogLevel::kError);
    ACF_LOG(kDebug, "fleet-test") << "trial " << spec.trial_index;  // below threshold
    util::log_line(util::LogLevel::kTrace, "fleet-test", "suppressed");
    fuzzer::CampaignResult result;
    result.reason = fuzzer::StopReason::kFrameLimit;
    return result;
  });
  Executor executor({.threads = 4});
  const auto outcomes = executor.run(plan, factory);
  for (const TrialOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, TrialStatus::kCompleted);
  }
  util::set_log_level(before);
}

// ----------------------------------------------------------- progress -----

std::vector<metrics::SnapshotLine> snapshot_lines(const std::string& stream) {
  std::vector<metrics::SnapshotLine> lines;
  std::istringstream in(stream);
  for (std::string text; std::getline(in, text);) {
    std::optional<metrics::SnapshotLine> line = metrics::parse_snapshot_line(text);
    EXPECT_TRUE(line.has_value()) << text;
    if (line) lines.push_back(std::move(*line));
  }
  return lines;
}

std::map<std::string, std::uint64_t> counters_of(const metrics::RegistrySnapshot& snap) {
  std::map<std::string, std::uint64_t> counters;
  for (const metrics::CounterSnap& counter : snap.counters) counters[counter.name] = counter.value;
  return counters;
}

/// Pool threads write snapshot lines through the reporter, which takes each
/// snapshot under the lock that orders the writes: no counter may read lower
/// than on the line before it, however the eight threads interleave.  Each
/// trial sleeps a millisecond, so the threads finish in bunches and their
/// lines contend.
TEST(FleetProgress, SnapshotLinesNeverGoBackwards) {
  const TrialPlan plan({"arm"}, 64, 11);
  const WorldFactory factory = world_from([](const TrialSpec& spec) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fuzzer::CampaignResult result;
    result.reason = fuzzer::StopReason::kFrameLimit;
    result.frames_sent = spec.trial_index + 1;
    return result;
  });
  for (int repeat = 0; repeat < 5; ++repeat) {
    metrics::Registry registry;
    std::ostringstream stream;
    metrics::SnapshotWriter writer(stream, "local");
    ProgressReporter progress(registry, &writer, 1);
    Executor executor({.threads = 8, .registry = &registry});
    executor.run(plan, factory, &progress);
    progress.finish();

    const std::vector<metrics::SnapshotLine> lines = snapshot_lines(stream.str());
    ASSERT_EQ(lines.size(), 65u) << "repeat " << repeat;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i].seq, i + 1);
      if (i == 0) continue;
      const std::map<std::string, std::uint64_t> now = counters_of(lines[i].registry);
      for (const auto& [name, before] : counters_of(lines[i - 1].registry)) {
        const auto it = now.find(name);
        EXPECT_GE(it == now.end() ? 0 : it->second, before)
            << name << " went backwards at seq " << lines[i].seq << ", repeat " << repeat;
      }
    }
  }
}

/// Eight trials at interval 3: lines at the 3rd and 6th result, then
/// finish()'s final line, which carries the registry's totals.
TEST(FleetProgress, SnapshotLineEveryNthResultThenTheFinalLine) {
  const TrialPlan plan = fast_plan(4);
  metrics::Registry registry;
  std::ostringstream stream;
  metrics::SnapshotWriter writer(stream, "local");
  ProgressReporter progress(registry, &writer, 3);
  Executor executor({.threads = 4, .registry = &registry});
  executor.run(plan, fast_unlock_factory(), &progress);
  const std::optional<metrics::RegistrySnapshot> final_view = progress.finish();

  const std::vector<metrics::SnapshotLine> lines = snapshot_lines(stream.str());
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].seq, i + 1);
    EXPECT_EQ(lines[i].source, "local");
  }
  const std::map<std::string, std::uint64_t> totals = counters_of(registry.snapshot());
  EXPECT_EQ(counters_of(lines[2].registry), totals);
  EXPECT_EQ(totals.at("fleet.progress.completed"), 8u);
  EXPECT_EQ(totals.at("fleet.trial.completed"), 8u);
  ASSERT_TRUE(final_view.has_value());
  EXPECT_EQ(counters_of(*final_view), totals);
}

// --------------------------------------------------------- aggregator -----

TrialOutcome synthetic(std::size_t index, std::size_t arm_count, double ttf,
                       std::uint64_t frames) {
  TrialOutcome outcome;
  outcome.spec.trial_index = index;
  outcome.spec.arm = index % arm_count;
  outcome.status = TrialStatus::kCompleted;
  outcome.frames_sent = frames;
  outcome.time_to_failure = ttf;
  outcome.stop_reason = ttf >= 0 ? fuzzer::StopReason::kFailureDetected
                                 : fuzzer::StopReason::kDurationElapsed;
  return outcome;
}

TEST(FleetAggregator, TimeoutsNeverEnterTheSample) {
  const TrialPlan plan({"only"}, 4, 0);
  std::vector<TrialOutcome> outcomes = {
      synthetic(0, 1, 10.0, 100), synthetic(1, 1, -1.0, 500),  // timeout
      synthetic(2, 1, 30.0, 100), synthetic(3, 1, -1.0, 500)};
  const FleetReport report = aggregate(plan, outcomes);
  const ArmReport& arm = report.arms[0];
  EXPECT_EQ(arm.detected, 2u);
  EXPECT_EQ(arm.timeouts, 2u);
  EXPECT_EQ(arm.time_to_failure.count(), 2u);
  EXPECT_DOUBLE_EQ(arm.time_to_failure.mean(), 20.0);  // not (10-1+30-1)/4
  EXPECT_DOUBLE_EQ(arm.median(), 20.0);
  EXPECT_EQ(arm.frames_sent, 1200u);
}

TEST(FleetAggregator, DeduplicatesFindingsPerArm) {
  const TrialPlan plan({"only"}, 3, 0);
  std::vector<TrialOutcome> outcomes = {synthetic(0, 1, 1.0, 1), synthetic(1, 1, 2.0, 1),
                                        synthetic(2, 1, 3.0, 1)};
  outcomes[0].findings = {"unlock fired", "bus warning"};
  outcomes[1].findings = {"unlock fired"};
  outcomes[2].findings = {"unlock fired", "bus warning"};
  const FleetReport report = aggregate(plan, outcomes);
  const auto& findings = report.arms[0].findings;
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].first, "unlock fired");
  EXPECT_EQ(findings[0].second, 3u);
  EXPECT_EQ(findings[1].first, "bus warning");
  EXPECT_EQ(findings[1].second, 2u);
}

// -------------------------------------------------------------- jsonl -----

TEST(FleetJsonl, GoldenLineAndEscaping) {
  const TrialPlan plan({"weak \"arm\""}, 1, 0xBA5E);
  TrialOutcome outcome = synthetic(0, 1, 1.5, 321);
  outcome.spec.seed = 99;
  outcome.sim_seconds = 2.25;
  outcome.findings = {"line1\nline2"};
  std::ostringstream out;
  JsonlExporter(out).write(plan, outcome);
  EXPECT_EQ(out.str(),
            "{\"trial\":0,\"arm\":\"weak \\\"arm\\\"\",\"replica\":0,\"seed\":99,"
            "\"status\":\"completed\",\"stop\":\"failure-detected\",\"frames_sent\":321,"
            "\"sim_seconds\":2.25,\"time_to_failure\":1.5,"
            "\"findings\":[\"line1\\nline2\"]}\n");
}

TEST(FleetJsonl, EscapesControlAndNonAsciiBytes) {
  // Arm labels and findings can carry arbitrary bytes (detector names,
  // frame dumps); every emitted line must stay pure-ASCII JSON.  Covers the
  // signed-char regression where bytes >= 0x80 printed as "ffffffXX".
  const TrialPlan plan({std::string("arm\x01\x7F\x80\xFF", 7)}, 1, 0);
  TrialOutcome outcome = synthetic(0, 1, 1.0, 1);
  outcome.sim_seconds = 1.0;
  std::ostringstream out;
  JsonlExporter(out).write(plan, outcome);
  EXPECT_EQ(out.str(),
            "{\"trial\":0,\"arm\":\"arm\\u0001\\u007f\\u0080\\u00ff\",\"replica\":0,"
            "\"seed\":0,\"status\":\"completed\",\"stop\":\"failure-detected\","
            "\"frames_sent\":1,\"sim_seconds\":1,\"time_to_failure\":1,"
            "\"findings\":[]}\n");
  for (const char c : out.str()) {
    EXPECT_TRUE(static_cast<unsigned char>(c) < 0x7F) << "non-ASCII byte escaped the line";
  }
}

TEST(FleetJsonl, TimeoutAndErrorRecords) {
  const TrialPlan plan({"a"}, 2, 0);
  TrialOutcome timeout = synthetic(0, 1, -1.0, 7);
  TrialOutcome errored;
  errored.spec = plan.spec(1);
  errored.status = TrialStatus::kFailed;
  errored.error = "boom";
  std::ostringstream out;
  JsonlExporter(out).write_all(plan, std::vector<TrialOutcome>{timeout, errored});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"time_to_failure\":null"), std::string::npos);
  EXPECT_NE(text.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(text.find("\"error\":\"boom\""), std::string::npos);
}

}  // namespace
}  // namespace acf::fleet
