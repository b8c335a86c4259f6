// Tests of the benchmark's own logic: percentile choice, the digest gate,
// span self time, pool accounting, and that outputs do not depend on the
// pool's thread count.
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentiles, NearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(percentile(samples, 50.0), 50.0);
  EXPECT_EQ(percentile(samples, 90.0), 90.0);
  EXPECT_EQ(percentile(samples, 100.0), 100.0);
  EXPECT_EQ(percentile({}, 90.0), 0.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
}

TEST(Percentiles, TailIsTheHighestWithTenSamplesBeyondIt) {
  EXPECT_EQ(tail_percentile(19), std::nullopt);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfOverlappingChildren) {
  const Span parent{"pool", 0, 100};
  // Two children overlap on [30, 40]; a third runs past the parent's end.
  const std::vector<Span> children = {{"trial", 10, 40}, {"trial", 30, 60}, {"trial", 90, 120}};
  EXPECT_EQ(self_time_ns(parent, children), 100 - (50 + 10));
  EXPECT_EQ(self_time_ns(parent, {}), 100);

  // The written trace carries each span's self time against its children.
  SpanLog log;
  const std::int64_t root = log.add({"round", 0, 100});
  log.add({"trial", 10, 40, root});
  log.add({"trial", 30, 60, root});
  log.add({"unrelated", 0, 100});
  std::ostringstream out;
  log.write_jsonl(out);
  std::istringstream lines(out.str());
  std::string first;
  std::getline(lines, first);
  EXPECT_NE(first.find("\"name\":\"round\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"self_ns\":50,"), std::string::npos) << first;
}

TEST(Pool, AccountingCoversThreadsTimesWall) {
  std::vector<TrialTiming> timings(3);
  const std::thread::id a = std::this_thread::get_id();
  timings[0] = {10, 20, 21, 50, 51, 60, a};
  timings[1] = {70, 75, 75, 90, 91, 95, a};
  // timings[2] never ran: a second thread that stayed idle.
  const PoolAccounting pool = account_pool(timings, 2, 0, 100);
  EXPECT_DOUBLE_EQ(pool.capacity_ns, 200.0);
  EXPECT_DOUBLE_EQ(pool.busy_ns, (10 + 29 + 9) + (5 + 15 + 4));
  // Idle: thread a before its first trial and after its last; b throughout.
  EXPECT_DOUBLE_EQ(pool.idle_ns, (10 + 5) + 100);
  // The rest is bookkeeping inside trials (1 + 1, 0 + 1) and between them (10).
  EXPECT_DOUBLE_EQ(pool.capacity_ns - pool.busy_ns - pool.idle_ns, 13.0);
}

TEST(Pool, AnUnrecordedTrialFailsTheAccountingGate) {
  // One thread running three trials back to back across the pool's wall.
  std::vector<TrialTiming> timings(3);
  const std::thread::id a = std::this_thread::get_id();
  timings[0] = {0, 5, 5, 30, 30, 33, a};
  timings[1] = {33, 36, 36, 64, 64, 66, a};
  timings[2] = {66, 70, 70, 97, 97, 100, a};
  EXPECT_DOUBLE_EQ(account_pool(timings, 1, 0, 100).accounted_frac(), 1.0);
  EXPECT_TRUE(pool_accounted(account_pool(timings, 1, 0, 100)));

  timings[1] = {};  // the trial ran but its spans were never recorded
  const PoolAccounting pool = account_pool(timings, 1, 0, 100);
  EXPECT_DOUBLE_EQ(pool.accounted_frac(), 0.67);
  EXPECT_FALSE(pool_accounted(pool));

  // Two trials overlapping on one thread count their common time twice.
  timings[1] = {20, 36, 36, 64, 64, 66, a};
  EXPECT_GT(account_pool(timings, 1, 0, 100).accounted_frac(), 1.05);
  EXPECT_FALSE(pool_accounted(account_pool(timings, 1, 0, 100)));
}

TEST(Digest, OneBytePerturbationFailsTheGate) {
  const Workload workload("unlock-blind", 7, /*replicas=*/1);
  const Round round = workload.run_round(1);
  ASSERT_FALSE(round.output.empty());
  EXPECT_EQ(round.digest, digest_of(round.output));
  const std::optional<std::string> recorded = digest_hex(round.digest);
  EXPECT_TRUE(digest_gate(recorded, round.digest));
  EXPECT_TRUE(digest_gate(std::nullopt, round.digest));

  std::string perturbed = round.output;
  perturbed[perturbed.size() / 2] ^= 0x01;
  EXPECT_FALSE(digest_gate(recorded, digest_of(perturbed)));
}

TEST(Workloads, AttackMatrixDigestIsTheSameOnOneAndFourThreads) {
  const Workload workload("attack-matrix", 11, /*replicas=*/2);
  const Round one = workload.run_round(1);
  const Round four = workload.run_round(4);
  EXPECT_TRUE(one.identities_ok) << one.identity_error;
  EXPECT_TRUE(four.identities_ok) << four.identity_error;
  EXPECT_EQ(one.failed_trials(), 0u);
  EXPECT_EQ(four.threads, 4u);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.output, four.output);
}

TEST(Workloads, TimedTrialsAccountForThePool) {
  const Workload workload("attack-matrix", 3, /*replicas=*/2);
  const Round round = workload.run_round(4);
  for (const TrialTiming& t : round.timings) {
    ASSERT_TRUE(t.recorded());
    EXPECT_LE(t.build_start, t.build_end);
    EXPECT_LE(t.build_end, t.run_start);
    EXPECT_LE(t.run_end, t.teardown_start);
  }
  const PoolAccounting pool =
      account_pool(round.timings, round.threads, round.pool_start_ns, round.pool_end_ns);
  EXPECT_TRUE(pool_accounted(pool)) << pool.accounted_frac();
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(Workload("distributed", 1), std::invalid_argument);
  EXPECT_EQ(workload_names().size(), 4u);
}

}  // namespace
}  // namespace perfbench
