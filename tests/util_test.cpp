#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/hex.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace acf::util {
namespace {

// --------------------------------------------------------------- File -----

TEST(File, ReplaceThenReadRoundTripsAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "/acf_file_test.bin";
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {0, 0xFF, 7, 9};
  ASSERT_TRUE(write_file(path, first));
  EXPECT_EQ(read_file(path), first);
  ASSERT_TRUE(replace_file(path, second));
  EXPECT_EQ(read_file(path), second);
  EXPECT_FALSE(read_file(path + ".tmp").has_value());
  std::remove(path.c_str());
  EXPECT_FALSE(read_file(path).has_value());
}

TEST(File, WriteToAFullDiskFails) {
  // /dev/full accepts the open and fails the write with ENOSPC: the bytes
  // are only lost when the last buffer is flushed at close.
  const std::vector<std::uint8_t> bytes(64, 0xAB);
  EXPECT_FALSE(write_file("/dev/full", bytes));
}

// ---------------------------------------------------------------- Rng -----

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 255ULL, 1000003ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, NextInDegenerateRange) {
  Rng rng(9);
  EXPECT_EQ(rng.next_in(42, 42), 42u);
  EXPECT_EQ(rng.next_in(42, 10), 42u);  // inverted -> lo
}

TEST(Rng, NextInCoversFullRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_in(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BoolProbabilityApproximatelyHonoured) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ByteUniformityChiSquare) {
  Rng rng(23);
  std::array<std::uint64_t, 256> counts{};
  for (int i = 0; i < 256 * 200; ++i) ++counts[rng.next_byte()];
  const double stat = chi_square_uniform(counts);
  EXPECT_TRUE(chi_square_accepts_uniform(stat, 255));
}

TEST(Rng, FillProducesRandomBytes) {
  Rng rng(29);
  std::array<std::uint8_t, 37> buffer{};  // odd size exercises the tail path
  rng.fill(buffer);
  std::set<std::uint8_t> distinct(buffer.begin(), buffer.end());
  EXPECT_GT(distinct.size(), 10u);
}

TEST(Rng, PickCoversAllElements) {
  Rng rng(37);
  const std::vector<int> items = {1, 2, 3, 4};
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.pick(items));
  EXPECT_EQ(seen.size(), items.size());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.shuffle(std::span<int>(shuffled));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

// ---------------------------------------------------------------- hex -----

TEST(Hex, BytesRendering) {
  const std::uint8_t bytes[] = {0x1C, 0x21, 0x17, 0x71};
  EXPECT_EQ(hex_bytes(bytes), "1C 21 17 71");
  EXPECT_EQ(hex_bytes(bytes, '\0'), "1C211771");
  EXPECT_EQ(hex_bytes({}), "");
}

TEST(Hex, FixedWidthInteger) {
  EXPECT_EQ(hex_u32(0x43A, 4), "043A");
  EXPECT_EQ(hex_u32(0x43A, 3), "43A");
  EXPECT_EQ(hex_u32(0, 2), "00");
}

TEST(Hex, ParseBytesSpaced) {
  const auto bytes = parse_hex_bytes("1C 21 17 71");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, (std::vector<std::uint8_t>{0x1C, 0x21, 0x17, 0x71}));
}

TEST(Hex, ParseBytesContiguous) {
  const auto bytes = parse_hex_bytes("1C211771");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size(), 4u);
}

TEST(Hex, ParseBytesRejectsOddNibbles) {
  EXPECT_FALSE(parse_hex_bytes("1C2").has_value());
  EXPECT_FALSE(parse_hex_bytes("1 C2").has_value());
}

TEST(Hex, ParseBytesEmptyIsEmpty) {
  const auto bytes = parse_hex_bytes("");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(bytes->empty());
}

TEST(Hex, ParseU32) {
  EXPECT_EQ(parse_hex_u32("43A").value(), 0x43Au);
  EXPECT_EQ(parse_hex_u32("0x7FF").value(), 0x7FFu);
  EXPECT_EQ(parse_hex_u32("1FFFFFFF").value(), 0x1FFFFFFFu);
  EXPECT_FALSE(parse_hex_u32("123456789").has_value());  // > 8 digits
  EXPECT_FALSE(parse_hex_u32("").has_value());
  EXPECT_FALSE(parse_hex_u32("g1").has_value());
}

// --------------------------------------------------------------- stats ----

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10 + i * 0.1;
    whole.add(x);
    (i < 40 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats stats;
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 1u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> sample = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(sample, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Median, OddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(ConfidenceInterval95, MatchesStudentTSmallSample) {
  // {1..5}: mean 3, s = sqrt(2.5); t(4, .975) = 2.776 => half-width 1.9630.
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.add(x);
  const Interval ci = confidence_interval_95(stats);
  EXPECT_NEAR(ci.half_width(), 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_NEAR(ci.lo, 3.0 - 1.96297, 1e-4);
  EXPECT_NEAR(ci.hi, 3.0 + 1.96297, 1e-4);
}

TEST(ConfidenceInterval95, TwoSamplesUseWidestQuantile) {
  // n=2: dof 1, t = 12.706; s = |a-b|/sqrt(2).
  RunningStats stats;
  stats.add(0.0);
  stats.add(2.0);
  const Interval ci = confidence_interval_95(stats);
  EXPECT_NEAR(ci.half_width(), 12.706 * std::sqrt(2.0) / std::sqrt(2.0), 1e-9);
}

TEST(ConfidenceInterval95, DegeneratesBelowTwoSamples) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(confidence_interval_95(stats).width(), 0.0);
  stats.add(42.0);
  const Interval ci = confidence_interval_95(stats);
  EXPECT_DOUBLE_EQ(ci.lo, 42.0);
  EXPECT_DOUBLE_EQ(ci.hi, 42.0);
}

TEST(ConfidenceInterval95, LargeSampleApproachesNormal) {
  RunningStats stats;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) stats.add(rng.next_double());
  const Interval ci = confidence_interval_95(stats);
  const double expected =
      1.96 * stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
  EXPECT_NEAR(ci.half_width(), expected, 1e-9);
  EXPECT_LT(ci.lo, stats.mean());
  EXPECT_GT(ci.hi, stats.mean());
}

TEST(WilsonInterval95, MatchesHandComputedValues) {
  // 8/10: center (0.8 + z^2/20)/(1 + z^2/10), z = 1.959964.
  const Interval ci = wilson_interval_95(8, 10);
  EXPECT_NEAR(ci.lo, 0.4902, 5e-4);
  EXPECT_NEAR(ci.hi, 0.9433, 5e-4);
}

TEST(WilsonInterval95, StaysInsideUnitIntervalAtTheEdges) {
  // A Wald/Student-t interval collapses to zero width at p = 0 and p = 1;
  // Wilson keeps coverage (this is why detection rates use it).
  const Interval none = wilson_interval_95(0, 20);
  EXPECT_NEAR(none.lo, 0.0, 1e-12);
  EXPECT_GT(none.hi, 0.0);
  EXPECT_NEAR(none.hi, 0.1611, 5e-4);

  const Interval all = wilson_interval_95(20, 20);
  EXPECT_NEAR(all.lo, 0.8389, 5e-4);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
}

TEST(WilsonInterval95, WidthShrinksWithSampleSize) {
  const double w10 = wilson_interval_95(5, 10).width();
  const double w100 = wilson_interval_95(50, 100).width();
  const double w1000 = wilson_interval_95(500, 1000).width();
  EXPECT_GT(w10, w100);
  EXPECT_GT(w100, w1000);
  // Interval is symmetric around 0.5 for p = 0.5.
  const Interval half = wilson_interval_95(50, 100);
  EXPECT_NEAR(half.lo + half.hi, 1.0, 1e-12);
}

TEST(WilsonInterval95, DegenerateInputs) {
  // Zero trials: no information, the whole unit interval.
  const Interval empty = wilson_interval_95(0, 0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 1.0);
  // Successes clamp to trials (defensive against caller bugs).
  const Interval clamped = wilson_interval_95(5, 3);
  EXPECT_DOUBLE_EQ(clamped.hi, 1.0);
  EXPECT_GT(clamped.lo, 0.3);
}

// Property: merging accumulators over arbitrary partitions of a sample is
// equivalent to single-pass accumulation — the invariant the fleet
// aggregator's sharded reduction rests on.
TEST(RunningStats, MergeOverRandomSplitsMatchesSinglePass) {
  Rng rng(0xFEE7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.next_below(400));
    std::vector<double> sample(n);
    for (double& x : sample) x = (rng.next_double() - 0.5) * 1e4;

    RunningStats single;
    for (double x : sample) single.add(x);

    RunningStats merged;
    std::size_t i = 0;
    while (i < n) {
      const std::size_t chunk = 1 + static_cast<std::size_t>(rng.next_below(50));
      RunningStats shard;
      for (std::size_t j = i; j < std::min(n, i + chunk); ++j) shard.add(sample[j]);
      merged.merge(shard);
      i += chunk;
    }

    EXPECT_EQ(merged.count(), single.count());
    EXPECT_NEAR(merged.mean(), single.mean(), 1e-9 * (1.0 + std::abs(single.mean())));
    EXPECT_NEAR(merged.variance(), single.variance(), 1e-7 * (1.0 + single.variance()));
    EXPECT_DOUBLE_EQ(merged.min(), single.min());
    EXPECT_DOUBLE_EQ(merged.max(), single.max());
  }
}

TEST(ChiSquare, UniformCountsAccepted) {
  std::vector<std::uint64_t> counts(100, 1000);
  EXPECT_DOUBLE_EQ(chi_square_uniform(counts), 0.0);
  EXPECT_TRUE(chi_square_accepts_uniform(0.0, 99));
}

TEST(ChiSquare, SkewedCountsRejected) {
  std::vector<std::uint64_t> counts(100, 10);
  counts[0] = 100000;
  const double stat = chi_square_uniform(counts);
  EXPECT_FALSE(chi_square_accepts_uniform(stat, 99));
}

TEST(ChiSquare, EmptyAndZeroTotals) {
  EXPECT_DOUBLE_EQ(chi_square_uniform({}), 0.0);
  const std::vector<std::uint64_t> zeros(10, 0);
  EXPECT_DOUBLE_EQ(chi_square_uniform(zeros), 0.0);
}

// ---------------------------------------------------------- ring buffer ---

TEST(RingBuffer, FillsThenEvictsOldest) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  ring.push(1);
  ring.push(2);
  ring.push(3);
  EXPECT_TRUE(ring.full());
  ring.push(4);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.oldest(), 2);
  EXPECT_EQ(ring.newest(), 4);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{2, 3, 4}));
}

TEST(RingBuffer, AtIndexesFromOldest) {
  RingBuffer<int> ring(4);
  for (int i = 1; i <= 6; ++i) ring.push(i);
  EXPECT_EQ(ring.at(0), 3);
  EXPECT_EQ(ring.at(3), 6);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> ring(2);
  ring.push(1);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push(9);
  EXPECT_EQ(ring.newest(), 9);
}

TEST(RingBuffer, ZeroCapacityClampsToOne) {
  RingBuffer<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.newest(), 2);
  EXPECT_EQ(ring.size(), 1u);
}

}  // namespace
}  // namespace acf::util
