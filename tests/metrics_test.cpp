// util::metrics subsystem: instrument semantics, the CKMS ε-accuracy
// guarantee (the load-bearing claim behind constant-memory p99s), snapshot
// merging — including the `*_max` watermark convention — the acf-metrics-v1
// JSONL codec, and the end-to-end acceptance check that an IDS fleet's
// reported detection-latency quantiles sit within the CKMS rank-error bound
// of the exact sorted answer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/executor.hpp"
#include "fleet/trial_plan.hpp"
#include "fuzzer/config.hpp"
#include "ids/ids_world.hpp"
#include "metrics/ckms.hpp"
#include "metrics/metrics.hpp"
#include "metrics/snapshot.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::metrics {
namespace {

using namespace std::chrono_literals;

// --------------------------------------------------------- instruments -----

TEST(MetricsCounter, AddsAndBumpsMonotonically) {
  Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.bump_to(100);
  EXPECT_EQ(counter.value(), 100u);
  counter.bump_to(100);  // re-publishing the same total is a no-op
  counter.bump_to(7);    // and the CAS-max never goes backwards
  EXPECT_EQ(counter.value(), 100u);
}

TEST(MetricsGauge, TracksLevels) {
  Gauge gauge;
  gauge.set(5);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.set(-10);
  EXPECT_EQ(gauge.value(), -10);
}

TEST(MetricsMeter, RatesConvergeUnderASteadyClock) {
  Meter meter;
  meter.tick_to(0.0);
  // 10 events/s for 300 "seconds" of the caller's clock.
  for (int s = 1; s <= 300; ++s) {
    meter.mark(10);
    meter.tick_to(static_cast<double>(s));
  }
  EXPECT_EQ(meter.count(), 3000u);
  EXPECT_NEAR(meter.mean_rate(), 10.0, 0.1);
  EXPECT_NEAR(meter.rate1(), 10.0, 1.0);  // EWMA has had 5 time constants
  // The clock is monotonic per meter: a backwards tick is ignored.
  meter.tick_to(0.0);
  EXPECT_NEAR(meter.mean_rate(), 10.0, 0.1);
}

TEST(MetricsTimer, TracksCountSumMinMax) {
  Timer timer;
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_EQ(timer.min(), 0.0);
  EXPECT_EQ(timer.max(), 0.0);
  for (const double v : {3.0, 1.0, 2.0}) timer.record(v);
  EXPECT_EQ(timer.count(), 3u);
  EXPECT_DOUBLE_EQ(timer.sum(), 6.0);
  EXPECT_DOUBLE_EQ(timer.min(), 1.0);
  EXPECT_DOUBLE_EQ(timer.max(), 3.0);
  EXPECT_DOUBLE_EQ(timer.quantile(0.5), 2.0);
}

TEST(MetricsRegistry, HandsOutStableReferences) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("x").value(), 3u);
  EXPECT_NE(&registry.counter("x"), &registry.counter("y"));
}

// ------------------------------------------------------- CKMS accuracy -----

/// Exact-rank check of one reported quantile: within ±(εn + 1) ranks of the
/// sorted answer.  The +1 absorbs the floor/ceil ambiguity at tiny n, where
/// ±εn alone would demand sub-sample precision no summary can promise.
void expect_within_rank_error(const std::vector<double>& sorted, double reported,
                              double phi, double eps, const std::string& what) {
  const double n = static_cast<double>(sorted.size());
  const double below =
      static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(), reported) -
                          sorted.begin());
  const double at_or_below =
      static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), reported) -
                          sorted.begin());
  const double slack = eps * n + 1.0;
  EXPECT_LE(below, phi * n + slack) << what << ": reported " << reported
                                    << " sits too high (rank " << below << "/" << n << ")";
  EXPECT_GE(at_or_below, phi * n - slack)
      << what << ": reported " << reported << " sits too low (rank " << at_or_below << "/"
      << n << ")";
}

std::vector<double> make_stream(const std::string& shape, std::size_t n, util::Rng& rng) {
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (shape == "uniform") {
      values.push_back(rng.next_double());
    } else if (shape == "heavy-tail") {
      // Pareto-ish: the shape of time-to-unlock distributions this summary
      // actually digests (a few enormous outliers dominating the sum).
      values.push_back(std::pow(1.0 - rng.next_double(), -1.0 / 1.5));
    } else {
      values.push_back(42.0);  // constant: every quantile is the same sample
    }
  }
  return values;
}

TEST(MetricsCkms, QuantilesStayWithinEpsilonAcrossDistributions) {
  util::Rng rng(0xC0FFEEULL);
  for (const std::string shape : {"uniform", "heavy-tail", "constant"}) {
    for (const std::size_t n : {std::size_t{50}, std::size_t{2'000}, std::size_t{20'000}}) {
      std::vector<double> values = make_stream(shape, n, rng);
      CkmsQuantiles ckms;
      for (const double v : values) ckms.insert(v);
      std::sort(values.begin(), values.end());
      for (const CkmsTarget& target : ckms.targets()) {
        expect_within_rank_error(values, ckms.query(target.quantile), target.quantile,
                                 target.error,
                                 shape + " n=" + std::to_string(n) + " phi=" +
                                     std::to_string(target.quantile));
      }
      // Constant memory: the summary must not grow linearly with the stream.
      EXPECT_LT(ckms.sample_count(), std::size_t{4'000}) << shape << " n=" << n;
    }
  }
}

TEST(MetricsCkms, MergedSummariesKeepTheBoundOverTheCombinedStream) {
  util::Rng rng(0xACFULL);
  std::vector<double> all;
  std::vector<CkmsQuantiles> parts(3);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    // Disjoint shapes per source — the merge must not assume homogeneity.
    const std::vector<double> part =
        make_stream(p == 0 ? "uniform" : p == 1 ? "heavy-tail" : "constant", 4'000, rng);
    for (const double v : part) parts[p].insert(v);
    all.insert(all.end(), part.begin(), part.end());
  }
  CkmsQuantiles merged;
  for (CkmsQuantiles& part : parts) {
    const std::vector<CkmsQuantiles::Sample> samples = part.export_samples();
    merged.absorb(samples, part.count());
  }
  EXPECT_EQ(merged.count(), all.size());
  std::sort(all.begin(), all.end());
  for (const CkmsTarget& target : merged.targets()) {
    // Source error budgets are preserved through the weighted-sample
    // concatenation; allow 2ε for the cross-source compress.
    expect_within_rank_error(all, merged.query(target.quantile), target.quantile,
                             2.0 * target.error,
                             "merged phi=" + std::to_string(target.quantile));
  }
}

// ------------------------------------------------------------- merging -----

TEST(MetricsMerge, CountersSumAndWatermarksTakeTheMax) {
  Registry a, b;
  a.counter("fleet.trial.detected").add(3);
  b.counter("fleet.trial.detected").add(4);
  a.counter("sim.scheduler.heap_capacity_max").bump_to(256);
  b.counter("sim.scheduler.heap_capacity_max").bump_to(512);
  a.gauge("fleet.leases.outstanding").set(2);
  b.gauge("fleet.leases.outstanding").set(1);
  a.counter("only.in.a").add(7);

  Registry fleet;
  fleet.absorb(a.snapshot());
  fleet.absorb(b.snapshot());
  const RegistrySnapshot merged = fleet.snapshot();

  const auto counter_of = [&](const std::string& name) -> std::uint64_t {
    for (const CounterSnap& c : merged.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter_of("fleet.trial.detected"), 7u);
  // A fleet-wide watermark is the largest single process's, not the sum —
  // two workers peaking at 256 and 512 never held 768 slots anywhere.
  EXPECT_EQ(counter_of("sim.scheduler.heap_capacity_max"), 512u);
  EXPECT_EQ(counter_of("only.in.a"), 7u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].value, 3);
  // Sorted by name within each family (the JSONL canonical order).
  EXPECT_TRUE(std::is_sorted(merged.counters.begin(), merged.counters.end(),
                             [](const auto& x, const auto& y) { return x.name < y.name; }));
}

TEST(MetricsMerge, AbsorbFoldsASnapshotIntoALiveRegistry) {
  Registry worker;
  worker.counter("fleet.trial.completed").add(5);
  worker.counter("sim.scheduler.slab_capacity_max").bump_to(256);
  for (const double v : {0.1, 0.2, 0.3}) worker.timer("fleet.trial.sim_seconds").record(v);

  Registry merged;
  merged.counter("fleet.trial.completed").add(2);
  merged.counter("sim.scheduler.slab_capacity_max").bump_to(512);
  merged.timer("fleet.trial.sim_seconds").record(0.4);
  merged.absorb(worker.snapshot());

  EXPECT_EQ(merged.counter("fleet.trial.completed").value(), 7u);
  EXPECT_EQ(merged.counter("sim.scheduler.slab_capacity_max").value(), 512u);
  Timer& timer = merged.timer("fleet.trial.sim_seconds");
  EXPECT_EQ(timer.count(), 4u);
  EXPECT_NEAR(timer.sum(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(timer.min(), 0.1);
  EXPECT_DOUBLE_EQ(timer.max(), 0.4);
}

TEST(MetricsMerge, TimerMergePreservesCountSumMinMax) {
  Registry a, b;
  for (int i = 1; i <= 100; ++i) a.timer("t").record(i);
  for (int i = 101; i <= 200; ++i) b.timer("t").record(i);
  Registry fleet;
  fleet.absorb(a.snapshot());
  fleet.absorb(b.snapshot());
  const RegistrySnapshot merged = fleet.snapshot();
  ASSERT_EQ(merged.timers.size(), 1u);
  const TimerSnap& t = merged.timers[0];
  EXPECT_EQ(t.count, 200u);
  EXPECT_NEAR(t.sum, 20'100.0, 1e-9);
  EXPECT_DOUBLE_EQ(t.min, 1.0);
  EXPECT_DOUBLE_EQ(t.max, 200.0);
  // Median of 1..200 within the p50 rank budget (ε=0.01 → ±3 ranks at n=200).
  EXPECT_NEAR(t.p50, 100.0, 4.0);
}

// ------------------------------------------------------ snapshot codec -----

SnapshotLine sample_line() {
  Registry registry;
  registry.counter("fleet.trial.completed").add(24);
  registry.counter("sim.scheduler.heap_capacity_max").bump_to(256);
  registry.gauge("fleet.leases.outstanding").set(-2);
  Meter& meter = registry.meter("fleet.progress.trials");
  meter.tick_to(0.0);
  meter.mark(24);
  meter.tick_to(16.0);
  for (int i = 0; i < 32; ++i) registry.timer("ids.latency.timing").record(0.001 * i);
  SnapshotLine line;
  line.seq = 3;
  line.source = "coordinator";
  line.sim_seconds = 120.5;
  line.registry = registry.snapshot();
  for (TimerSnap& timer : line.registry.timers) timer.samples.clear();
  return line;
}

TEST(MetricsSnapshot, EncodeParseIsAFixedPoint) {
  const SnapshotLine line = sample_line();
  const std::string text = encode_snapshot_line(line);
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find("\"schema\":\"acf-metrics-v1\""), std::string::npos);

  const std::optional<SnapshotLine> parsed = parse_snapshot_line(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, 3u);
  EXPECT_EQ(parsed->source, "coordinator");
  EXPECT_DOUBLE_EQ(parsed->sim_seconds, 120.5);
  ASSERT_EQ(parsed->registry.counters.size(), 2u);
  EXPECT_EQ(parsed->registry.counters[0].value, 24u);
  EXPECT_EQ(encode_snapshot_line(*parsed), text);  // fixed point
}

TEST(MetricsSnapshot, StrictParserRejectsHostileLines) {
  const std::string good = encode_snapshot_line(sample_line());
  ASSERT_TRUE(parse_snapshot_line(good).has_value());

  EXPECT_FALSE(parse_snapshot_line("").has_value());
  EXPECT_FALSE(parse_snapshot_line("{}").has_value());
  EXPECT_FALSE(parse_snapshot_line(good + "garbage").has_value());
  EXPECT_FALSE(parse_snapshot_line(good.substr(0, good.size() / 2)).has_value());

  std::string wrong_schema = good;
  wrong_schema.replace(wrong_schema.find("acf-metrics-v1"), 14, "acf-metrics-v2");
  EXPECT_FALSE(parse_snapshot_line(wrong_schema).has_value());

  std::string non_finite = good;
  non_finite.replace(non_finite.find("120.5"), 5, "1e999");
  EXPECT_FALSE(parse_snapshot_line(non_finite).has_value());
}

TEST(MetricsSnapshot, WriterStampsMonotonicSequenceNumbers) {
  Registry registry;
  registry.counter("n").add(1);
  std::ostringstream out;
  SnapshotWriter writer(out, "local");
  writer.write(registry.snapshot(), 1.0);
  registry.counter("n").add(1);
  writer.write(registry.snapshot(), 2.0);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t expected_seq = 1;
  while (std::getline(lines, line)) {
    const std::optional<SnapshotLine> parsed = parse_snapshot_line(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->seq, expected_seq);
    EXPECT_EQ(parsed->source, "local");
    EXPECT_EQ(parsed->registry.counters[0].value, expected_seq);
    ++expected_seq;
  }
  EXPECT_EQ(expected_seq, 3u);
}

TEST(MetricsSnapshot, RenderTableShowsEveryInstrumentFamily) {
  const std::string table = render_table(sample_line().registry);
  EXPECT_NE(table.find("fleet.trial.completed"), std::string::npos);
  EXPECT_NE(table.find("fleet.leases.outstanding"), std::string::npos);
  EXPECT_NE(table.find("fleet.progress.trials"), std::string::npos);
  EXPECT_NE(table.find("ids.latency.timing"), std::string::npos);
}

// --------------------------------------------- in-place stats satellite -----

TEST(MetricsStats, InPlacePercentileMatchesTheCopyingVersion) {
  util::Rng rng(0x57A75ULL);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                              std::size_t{1'000}}) {
    std::vector<double> sample;
    sample.reserve(n);
    for (std::size_t i = 0; i < n; ++i) sample.push_back(rng.next_double() * 1e4);
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const double expected = util::percentile(sample, p);
      std::vector<double> scratch = sample;  // the in-place variant reorders
      EXPECT_DOUBLE_EQ(util::percentile_in_place(scratch, p), expected)
          << "n=" << n << " p=" << p;
    }
    std::vector<double> scratch = sample;
    EXPECT_DOUBLE_EQ(util::median_in_place(scratch), util::median(sample)) << "n=" << n;
  }
}

// ------------------------------------------- fleet latency acceptance -----

/// The ISSUE acceptance check: after an IDS fleet campaign, the registry's
/// `ids.latency.<detector>` p99 must sit within the CKMS rank-error bound of
/// the exact sorted per-trial detection latencies held by the EvalSink.
TEST(MetricsAcceptance, ReportedDetectionLatencyQuantilesMatchExactSortWithinEpsilon) {
  fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
  fast.tx_period = std::chrono::microseconds(250);
  ids::IdsArm arm;
  arm.fuzz = fast;
  arm.train_window = 5s;
  const fleet::TrialPlan plan({"weak"}, 6, 0xACF17EE7ULL, std::chrono::minutes(5));

  Registry registry;
  ids::EvalSink sink = ids::make_eval_sink(plan);
  fleet::ExecutorConfig config;
  config.threads = 2;
  config.registry = &registry;
  fleet::Executor executor(config);
  executor.run(plan, ids::ids_unlock_world_factory({arm}, sink, &registry));

  // Exact per-detector latency lists straight from the evaluation slots.
  std::map<std::string, std::vector<double>> exact;
  for (const ids::TrialEval& eval : *sink) {
    for (const ids::DetectorEval& det : eval.detectors) {
      if (det.detection_latency >= 0.0) exact[det.name].push_back(det.detection_latency);
    }
  }
  ASSERT_FALSE(exact.empty()) << "no detector ever fired — the fixture is broken";

  std::size_t checked = 0;
  for (auto& [name, latencies] : exact) {
    std::sort(latencies.begin(), latencies.end());
    Timer& timer = registry.timer("ids.latency." + name);
    ASSERT_EQ(timer.count(), latencies.size()) << name;
    for (const CkmsTarget& target :
         {CkmsTarget{0.5, 0.010}, CkmsTarget{0.99, 0.001}}) {
      expect_within_rank_error(latencies, timer.quantile(target.quantile),
                               target.quantile, target.error,
                               "ids.latency." + name);
      ++checked;
    }
    // And min/max are exact, not estimates.
    EXPECT_DOUBLE_EQ(timer.min(), latencies.front()) << name;
    EXPECT_DOUBLE_EQ(timer.max(), latencies.back()) << name;
  }
  EXPECT_GE(checked, 2u);
}

}  // namespace
}  // namespace acf::metrics
