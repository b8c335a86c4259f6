#include <gtest/gtest.h>

#include <map>

#include "fuzzer/campaign.hpp"
#include "fuzzer/smart_generator.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::fuzzer {
namespace {

// ------------------------------------------------------------ boundary ----

TEST(BoundaryGenerator, BiasesTowardBoundaryValues) {
  BoundaryPlan plan;
  plan.boundary_bias = 0.8;
  BoundaryGenerator gen(FuzzConfig::full_random(), plan);
  std::map<std::uint8_t, int> histogram;
  int bytes_seen = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto frame = gen.next();
    for (std::uint8_t byte : frame->payload()) {
      ++histogram[byte];
      ++bytes_seen;
    }
  }
  int boundary_hits = 0;
  for (int b : {0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF}) {
    boundary_hits += histogram[static_cast<std::uint8_t>(b)];
  }
  // ~80 % boundary + uniform leakage; far above the uniform 6/256 = 2.3 %.
  EXPECT_GT(static_cast<double>(boundary_hits) / bytes_seen, 0.5);
}

TEST(BoundaryGenerator, DictionaryValuesAppear) {
  BoundaryPlan plan;
  plan.dictionary = {0x20, 0x10};  // the harvested lock/unlock command bytes
  BoundaryGenerator gen(FuzzConfig::full_random(), plan);
  int dictionary_hits = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto frame = gen.next();
    for (std::uint8_t byte : frame->payload()) {
      if (byte == 0x20 || byte == 0x10) ++dictionary_hits;
    }
  }
  EXPECT_GT(dictionary_hits, 500);
}

TEST(BoundaryGenerator, RespectsConfigSpace) {
  FuzzConfig config;
  config.id_set = {0x215};
  config.dlc_min = 2;
  config.dlc_max = 4;
  config.byte_ranges[0] = {0x10, 0x30};
  BoundaryGenerator gen(config, {});
  for (int i = 0; i < 2000; ++i) {
    const auto frame = gen.next();
    EXPECT_TRUE(config.contains(*frame)) << frame->to_string();
  }
}

TEST(BoundaryGenerator, DeterministicAndRewindable) {
  BoundaryGenerator a(FuzzConfig::full_random(), {});
  BoundaryGenerator b(FuzzConfig::full_random(), {});
  std::vector<can::CanFrame> first;
  for (int i = 0; i < 100; ++i) {
    const auto frame = *a.next();
    EXPECT_EQ(frame, *b.next());
    first.push_back(frame);
  }
  a.rewind();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(BoundaryGenerator, FindsUnlockFasterThanUniform) {
  // The harvested dictionary (command byte 0x20) turns the 1/256 byte-0
  // factor into ~1/10: boundary fuzzing reaches the unlock far sooner.
  auto time_to_unlock = [](FrameGenerator& gen) {
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench(scheduler);
    transport::VirtualBusTransport attacker(bench.bus(), "attacker");
    oracle::CompositeOracle oracles;
    oracles.add(std::make_unique<oracle::UnlockOracle>(bench.bus(), &bench.bcm()));
    CampaignConfig config;
    config.max_duration = std::chrono::hours(4);
    config.oracle_period = std::chrono::milliseconds(10);
    FuzzCampaign campaign(scheduler, attacker, gen, &oracles, config);
    const auto& result = campaign.run();
    return result.any_failure()
               ? sim::to_seconds(result.first_failure()->observation.time)
               : 1e18;
  };
  double uniform_total = 0.0;
  double boundary_total = 0.0;
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    RandomGenerator uniform(FuzzConfig::full_random(40 + trial));
    BoundaryPlan plan;
    plan.dictionary = {0x20, 0x10};
    plan.seed = 50 + trial;
    BoundaryGenerator boundary(FuzzConfig::full_random(), plan);
    uniform_total += time_to_unlock(uniform);
    boundary_total += time_to_unlock(boundary);
  }
  EXPECT_LT(boundary_total, uniform_total);
}

// ------------------------------------------------------------ feedback ----

TEST(FeedbackGenerator, RewardShiftsIdDistribution) {
  FuzzConfig config;
  config.id_min = 0;
  config.id_max = 63;
  FeedbackPlan plan;
  plan.explore_fraction = 0.1;
  FeedbackGenerator gen(config, plan);
  // Before reward: roughly uniform.
  std::map<std::uint32_t, int> before;
  for (int i = 0; i < 6400; ++i) ++before[gen.next()->id()];
  EXPECT_LT(before[0x20], 6400 / 64 * 4);

  for (int i = 0; i < 3; ++i) gen.reward(0x20);
  EXPECT_GT(gen.weight_of(0x20), 100.0);
  std::map<std::uint32_t, int> after;
  for (int i = 0; i < 6400; ++i) ++after[gen.next()->id()];
  // 512/(63+512) ≈ 89 % of exploit draws hit the hot id.
  EXPECT_GT(after[0x20], 3000);
  const auto hot = gen.hot_ids();
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0], 0x20u);
}

TEST(FeedbackGenerator, WeightClampAndOutOfSpaceRewardIgnored) {
  FuzzConfig config;
  config.id_min = 0x100;
  config.id_max = 0x10F;
  FeedbackPlan plan;
  FeedbackGenerator gen(config, plan);
  for (int i = 0; i < 100; ++i) gen.reward(0x100);
  EXPECT_DOUBLE_EQ(gen.weight_of(0x100), plan.max_weight);
  gen.reward(0x500);  // outside: no effect, no crash
  EXPECT_DOUBLE_EQ(gen.weight_of(0x500), 0.0);
}

TEST(FeedbackGenerator, RewindResetsWeights) {
  FeedbackGenerator gen(FuzzConfig::full_random(), {});
  gen.reward(0x215);
  EXPECT_GT(gen.weight_of(0x215), 1.0);
  gen.rewind();
  EXPECT_DOUBLE_EQ(gen.weight_of(0x215), 1.0);
  EXPECT_TRUE(gen.hot_ids().empty());
}

TEST(FeedbackGenerator, ConvergesOntoReactiveIdInClosedLoop) {
  // Closed loop: reward the ids in the finding window each time the
  // plausibility oracle fires; the generator should converge onto the
  // signal-carrying ids.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport port(bus, "fuzzer");

  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::SignalPlausibilityOracle>(
      bus, dbc::target_vehicle_database()));

  FeedbackGenerator gen(FuzzConfig::full_random(0xFB));
  CampaignConfig config;
  config.max_duration = std::chrono::seconds(120);
  config.stop_on_failure = false;
  config.oracle_period = std::chrono::milliseconds(2);
  FuzzCampaign campaign(scheduler, port, gen, &oracles, config);
  campaign.set_on_finding([&gen](const Finding& finding) {
    for (const auto& entry : finding.recent_frames) gen.reward(entry.frame.id());
  });
  campaign.run();

  const auto hot = gen.hot_ids(20);
  ASSERT_FALSE(hot.empty());
  // The hottest ids should include real signal-carrying message ids.
  const auto db_ids = dbc::target_vehicle_database().ids();
  int db_hits = 0;
  for (std::uint32_t id : hot) {
    if (std::find(db_ids.begin(), db_ids.end(), id) != db_ids.end()) ++db_hits;
  }
  EXPECT_GT(db_hits, 0);
}

}  // namespace
}  // namespace acf::fuzzer
