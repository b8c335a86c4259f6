#include <gtest/gtest.h>

#include <set>

#include "analysis/byte_stats.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "fuzzer/mutator.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::fuzzer {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------- config -----

TEST(FuzzConfig, PaperCombinatorics) {
  // §V: "A standard CAN packet with a 11-bit id and a one byte payload has
  // half a million packet combinations (2^19)."
  FuzzConfig one_byte;
  one_byte.dlc_min = 1;
  one_byte.dlc_max = 1;
  EXPECT_EQ(one_byte.frame_space(), 1ULL << 19);
  // "At a 1ms transmission frequency ... over eight minutes."
  const double minutes = sim::to_seconds(one_byte.exhaust_time()) / 60.0;
  EXPECT_NEAR(minutes, 8.7, 0.1);
  // "Add another data byte and all combinations transmit over 1.5 days."
  FuzzConfig two_bytes;
  two_bytes.dlc_min = 2;
  two_bytes.dlc_max = 2;
  EXPECT_EQ(two_bytes.frame_space(), 2048ULL * 65536);
  EXPECT_NEAR(sim::to_seconds(two_bytes.exhaust_time()) / 86400.0, 1.55, 0.05);
}

TEST(FuzzConfig, FullSpaceSaturates) {
  const FuzzConfig full = FuzzConfig::full_random();
  EXPECT_EQ(full.id_space(), 2048u);
  EXPECT_EQ(full.frame_space(), std::numeric_limits<std::uint64_t>::max());
}

TEST(FuzzConfig, TargetedIdSet) {
  const FuzzConfig targeted = FuzzConfig::targeted({0x215, 0x216, 0x217});
  EXPECT_EQ(targeted.id_space(), 3u);
  EXPECT_TRUE(targeted.contains(can::CanFrame::data_std(0x215, {1})));
  EXPECT_FALSE(targeted.contains(can::CanFrame::data_std(0x218, {1})));
}

TEST(FuzzConfig, AroundIdClampsToStandardRange) {
  const FuzzConfig low = FuzzConfig::around_id(0x002, 8);
  EXPECT_EQ(low.id_min, 0u);
  EXPECT_EQ(low.id_max, 0x00Au);
  const FuzzConfig high = FuzzConfig::around_id(0x7FE, 8);
  EXPECT_EQ(high.id_max, can::kMaxStandardId);
}

TEST(FuzzConfig, ContainsChecksEveryDimension) {
  FuzzConfig config;
  config.id_min = 0x100;
  config.id_max = 0x1FF;
  config.dlc_min = 2;
  config.dlc_max = 4;
  config.byte_ranges[0] = {0x10, 0x20};
  EXPECT_TRUE(config.contains(can::CanFrame::data_std(0x150, {0x15, 0x00})));
  EXPECT_FALSE(config.contains(can::CanFrame::data_std(0x099, {0x15, 0x00})));  // id
  EXPECT_FALSE(config.contains(can::CanFrame::data_std(0x150, {0x15})));        // dlc
  EXPECT_FALSE(config.contains(can::CanFrame::data_std(0x150, {0x30, 0x00})));  // byte 0
}

TEST(FuzzConfig, DescribeMentionsKeyKnobs) {
  FuzzConfig config = FuzzConfig::targeted({1, 2});
  const std::string text = config.describe();
  EXPECT_NE(text.find("2 explicit ids"), std::string::npos);
  EXPECT_NE(text.find("1 ms"), std::string::npos);
}

// ------------------------------------------------------------ random ------

TEST(RandomGenerator, DeterministicInSeed) {
  const FuzzConfig config = FuzzConfig::full_random(1234);
  RandomGenerator a(config);
  RandomGenerator b(config);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(*a.next(), *b.next()) << i;
}

TEST(RandomGenerator, RewindRestartsStream) {
  RandomGenerator gen(FuzzConfig::full_random(9));
  std::vector<can::CanFrame> first;
  for (int i = 0; i < 50; ++i) first.push_back(*gen.next());
  gen.rewind();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(*gen.next(), first[static_cast<std::size_t>(i)]);
}

TEST(RandomGenerator, EveryFrameInsideConfigSpace) {
  FuzzConfig config;
  config.id_set = {0x100, 0x215};
  config.dlc_min = 1;
  config.dlc_max = 4;
  config.byte_ranges[0] = {0x40, 0x4F};
  config.seed = 31;
  RandomGenerator gen(config);
  for (int i = 0; i < 2000; ++i) {
    const auto frame = gen.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(config.contains(*frame)) << frame->to_string();
  }
  EXPECT_EQ(gen.generated(), 2000u);
}

TEST(RandomGenerator, ByteValuesUniformMeanNear127) {
  // The Fig. 5 property: uniform generation has a flat per-position mean of
  // ~127.5 (the paper quotes "overall mean value of 127").
  RandomGenerator gen(FuzzConfig::full_random(0xF165));
  analysis::BytePositionStats stats;
  for (int i = 0; i < 66144; ++i) stats.add(*gen.next());
  EXPECT_NEAR(stats.overall_mean(), 127.5, 1.0);
  // Byte position 7 only appears in dlc==8 frames (~7.3k samples), so its
  // mean has stderr ~0.9; 3.5 is ~4 sigma across the eight positions.
  EXPECT_LT(stats.flatness(), 3.5);
}

TEST(RandomGenerator, IdsCoverTheSpace) {
  FuzzConfig config;
  config.id_min = 0;
  config.id_max = 15;
  RandomGenerator gen(config);
  std::set<std::uint32_t> ids;
  for (int i = 0; i < 2000; ++i) ids.insert(gen.next()->id());
  EXPECT_EQ(ids.size(), 16u);
}

TEST(RandomGenerator, FrameAtReplaysExactIndex) {
  const FuzzConfig config = FuzzConfig::full_random(555);
  RandomGenerator gen(config);
  std::vector<can::CanFrame> stream;
  for (int i = 0; i < 100; ++i) stream.push_back(*gen.next());
  EXPECT_EQ(RandomGenerator::frame_at(config, 0), stream[0]);
  EXPECT_EQ(RandomGenerator::frame_at(config, 42), stream[42]);
  EXPECT_EQ(RandomGenerator::frame_at(config, 99), stream[99]);
}

TEST(RandomGenerator, FdModeProducesValidFdFrames) {
  FuzzConfig config;
  config.fd_mode = true;
  config.dlc_min = 0;
  config.dlc_max = 15;
  RandomGenerator gen(config);
  bool saw_long_payload = false;
  for (int i = 0; i < 500; ++i) {
    const auto frame = gen.next();
    ASSERT_TRUE(frame->is_fd());
    EXPECT_TRUE(can::is_valid_fd_length(frame->length()));
    if (frame->length() > 8) saw_long_payload = true;
  }
  EXPECT_TRUE(saw_long_payload);
}

// ----------------------------------------------------------- mutation -----

TEST(MutationGenerator, StaysNearCorpus) {
  std::vector<can::CanFrame> corpus = {can::CanFrame::data_std(0x215, {0x10, 0x5F, 1, 0, 0, 1, 0x20})};
  MutationPlan plan;
  plan.min_mutations = 1;
  plan.max_mutations = 1;
  plan.id_radius = 4;
  MutationGenerator gen(corpus, plan);
  for (int i = 0; i < 1000; ++i) {
    const auto frame = gen.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_GE(frame->id() + 4, 0x215u);
    EXPECT_LE(frame->id(), 0x215u + 4);
  }
}

TEST(MutationGenerator, DeterministicAndRewindable) {
  std::vector<can::CanFrame> corpus = {can::CanFrame::data_std(0x100, {1, 2, 3, 4})};
  MutationGenerator a(corpus);
  MutationGenerator b(corpus);
  std::vector<can::CanFrame> first;
  for (int i = 0; i < 100; ++i) {
    const auto frame = *a.next();
    EXPECT_EQ(frame, *b.next());
    first.push_back(frame);
  }
  a.rewind();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(MutationGenerator, EmptyCorpusSafe) {
  MutationGenerator gen({});
  EXPECT_TRUE(gen.next().has_value());
}

TEST(Mutations, OperatorsPreserveFrameValidity) {
  util::Rng rng(8);
  const auto base = can::CanFrame::data_std(0x3AB, {9, 8, 7});
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(mutations::flip_random_bit(base, rng).id(), can::kMaxStandardId);
    EXPECT_LE(mutations::jitter_id(base, rng, 100).id(), can::kMaxStandardId);
    EXPECT_LE(mutations::resize_payload(base, rng).length(), can::kMaxClassicPayload);
    const auto randomized = mutations::randomize_byte(base, rng);
    EXPECT_EQ(randomized.length(), base.length());
  }
}

TEST(Mutations, EmptyPayloadHandled) {
  util::Rng rng(8);
  const auto empty = can::CanFrame::data_std(0x1, {});
  EXPECT_EQ(mutations::flip_random_bit(empty, rng), empty);
  EXPECT_EQ(mutations::randomize_byte(empty, rng), empty);
}

// ----------------------------------------------------------- campaign -----

class CampaignTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport port{bus, "fuzzer"};
};

TEST_F(CampaignTest, StopsAtDurationLimit) {
  RandomGenerator gen(FuzzConfig::full_random(1));
  CampaignConfig config;
  config.max_duration = std::chrono::seconds(2);
  FuzzCampaign campaign(scheduler, port, gen, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, StopReason::kDurationElapsed);
  // One frame per millisecond for two seconds.
  EXPECT_NEAR(static_cast<double>(result.frames_sent), 2000.0, 5.0);
  EXPECT_TRUE(campaign.finished());
}

TEST_F(CampaignTest, StopsAtFrameLimit) {
  RandomGenerator gen(FuzzConfig::full_random(2));
  CampaignConfig config;
  config.max_frames = 100;
  FuzzCampaign campaign(scheduler, port, gen, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, StopReason::kFrameLimit);
  EXPECT_EQ(result.frames_sent, 100u);
}

/// Yields one empty frame on id 0x10, then reports exhaustion.
class OneFrameGenerator final : public FrameGenerator {
 public:
  std::string_view name() const override { return "one-frame"; }
  std::optional<can::CanFrame> next() override {
    if (generated_ > 0) return std::nullopt;
    ++generated_;
    return can::CanFrame::data_std(0x10, {});
  }
  void rewind() override { generated_ = 0; }
};

TEST_F(CampaignTest, StopsWhenGeneratorExhausted) {
  OneFrameGenerator gen;
  FuzzCampaign campaign(scheduler, port, gen, nullptr, CampaignConfig{});
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, StopReason::kGeneratorExhausted);
  EXPECT_EQ(result.frames_sent, 1u);
}

TEST_F(CampaignTest, UserStop) {
  RandomGenerator gen(FuzzConfig::full_random(3));
  FuzzCampaign campaign(scheduler, port, gen, nullptr, CampaignConfig{});
  campaign.start();
  scheduler.run_for(std::chrono::milliseconds(50));
  campaign.stop();
  EXPECT_EQ(campaign.result().reason, StopReason::kStoppedByUser);
  const auto sent = campaign.result().frames_sent;
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_EQ(campaign.result().frames_sent, sent);  // tx really stopped
}

TEST_F(CampaignTest, RespectsTxPeriod) {
  RandomGenerator gen(FuzzConfig::full_random(4));
  CampaignConfig config;
  config.tx_period = std::chrono::milliseconds(10);
  config.max_duration = std::chrono::seconds(1);
  FuzzCampaign campaign(scheduler, port, gen, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_NEAR(static_cast<double>(result.frames_sent), 100.0, 2.0);
}

TEST_F(CampaignTest, StopsOnOracleFailure) {
  vehicle::BodyControlModule bcm(scheduler, bus,
                                 vehicle::UnlockPredicate::single_id_and_byte());
  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::UnlockOracle>(bus, &bcm));

  // Target exactly the command id so the hit lands fast.
  FuzzConfig fuzz_config = FuzzConfig::targeted({dbc::kMsgBodyCommand}, 77);
  RandomGenerator gen(fuzz_config);
  CampaignConfig config;
  config.max_duration = std::chrono::hours(2);
  config.oracle_period = std::chrono::milliseconds(1);
  FuzzCampaign campaign(scheduler, port, gen, &oracles, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, StopReason::kFailureDetected);
  ASSERT_TRUE(result.any_failure());
  const Finding* failure = result.first_failure();
  EXPECT_EQ(failure->observation.verdict, oracle::Verdict::kFailure);
  EXPECT_FALSE(failure->recent_frames.empty());
  EXPECT_EQ(failure->generator, "random");
  // The unlock frame is inside the recorded window.
  bool unlock_in_window = false;
  for (const auto& entry : failure->recent_frames) {
    if (entry.frame.id() == dbc::kMsgBodyCommand && entry.frame.length() >= 1 &&
        entry.frame.payload()[0] == dbc::kCmdUnlock) {
      unlock_in_window = true;
    }
  }
  EXPECT_TRUE(unlock_in_window);
  EXPECT_TRUE(bcm.unlocked());
}

TEST_F(CampaignTest, ContinuesPastFailureWhenConfigured) {
  vehicle::BodyControlModule bcm(scheduler, bus,
                                 vehicle::UnlockPredicate::single_id_and_byte());
  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::UnlockOracle>(bus, &bcm));
  RandomGenerator gen(FuzzConfig::targeted({dbc::kMsgBodyCommand}, 78));
  CampaignConfig config;
  config.max_duration = std::chrono::seconds(30);
  config.stop_on_failure = false;
  FuzzCampaign campaign(scheduler, port, gen, &oracles, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, StopReason::kDurationElapsed);
}

TEST_F(CampaignTest, FindingCallbackInvoked) {
  vehicle::BodyControlModule bcm(scheduler, bus,
                                 vehicle::UnlockPredicate::single_id_and_byte());
  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::UnlockOracle>(bus, &bcm));
  RandomGenerator gen(FuzzConfig::targeted({dbc::kMsgBodyCommand}, 79));
  CampaignConfig config;
  config.max_duration = std::chrono::hours(1);
  FuzzCampaign campaign(scheduler, port, gen, &oracles, config);
  int callbacks = 0;
  campaign.set_on_finding([&](const Finding& finding) {
    ++callbacks;
    EXPECT_FALSE(finding.summary().empty());
  });
  campaign.run();
  EXPECT_GE(callbacks, 1);
}

TEST_F(CampaignTest, SendFailuresCounted) {
  // A listen-only endpoint cannot transmit; every send fails.
  transport::VirtualBusTransport tap(bus, "tap", {}, /*listen_only=*/true);
  RandomGenerator gen(FuzzConfig::full_random(5));
  CampaignConfig config;
  config.max_duration = std::chrono::milliseconds(100);
  FuzzCampaign campaign(scheduler, tap, gen, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.frames_sent, 0u);
  EXPECT_NEAR(static_cast<double>(result.send_failures), 100.0, 2.0);
}

/// In-memory transport that fails its next `fail_next` sends.
class ScriptedTransport final : public transport::CanTransport {
 public:
  bool send(const can::CanFrame&) override {
    if (fail_next == 0) return true;
    --fail_next;
    return false;
  }
  void set_rx_callback(transport::RxCallback) override {}
  std::string name() const override { return "scripted"; }
  const transport::TransportStats& stats() const override { return stats_; }

  int fail_next = 0;  // fail this many upcoming sends

 private:
  transport::TransportStats stats_;
};

TEST(CampaignResilienceTest, TransientFailuresDoNotKillTheCampaign) {
  sim::Scheduler scheduler;
  ScriptedTransport transport;
  transport.fail_next = 3;  // a burst of failures, then healthy again
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(7));
  fuzzer::CampaignConfig config;
  config.tx_period = 1ms;
  config.max_duration = 1s;
  config.max_frames = 20;
  fuzzer::FuzzCampaign campaign(scheduler, transport, generator, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, fuzzer::StopReason::kFrameLimit);
  EXPECT_EQ(result.send_failures, 3u);
  EXPECT_EQ(result.frames_sent, 20u);
}

TEST(Finding, SummaryIsInformative) {
  Finding finding;
  finding.observation = {oracle::Verdict::kFailure, "unlock activated",
                         std::chrono::milliseconds(431'000)};
  finding.frames_sent = 431'000;
  finding.recent_frames.push_back({can::CanFrame::data_std(0x215, {0x20}), {}});
  const std::string summary = finding.summary();
  EXPECT_NE(summary.find("failure"), std::string::npos);
  EXPECT_NE(summary.find("431000"), std::string::npos);
  EXPECT_NE(summary.find("215#20"), std::string::npos);
}

}  // namespace
}  // namespace acf::fuzzer
